"""The packed threshold scan of `brute.min_max_violation_over_trees`
against the per-tree violation scan it replaced
(`brute_mcst._scaled_violations`, one max over the rows per tree).

Both must give the same minimum, as a `Rat`, and the same smallest tree
mask at it, in both enumeration orders: on K_7, whose 16,807 trees fill
more than one chunk, on fixed cases at the edges of the packing proof,
and on random multigraphs scanned with chunks of a few trees.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from brute_mcst import _scaled_violations
from test_oracle_scans import tree_cases
from crossopt import brute
from crossopt.brute import (
    SCAN_CHUNK,
    enumerate_spanning_trees,
    min_max_violation_over_trees,
)
from crossopt.graphs import Graph, mask_of
from crossopt.rational import Rat

K7 = Graph.from_pairs(7, combinations(range(7), 2))


def per_tree_minimum(graph, bounds, reverse):
    """(min over trees of the worst violation, smallest tree at it), one
    tree at a time."""
    trees = enumerate_spanning_trees(graph, reverse=reverse)
    d, viols = _scaled_violations(graph, trees, bounds)
    best = min(viols)
    return Rat(best, d), min(t for t, v in zip(trees, viols) if v == best)


def assert_scans_agree(graph, bounds):
    for reverse in (False, True):
        got = min_max_violation_over_trees(graph, bounds, reverse=reverse)
        want = per_tree_minimum(graph, bounds, reverse)
        assert got == want, (reverse, got, want)
        assert type(got[0]) is Rat


def random_bound(rng):
    """A small integer, a fraction or a huge rational, negative too."""
    kind = rng.randrange(3)
    if kind == 0:
        return Rat(rng.randint(-2, 6))
    if kind == 1:
        return Rat(rng.randint(-3 * 12, 7 * 12), rng.randint(1, 12))
    return Rat(rng.randint(-(10**30), 10**31), rng.randint(1, 10**30))


@pytest.mark.parametrize("seed", range(4))
def test_k7_random_bounds_match_per_tree_scan(seed):
    rng = random.Random(seed)
    full = K7.all_edges_mask
    bounds = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.5:  # a cut, as the gap and corpus bounds are
            emask = K7.delta_mask(rng.randrange(1, 127))
        else:
            emask = rng.randrange(full + 1)
        bounds.append((emask, random_bound(rng)))
    assert_scans_agree(K7, bounds)


def star(v):
    return K7.delta_mask(1 << v)


FIXED = {
    # every tree violates the first row by at least 2 (count >= 0 > -2)
    "negative-bound-below-every-count": [(star(0), Rat(-2)), (star(1), Rat(1))],
    # rows that no tree can violate, next to one that some tree does
    "bound-at-row-size": [
        (star(2), Rat(6)),
        (K7.all_edges_mask, Rat(21)),
        (star(3), Rat(1, 2)),
    ],
    "bound-above-row-size": [(star(2), Rat(10**31)), (star(4), Rat(7, 3))],
    # the minimum is 0: the best trees' loads equal the bounds exactly
    "threshold-at-row-load": [(star(5), Rat(1)), (K7.delta_mask(0b11), Rat(2))],
    # trees with v0 and v1 on one side of a single edge tie at 0 in two
    # chunks of the forward order, and in four of the reverse order
    "minima-tied-across-chunks": [(K7.delta_mask(0b11), Rat(1))],
    # the first chunk of the forward order holds only trees with edge 0,
    # which violate by 1; the minimum 0 first shows in the second chunk,
    # at trees whose masks are all larger than the first chunk's best
    "minimum-falls-in-a-later-chunk": [(1, Rat(0))],
}


@pytest.mark.parametrize("case", sorted(FIXED))
def test_fixed_cases_match_per_tree_scan(case):
    assert_scans_agree(K7, FIXED[case])


def test_fixed_cases_are_what_they_claim():
    """The conditions the fixed cases are named for hold in the per-tree
    scan, so a change to the enumeration cannot quietly void them."""
    trees = enumerate_spanning_trees(K7)
    assert len(trees) == 7**5 > SCAN_CHUNK
    chunks = [trees[i : i + SCAN_CHUNK] for i in range(0, len(trees), SCAN_CHUNK)]

    def minima(case):
        d, viols = _scaled_violations(K7, trees, FIXED[case])
        best = min(viols)
        at_best = [t for t, v in zip(trees, viols) if v == best]
        return Rat(best, d), at_best

    value, _ = minima("negative-bound-below-every-count")
    assert value >= 2
    value, _ = minima("threshold-at-row-load")
    assert value == 0
    _, at_best = minima("minima-tied-across-chunks")
    assert sum(not set(chunk).isdisjoint(at_best) for chunk in chunks) == 2
    value, at_best = minima("minimum-falls-in-a-later-chunk")
    assert value == 0 and all(t & 1 for t in chunks[0])
    assert min(at_best) > min(chunks[0])


@settings(max_examples=100, deadline=None)
@given(tree_cases())
def test_small_chunks_match_per_tree_scan(case):
    """Chunks of one to three trees: every merge and fall between chunks
    is exercised on random multigraphs and bounds."""
    graph, bounds = case
    if not enumerate_spanning_trees(graph):
        assert min_max_violation_over_trees(graph, bounds) == (None, None)
        return
    for chunk in (1, 2, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(brute, "SCAN_CHUNK", chunk)
            assert_scans_agree(graph, bounds)


def test_no_bounds_and_no_trees():
    assert min_max_violation_over_trees(K7, []) == (Rat(0), mask_of(range(6)))
    two_parts = Graph.from_pairs(4, [(0, 1), (2, 3)])
    assert min_max_violation_over_trees(two_parts, [(0b11, Rat(1))]) == (None, None)
