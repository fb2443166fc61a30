"""The block fold of `brute.min_max_violation_over_trees` against the
per-tree violation scan (`brute_mcst._scaled_violations`, one max over
the rows per tree).

Both must give the same minimum, as a `Rat`, and the same smallest tree
mask at it, in both enumeration orders: on K_7, one block of 16,807
trees, with huge rational bounds; on graphs of several blocks whose
trees tie on their row counts inside a block and across blocks; on
graphs of bridges only, of one vertex, with no bounds and with no
spanning tree; and on random multigraphs.  The size checks of the block
enumeration must still fire, as internal check failures, when the
decomposition loses a tree or a block.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_mcst import _scaled_violations
from test_block_trees import graphs
from test_oracle_scans import bounds_strategy, tree_cases
from crossopt import brute
from crossopt.brute import (
    block_spanning_trees,
    enumerate_spanning_trees,
    min_max_violation_over_trees,
)
from crossopt.errors import InternalCheckError
from crossopt.generators import gadget_graph, gadget_u_edges, gadget_w_edges
from crossopt.graphs import Graph, mask_of
from crossopt.rational import Rat

K7 = Graph.from_pairs(7, combinations(range(7), 2))


def per_tree_minimum(graph, bounds, reverse):
    """(min over trees of the worst violation, smallest tree at it), one
    tree at a time; (None, None) with no tree."""
    trees = enumerate_spanning_trees(graph, reverse=reverse)
    if not trees:
        return None, None
    d, viols = _scaled_violations(graph, trees, bounds)
    best = min(viols)
    return Rat(best, d), min(t for t, v in zip(trees, viols) if v == best)


def assert_scans_agree(graph, bounds):
    for reverse in (False, True):
        got = min_max_violation_over_trees(graph, bounds, reverse=reverse)
        want = per_tree_minimum(graph, bounds, reverse)
        assert got == want, (reverse, got, want)
        assert type(got[0]) is type(want[0])


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


# two triangles at vertex 0 (edges 0-2 and 3-5) and a bridge 4-5 (edge 6)
BOWTIE = Graph.from_pairs(
    6, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (4, 5)]
)
GADGETS = gadget_graph(2)
BOTH_U = gadget_u_edges(0) | gadget_u_edges(1)
BOTH_W = gadget_w_edges(0) | gadget_w_edges(1)
# a tree, every edge a bridge
BRIDGES = Graph.from_pairs(6, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)])
TEN_30 = 10**30

FIXED = {
    # every tree violates the first row by at least 2 (count >= 0 > -2)
    "negative-bound-below-every-count": (K7, [(star(0), Rat(-2)), (star(1), Rat(1))]),
    # rows that no tree can violate, next to one that some tree does
    "bound-at-row-size": (
        K7,
        [(star(2), Rat(6)), (K7.all_edges_mask, Rat(21)), (star(3), Rat(1, 2))],
    ),
    "bound-above-row-size": (K7, [(star(2), Rat(10**31)), (star(4), Rat(7, 3))]),
    # the minimum is 0: the best trees' loads equal the bounds exactly
    "threshold-at-row-load": (K7, [(star(5), Rat(1)), (K7.delta_mask(0b11), Rat(2))]),
    # trees with v0 and v1 on one side of a single edge tie at 0
    "ties-at-the-minimum": (K7, [(K7.delta_mask(0b11), Rat(1))]),
    # the smallest trees hold edge 0 and violate by 1; the minimum 0 is
    # only at trees without it, whose masks are all larger
    "minimum-only-without-edge-0": (K7, [(1, Rat(0))]),
    # huge denominators a hair above 1 and below 2: a count of 1 passes
    # the first row and a count of 2 fails the second
    "huge-bounds-beside-integers": (
        K7,
        [(star(0), Rat(TEN_30 + 1, TEN_30)), (star(1), Rat(2 * TEN_30 - 1, TEN_30))],
    ),
    # rows on edges 0 and 2 of the first triangle: its trees {0, 1} and
    # {1, 2} tie at the minimum, and the reverse order meets {1, 2} first
    "tied-inside-a-block": (BOWTIE, [(0b101, Rat(0)), (0b1000000, Rat(1))]),
    # the u-side and w-side loads of two 4-cycles: a tree dropping a
    # u-edge in one and a w-edge in the other meets both at 3, from
    # either block, so the minimum is a state two products reach
    "tied-across-blocks": (GADGETS, [(BOTH_U, Rat(3)), (BOTH_W, Rat(3))]),
    # ties inside each block and across both at once, fractional bounds
    "tied-inside-and-across-blocks": (
        GADGETS,
        [(BOTH_U, Rat(5, 2)), (BOTH_W, Rat(7, 2)), (mask_of([0, 4]), Rat(1, 3))],
    ),
    "bridges-only": (
        BRIDGES,
        [(0b00111, Rat(2)), (0b11010, Rat(-1, 2)), (0b10000, Rat(TEN_30, 3))],
    ),
    "one-vertex": (Graph(1, []), [(0b1, Rat(-1)), (0, Rat(2))]),
}


@pytest.mark.parametrize("case", sorted(FIXED))
def test_fixed_cases_match_per_tree_scan(case):
    assert_scans_agree(*FIXED[case])


def state_trees(bounds, trees):
    """Each row-count vector -> the trees that have it, in list order."""
    out = {}
    for tree in trees:
        counts = tuple((tree & emask).bit_count() for emask, _ in bounds)
        out.setdefault(counts, []).append(tree)
    return out


def test_fixed_cases_are_what_they_claim():
    """The conditions the fold cases are named for hold in the per-tree
    scan and the block enumeration, so a change to either cannot quietly
    void them."""
    trees = enumerate_spanning_trees(K7)
    graph, bounds = FIXED["negative-bound-below-every-count"]
    assert per_tree_minimum(graph, bounds, False)[0] >= 2
    graph, bounds = FIXED["threshold-at-row-load"]
    assert per_tree_minimum(graph, bounds, False)[0] == 0
    d, viols = _scaled_violations(K7, trees, FIXED["ties-at-the-minimum"][1])
    assert min(viols) == 0 and viols.count(0) > 1
    value, witness = per_tree_minimum(K7, FIXED["minimum-only-without-edge-0"][1], False)
    assert value == 0 and not witness & 1 and min(trees) & 1

    graph, bounds = FIXED["tied-inside-a-block"]
    value, witness = per_tree_minimum(graph, bounds, False)
    assert (value, witness) == (Rat(1), 0b1011011)
    first = block_spanning_trees(graph, reverse=True)[-1]
    tied = state_trees(bounds, first)[1, 0]
    assert tied == [0b110, 0b011]  # the larger comes first

    graph, bounds = FIXED["tied-across-blocks"]
    value, witness = per_tree_minimum(graph, bounds, False)
    assert value == 0
    at_min = [
        tree
        for tree in enumerate_spanning_trees(graph)
        if (tree & BOTH_U).bit_count() == (tree & BOTH_W).bit_count() == 3
    ]
    assert len(at_min) == 8 and witness == min(at_min)
    assert {tree & 0xF for tree in at_min} == {0b1110, 0b1101, 0b1011, 0b0111}

    graph, bounds = FIXED["bridges-only"]
    assert [len(trees) for trees in block_spanning_trees(graph)] == [1] * 5

    graph, bounds = FIXED["huge-bounds-beside-integers"]
    assert per_tree_minimum(graph, bounds, False)[0] == Rat(-1, TEN_30)


def test_no_bounds_and_no_trees():
    scan = min_max_violation_over_trees
    for reverse in (False, True):
        assert scan(K7, [], reverse=reverse) == (Rat(0), mask_of(range(6)))
        assert scan(BOWTIE, [], reverse=reverse) == (Rat(0), 0b1011011)
        assert scan(Graph(1, []), [], reverse=reverse) == (Rat(0), 0)
        two_parts = Graph.from_pairs(4, [(0, 1), (2, 3)])
        assert scan(two_parts, [(0b11, Rat(1))], reverse=reverse) == (None, None)
        assert scan(Graph(0, []), [], reverse=reverse) == (None, None)
        assert scan(Graph(3, []), [], reverse=reverse) == (None, None)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        tree_cases(),
        graphs.flatmap(
            lambda g: st.tuples(
                st.just(g),
                st.lists(
                    st.tuples(st.integers(0, g.all_edges_mask), bounds_strategy()),
                    max_size=6,
                ),
            )
        ),
    )
)
def test_multigraphs_match_per_tree_scan(case):
    """Multigraphs with parallel edges, bridges, cut vertices, isolated
    vertices and several blocks, with rational bounds of every size."""
    assert_scans_agree(*case)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_tree_the_blocks_lose_is_caught(reverse, monkeypatch):
    """The Kirchhoff count taken on the whole graph must equal the
    product of the blocks' tree counts, in the scan as in the list."""
    kirchhoff = brute.kirchhoff_count
    monkeypatch.setattr(brute, "kirchhoff_count", lambda graph: kirchhoff(graph) + 1)
    graph, bounds = FIXED["tied-across-blocks"]
    with pytest.raises(InternalCheckError, match="Kirchhoff"):
        min_max_violation_over_trees(graph, bounds, reverse=reverse)
    with pytest.raises(InternalCheckError, match="Kirchhoff"):
        enumerate_spanning_trees(graph, reverse=reverse)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_block_the_decomposition_loses_is_caught(reverse, monkeypatch):
    """A lost bridge leaves the tree count as it was; the blocks' tree
    sizes must still add up to n - 1."""
    blocks = brute._blocks
    monkeypatch.setattr(brute, "_blocks", lambda graph: blocks(graph)[1:])
    graph, bounds = FIXED["bridges-only"]
    with pytest.raises(InternalCheckError, match="cover"):
        min_max_violation_over_trees(graph, bounds, reverse=reverse)
