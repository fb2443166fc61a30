"""The integer-scaled separators against their Fraction reference.

Every call must return an equal SeparationResult (feasibility, family,
witness, lhs, rhs and sense), with lhs and rhs of the same rational
type, on points met while solving seeded corpora and on random points
well outside the LP box.
"""

import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_separators as reference
from conftest import values_by_id
from crossopt import lpengine
from crossopt.generators import gadget_graph, gen_mcst_gap
from crossopt.graphs import Graph
from crossopt.instances import INCLUSION
from crossopt.intersection import run_intersection
from crossopt.lattice import run_lattice
from crossopt.mcst import run_mcst
from crossopt.oracles import ContraPolymatroidPair, LatticeOracle
from crossopt.randgen import (
    CorpusConfig,
    mcst_corpus,
    random_intersection_instance,
    random_lattice_instance,
    random_supermodular_table,
)
from crossopt.rational import Rat
from crossopt.simplex import Vertex

SEPARATORS = (
    "separate_spanning_tree",
    "separate_contra_polymatroid",
    "separate_lattice",
)

# Corpus slices: the MCST one starts with every drop-round seed.
MCST_SLICE = 24
INTERSECTION_SLICE = 12
LATTICE_SLICE = 12
INCLUSION_SLICE = 6


def assert_same(got, want):
    assert got == want, (got, want)
    assert type(got.lhs) is type(want.lhs) and type(got.rhs) is type(want.rhs)


@pytest.fixture
def checked_calls(monkeypatch):
    """Send every separator call made by the solvers through both
    implementations, in every crossopt module that holds the separator
    by name; counts calls by (name, feasible)."""
    counts = Counter()
    modules = [mod for key, mod in sys.modules.items() if key.startswith("crossopt.")]
    for name in SEPARATORS:
        fast, slow = getattr(lpengine, name), getattr(reference, name)

        def checked(point, *args, name=name, fast=fast, slow=slow):
            got = fast(point, *args)
            assert_same(got, slow(values_by_id(point), *args))
            counts[name, got.feasible] += 1
            return got

        for module in modules:
            if getattr(module, name, None) is fast:
                monkeypatch.setattr(module, name, checked)
    return counts


def test_separators_match_reference_on_corpus_slices(checked_calls):
    gen_mcst_gap(4)  # its membership check separates at n = 13
    for inst in mcst_corpus(CorpusConfig(count=MCST_SLICE)):
        run_mcst(inst)
    rng = random.Random(404)
    for _ in range(INTERSECTION_SLICE):
        run_intersection(random_intersection_instance(rng, max_elems=10, max_delta=3))
    rng = random.Random(505)
    for _ in range(LATTICE_SLICE):
        run_lattice(random_lattice_instance(rng, max_ground=8, max_delta=2))
    for i in range(INCLUSION_SLICE):
        run_lattice(
            random_lattice_instance(
                rng, max_ground=8, max_delta=1 + i % 2, variant=INCLUSION
            )
        )
    for name in SEPARATORS:
        assert checked_calls[name, True] > 0 and checked_calls[name, False] > 0


# -- random points -------------------------------------------------------------

# A few repeated values make ties between witnesses common; small
# denominators mix in values outside the box; large, mixed ones make
# the common denominator of a point huge.
tie_rat = st.sampled_from([Rat(0), Rat(1, 2), Rat(1), Rat(2)])
small_rat = st.builds(Rat, st.integers(-6, 12), st.sampled_from([1, 2, 3, 4, 6]))
large_rat = st.builds(Rat, st.integers(-(10**12), 10**12), st.integers(1, 10**12))
values = st.one_of(tie_rat, small_rat, large_rat)


def at_vertex(case):
    """The separator arguments of case, its point dict as a Vertex."""
    x, *rest = case
    return (Vertex.of_values(x), *rest)


def draw_point(draw, ids):
    keys = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    return {k: draw(values) for k in keys}


@st.composite
def tree_cases(draw):
    n = draw(st.integers(2, 12))
    pairs = []
    for _ in range(draw(st.integers(0, 2 * n))):
        u = draw(st.integers(0, n - 1))
        pairs.append((u, (u + draw(st.integers(1, n - 1))) % n))
    graph = Graph.from_pairs(n, pairs)
    fmask = draw(st.integers(0, (1 << len(pairs)) - 1))
    x = draw_point(draw, list(range(len(pairs))))
    if x and draw(st.booleans()):
        # meet the total-count row, so that the subset rows are scanned
        last = next(reversed(x))
        x[last] = Rat(n - fmask.bit_count() - 1) - sum(
            v for k, v in x.items() if k != last
        )
    return x, graph, fmask


def test_spanning_tree_tie_breaks_to_smallest_mask():
    # {0,1} and {2,3} are both violated by 1 at size 2
    graph = Graph.from_pairs(5, [(0, 1), (2, 3), (3, 4)])
    x = {0: Rat(2), 1: Rat(2), 2: Rat(0)}
    res = lpengine.separate_spanning_tree(Vertex.of_values(x), graph, 0)
    assert res.witness == 0b00011
    assert_same(res, reference.separate_spanning_tree(x, graph, 0))


# n = 1 and n = 2 leave nothing to scan but the total and V itself.  Of
# the two paths, the first has its witness at the largest excess the
# search allows, P - 2D with P = 5 and D = 1; the second needs its
# 6-bit fields (2^5 > off + P = 21), and 5-bit ones misread it.
SMALL_TREE_CASES = {
    "n1-empty": (Graph.from_pairs(1, []), 0, {}),
    "n2-edge-at-one": (Graph.from_pairs(2, [(0, 1)]), 0, {0: Rat(1)}),
    "n2-edge-fixed": (Graph.from_pairs(2, [(0, 1)]), 1, {}),
    "n2-short-of-total": (Graph.from_pairs(2, [(0, 1)]), 0, {0: Rat(1, 2)}),
    "n2-parallel-mixed-signs": (
        Graph.from_pairs(2, [(0, 1), (0, 1)]),
        0,
        {0: Rat(7, 3), 1: Rat(-4, 3)},
    ),
    "n2-parallel-fixed": (Graph.from_pairs(2, [(0, 1), (0, 1)]), 0b10, {0: Rat(0)}),
    "n2-parallel-over-total": (
        Graph.from_pairs(2, [(0, 1), (0, 1)]),
        0b01,
        {1: Rat(1, 10**12)},
    ),
    "n3-top-of-search": (Graph.from_pairs(3, [(0, 1), (1, 2)]), 0, {0: Rat(5), 1: Rat(-3)}),
    "n3-full-width": (Graph.from_pairs(3, [(1, 0), (1, 2)]), 0, {0: Rat(-8), 1: Rat(10)}),
}


@pytest.mark.parametrize("name", SMALL_TREE_CASES)
def test_spanning_tree_small_cases_match_reference(name):
    graph, fmask, x = SMALL_TREE_CASES[name]
    assert_same(
        lpengine.separate_spanning_tree(Vertex.of_values(x), graph, fmask),
        reference.separate_spanning_tree(x, graph, fmask),
    )


def meeting_total(rng, graph, fmask, point_value):
    """A point on the edges outside fmask, drawn by point_value(rng),
    with its last value moved so that the total-count row holds and the
    subset rows are scanned."""
    free = [e.id for e in graph.edges if not (fmask >> e.id) & 1]
    x = {eid: point_value(rng) for eid in free}
    x[free[-1]] = Rat(graph.n - fmask.bit_count() - 1) - sum(
        v for k, v in x.items() if k != free[-1]
    )
    return x


def quarter(rng):
    return Rat(rng.randint(0, 4), 4)


def wide(rng):
    if rng.random() < 0.5:
        return quarter(rng)
    return Rat(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))


def grown_gadget(rng, extra):
    """gadget_graph(4), n = 13, with extra more vertices, each joined to
    two vertices before it."""
    pairs = [(e.u, e.v) for e in gadget_graph(4).edges]
    for v in range(13, 13 + extra):
        pairs += [(v, u) for u in rng.sample(range(v), 2)]
    return Graph.from_pairs(13 + extra, pairs)


def large_tree_case(seed):
    """The gadget of gen_mcst_gap(4) at a random fixed set and point
    (seeds 0-3), the gadget grown to n = 14 and 15 (seeds 4, 5), and a
    random graph at n = 16 (seed 6); quarters make ties common, and wide
    values lie far outside the box."""
    rng = random.Random(seed)
    if seed < 6:
        graph = grown_gadget(rng, max(0, seed - 3))
    else:
        pairs = [(v, rng.randrange(v)) for v in range(1, 16)]
        pairs += [tuple(rng.sample(range(16), 2)) for _ in range(12)]
        graph = Graph.from_pairs(16, pairs)
    fmask = sum(1 << e.id for e in graph.edges if rng.random() < 0.15)
    return graph, fmask, meeting_total(rng, graph, fmask, (quarter, wide)[seed % 2])


@pytest.mark.parametrize("seed", range(7))
def test_spanning_tree_large_cases_match_reference(seed):
    graph, fmask, x = large_tree_case(seed)
    assert graph.n == (13, 13, 13, 13, 14, 15, 16)[seed]
    assert_same(
        lpengine.separate_spanning_tree(Vertex.of_values(x), graph, fmask),
        reference.separate_spanning_tree(x, graph, fmask),
    )


@settings(max_examples=150, deadline=None)
@given(tree_cases())
def test_spanning_tree_matches_reference(case):
    assert_same(
        lpengine.separate_spanning_tree(*at_vertex(case)),
        reference.separate_spanning_tree(*case),
    )


@st.composite
def cover_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 9))
    pair = ContraPolymatroidPair(
        n, random_supermodular_table(rng, n), random_supermodular_table(rng, n)
    )
    return draw_point(draw, list(range(n))), draw(st.integers(0, (1 << n) - 1)), pair


def containing(n, t):
    """The supermodular table S -> 1 if S contains t, else 0."""
    return tuple(int(s & t == t) for s in range(1 << n))


# Both functions reach 2 at {0,1}, the most violated set, where r1 wins
# the tie: cover1.
COVER_TIE_AT_EQUAL_REQUIREMENTS = (
    {0: Rat(1, 2), 1: Rat(1, 2)},
    0,
    ContraPolymatroidPair(2, (0, 1, 0, 2), (0, 0, 1, 2)),
)
# {3} (mask 8, by r2) and {0,1,2} (mask 7, by r1) are both violated by
# 3/4; the smaller set wins although its mask is larger.
COVER_TIE_SMALLER_SET_LARGER_MASK = (
    {0: Rat(1, 4), 3: Rat(1, 4)},
    0,
    ContraPolymatroidPair(4, containing(4, 0b0111), containing(4, 0b1000)),
)


@settings(max_examples=100, deadline=None)
@given(cover_cases())
@example(COVER_TIE_AT_EQUAL_REQUIREMENTS)
@example(COVER_TIE_SMALLER_SET_LARGER_MASK)
def test_contra_polymatroid_matches_reference(case):
    assert_same(
        lpengine.separate_contra_polymatroid(*at_vertex(case)),
        reference.separate_contra_polymatroid(*case),
    )


def test_cover_tie_cases_are_what_they_claim():
    x, fmask, pair = COVER_TIE_AT_EQUAL_REQUIREMENTS
    res = reference.separate_contra_polymatroid(x, fmask, pair)
    assert (res.family, res.witness) == ("cover1", 0b11)
    assert pair.r1[0b11] == pair.r2[0b11]
    x, fmask, pair = COVER_TIE_SMALLER_SET_LARGER_MASK
    res = reference.separate_contra_polymatroid(x, fmask, pair)
    assert (res.family, res.witness) == ("cover2", 0b1000)
    load = sum(x.get(e, 0) for e in range(3))
    assert pair.requirement(0b0111) - load == res.rhs - res.lhs


def chain_lattice(rng, ground_n):
    """Chain of members with nested images over a shuffled ground set;
    ground sets wider than eight elements reach the multi-byte sums."""
    order = rng.sample(range(ground_n), ground_n)
    cuts = sorted(rng.sample(range(ground_n + 1), rng.randint(1, ground_n + 1)))
    rho = [sum(1 << e for e in order[:c]) for c in cuts]
    rank = [rng.randint(0, 4) for _ in rho]
    members = range(len(rho))
    return LatticeOracle.from_leq(
        ground_n,
        rho,
        rank,
        [[i <= j for j in members] for i in members],
        [[min(i, j) for j in members] for i in members],
        [[max(i, j) for j in members] for i in members],
    )


@st.composite
def lattice_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        lat = random_lattice_instance(rng, max_ground=7).lat
    else:
        lat = chain_lattice(rng, draw(st.integers(1, 20)))
    fmask = draw(st.integers(0, (1 << lat.ground_n) - 1))
    return draw_point(draw, list(range(lat.ground_n))), fmask, lat


@settings(max_examples=100, deadline=None)
@given(lattice_cases())
def test_lattice_matches_reference(case):
    assert_same(
        lpengine.separate_lattice(*at_vertex(case)), reference.separate_lattice(*case)
    )
