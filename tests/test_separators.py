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
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_separators as reference
from crossopt import lpengine
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
            assert_same(got, slow(point.x_by_id, *args))
            counts[name, got.feasible] += 1
            return got

        for module in modules:
            if getattr(module, name, None) is fast:
                monkeypatch.setattr(module, name, checked)
    return counts


def test_separators_match_reference_on_corpus_slices(checked_calls):
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


@settings(max_examples=100, deadline=None)
@given(cover_cases())
def test_contra_polymatroid_matches_reference(case):
    assert_same(
        lpengine.separate_contra_polymatroid(*at_vertex(case)),
        reference.separate_contra_polymatroid(*case),
    )


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
