"""The integer and table-driven exhaustive scans against the code they
replaced (tests/fraction_oracles.py).

Each scan must return a result equal in value, type and witness to the
reference, in both enumeration orders, on the generators' own inputs
and on random ones; a lattice must be refused by both validators with
the same message, or accepted by both.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_oracles as reference
import table_lattice
from pairwise_lattice import PairwiseLatticeOracle
from test_separators import chain_lattice
from brute_mcst import _brute_tree_opt
from crossopt import brute, generators
from crossopt.brute import TREE_COUNT_GUARD, min_max_violation_over_trees
from crossopt.errors import InstanceError
from crossopt.generators import gen_mcst_gap, hadamard_sets
from crossopt.graphs import Graph, mask_of
from crossopt.instances import GENERAL, INCLUSION, LatticeInstance
from crossopt.oracles import (
    LatticeOracle,
    MatroidOracle,
    _path_edge_mask,
    _planar_paths,
    matroid_to_lattice,
)
from crossopt.randgen import random_lattice_instance
from crossopt.rational import ZERO, Rat


def assert_same(got, want):
    """Equal values of the same types, element by element."""
    assert got == want, (got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert type(got) is type(want), (got, want)


def assert_same_brute(got, want):
    assert_same(
        (got.optimum, got.witness, got.profile, got.tree_count),
        (want.optimum, want.witness, want.profile, want.tree_count),
    )


@pytest.fixture
def shared_trees(monkeypatch):
    """Enumerate each (graph, order) once for both implementations; the
    enumeration itself is not under test here."""
    cache = {}
    enumerate_trees = brute.enumerate_spanning_trees

    def cached(graph, limit=TREE_COUNT_GUARD, reverse=False):
        key = (id(graph), reverse)
        if key not in cache:
            cache[key] = (graph, enumerate_trees(graph, limit=limit, reverse=reverse))
        return cache[key][1]

    monkeypatch.setattr(brute, "enumerate_spanning_trees", cached)
    monkeypatch.setattr(reference, "enumerate_spanning_trees", cached)


# -- the generators' own scans ----------------------------------------------------


@pytest.fixture
def mcst_gap_e4():
    return gen_mcst_gap(4)


@pytest.mark.parametrize("gap", ["mcst_gap_e4", "mcst_gap_e8"])
def test_gap_tree_scans_match_reference(gap, request, shared_trees):
    instance, report = request.getfixturevalue(gap)
    e = len(report.details["set_sizes"])
    graph, bounds, sets = instance.graph, list(instance.bounds), hadamard_sets(e)
    for reverse in (False, True):
        got = min_max_violation_over_trees(graph, bounds, reverse=reverse)
        assert_same(
            got, reference.min_max_violation_over_trees(graph, bounds, reverse=reverse)
        )
        if not reverse:
            assert got == (report.integral_min_violation, report.witness)
    assert_same(
        generators._min_violation_via_subsets(e, sets),
        reference._min_violation_via_subsets(e, sets),
    )
    if e == 4:  # the Fraction reference takes half a minute at e = 8
        assert_same_brute(
            _brute_tree_opt(graph, bounds, TREE_COUNT_GUARD),
            reference._brute_tree_opt(graph, bounds, TREE_COUNT_GUARD),
        )


def test_gap_subset_scans_e16_match_reference():
    sets = hadamard_sets(16)
    assert_same(
        generators._min_violation_via_subsets(16, sets),
        reference._min_violation_via_subsets(16, sets),
    )
    for reverse in (False, True):
        assert_same(
            generators.brute_discrepancy(sets, 16, reverse=reverse),
            reference.brute_discrepancy(sets, 16, reverse=reverse),
        )


def planar_inputs(k):
    rho = [_path_edge_mask(k, c) for c in _planar_paths(k)]
    layers = [mask_of(range(2 * layer * k, 2 * (layer + 1) * k)) for layer in range(k)]
    return rho, layers


@pytest.mark.parametrize("k", [2, 3])
def test_planar_hitting_scan_matches_reference(k):
    rho, layers = planar_inputs(k)
    for reverse in (False, True):
        assert_same(
            generators._min_hitting_violation_exhaustive(k, rho, layers, reverse),
            reference._min_hitting_violation_exhaustive(k, rho, layers, reverse),
        )


@pytest.mark.parametrize("k", [2, 3, 4])
def test_planar_lattice_tables_match_reference(k):
    choices = _planar_paths(k)
    above, meet, join = table_lattice._path_lattice_tables(k, choices)
    rho, _ = planar_inputs(k)
    old = reference.planar_gap_lattice(k, rho)
    m = len(choices)
    assert meet == old.meet and join == old.join
    # the reference's rows hold one bit per pair (i, j) with leq(i, j)
    assert len(above) == m and all(type(up) is int for up in above)
    assert above == old.above
    new = LatticeOracle(2 * k * k, rho, [1] * m, above, meet, join)
    assert new.above == old.above and new.below == old.below


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_matroid_lattice_matches_reference(n):
    matroid = MatroidOracle(n, tuple(min(s.bit_count(), 2) for s in range(1 << n)))
    new = table_lattice.matroid_to_lattice(matroid)
    old = reference.matroid_to_lattice(matroid)
    assert (new.rho, new.rank) == (old.rho, old.rank)
    assert (new.meet, new.join) == (old.meet, old.join)
    assert new.above == old.above and new.below == old.below
    implicit = matroid_to_lattice(matroid)
    assert (tuple(implicit.rho), implicit.rank) == (old.rho, old.rank)


def test_no_bounds_is_zero_violation_at_smallest_tree(triangle):
    # trees of the triangle: 0b011, 0b101, 0b110 (either order)
    for reverse in (False, True):
        viol, witness = min_max_violation_over_trees(triangle, [], reverse=reverse)
        assert viol == 0 and type(viol) is type(ZERO)
        assert witness == 0b011
    assert _brute_tree_opt(triangle, [], TREE_COUNT_GUARD).profile == ((ZERO, 2),)


# -- random inputs ------------------------------------------------------------------


def bounds_strategy():
    """Rational bounds: small, negative, fractional and huge-denominator."""
    return st.one_of(
        st.integers(-2, 6).map(Rat),
        st.fractions(-3, 7, max_denominator=12).map(
            lambda f: Rat(f.numerator, f.denominator)
        ),
        st.tuples(st.integers(-(10**30), 10**31), st.integers(1, 10**30)).map(
            lambda t: Rat(*t)
        ),
    )


@st.composite
def tree_cases(draw):
    """A multigraph on at most 6 vertices (parallel edges, sometimes
    disconnected) and a list of edge-set bounds."""
    n = draw(st.integers(1, 6))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=10,
        )
    )
    costs = draw(st.lists(st.integers(0, 5), min_size=len(edges), max_size=len(edges)))
    graph = Graph.from_pairs(n, edges, costs)
    full = (1 << len(edges)) - 1
    bounds = draw(
        st.lists(st.tuples(st.integers(0, full), bounds_strategy()), max_size=6)
    )
    return graph, bounds


@settings(max_examples=120, deadline=None)
@given(tree_cases())
def test_tree_scans_match_reference_on_random_instances(case):
    graph, bounds = case
    assert_same_brute(
        _brute_tree_opt(graph, bounds, TREE_COUNT_GUARD),
        reference._brute_tree_opt(graph, bounds, TREE_COUNT_GUARD),
    )
    if not bounds:
        return  # the reference returned the last tree enumerated here
    for reverse in (False, True):
        assert_same(
            min_max_violation_over_trees(graph, bounds, reverse=reverse),
            reference.min_max_violation_over_trees(graph, bounds, reverse=reverse),
        )


@st.composite
def set_families(draw):
    """A ground size e and one to eight subsets of [e], empty ones too."""
    e = draw(st.integers(1, 9))
    return e, draw(st.lists(st.integers(0, (1 << e) - 1), min_size=1, max_size=8))


@settings(max_examples=80, deadline=None)
@given(set_families())
def test_set_family_scans_match_reference(case):
    e, sets = case
    assert_same(
        generators._min_violation_via_subsets(e, sets),
        reference._min_violation_via_subsets(e, sets),
    )
    for reverse in (False, True):
        assert_same(
            generators.brute_discrepancy(sets, e, reverse=reverse),
            reference.brute_discrepancy(sets, e, reverse=reverse),
        )


class RecordingSet(int):
    """A set mask that records every x intersected with it (x & self)."""

    def __new__(cls, mask, seen):
        recorder = super().__new__(cls, mask)
        recorder.seen = seen
        return recorder

    def __rand__(self, x):
        self.seen.append(x)
        return int.__rand__(self, x)


def scanned_subsets(sets, e, reverse):
    """The subsets X brute_discrepancy scans, in scan order: the first
    set records them, since every X is intersected with it first."""
    seen = []
    generators.brute_discrepancy([RecordingSet(sets[0], seen), *sets[1:]], e, reverse)
    return seen


@pytest.mark.parametrize(
    "e, sets",
    [(e, [(1 << e) - 1, random.Random(e).randrange(1 << e)]) for e in range(1, 10)]
    + [(e, hadamard_sets(e)) for e in (4, 8, 16)],
    ids=[f"e{e}" for e in range(1, 10)] + [f"hadamard-{e}" for e in (4, 8, 16)],
)
def test_discrepancy_pair_scans_every_subset_once(e, sets):
    """The forward call scans the lower half of the subsets ascending,
    the reverse call the upper half descending: disjoint halves whose
    union is every subset of [e]."""
    half = 1 << (e - 1)
    assert scanned_subsets(sets, e, False) == list(range(half))
    assert scanned_subsets(sets, e, True) == list(range(2 * half - 1, half - 1, -1))


@pytest.mark.parametrize(
    "e, sets",
    [(0, []), (0, [0]), (0, [0, 0]), (1, []), (1, [0]), (4, [0, 0b1011, 0]), (9, [])],
)
def test_discrepancy_of_empty_ground_or_sets_matches_reference(e, sets):
    for reverse in (False, True):
        assert_same(
            generators.brute_discrepancy(sets, e, reverse=reverse),
            reference.brute_discrepancy(sets, e, reverse=reverse),
        )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(0, 255), max_size=10),
    st.lists(st.integers(0, 255), min_size=1, max_size=4),
)
def test_path_family_scans_match_reference(rho, layers):
    # k = 2: every cut of the 8 edges, split into two 4-bit halves
    for reverse in (False, True):
        assert_same(
            generators._min_hitting_violation_exhaustive(2, rho, layers, reverse),
            reference._min_hitting_violation_exhaustive(2, rho, layers, reverse),
        )


@pytest.mark.parametrize("seed", [1, 5, 6])
def test_path_family_scans_k3_match_reference(seed):
    # k = 3: all 2^18 cuts against the planar paths, on one to four
    # random layer masks (violations -1, 1 and 2 and 0 occur)
    rng = random.Random(seed)
    rho, _ = planar_inputs(3)
    layers = [
        rng.randrange(1 << 18) | rng.randrange(1 << 18)
        for _ in range(rng.randint(1, 4))
    ]
    for reverse in (False, True):
        assert_same(
            generators._min_hitting_violation_exhaustive(3, rho, layers, reverse),
            reference._min_hitting_violation_exhaustive(3, rho, layers, reverse),
        )


def incumbent_falls(rho, layers, cuts):
    """The cuts at which a plain scan over `cuts` takes a new incumbent."""
    best, taken = None, []
    for cut in cuts:
        if all(cut & m for m in rho):
            violation = max(((cut & m).bit_count() for m in layers), default=0) - 1
            if best is None or violation < best:
                best = violation
                taken.append(cut)
    return taken


def random_paths(seed):
    """Three to eight paths of one to four of the 18 edges each."""
    rng = random.Random(seed)
    return [mask_of(rng.sample(range(18), rng.randint(1, 4))) for _ in range(rng.randint(3, 8))]


PLANAR_3, PLANAR_3_LAYERS = planar_inputs(3)
# the low half 3 is the first cut to hit both paths {0, 2, 3} and
# {1, 2, 3}; it and the low halves 4 and 8 load the layer {0, 1, 2} with
# 2, 1 and 0 edges, so the incumbent falls twice in the first high half
# (and three times in the reverse order's first high half)
FALLS_TWICE = ([0b1101, 0b1110], [0b111])
# the path {2, 3} is hit first by the low half 4 (loads (1, 0)) and then
# by 8 (loads (0, 1)), at the same violation; the load group of 8 is met
# first in scan order, at the low half 1, so a scan that took the fitting
# groups one after another would answer 8
TIE_ACROSS_GROUPS = ([0b1100], [0b100, 0b1001])
ROOM_CASES = {
    "random-paths-planar-layers": (random_paths(0), PLANAR_3_LAYERS),
    "random-paths-random-layers": (
        random_paths(3),
        [random.Random(3).randrange(1 << 18) for _ in range(3)],
    ),
    "no-paths": ([], PLANAR_3_LAYERS),
    "zero-layer": (PLANAR_3, [0, *PLANAR_3_LAYERS[1:]]),
    "overlapping-layers": (PLANAR_3, [mask_of(range(0, 10)), mask_of(range(6, 18))]),
    "falls-twice-in-one-high-half": FALLS_TWICE,
    "tie-across-load-groups": TIE_ACROSS_GROUPS,
}


def test_room_cases_are_what_they_claim():
    rho, layers = FALLS_TWICE
    top = (1 << 18) - 1
    assert incumbent_falls(rho, layers, range(1 << 9)) == [3, 4, 8]
    assert incumbent_falls(rho, layers, range(top, top - (1 << 9), -1)) == [
        top, top - 1, top - 3, top - 7
    ]
    rho, layers = TIE_ACROSS_GROUPS
    assert incumbent_falls(rho, layers, range(1 << 9)) == [4]
    assert incumbent_falls(rho, layers, [8, 4]) == [8]  # a tie: 4 does not replace 8
    assert [(1 & m).bit_count() for m in layers] == [(8 & m).bit_count() for m in layers]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("case", ROOM_CASES)
def test_room_filter_k3_cases_match_reference(case, reverse):
    """The hitting scan skips low halves by layer-load room; the first
    cut it accepts must still be the plain scan's, in both orders."""
    rho, layers = ROOM_CASES[case]
    assert_same(
        generators._min_hitting_violation_exhaustive(3, rho, layers, reverse),
        reference._min_hitting_violation_exhaustive(3, rho, layers, reverse),
    )


# -- lattice validation ---------------------------------------------------------------


def lattice_tables(lat):
    m = lat.size
    return (
        lat.ground_n,
        list(lat.rho),
        list(lat.rank),
        [[int(lat.leq(i, j)) for j in range(m)] for i in range(m)],
        [list(row) for row in lat.meet],
        [list(row) for row in lat.join],
    )


def outcome(cls, tables):
    """The InstanceError message if cls refuses the tables, else the
    above and below rows it built."""
    try:
        lat = cls(*tables)
    except InstanceError as exc:
        return str(exc)
    return lat.above, lat.below


def with_rows(tables):
    """The tables with the leq table folded into above bitmask rows."""
    ground_n, rho, rank, leq, meet, join = tables
    above = [mask_of(j for j, bit in enumerate(row) if bit) for row in leq]
    return ground_n, rho, rank, above, meet, join


def validation_outcomes(tables):
    """The outcomes of LatticeOracle built from above rows and from the
    leq table, and of the check-by-check reference (pairwise_lattice)."""
    return (
        outcome(LatticeOracle, with_rows(tables)),
        outcome(LatticeOracle.from_leq, tables),
        outcome(PairwiseLatticeOracle.from_leq, tables),
    )


@st.composite
def corrupted_lattices(draw):
    """Valid lattice tables, from a matroid, a chain or the planar paths
    (built as above rows), with one field corrupted.  "meet-pair" and
    "join-pair" set the entries of (i, j) and (j, i) to one member, so
    commutativity holds and a bound check speaks first; "meet-pair-up"
    and "join-pair-down" pick that member off the wrong side of i."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = draw(st.sampled_from(["matroid", "chain", "planar-2", "planar-3"]))
    if source == "matroid":
        matroid = random_lattice_instance(rng, max_ground=5).lat.matroid
        lat = table_lattice.matroid_to_lattice(matroid)
    elif source == "chain":
        lat = chain_lattice(rng, draw(st.integers(1, 9)))
    else:
        lat = table_lattice.path_lattice(int(source[-1]))
    tables = lattice_tables(lat)
    ground_n, rho, rank, leq, meet, join = tables
    m = len(rho)
    field = draw(
        st.sampled_from(
            [
                "none", "leq", "meet", "join", "rank", "rho",
                "meet-pair", "join-pair", "meet-pair-up", "join-pair-down",
            ]
        )
    )
    i, j = rng.randrange(m), rng.randrange(m)
    if field == "leq":
        leq[i][j] = 1 - leq[i][j]
    elif field in ("meet", "join"):
        (meet if field == "meet" else join)[i][j] = rng.randrange(m)
    elif field == "rank":
        rank[i] = rng.randint(-2, 6)
    elif field == "rho":
        rho[i] = rng.randrange(1 << ground_n)
    else:
        table = meet if field.startswith("meet") else join
        member = rng.randrange(m)
        if field.endswith("-up"):  # a member not below i, if there is one
            member = next((x for x in range(m) if not lat.leq(x, i)), member)
        elif field.endswith("-down"):  # a member not above i
            member = next((x for x in range(m) if not lat.leq(i, x)), member)
        table[i][j] = table[j][i] = member
    return tables


def best_bound_failures(tables):
    """The messages of every pair a <= b whose meet is not the greatest
    lower bound or whose join is not the least upper bound, recomputed
    from the leq table alone, in the order LatticeOracle checks them."""
    leq, meet, join = tables[3], tables[4], tables[5]
    m = len(leq)

    def best(bounds, below):
        return next(x for x in bounds if all(below(y, x) for y in bounds))

    failures = []
    for a in range(m):
        for b in range(a, m):
            lower = [x for x in range(m) if leq[x][a] and leq[x][b]]
            if meet[a][b] != best(lower, lambda y, x: leq[y][x]):
                failures.append(f"meet not greatest lower bound at ({a},{b})")
            upper = [x for x in range(m) if leq[a][x] and leq[b][x]]
            if join[a][b] != best(upper, lambda y, x: leq[x][y]):
                failures.append(f"join not least upper bound at ({a},{b})")
    return failures


CHAIN_LEQ = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]


# the chain 0 < 1 < 2 with empty images and every meet 0, once with every
# join 2 and once with joins the larger member: the reference accepts
# these bounds, though join(0, 0) = 2 is not the least and meet(1, 1) = 0
# not the greatest
@example((1, [0, 0, 0], [0, 0, 0], CHAIN_LEQ, [[0] * 3] * 3, [[2] * 3] * 3))
@example((1, [0, 0, 0], [0, 0, 0], CHAIN_LEQ, [[0] * 3] * 3,
          [[max(i, j) for j in range(3)] for i in range(3)]))
@settings(max_examples=300, deadline=None)
@given(corrupted_lattices())
def test_lattice_validation_matches_reference(tables):
    """Both validators refuse with the same message or both accept,
    except that a meet or join which is a bound but not the best one
    is refused only by LatticeOracle, naming the first pair whose glb
    or lub, recomputed from leq, differs."""
    got, got_leq, pairwise = validation_outcomes(tables)
    assert got == got_leq == pairwise
    want = outcome(reference.LatticeOracle, tables)
    failures = best_bound_failures(tables) if isinstance(want, tuple) else []
    assert got == (failures[0] if failures else want)


def chain_tables(meet, join):
    """The chain 0 < 1 < 2 with empty images and zero ranks."""
    return (1, [0, 0, 0], [0, 0, 0], CHAIN_LEQ, meet, join)


CHAIN_MEET = [[min(i, j) for j in range(3)] for i in range(3)]
CHAIN_JOIN = [[max(i, j) for j in range(3)] for i in range(3)]


def corrupt(table, *entries):
    """A copy of table with each (i, j, value) written in."""
    table = [list(row) for row in table]
    for i, j, value in entries:
        table[i][j] = value
    return table


@pytest.mark.parametrize(
    "meet, join, message",
    [
        # only entry (2, 0) is corrupted; the pair is named as (0, 2)
        (corrupt(CHAIN_MEET, (2, 0, 1)), CHAIN_JOIN, "meet/join not commutative at (0,2)"),
        # (1, 2) is the first corrupted entry in row order, but the
        # pair (0, 2) is checked before the pair (1, 2)
        (
            corrupt(CHAIN_MEET, (1, 2, 0), (2, 0, 1)),
            CHAIN_JOIN,
            "meet/join not commutative at (0,2)",
        ),
        (corrupt(CHAIN_MEET, (0, 1, 1), (1, 0, 1)), CHAIN_JOIN, "meet not below both at (0,1)"),
        (CHAIN_MEET, corrupt(CHAIN_JOIN, (1, 2, 1), (2, 1, 1)), "join not above both at (1,2)"),
        (corrupt(CHAIN_MEET, (1, 1, 0)), CHAIN_JOIN, "meet not greatest lower bound at (1,1)"),
        (CHAIN_MEET, corrupt(CHAIN_JOIN, (0, 0, 2)), "join not least upper bound at (0,0)"),
        # meet(1, 1) = 0 is a bound but not the greatest, and the later
        # pair (1, 2) is not commutative: the later failure is named
        (
            corrupt(CHAIN_MEET, (1, 1, 0), (2, 1, 0)),
            CHAIN_JOIN,
            "meet/join not commutative at (1,2)",
        ),
    ],
)
def test_pair_failures_name_the_first_pair(meet, join, message):
    tables = chain_tables(meet, join)
    assert validation_outcomes(tables) == (message,) * 3


# join(0, 0) = 2 is a bound but not the least, and meet(1, 2) = 0 is a
# lower bound of (1, 2) but not the greatest
LUB_AT_00 = corrupt(CHAIN_JOIN, (0, 0, 2))
LOW_MEET_12 = corrupt(CHAIN_MEET, (1, 2, 0), (2, 1, 0))


@pytest.mark.parametrize(
    "rho, rank, meet, join, message",
    [
        # the later pair (1, 2) breaks image submodularity: rho[0] holds
        # element 1, which rho[1] | rho[2] lacks
        ([0b11, 0, 0b01], [0, 0, 0], LOW_MEET_12, LUB_AT_00,
         "image submodularity violated at (1,2)"),
        # the later pair (1, 2) breaks rank supermodularity: 1 + 0 > 0 + 0
        ([0, 0, 0], [0, 1, 0], LOW_MEET_12, LUB_AT_00,
         "rank supermodularity violated at (1,2)"),
        # meet(2, 2) = 1 is a bound but not the greatest, and element 0
        # of members 0 and 2 skips member 1
        ([1, 0, 1], [0, 0, 0], corrupt(CHAIN_MEET, (2, 2, 1)), CHAIN_JOIN,
         "consecutive property violated: 0<=1<=2, element 0"),
    ],
)
def test_bound_failures_yield_to_later_checks(rho, rank, meet, join, message):
    """A meet or join that is a bound but not the best one is named only
    when no later pair fails another pair check and the consecutive
    property holds."""
    tables = (2, rho, rank, CHAIN_LEQ, meet, join)
    assert validation_outcomes(tables) == (message,) * 3


@st.composite
def inclusion_cases(draw):
    """A valid lattice, ordered by image inclusion or not; then one order
    bit or one image of the built oracle corrupted; and a variant."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = draw(st.sampled_from(["matroid", "chain", "planar-2"]))
    if source == "matroid":
        matroid = random_lattice_instance(rng, max_ground=5).lat.matroid
        lat = table_lattice.matroid_to_lattice(matroid)
    elif source == "chain":
        lat = chain_lattice(rng, draw(st.integers(1, 9)))
    else:
        lat = table_lattice.path_lattice(2)
    i, j = rng.randrange(lat.size), rng.randrange(lat.size)
    field = draw(st.sampled_from(["none", "leq", "rho"]))
    if field == "leq":
        lat.above[i] ^= 1 << j
    elif field == "rho":
        rho = list(lat.rho)
        rho[i] = rng.randrange(1 << lat.ground_n)
        lat.rho = tuple(rho)
    return lat, draw(st.sampled_from([GENERAL, INCLUSION]))


def variant_outcome(lat, variant):
    """(new message or None, reference message or None)."""
    try:
        LatticeInstance(lat, (ZERO,) * lat.ground_n, (), variant)
        got = None
    except InstanceError as exc:
        got = str(exc)
    try:
        if variant == INCLUSION:
            reference.check_inclusion_variant(lat)
        want = None
    except InstanceError as exc:
        want = str(exc)
    return got, want


@settings(max_examples=200, deadline=None)
@given(inclusion_cases())
def test_inclusion_variant_check_matches_reference(case):
    got, want = variant_outcome(*case)
    assert got == want


def test_inclusion_variant_names_the_first_pair():
    lat = table_lattice.matroid_to_lattice(MatroidOracle(2, (0, 1, 1, 2)))
    assert variant_outcome(lat, INCLUSION) == (None, None)
    lat.above[2] ^= 1 << 1  # {1} <= {0} now claimed
    message = "members (2,1) disagree"
    got, want = variant_outcome(lat, INCLUSION)
    assert got == want and got.endswith(message)


def test_consecutive_property_names_the_first_witness():
    # the chain 0 < 1 < 2 < 3 breaks the property four times: element 0
    # skips member 2, which member 0 reaches only past member 1;
    # element 1 skips member 2; element 2 skips members 1 and 2
    members = range(4)
    tables = (
        3,
        [0b101, 0b011, 0b000, 0b111],
        [0] * 4,
        [[int(i <= j) for j in members] for i in members],
        [[min(i, j) for j in members] for i in members],
        [[max(i, j) for j in members] for i in members],
    )
    message = "consecutive property violated: 0<=2<=3, element 0"
    assert validation_outcomes(tables) == (message,) * 3
    assert outcome(reference.LatticeOracle, tables) == message


def test_antisymmetry_names_the_smallest_twin():
    # three members all below one another: the first twin of 0 is 1
    ones, zeros = [[1] * 3 for _ in range(3)], [[0] * 3 for _ in range(3)]
    tables = (1, [0, 0, 0], [0, 0, 0], ones, zeros, zeros)
    message = "order not antisymmetric at (0,1)"
    assert validation_outcomes(tables) == (message,) * 3
    assert outcome(reference.LatticeOracle, tables) == message
