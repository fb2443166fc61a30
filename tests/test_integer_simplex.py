"""The integer-preserving simplex core against the Fraction code it
replaced (tests/fraction_simplex.py).

Every LP must give the identical BasicSolution (values, objective,
tight rows, and their rational types), the identical pivot count, or
the identical exception.  The two tableaux are also stepped side by
side: after every pivot and every change of costs, A / q and the
integer reduced costs must equal the Fraction tableau's entries, up to
the row scale L_i for which a scaled row's slack and artificial stand.
"""

import random
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_simplex as reference
from crossopt import lpengine, relax, simplex
from crossopt.errors import InternalCheckError
from crossopt.instances import GENERAL, INCLUSION
from crossopt.intersection import run_intersection
from crossopt.lattice import run_lattice
from crossopt.mcst import run_mcst
from crossopt.randgen import (
    CorpusConfig,
    mcst_corpus,
    random_intersection_instance,
    random_lattice_instance,
)
from crossopt.rational import Rat
from crossopt.simplex import (
    BasicSolution,
    LpInfeasible,
    LpUnbounded,
    make_lp,
    rank_of_rows,
    row_status,
    simplex_solve,
    verify_vertex_certificate,
)


def solve_counted(solve, lp):
    """(BasicSolution or exception type, pivots taken) of one solve."""
    stats = reference.STATS if solve is reference.simplex_solve else simplex.STATS
    before = stats["pivots"]
    try:
        result = solve(lp)
    except (LpInfeasible, LpUnbounded) as exc:
        result = type(exc)
    else:
        for v in (*result.values, result.objective_value):
            assert type(v) is Rat
    return result, stats["pivots"] - before


class Recorded:
    """Mixin: snapshot the tableau after every pivot (once the basis
    records it) and every change of costs."""

    def __init__(self, lp):
        super().__init__(lp)
        self.snapshots = []

    def set_costs(self, *args):
        super().set_costs(*args)
        self.snapshots.append(self.snapshot())

    def _enter_basis(self, *args):
        super()._enter_basis(*args)
        self.snapshots.append(self.snapshot())


class FractionTableau(Recorded, reference._Tableau):
    def snapshot(self):
        return list(self.basis), [list(row) for row in self.T], list(self.d)


class IntegerTableau(Recorded, simplex._Tableau):
    def snapshot(self):
        """Entries in the units of the Fraction tableau: a slack or
        artificial of row i stands for row_scale[i] times the original."""
        scale = [1] * self.ncols
        for i, k in enumerate(self.row_scale):
            for col in (self.slack_of_row[i], self.art_of_row[i]):
                if col is not None:
                    scale[col] = k
        q = self.q
        assert q > 0
        rows = [
            [Rat(a, q) * scale[k] / scale[b] for k, a in enumerate(row)]
            for b, row in zip(self.basis, self.A)
        ]
        d = [Rat(a, q * self.cost_den) * scale[k] for k, a in enumerate(self.d)]
        return list(self.basis), rows, d


def run_tableau(cls, lp):
    tableau = cls(lp)
    try:
        values = tableau.solve()
    except (LpInfeasible, LpUnbounded) as exc:
        values = type(exc)
    return values, tableau.snapshots, tableau.pivots


def assert_same_run(lp):
    got = solve_counted(simplex_solve, lp)
    assert got == solve_counted(reference.simplex_solve, lp)
    values, snapshots, pivots = run_tableau(IntegerTableau, lp)
    ref_values, ref_snapshots, ref_pivots = run_tableau(FractionTableau, lp)
    assert values == ref_values and pivots == ref_pivots
    assert len(snapshots) == len(ref_snapshots)
    for step, (snap, ref_snap) in enumerate(zip(snapshots, ref_snapshots)):
        assert snap == ref_snap, step
    return got[0]


# -- random LPs ----------------------------------------------------------------

# Non-integer coefficients make the row scales L_i > 1; zeros keep rows
# sparse and degenerate, as the spanning-tree rows are.
coefficient = st.one_of(
    st.just(Rat(0)),
    st.builds(Rat, st.integers(-3, 3)),
    st.builds(Rat, st.integers(-6, 6), st.sampled_from([2, 3, 4, 6])),
)
bound_value = st.builds(Rat, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def lps(draw):
    n = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.lists(coefficient, min_size=n, max_size=n),
                st.sampled_from(["<=", "=", ">="]),
                bound_value,
            ),
            max_size=5,
        )
    )
    objective = draw(st.lists(coefficient, min_size=n, max_size=n))
    lower = draw(st.lists(bound_value, min_size=n, max_size=n))
    upper = []
    for lo in lower:
        width = draw(st.one_of(st.none(), bound_value.map(abs)))
        upper.append(None if width is None else lo + width)
    return make_lp(objective, rows, lower, upper)


@settings(max_examples=400, deadline=None)
@given(lps())
def test_random_lps_match_reference(lp):
    assert_same_run(lp)


# One LP of each kind the property must cover, so each is checked on
# every run whatever Hypothesis draws.
FIXED = {
    "scaled-le-ge-eq-rows": make_lp(
        [1, Rat(-1, 2), 2],
        [
            ([Rat(1, 2), Rat(1, 3), 0], "<=", Rat(5, 6)),
            ([Rat(2, 3), 1, Rat(-1, 4)], ">=", Rat(1, 2)),
            ([Rat(1, 6), Rat(1, 2), Rat(1, 3)], "=", 1),
        ],
        lower=[Rat(-1, 2), 0, Rat(1, 3)],
        upper=[2, None, Rat(7, 3)],
    ),
    "negative-rhs-after-shift": make_lp(
        [1, 1], [([Rat(3, 2), 1], ">=", -4)], lower=[-3, Rat(-5, 2)], upper=[None, 1]
    ),
    "infeasible": make_lp(
        [0, 1], [([Rat(1, 2), 1], ">=", 3), ([1, Rat(2, 3)], "<=", 1)]
    ),
    "unbounded": make_lp(
        [-1, Rat(1, 3)], [([1, Rat(-1, 2)], ">=", Rat(1, 2))], upper=[None, 1]
    ),
    "redundant-equalities": make_lp(
        [1, 2, 3],
        [([1, 1, 1], "=", 2), ([Rat(1, 2), Rat(1, 2), Rat(1, 2)], "=", 1)],
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_lps_match_reference(name):
    got = assert_same_run(FIXED[name])
    expected = {"infeasible": LpInfeasible, "unbounded": LpUnbounded}.get(name)
    assert got is expected if expected else isinstance(got, BasicSolution)


@pytest.mark.parametrize("rel, rhs", [("<=", 1), ("=", 0), (">=", 1)])
def test_no_variable_lps_match_reference(rel, rhs):
    lp = make_lp([], [([], "<=", 0), ([], rel, rhs)])
    got = solve_counted(simplex_solve, lp)
    assert got == solve_counted(reference.simplex_solve, lp)


def test_pivots_are_counted():
    before = simplex.STATS["pivots"]
    simplex_solve(FIXED["scaled-le-ge-eq-rows"])
    assert simplex.STATS["pivots"] > before


# -- row checks, certificates and rank ----------------------------------------------


def certificate_outcome(verify, lp, solution):
    try:
        return verify(lp, solution)
    except InternalCheckError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(lps(), st.data())
def test_row_checks_and_certificates_match_reference(lp, data):
    point = st.lists(bound_value, min_size=lp.num_vars, max_size=lp.num_vars)
    values = tuple(data.draw(point))
    assert row_status(lp, values) == reference.row_status(lp, values)
    try:
        sol = reference.simplex_solve(lp)
    except (LpInfeasible, LpUnbounded):
        return
    rows = range(len(lp.constraints) + 2 * lp.num_vars)
    # the true certificate, one with rows dropped or added, and a moved point
    claims = [
        sol.tight_rows,
        tuple(data.draw(st.lists(st.sampled_from(sol.tight_rows or (0,))))),
        sol.tight_rows + tuple(data.draw(st.lists(st.sampled_from(rows), max_size=2))),
    ]
    moved = (sol.values[0] + data.draw(bound_value),) + sol.values[1:]
    candidates = [BasicSolution(sol.values, sol.objective_value, c) for c in claims]
    candidates.append(BasicSolution(moved, sol.objective_value, sol.tight_rows))
    for candidate in candidates:
        assert certificate_outcome(
            verify_vertex_certificate, lp, candidate
        ) == certificate_outcome(reference.verify_vertex_certificate, lp, candidate)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda w: st.lists(
    st.lists(coefficient, min_size=w, max_size=w), max_size=6
)), st.randoms())
def test_rank_matches_reference(rows, rnd):
    # dependent rows: append a rational combination of two of them
    if len(rows) >= 2:
        a, b = rnd.sample(rows, 2)
        f = Rat(rnd.randint(-3, 3), rnd.randint(1, 3))
        rows = rows + [[x + f * y for x, y in zip(a, b)]]
    assert rank_of_rows(rows) == reference.rank_of_rows(rows)


def test_rank_refuses_ragged_rows():
    with pytest.raises(ValueError):
        rank_of_rows([[Rat(1), Rat(0)], [Rat(1)]])


# -- the solvers' own LPs --------------------------------------------------------------


@pytest.fixture
def checked_core(monkeypatch):
    """Every simplex_solve of the cutting-plane loop also runs the
    Fraction simplex, and every reused vertex is re-checked by the
    Fraction row check and certificate.  Counts calls by kind."""
    counts = {"solve": 0, "reuse": 0}

    def solve(lp):
        got, pivots = solve_counted(simplex_solve, lp)
        assert (got, pivots) == solve_counted(reference.simplex_solve, lp)
        counts["solve"] += 1
        if isinstance(got, BasicSolution):
            return got
        raise got()

    reuse = lpengine.reuse_extreme_point

    def checked_reuse(state, prev):
        point = reuse(state, prev)
        lp, sol = point.lp, point.solution
        assert reference.row_status(lp, sol.values) == (True, sol.tight_rows)
        rank = verify_vertex_certificate(lp, sol)
        assert rank == reference.verify_vertex_certificate(lp, sol)
        counts["reuse"] += 1
        return point

    monkeypatch.setattr(lpengine, "simplex_solve", solve)
    monkeypatch.setattr(relax, "reuse_extreme_point", checked_reuse)
    return counts


def test_mcst_slice_matches_reference(checked_core):
    for inst in mcst_corpus(CorpusConfig(count=40)):
        run_mcst(inst)
    assert checked_core["solve"] > 0 and checked_core["reuse"] > 0


def test_covering_slices_match_reference(checked_core):
    rng = random.Random(404)
    for _ in range(10):
        run_intersection(random_intersection_instance(rng, max_elems=10, max_delta=3))
    solves = checked_core["solve"]
    assert solves > 0
    rng = random.Random(505)
    for i in range(18):
        variant = INCLUSION if i % 3 == 0 else GENERAL
        inst = random_lattice_instance(rng, max_ground=8, max_delta=2, variant=variant)
        run_lattice(inst)
    assert checked_core["solve"] > solves and checked_core["reuse"] > 0


def test_constraint_integer_form():
    row = make_lp([0, 0], [([Rat(1, 2), 0], "<=", Rat(1, 3))]).constraints[0]
    k, terms, rhs = row.scaled
    assert (k, rhs) == (6, 2) and {j: a for j, a in terms if a} == {0: 3}
    assert row.excess(4, [1, 0]) == 3 * 1 - 2 * 4  # 6*4*(1/8 - 1/3)
