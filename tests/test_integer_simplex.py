"""The integer-preserving simplex core against the Fraction code it
replaced (tests/fraction_simplex.py).

The LPs are drawn from the class the solvers build: 0/1 rows over the
unit box, with fractional and negative right-hand sides, <=, = and >=
rows (so phase 1 runs), repeated equalities and degenerate ties.  The
Fraction simplex takes the dense form of each LP (tests/dense_rows.py);
that adapter at its input is the only difference.  Every LP must give
the identical solution (values, objective, tight rows, and their
rational types), the identical pivot count, or the identical exception.
The two tableaux are also stepped side by side: after every pivot and
every change of costs, A / q, the integer reduced costs and the basic
values beta_i / (q * R) of the integer right-hand side column must
equal the Fraction tableau's entries.  The package's tableau stores
only its nonbasic columns; its snapshots expand it to all columns
(tests/full_tableau.py), and every package solve here is also stepped
side by side with the full-width integer tableau it condensed, which
must agree entry for entry after every step.  The integer row checks
and certificate must give the tight rows, rank or error of the Fraction
ones and of the dense and mask integer ones they replaced.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_rows
import fraction_simplex as reference
from conftest import count_pivots
from full_tableau import Recorded, expanded, step_side_by_side
from dense_rows import (
    BasicSolution,
    box_lp,
    dense_lp,
    dense_solution,
    mask_lp,
    rank_of_rows,
    vertex_at,
)
from crossopt import lpengine, relax, simplex
from crossopt.errors import InternalCheckError
from crossopt.graphs import mask_of
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
    EQ,
    RELATIONS,
    LinearProgram,
    LpInfeasible,
    Row,
    Vertex,
    row_status,
    scale_values,
    simplex_solve,
    verify_vertex_certificate,
)


def solve_counted(solve, lp):
    """(BasicSolution or exception type, pivots taken, failed solves
    included) of one solve; the Fraction reference solves the dense form
    of lp, and the package's Vertex is compared as a BasicSolution."""
    module = reference if solve is reference.simplex_solve else simplex
    if module is reference:
        lp = dense_lp(lp)
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        count_pivots(patch, module, counts)
        if module is simplex:
            step_side_by_side(patch, simplex)
        try:
            result = solve(lp)
        except LpInfeasible as exc:
            result = type(exc)
        else:
            if isinstance(result, Vertex):
                assert (result.den, list(result.scaled)) == scale_values(result.values)
                result = dense_solution(result)
            for v in (*result.values, result.objective_value):
                assert type(v) is Rat
    return result, counts["pivots"]


class FractionTableau(Recorded, reference._Tableau):
    def snapshot(self):
        return (
            list(self.basis),
            [list(row) for row in self.T],
            list(self.d),
            list(self.bval),
        )


class IntegerTableau(Recorded, simplex._Tableau):
    def snapshot(self):
        """Entries in the units of the Fraction tableau, the condensed
        tableau expanded to all columns.  q, R, the right-hand side
        column and the stored bounds R are all ints."""
        q, R = self.q, self.R
        assert type(q) is int and q > 0 and type(R) is int and R > 0
        assert all(u is None or type(u) is int for u in self.ub)
        assert all(type(row[-1]) is int for row in self.A)
        full, full_d = expanded(self)
        rows = [[Rat(a, q) for a in row[:-1]] for row in full]
        d = [Rat(a, q * self.cost_den) for a in full_d]
        bval = [Rat(row[-1], q * R) for row in self.A]
        return list(self.basis), rows, d, bval

    def solve(self):
        """The values as rationals; (D, X) must be their scale_values."""
        den, scaled = super().solve()
        values = tuple(Rat(x, den) for x in scaled)
        assert (den, scaled) == scale_values(values)
        return values


def run_tableau(cls, lp):
    tableau = cls(lp)
    try:
        values = tableau.solve()
    except LpInfeasible as exc:
        values = type(exc)
    return values, tableau.snapshots, tableau.pivots, tableau


def assert_same_run(lp):
    got = solve_counted(simplex_solve, lp)
    assert got == solve_counted(reference.simplex_solve, lp)
    values, snapshots, pivots, _ = run_tableau(IntegerTableau, lp)
    ref_values, ref_snapshots, ref_pivots, _ = run_tableau(FractionTableau, dense_lp(lp))
    assert values == ref_values and pivots == ref_pivots == got[1]
    assert len(snapshots) == len(ref_snapshots)
    for step, (snap, ref_snap) in enumerate(zip(snapshots, ref_snapshots)):
        assert snap == ref_snap, step
    return got[0]


# -- random LPs ----------------------------------------------------------------

# Right-hand sides: fractional ones make R > 1, negative ones flip their
# row (a lattice row's lower - fixed can be negative), and zeros make
# degenerate ties.  Costs are any small rationals.
rhs_value = st.one_of(
    st.just(Rat(0)),
    st.builds(Rat, st.integers(-3, 6), st.sampled_from([1, 1, 2, 3, 4])),
)
cost = st.builds(Rat, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
# values of a point to check: mostly in the box, some outside it
point_value = st.one_of(
    st.sampled_from([Rat(0), Rat(1)]),
    st.builds(Rat, st.integers(-2, 6), st.sampled_from([1, 2, 3, 4])),
)


@st.composite
def lps(draw):
    """A solver-class LP: variable ids as the solvers number them (the
    undecided ids, not always 0..n-1), rows as id-masks over them."""
    var_ids = tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=5))))
    mask = st.lists(st.sampled_from(var_ids), unique=True).map(mask_of)
    rows = draw(
        st.lists(st.tuples(mask, st.sampled_from(RELATIONS), rhs_value), max_size=6)
    )
    if rows and draw(st.booleans()):
        # a row made an equality and repeated: a redundant equality
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = (rows[i][0], EQ, rows[i][2])
        rows.insert(draw(st.integers(0, len(rows))), rows[i])
    objective = tuple(draw(st.lists(cost, min_size=len(var_ids), max_size=len(var_ids))))
    return LinearProgram(var_ids, objective, tuple(Row(*row) for row in rows))


@settings(max_examples=400, deadline=None)
@given(lps())
def test_random_lps_match_reference(lp):
    assert_same_run(lp)


# One LP of each kind the property must cover, so each is checked on
# every run whatever Hypothesis draws.
FIXED = {
    "le-ge-eq-rows": box_lp(
        [1, Rat(-1, 2), 2],
        [
            ([1, 1, 0], "<=", Rat(5, 6)),
            ([1, 1, 1], ">=", Rat(1, 2)),
            ([0, 1, 1], "=", 1),
        ],
    ),
    "negative-rhs": box_lp(
        [Rat(-1, 2), 1, -1],
        [
            ([1, 1, 0], ">=", -1),
            ([0, 1, 1], "=", Rat(1, 2)),
            ([1, 0, 1], "<=", Rat(4, 3)),
        ],
    ),
    "negative-rhs-equality": box_lp([1, 1], [([1, 1], "=", Rat(-1, 2))]),
    "infeasible": box_lp(
        [0, 1], [([1, 1], ">=", Rat(3, 2)), ([1, 0], "<=", Rat(1, 3))]
    ),
    "redundant-equalities": box_lp(
        [1, 2, 3], [([1, 1, 1], "=", 2), ([1, 1, 1], "=", 2)]
    ),
    "bound-flips-over-unit-spans": box_lp([-1, -1], [([1, 1], "<=", Rat(5, 2))]),
    "degenerate-tie-to-lower-index": box_lp(
        [-1, 0], [([1, 1], "=", 0), ([1, 0], "<=", 0)]
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_lps_match_reference(name):
    got = assert_same_run(FIXED[name])
    if name in ("infeasible", "negative-rhs-equality"):
        assert got is LpInfeasible
    else:
        assert isinstance(got, BasicSolution)


def test_fixed_lps_reach_their_cases():
    def run(name):
        return run_tableau(IntegerTableau, FIXED[name])

    # both variables flip to their upper bound 1 without a pivot; the
    # rhs 5/2 makes R = 2, the stored bound of each
    values, _, pivots, tableau = run("bound-flips-over-unit-spans")
    assert values == (1, 1) and pivots == 0
    assert tableau.R == 2 and tableau.ub[:2] == [2, 2]
    assert tableau.status[:2] == ["U", "U"]
    # x0 + x1 >= -1 enters negated, as the <= row -x0 - x1 <= 1 (times
    # R = 6) with a slack and no artificial; the slack (column 3) is
    # basic, so the row stores only the structurals and the rhs
    tableau = simplex._Tableau(FIXED["negative-rhs"])
    assert tableau.R == 6 and tableau.A[0] == [-1, -1, 0, 6]
    assert expanded(tableau)[0][0] == [-1, -1, 0, 1, 0, 0, 6]
    assert tableau.cols == [0, 1, 2] and tableau.basis == [3, 5, 4]
    assert tableau.basis[0] < tableau.art_start
    # the >= row's slack (column 4) is nonbasic under its artificial
    # (column 5), so it is stored, at position 3
    tableau = simplex._Tableau(FIXED["le-ge-eq-rows"])
    assert tableau.cols == [0, 1, 2, 4] and tableau.basis == [3, 5, 6]
    assert tableau.A[1] == [1, 1, 1, -1, 3]
    assert expanded(tableau)[0][1] == [1, 1, 1, 0, -1, 1, 0, 3]
    # x0 enters with ratio 0 in both rows; row 1's slack (column 2)
    # leaves before row 0's artificial (column 3)
    _, snapshots, _, _ = run("degenerate-tie-to-lower-index")
    assert snapshots[0][0] == [3, 2] and snapshots[1][0] == [3, 0]
    assert snapshots[1][3] == [0, 0]


# -- the tableau's internal errors -------------------------------------------


def test_zero_pivot_is_an_internal_error():
    # x1 has no entry in the one row x0 <= 1
    tableau = simplex._Tableau(box_lp([0, 0], [([1, 0], "<=", 1)]))
    with pytest.raises(InternalCheckError, match="zero pivot"):
        tableau._pivot(0, 1)


def test_pivot_limit_is_an_internal_error(monkeypatch):
    # the equality needs a phase-1 pivot, one past the limit of none
    monkeypatch.setattr(simplex, "_MAX_PIVOTS", 0)
    with pytest.raises(InternalCheckError, match="pivot limit exceeded"):
        simplex.simplex_solve(box_lp([1, 1], [([1, 1], "=", 1)]))


def test_nonzero_artificial_is_an_internal_error():
    # the equality's artificial starts basic at 1; solve drives artificials
    # out only once phase 1 has brought every one of them to 0
    tableau = simplex._Tableau(box_lp([1, 1], [([1, 1], "=", 1)]))
    with pytest.raises(InternalCheckError, match="artificial basic at nonzero"):
        tableau.drive_out_artificials()


def test_unlimited_step_is_an_internal_error():
    # x0 >= 1 with its slack (column 1) given cost -1: the slack has no
    # upper bound, and no row limits it, since its -1 entry only raises
    # the artificial, which has no upper bound in phase 1.  solve never
    # gets here: in a box-bounded LP some row or bound limits each step.
    tableau = simplex._Tableau(box_lp([0], [([1], ">=", 1)]))
    tableau.set_costs([0, -1, 0], 1)
    with pytest.raises(InternalCheckError, match="no row limits a step"):
        tableau.optimize(allow_art_entering=True)


@pytest.mark.parametrize("rel, rhs", [("<=", 1), ("=", 0), (">=", 1)])
def test_no_variable_lps_match_reference(rel, rhs):
    lp = LinearProgram((), (), (Row(0, "<=", Rat(0)), Row(0, rel, Rat(rhs))))
    got = solve_counted(simplex_solve, lp)
    assert got == solve_counted(reference.simplex_solve, lp)


# -- row checks, certificates and rank ----------------------------------------------


def certificate_outcome(verify, lp, solution):
    try:
        return verify(lp, solution)
    except InternalCheckError as exc:
        return str(exc)


def assert_same_checks(lp, point):
    """row_status and the certificate of the Vertex point in lp give
    the tight rows, and the rank or error, of the Fraction and the dense
    integer references on the dense LP and of the mask reference."""
    dense, mask, sol = dense_lp(lp), mask_lp(lp), dense_solution(point)
    tight = row_status(lp, point)
    assert mask.status(point) == tight
    for ref in (reference, dense_rows):
        assert ref.row_status(dense, sol.values) == (tight is not None, tight)
    outcome = certificate_outcome(verify_vertex_certificate, lp, point)
    verify = dense_rows.verify_vertex_certificate
    assert outcome == certificate_outcome(verify, mask, point)
    for ref in (reference, dense_rows):
        assert outcome == certificate_outcome(ref.verify_vertex_certificate, dense, sol)
    return tight, outcome


@settings(max_examples=300, deadline=None)
@given(lps(), st.data())
def test_row_checks_and_certificates_match_reference(lp, data):
    point = st.lists(point_value, min_size=lp.num_vars, max_size=lp.num_vars)
    assert_same_checks(lp, vertex_at(lp, tuple(data.draw(point))))
    try:
        sol = reference.simplex_solve(dense_lp(lp))
    except LpInfeasible:
        return
    rows = range(len(lp.rows) + 2 * lp.num_vars)
    # the true certificate, one with rows dropped or added, and a moved point
    claims = [
        sol.tight_rows,
        tuple(data.draw(st.lists(st.sampled_from(sol.tight_rows or (0,))))),
        sol.tight_rows + tuple(data.draw(st.lists(st.sampled_from(rows), max_size=2))),
    ]
    moved = (sol.values[0] + data.draw(point_value),) + sol.values[1:]
    candidates = [(sol.values, c) for c in claims] + [(moved, sol.tight_rows)]
    for values, claim in candidates:
        assert_same_checks(lp, replace(vertex_at(lp, values), tight_rows=claim))


coefficient = st.one_of(
    st.just(Rat(0)),
    st.builds(Rat, st.integers(-3, 3)),
    st.builds(Rat, st.integers(-6, 6), st.sampled_from([2, 3, 4, 6])),
)


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
    Fraction simplex, and its tableau is stepped side by side with the
    full-width one; every reused vertex is re-checked by the Fraction
    row check and certificate.  Counts calls by kind."""
    counts = Counter()
    count_pivots(monkeypatch, simplex, counts)
    step_side_by_side(monkeypatch, simplex)

    def solve(lp):
        before = counts["pivots"]
        try:
            got = simplex_solve(lp)
        except LpInfeasible as exc:
            ours = type(exc)
        else:
            ours = dense_solution(got)
        pivots = counts["pivots"] - before
        assert (ours, pivots) == solve_counted(reference.simplex_solve, lp)
        counts["solve"] += 1
        if isinstance(ours, BasicSolution):
            return got
        raise ours()

    reuse = lpengine.reuse_extreme_point

    def checked_reuse(state, prev, face):
        point = reuse(state, prev, face)
        lp, sol = dense_lp(point.lp), dense_solution(point)
        assert reference.row_status(lp, sol.values) == (True, sol.tight_rows)
        rank = verify_vertex_certificate(point.lp, point)
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
    lp = box_lp([0, 0], [([1, 0], "<=", Rat(1, 3))])
    row = lp.rows[0]
    assert row == Row(0b01, "<=", Rat(1, 3))
    point = vertex_at(lp, [Rat(1, 4), Rat(0)])
    assert (point.den, point.scaled) == (4, (1, 0))
    # D = 4 and D * x0 = 1, so 4*3*(1/4 - 1/3) = 1*3 - 1*4
    assert row.excess(point) == 1 * 3 - 1 * 4
    # a row names variables by id, whatever the LP's columns
    lp = LinearProgram((2, 5), (Rat(0), Rat(0)), (Row(0b100100, ">=", Rat(1, 2)),))
    point = vertex_at(lp, [Rat(1, 3), Rat(1, 2)])
    assert point.load(lp.rows[0].mask) == 2 + 3
    assert lp.rows[0].excess(point) == (2 + 3) * 2 - 1 * 6
