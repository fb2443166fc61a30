from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossopt.errors import InternalCheckError
from crossopt.rational import Rat
from crossopt.simplex import LpInfeasible, simplex_solve, verify_vertex_certificate
from dense_rows import box_lp, rank_of_rows, vertex_at


def upper_row(lp, j):
    """The tight_rows index of column j's upper bound."""
    return len(lp.rows) + lp.num_vars + j


def row_vector(lp, idx):
    """The 0/1 coefficients, one rational per column, of a row or bound
    row of lp (the tight_rows index scheme)."""
    m = len(lp.rows)
    if idx < m:
        return [Rat((lp.rows[idx].mask >> v) & 1) for v in lp.var_ids]
    j = (idx - m) % lp.num_vars
    return [Rat(int(k == j)) for k in range(lp.num_vars)]


def test_equality_forces_unique_point():
    lp = box_lp([1, 1], [([1, 1], "=", 2)])
    sol = simplex_solve(lp)
    assert sol.values == (Rat(1), Rat(1))
    assert sol.objective == 2


def test_contradictory_rows_infeasible():
    lp = box_lp([0], [([1], ">=", Rat(2, 3)), ([1], "<=", Rat(1, 3))])
    with pytest.raises(LpInfeasible):
        simplex_solve(lp)


def test_triangle_total_row_unit_costs():
    lp = box_lp([1, 1, 1], [([1, 1, 1], "=", 2)])
    assert simplex_solve(lp).objective == 2


def test_fractional_optimum_exact():
    lp = box_lp([1, 0], [([1, 1], ">=", 1), ([0, 1], "<=", Rat(1, 2))])
    sol = simplex_solve(lp)
    assert sol.values == (Rat(1, 2), Rat(1, 2))
    assert sol.objective == Rat(1, 2)


def test_rank_of_rows_basics():
    assert rank_of_rows([[Rat(1), Rat(0)], [Rat(0), Rat(1)]]) == 2
    assert rank_of_rows([[Rat(1), Rat(1)], [Rat(2), Rat(2)]]) == 1
    assert rank_of_rows([]) == 0


def test_rank_of_tight_rows_at_four_cycle_half_point(edge_cover_4cycle):
    """The half-integral edge-cover vertex has |E'| independent tight rows."""
    from crossopt.intersection import IntersectionState
    from crossopt.lpengine import solve_to_extreme_point

    point = solve_to_extreme_point(IntersectionState(edge_cover_4cycle).residual())
    assert all(v == Rat(1, 2) for v in point.values)
    rows = [
        row_vector(point.lp, idx)
        for idx in point.tight_rows
        if idx < len(point.lp.rows)
    ]
    assert rank_of_rows(rows) == 4


def test_tight_rows_include_bound_rows():
    lp = box_lp([1, 1], [([1, 1], "=", 2)])
    sol = simplex_solve(lp)
    assert upper_row(lp, 0) in sol.tight_rows
    assert upper_row(lp, 1) in sol.tight_rows


def test_determinism_same_input_same_output():
    lp = box_lp(
        [3, 1, 4, 1],
        [([1, 1, 1, 1], ">=", 2), ([1, 0, 1, 0], "<=", 1), ([0, 1, 0, 1], "<=", 1)],
    )
    a = simplex_solve(lp)
    b = simplex_solve(lp)
    assert a.values == b.values and a.tight_rows == b.tight_rows


small_rat = st.integers(min_value=-3, max_value=3).map(Rat)
rows_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(0, 1), min_size=3, max_size=3),
        st.sampled_from(["<=", "=", ">="]),
        st.builds(Rat, st.integers(-4, 4), st.sampled_from([1, 1, 2])),
    ),
    min_size=0,
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(rows_strategy, st.lists(small_rat, min_size=3, max_size=3), st.randoms())
def test_constraint_order_never_changes_objective(rows, objective, rnd):
    lp = box_lp(objective, rows)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    lp2 = box_lp(objective, shuffled)
    try:
        first = simplex_solve(lp).objective
    except LpInfeasible:
        with pytest.raises(LpInfeasible):
            simplex_solve(lp2)
        return
    assert simplex_solve(lp2).objective == first


@settings(max_examples=120, deadline=None)
@given(rows_strategy, st.lists(small_rat, min_size=3, max_size=3))
def test_support_bounded_by_certificate_rank(rows, objective):
    lp = box_lp(objective, rows)
    try:
        sol = simplex_solve(lp)
    except LpInfeasible:
        return
    support = [j for j in range(lp.num_vars) if sol.values[j] != 0]
    m = len(lp.rows)
    constraint_rows = [
        [row_vector(lp, idx)[j] for j in support]
        for idx in sol.tight_rows
        if idx < m
    ]
    at_bound = sum(1 for v in sol.values if v in (0, 1))
    assert len(support) <= rank_of_rows(constraint_rows) + at_bound
    # and the full certificate re-verifies
    verify_vertex_certificate(lp, sol)


def test_certificate_rejects_nonvertex():
    lp = box_lp([0, 0], [([1, 1], "=", 1)])
    fake = replace(vertex_at(lp, (Rat(1, 2), Rat(1, 2))), tight_rows=(0,))
    with pytest.raises(InternalCheckError):
        verify_vertex_certificate(lp, fake)
