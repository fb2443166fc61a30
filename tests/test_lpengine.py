import pytest

from conftest import edge_cover_pair
from crossopt.graphs import Graph
from crossopt.errors import SizeGuardError
from crossopt.generators import gen_planar_mincut_gap
from crossopt.laminar import LaminarForest
from crossopt.lpengine import (
    ResidualIntersectionLp,
    ResidualMcstLp,
    separate_contra_polymatroid,
    separate_lattice,
    separate_spanning_tree,
    solve_to_extreme_point,
    tighten_degree_bounds,
)
from crossopt.oracles import ContraPolymatroidPair
from crossopt.rational import Rat
from crossopt.simplex import LpInfeasible, Vertex
from optimal_face import coordinate_ranges, full_separation_clean


def x_of(values):
    return Vertex.of_values(
        {i: Rat(v) if not isinstance(v, tuple) else Rat(*v) for i, v in enumerate(values)}
    )


# -- spanning tree separation -----------------------------------------------------


def test_triangle_all_ones_violates_total_row(triangle):
    res = separate_spanning_tree(x_of([1, 1, 1]), triangle, 0)
    assert not res.feasible and res.family == "tree_total"
    assert res.lhs == 3 and res.rhs == 2


def test_triangle_two_thirds_feasible(triangle):
    assert separate_spanning_tree(x_of([(2, 3)] * 3), triangle, 0).feasible


def test_four_cycle_three_quarters_feasible(four_cycle):
    assert separate_spanning_tree(x_of([(3, 4)] * 4), four_cycle, 0).feasible


def test_subtour_most_violated_and_reverified(four_cycle):
    # overload one 2-subset: edge 0 at value 2 is clipped by U={0,1}
    res = separate_spanning_tree(
        Vertex.of_values({0: Rat(2), 1: Rat(1, 3), 2: Rat(1, 3), 3: Rat(1, 3)}),
        four_cycle,
        0,
    )
    assert not res.feasible and res.family == "subtour"
    assert res.witness == 0b0011 and res.lhs == 2 and res.rhs == 1


def test_spanning_guard():
    big = Graph.from_pairs(21, [(i, i + 1) for i in range(20)], [1] * 20)
    with pytest.raises(SizeGuardError):
        separate_spanning_tree(Vertex.of_values({i: Rat(1) for i in range(20)}), big, 0)


def test_fixed_edges_tighten_subtour_rows(four_cycle):
    # with edge 0 fixed, U={0,1} admits no more undecided edges inside
    res = separate_spanning_tree(
        Vertex.of_values({1: Rat(1), 2: Rat(1, 2)}), four_cycle, 0b1001
    )
    assert not res.feasible


# -- covering separation -----------------------------------------------------------


def test_zero_requirement_always_feasible():
    pair = ContraPolymatroidPair(3, (0,) * 8, (0,) * 8)
    assert separate_contra_polymatroid(x_of([0, 0, 0]), 0, pair).feasible


def test_edge_cover_half_feasible_quarter_violated():
    pair = edge_cover_pair(1)
    assert separate_contra_polymatroid(x_of([(1, 2)] * 4), 0, pair).feasible
    res = separate_contra_polymatroid(x_of([(1, 4)] * 4), 0, pair)
    assert not res.feasible
    # the most violated set is the full ground set here; each vertex star
    # is also violated (1/2 < 1), which the direct row check confirms
    star = 0b1001  # both edges at vertex 0
    lhs = Rat(1, 4) + Rat(1, 4)
    assert lhs < pair.requirement(star)


# -- lattice separation --------------------------------------------------------------


def test_lattice_zero_ranks_feasible():
    from crossopt.oracles import MatroidOracle, matroid_to_lattice

    lat = matroid_to_lattice(MatroidOracle(2, (0, 0, 0, 0)))
    assert separate_lattice(x_of([0, 0]), 0, lat).feasible


def test_planar_lattice_separation_examples():
    inst, _ = gen_planar_mincut_gap(2)
    lat = inst.lat
    point = Vertex.of_values({e: Rat(1, 4) for e in range(8)})
    assert separate_lattice(point, 0, lat).feasible
    res = separate_lattice(Vertex.of_values({e: Rat(1, 8) for e in range(8)}), 0, lat)
    assert not res.feasible and res.lhs == Rat(1, 2) and res.rhs == 1
    assert res.witness == 0  # ties break by member index


# -- cutting-plane solves -------------------------------------------------------------


def test_triangle_solve_integral(triangle):
    state = ResidualMcstLp(triangle, 0b111, 0, ())
    point = solve_to_extreme_point(state)
    assert point.objective == 2
    assert sorted(point.x_by_id.values()) == [Rat(0), Rat(1), Rat(1)]
    assert full_separation_clean(state, point)


def test_edge_cover_solve_half_everywhere(edge_cover_4cycle):
    inst = edge_cover_4cycle
    state = ResidualIntersectionLp(
        inst.pair,
        inst.costs,
        0b1111,
        0,
        tuple((i, c.elems, c.upper) for i, c in enumerate(inst.constraints)),
    )
    point = solve_to_extreme_point(state)
    assert point.objective == 2
    assert all(v == Rat(1, 2) for v in point.x_by_id.values())
    assert full_separation_clean(state, point)
    ranges = coordinate_ranges(
        state, point.objective, tuple(inst.costs)
    )
    assert all(lo == hi == Rat(1, 2) for lo, hi in ranges)


def test_infeasible_residual_propagates(triangle):
    forest_rows = ((0, 0b001, Rat(0)),)  # vertex 0 may not be reached
    state = ResidualMcstLp(triangle, 0b111, 0, forest_rows)
    with pytest.raises(LpInfeasible):
        solve_to_extreme_point(state)


# -- bound tightening ----------------------------------------------------------------


def test_tighten_examples(triangle):
    forest = LaminarForest.from_sets([(0b001, Rat(3))])
    x = {0: Rat(1), 1: Rat(1, 2), 2: Rat(1)}  # load at vertex 0: edges 0 and 2
    changes = tighten_degree_bounds(forest, triangle, 0b111, Vertex.of_values(x))
    assert changes == [(0, Rat(3), Rat(2))]
    assert forest.node(0).bound == Rat(2)
    # already tight: no change
    assert tighten_degree_bounds(forest, triangle, 0b111, Vertex.of_values(x)) == []


def test_tighten_triangle_bound_two(triangle):
    forest = LaminarForest.from_sets([(0b001, Rat(2))])
    state = ResidualMcstLp(triangle, 0b111, 0, ((0, 0b001, Rat(2)),))
    point = solve_to_extreme_point(state)
    load = sum(
        point.x_by_id[e]
        for e in point.x_by_id
        if (triangle.delta_mask(0b001) >> e) & 1
    )
    changes = tighten_degree_bounds(forest, triangle, 0b111, point)
    assert forest.node(0).bound == load
    if load == Rat(2):
        assert changes == []
