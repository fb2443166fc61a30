import copy
import random
from collections import Counter

import pytest

from crossopt.graphs import Graph
from crossopt.errors import SizeGuardError
from crossopt.generators import gen_edge_cover_tight, gen_planar_mincut_gap
from crossopt.laminar import LaminarForest
from crossopt.intersection import IntersectionState, run_intersection
from crossopt.lattice import LatticeState, run_lattice
from crossopt.lpengine import (
    separate_contra_polymatroid,
    separate_lattice,
    separate_spanning_tree,
    solve_to_extreme_point,
)
from crossopt.mcst import McstState, run_mcst
from crossopt.oracles import ContraPolymatroidPair
from crossopt.randgen import (
    MCST_DROP_SEEDS,
    random_intersection_instance,
    random_lattice_instance,
    random_mcst_instance,
)
from crossopt.rational import Rat
from crossopt.simplex import LpInfeasible, Vertex
from conftest import values_by_id
from optimal_face import coordinate_ranges, full_separation_clean
from uncached_steps import rebuilt_mcst_lp, tighten_degree_bounds


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
    pair = gen_edge_cover_tight(1).pair
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
    state = rebuilt_mcst_lp(triangle, 0b111, 0, ())
    point = solve_to_extreme_point(state)
    assert point.objective == 2
    assert sorted(point.values) == [Rat(0), Rat(1), Rat(1)]
    assert full_separation_clean(state, point)


def test_edge_cover_solve_half_everywhere(edge_cover_4cycle):
    inst = edge_cover_4cycle
    state = IntersectionState(inst).residual()
    point = solve_to_extreme_point(state)
    assert point.objective == 2
    assert all(v == Rat(1, 2) for v in point.values)
    assert full_separation_clean(state, point)
    ranges = coordinate_ranges(
        state, point.objective, tuple(inst.costs)
    )
    assert all(lo == hi == Rat(1, 2) for lo, hi in ranges)


def test_infeasible_residual_propagates(triangle):
    forest_rows = ((0, 0b001, Rat(0)),)  # vertex 0 may not be reached
    state = rebuilt_mcst_lp(triangle, 0b111, 0, forest_rows)
    with pytest.raises(LpInfeasible):
        solve_to_extreme_point(state)


# -- residual snapshots ---------------------------------------------------------------


def residual_outputs(residual, point, witnesses):
    """What a Residual gives: its LP, its separation at point and at the
    zero point, which violates rows that depend on the fixed set, and
    its cut rows at the witnesses."""
    zero = Vertex.of_values({v: Rat(0) for v in point.var_ids})
    return (
        copy.deepcopy(residual.lp),
        residual.separate(point),
        residual.separate(zero),
        [residual.cut_row(kind, witness) for kind, witness in witnesses],
    )


def test_residual_is_unchanged_by_later_steps(monkeypatch):
    """A Residual taken before a step gives the same LP, separation
    results and cut rows after it: its functions bind the iteration's
    decided sets, not the state the step edits."""
    rng = random.Random(0)
    steps = Counter()

    def witnesses(state, residual, point):
        """Cut witnesses of every family: the point's tight cuts (its
        tight rows that the base LP does not hold) and a few random
        ones."""
        base = {row.tag for row in residual.lp.rows}
        picked = [tag for tag in point.tight_tags() if tag not in base]
        if isinstance(state, McstState):
            full = state.graph.full_vmask
            picked += [("subtour", rng.randint(1, full)) for _ in range(4)]
        elif isinstance(state, IntersectionState):
            top = (1 << state.instance.n) - 1
            picked += [(kind, rng.randint(0, top)) for kind in ("cover1", "cover2")]
        else:
            size = state.instance.lat.size
            picked += [("rank", rng.randrange(size)) for _ in range(4)]
        return picked

    for cls in (McstState, IntersectionState, LatticeState):
        step = cls.step

        def checked(state, point, lp_initial, trace, step=step):
            if point is None:
                return step(state, point, lp_initial, trace)
            residual = state.residual()
            cuts = witnesses(state, residual, point)
            before = residual_outputs(residual, point, cuts)
            start = len(trace.events)
            reuse = step(state, point, lp_initial, trace)
            assert residual_outputs(residual, point, cuts) == before
            steps.update(ev["ev"] for ev in trace.events[start:])
            return reuse

        monkeypatch.setattr(cls, "step", checked)
    for seed in MCST_DROP_SEEDS + (0, 1):
        run_mcst(random_mcst_instance(random.Random(seed)))
    for seed in range(4):
        run_intersection(random_intersection_instance(random.Random(seed)))
        run_lattice(random_lattice_instance(random.Random(seed)))
    for kind in ("fix", "delete", "tighten", "drop", "drop_children", "merge_leaves"):
        assert steps[kind] > 0, kind


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
    state = rebuilt_mcst_lp(triangle, 0b111, 0, ((0, 0b001, Rat(2)),))
    point = solve_to_extreme_point(state)
    x = values_by_id(point)
    load = sum(x[e] for e in x if (triangle.delta_mask(0b001) >> e) & 1)
    changes = tighten_degree_bounds(forest, triangle, 0b111, point)
    assert forest.node(0).bound == load
    if load == Rat(2):
        assert changes == []
