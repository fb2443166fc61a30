"""Separation verdicts carried to a reused vertex by the face check.

After a fix or delete step the relax loop reuses the previous vertex on
the face (e, c) that the step names, and lpengine.reuse_extreme_point
does not separate it again: once x_e = c at the previous vertex and the
new variables are its variables less e, the reused point is the
previous vertex in full coordinates, which was found feasible.  The
differential below runs the raw lpengine scan on every reused vertex of
the MCST seeds 0-39, the drop-round seeds and the benchmark's seed-0
covering-corpus lattices, at the state's fixed set, and must find each
feasible.  The face cases take the first reuse of an MCST run and of a
lattice run, and reuse must refuse a face the vertex is not on, a face
variable the vertex lacks and a residual that lost a second variable.
The unit cases check that a state's separator reads the fixed set its
residual was built with, and reports a violated row in that fixed
set's coordinates.
"""

from random import Random
from collections import Counter

import pytest

from conftest import _after
from test_mask_reuse import benchmark_instances
from crossopt import lattice, lpengine, mcst, relax
from crossopt.errors import InternalCheckError
from crossopt.graphs import Graph
from crossopt.instances import LatticeInstance, McstInstance
from crossopt.lattice import LatticeState, run_lattice
from crossopt.mcst import McstState, run_mcst
from crossopt.oracles import CrossingConstraint, LatticeOracle
from crossopt.randgen import (
    MCST_DROP_SEEDS,
    random_lattice_instance,
    random_mcst_instance,
)
from crossopt.rational import Rat
from crossopt.relax import RunTrace
from crossopt.simplex import LinearProgram, Vertex

OK = lpengine.SeparationResult.ok()


def raw_tree(state, fmask, point):
    return lpengine.separate_spanning_tree(point, state.graph, fmask)


def raw_lattice(state, fmask, point):
    return lpengine.separate_lattice(point, fmask, state.instance.lat)


def test_reused_vertices_pass_the_raw_scans(tmp_path):
    lattices = [
        instance
        for instance in benchmark_instances("covering-corpus", 0, tmp_path)
        if isinstance(instance, LatticeInstance)
    ]
    reused = Counter()

    def scanned(point, state, prev, face, first):
        # the residual was built inside the call, so state.fmask is its
        # fixed set
        if face is not None:
            raw = raw_tree if isinstance(state, McstState) else raw_lattice
            assert raw(state, state.fmask, point) == OK
            reused[type(state)] += 1

    with pytest.MonkeyPatch.context() as patch:
        _after(patch, relax, "_extreme_point", scanned)
        for seed in tuple(range(40)) + MCST_DROP_SEEDS:
            run_mcst(random_mcst_instance(Random(seed)))
        for instance in lattices:
            run_lattice(instance)
    assert reused[McstState] > 0 and reused[LatticeState] > 0


@pytest.mark.parametrize(
    "run, module, name, instance",
    [
        (run_mcst, mcst, "separate_spanning_tree", random_mcst_instance(Random(2801))),
        (run_lattice, lattice, "separate_lattice", random_lattice_instance(Random(2802))),
    ],
)
def test_separator_scans_are_counted_per_run(run, module, name, instance):
    # a run keeps no verdict for the next: a second run of the same
    # instance scans as often as the first.  The seeds are drawn by no
    # other test, so verdicts kept across runs would show here whatever
    # ran before
    scans = []
    counts = []
    with pytest.MonkeyPatch.context() as patch:
        _after(patch, module, name, lambda *call: scans.append(call))
        for _ in range(2):
            before = len(scans)
            run(instance)
            counts.append(len(scans) - before)
    assert counts[0] == counts[1] > 0


# -- the face check ------------------------------------------------------------


def first_reuse(state):
    """(residual, prev, face) of the first reuse in the run of state."""
    calls = []

    def recorded(point, *call):
        calls.append(call)

    with pytest.MonkeyPatch.context() as patch:
        _after(patch, relax, "reuse_extreme_point", recorded)
        relax.relax(state)
    return calls[0]


def without(residual, v):
    """The Residual with the variable v also gone from its LP."""
    lp = residual.lp
    keep = [j for j, u in enumerate(lp.var_ids) if u != v]
    rows = tuple(row._replace(mask=row.mask & ~(1 << v)) for row in lp.rows)
    return residual._replace(
        lp=LinearProgram(
            tuple(lp.var_ids[j] for j in keep),
            tuple(lp.objective[j] for j in keep),
            rows,
        )
    )


@pytest.fixture(
    scope="module",
    params=[
        lambda: McstState(random_mcst_instance(Random(0))),
        lambda: LatticeState(random_lattice_instance(Random(505))),
    ],
    ids=["mcst", "lattice"],
)
def reuse_call(request):
    return first_reuse(request.param())


def test_reuse_takes_the_previous_vertex_less_the_face_variable(reuse_call):
    residual, prev, (e, c) = reuse_call
    point = lpengine.reuse_extreme_point(residual, prev, (e, c))
    at = prev.var_ids.index(e)
    assert prev.scaled[at] == c * prev.den
    assert point.var_ids == prev.var_ids[:at] + prev.var_ids[at + 1:]
    assert point.scaled == prev.scaled[:at] + prev.scaled[at + 1:]


def test_reuse_refuses_a_face_the_vertex_is_not_on(reuse_call):
    residual, prev, (e, c) = reuse_call
    with pytest.raises(InternalCheckError, match="not on the face"):
        lpengine.reuse_extreme_point(residual, prev, (e, 1 - c))


def test_reuse_refuses_a_face_variable_the_vertex_lacks(reuse_call):
    residual, prev, (e, c) = reuse_call
    missing = max(prev.var_ids) + 1
    with pytest.raises(InternalCheckError, match="not a previous variable"):
        lpengine.reuse_extreme_point(residual, prev, (missing, c))


def test_reuse_refuses_a_residual_that_lost_a_second_variable(reuse_call):
    residual, prev, (e, c) = reuse_call
    for v in residual.lp.var_ids:
        with pytest.raises(InternalCheckError, match="less"):
            lpengine.reuse_extreme_point(without(residual, v), prev, (e, c))


# -- unit cases ----------------------------------------------------------------


def mcst_state():
    """The 4-vertex graph of a triangle 0-1-2 with edge ids 0 (0,1),
    1 (1,2), 2 (0,2), a pendant edge 3 (2,3) and a chord 4 (1,3)."""
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)], [1] * 5)
    return McstState(McstInstance(graph, ((0b1000, Rat(2)),)))


def diamond_instance():
    """Members {0} < {0,1}, {0,2} < {0,1,2} with ranks 1, 1, 1, 2: the
    rows x0 >= 1, x0 + x1 >= 1, x0 + x2 >= 1 and x0 + x1 + x2 >= 2."""
    lat = LatticeOracle.from_leq(
        3,
        rho=[0b001, 0b011, 0b101, 0b111],
        rank=[1, 1, 1, 2],
        leq=[[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
        meet=[[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
        join=[[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
    )
    bound = CrossingConstraint(0b111, None, Rat(3))
    return LatticeInstance(lat, (Rat(1),) * 3, (bound,))


def lattice_state():
    return LatticeState(diamond_instance())


def fix_lattice_element(state, lp, den, scaled):
    """Fix the first element at value 1 of the point scaled / den of lp
    (which has no zeros) by the state's own step."""
    point = Vertex.scaled_at(lp, den, scaled)
    assert state.step(point, point.objective, RunTrace())


def at(residual, den, scaled):
    return Vertex.scaled_at(residual.lp, den, scaled)


def test_mcst_verdict_is_not_carried_to_another_fixed_set():
    # (1/2, 1/2, 1, 1, 0) is a tree point.  After edge 4 is fixed, the
    # point with the same values on the other edges has the same ones
    # but four edges at load 1: it must be scanned and found violated,
    # also when the first verdict was asked of the old residual after
    # the fix
    state = mcst_state()
    before = state.residual()
    state.fix_edge(4)
    feasible = at(before, 2, (1, 1, 2, 2, 0))
    assert before.separate(feasible) == OK == raw_tree(state, 0, feasible)
    after = state.residual()
    moved = at(after, 2, (1, 1, 2, 2))
    got = after.separate(moved)
    assert got == raw_tree(state, 1 << 4, moved) and not got.feasible


def test_lattice_verdict_is_not_carried_to_another_fixed_set():
    # after element 0 is fixed, (1/2, 1/2) on elements 1 and 2 is
    # feasible; the old residual, with element 0 at 0 and the same
    # fractional values, must still scan and find x0 >= 1 violated
    state = lattice_state()
    before = state.residual()
    fix_lattice_element(state, before.lp, 2, (2, 1, 1))
    after = state.residual()
    fixed = at(after, 2, (1, 1))
    assert after.separate(fixed) == OK == raw_lattice(state, 1, fixed)
    unfixed = at(before, 2, (0, 1, 1))
    got = before.separate(unfixed)
    assert got == raw_lattice(state, 0, unfixed) and not got.feasible


def test_mcst_violated_result_is_not_kept():
    # (1/2, 1/2, 1, 1, 1/2) carries 7/2 on a 4-vertex tree; after edge 2
    # is fixed the same full point reads 5/2 against 2
    state = mcst_state()
    residual = state.residual()
    point = at(residual, 2, (1, 1, 2, 2, 1))
    first = residual.separate(point)
    assert not first.feasible and residual.separate(point) == first
    assert (first.lhs, first.rhs) == (Rat(7, 2), Rat(3))
    state.fix_edge(2)
    after = state.residual()
    moved = at(after, 2, (1, 1, 2, 1))
    got = after.separate(moved)
    assert got == raw_tree(state, 1 << 2, moved)
    assert (got.family, got.lhs, got.rhs) == ("tree_total", Rat(5, 2), Rat(2))


def test_lattice_violated_result_is_not_kept():
    # (1, 1/4, 1/4) violates only the top member, 3/2 against 2; with
    # element 0 fixed the same full point reads 1/2 against 1
    state = lattice_state()
    residual = state.residual()
    point = at(residual, 4, (4, 1, 1))
    first = residual.separate(point)
    assert not first.feasible and residual.separate(point) == first
    assert (first.witness, first.lhs, first.rhs) == (3, Rat(3, 2), Rat(2))
    fix_lattice_element(state, residual.lp, 4, (4, 1, 1))
    after = state.residual()
    moved = at(after, 4, (1, 1))
    got = after.separate(moved)
    assert got == raw_lattice(state, 1, moved)
    assert (got.witness, got.lhs, got.rhs) == (3, Rat(1, 2), Rat(1))
