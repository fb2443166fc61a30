"""Separation verdicts carried over in full coordinates.

McstState and LatticeState wrap their separators in
lpengine.remembering_feasible: a point whose full-coordinate key (D, the
ids at value 1 counting the fixed set, the fractional X by id) was found
feasible earlier in the run is not scanned again.  The differential
below runs the raw lpengine scan next to every call of the wrapped
separators on the MCST seeds 0-39, the drop-round seeds and the
benchmark's seed-0 covering corpus, and must see equal results.  The
unit cases each fail when the key loses D or the fixed set, when the
fixed set is read at call time instead of when residual() is called,
or when a violated result is kept.
"""

from random import Random
from collections import Counter
from contextlib import contextmanager

import pytest

from conftest import _after
from test_mask_reuse import benchmark_instances
from crossopt import lattice, lpengine, mcst
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
from crossopt.simplex import Vertex

OK = lpengine.SeparationResult.ok()


def raw_tree(state, fmask, point):
    return lpengine.separate_spanning_tree(point, state.graph, fmask)


def raw_lattice(state, fmask, point):
    return lpengine.separate_lattice(point, fmask, state.instance.lat)


@contextmanager
def compared_separation():
    """Every call of a McstState or LatticeState separator is checked
    against the raw lpengine scan at the fixed set the residual bound;
    a call that made no scan (a hit) must be one the raw scan finds
    feasible.  Yields a Counter of "calls" and "hits" per state class."""
    counts = Counter()
    scans = []

    def scanned(*call):
        scans.append(call)

    with pytest.MonkeyPatch.context() as patch:
        # the scans the wrapped separators make, through the names they call
        _after(patch, mcst, "separate_spanning_tree", scanned)
        _after(patch, lattice, "separate_lattice", scanned)
        for cls, raw in ((McstState, raw_tree), (LatticeState, raw_lattice)):
            residual = cls.residual

            def compared(state, residual=residual, raw=raw, name=cls.__name__):
                res = residual(state)
                fmask = state.fmask

                def separate(point):
                    before = len(scans)
                    got = res.separate(point)
                    assert got == raw(state, fmask, point)
                    counts[name, "calls"] += 1
                    counts[name, "hits"] += len(scans) == before
                    return got

                return res._replace(separate=separate)

            patch.setattr(cls, "residual", compared)
        yield counts


def test_remembered_verdicts_match_the_raw_scans(tmp_path):
    lattices = [
        instance
        for instance in benchmark_instances("covering-corpus", 0, tmp_path)
        if isinstance(instance, LatticeInstance)
    ]
    with compared_separation() as counts:
        for seed in tuple(range(40)) + MCST_DROP_SEEDS:
            run_mcst(random_mcst_instance(Random(seed)))
        for instance in lattices:
            run_lattice(instance)
    for name in ("McstState", "LatticeState"):
        assert 0 < counts[name, "hits"] < counts[name, "calls"]


@pytest.mark.parametrize(
    "run, module, name, instance",
    [
        (run_mcst, mcst, "separate_spanning_tree", random_mcst_instance(Random(2801))),
        (run_lattice, lattice, "separate_lattice", random_lattice_instance(Random(2802))),
    ],
)
def test_separator_scans_are_counted_per_run(run, module, name, instance):
    # the feasible keys live on the run's state: a second run of the
    # same instance scans as often as the first.  The seeds are drawn by
    # no other test, so keys kept across runs would show here whatever
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


@pytest.mark.parametrize(
    "state, raw, feasible, smaller",
    [
        # (1/3, 1/3, 1, 1, 0) carries 8/3 on a 4-vertex tree
        (mcst_state, raw_tree, (1, 1, 2, 2, 0), (1, 1, 3, 3, 0)),
        # (1, 1/3, 1/3) has x(0, 1, 2) = 5/3 < 2
        (lattice_state, raw_lattice, (2, 1, 1), (3, 1, 1)),
    ],
)
def test_verdict_is_not_carried_to_another_denominator(state, raw, feasible, smaller):
    # the same numerators over 3 instead of 2: the same ones and
    # fractional X, another point
    state = state()
    residual = state.residual()
    assert residual.separate(at(residual, 2, feasible)) == OK
    point = at(residual, 3, smaller)
    got = residual.separate(point)
    assert got == raw(state, 0, point) and not got.feasible


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
