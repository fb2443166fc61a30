import copy
import random

import pytest

from brute_mcst import brute_mcst
from uncached_steps import local_edges
from crossopt.errors import InstanceError, InternalCheckError
from crossopt.graphs import Graph, mask_of
from crossopt.instances import McstInstance
from crossopt.laminar import LaminarForest
from crossopt.mcst import (
    MAX_LOCAL,
    McstState,
    classify_good,
    drop_round_limit,
    node_reach,
    reach_masks,
    replay_trace,
    run_mcst,
    try_step,
    verify_guarantee,
)
from crossopt.randgen import random_mcst_instance
from crossopt.rational import Rat
from crossopt.relax import RunTrace
from crossopt.simplex import Vertex


def half(ids):
    return {e: Rat(1, 2) for e in ids}


def step_at(state, x_by_id):
    """try_step at the values x_by_id, classified as McstState.step does."""
    reach = reach_masks(state.forest, state.graph)
    classified = classify_good(state.forest, reach, state.eprime)
    return try_step(state, Vertex.of_values(x_by_id), classified)


# -- local edges -------------------------------------------------------------------


def test_local_edges_without_grandchildren_is_all_touching(triangle):
    forest = LaminarForest.from_sets([(0b011, Rat(2)), (0b001, Rat(1))])
    # node 0 = {0,1} has a child but no grandchildren
    touching = triangle.cut(0b011)[1]
    assert local_edges(forest, triangle, 0b111, 0) == touching
    assert node_reach(forest, triangle, 0) == touching


def test_local_edges_figure_configuration():
    # S = {0..8} with children B1={0,1,2,3}, B2={4,5,6,7} and
    # grandchildren C1={0,1}, C2={2,3}, C3={4,5}, C4={6,7}; vertex 9 outside
    sets = [
        (mask_of(range(9)), Rat(9)),
        (mask_of([0, 1, 2, 3]), Rat(4)),
        (mask_of([4, 5, 6, 7]), Rat(4)),
        (mask_of([0, 1]), Rat(2)),
        (mask_of([2, 3]), Rat(2)),
        (mask_of([4, 5]), Rat(2)),
        (mask_of([6, 7]), Rat(2)),
    ]
    forest = LaminarForest.from_sets(sets)
    pairs = [
        (0, 1),  # e0 inside C1: not local
        (0, 9),  # e1 leaves S from C1: not local
        (0, 8),  # e2 C1 -> S-internal vertex: local
        (0, 4),  # e3 C1 -> C3: local
        (8, 9),  # e4 S -> outside, no grandchild involved: local
        (2, 3),  # e5 inside C2: not local
    ]
    graph = Graph.from_pairs(10, pairs, [1] * len(pairs))
    assert local_edges(forest, graph, 0b111111, 0) == mask_of([2, 3, 4])
    assert node_reach(forest, graph, 0) == mask_of([2, 3, 4])
    assert local_edges(forest, graph, 0b110111, 0) == mask_of([2, 4])


def test_local_edges_three_level_chain():
    forest = LaminarForest.from_sets(
        [(0b1111, Rat(3)), (0b0011, Rat(2)), (0b0001, Rat(1))]
    )
    graph = Graph.from_pairs(4, [(0, 1), (0, 2), (2, 3)], [1, 1, 1])
    assert local_edges(forest, graph, 0b111, 0) == 0b111
    assert node_reach(forest, graph, 0) == 0b111


def test_good_threshold_boundary():
    for count, expect_good in ((MAX_LOCAL, True), (MAX_LOCAL + 1, False)):
        graph = Graph.from_pairs(2, [(0, 1)] * count, [1] * count)
        forest = LaminarForest.from_sets([(0b01, Rat(1))])
        _, nonleaves, leaves = classify_good(
            forest, reach_masks(forest, graph), graph.all_edges_mask
        )
        assert (0 in leaves) == expect_good
        assert nonleaves == []


def test_everything_good_when_few_edges():
    rng = random.Random(12)
    inst = random_mcst_instance(rng, n=7)
    assert inst.graph.all_edges_mask.bit_count() <= 24
    forest = inst.build_forest()
    _, nonleaves, leaves = classify_good(
        forest, reach_masks(forest, inst.graph), inst.graph.all_edges_mask
    )
    assert len(nonleaves) + len(leaves) == forest.size()


# -- steps --------------------------------------------------------------------------


def test_integral_values_fix_then_delete(tree_instance):
    state = McstState(tree_instance)
    step = step_at(state, {0: Rat(1), 1: Rat(1), 2: Rat(1)})
    assert step["ev"] == "fix" and step["edge"] == 0
    # a 1-edge is fixed before a 0-edge is deleted
    step = step_at(state, {1: Rat(0), 2: Rat(1)})
    assert step["ev"] == "fix" and step["edge"] == 2
    step = step_at(state, {1: Rat(0)})
    assert step["ev"] == "delete" and step["edge"] == 1


def test_drop_children_round_even_parity():
    sets = [
        (mask_of([0, 1, 2, 3]), Rat(4)),  # A root (even)
        (mask_of([0, 1]), Rat(2)),
        (mask_of([2, 3]), Rat(2)),
        (mask_of([4, 5, 6, 7]), Rat(4)),  # B root (even)
        (mask_of([4, 5]), Rat(2)),
        (mask_of([6, 7]), Rat(2)),
        (mask_of([8]), Rat(1)),  # C
        (mask_of([9]), Rat(1)),  # D
    ]
    inst = McstInstance(
        Graph.from_pairs(
            10, [(0, 4), (1, 5), (2, 6), (3, 7), (8, 9), (0, 8)], [1] * 6
        ),
        tuple(sets),
    )
    state = McstState(inst)
    assert state.forest.size() == 8
    step = step_at(state, half(range(6)))
    assert step["ev"] == "drop_children"
    assert step["parity"] == 0
    assert sorted(step["parents"]) == [0, 3]
    assert sorted(step["dropped"]) == [1, 2, 4, 5]
    assert state.forest.size() == 4


def test_merge_leaves_round_pairs_in_child_order():
    # parent P not good (25 local edges); three good leaf children
    pairs = [(0, 4), (1, 4), (2, 4)] + [(3, 4)] * 25
    graph = Graph.from_pairs(5, pairs, [1] * len(pairs))
    sets = [
        (mask_of([0, 1, 2, 3]), Rat(6)),
        (mask_of([0]), Rat(1)),
        (mask_of([1]), Rat(2)),
        (mask_of([2]), Rat(3)),
    ]
    inst = McstInstance(graph, tuple(sets))
    state = McstState(inst)
    step = step_at(state, half(range(len(pairs))))
    assert step["ev"] == "merge_leaves"
    ((pkey, first, second, new_id),) = step["merges"]
    assert (pkey, first, second) == (0, 1, 2)
    assert step["removed"] == [[0, 3]]
    merged = state.forest.node(new_id)
    assert merged.vset == 0b011 and merged.bound == Rat(3)
    assert state.forest.node(0).children == [new_id]


def test_root_leaves_merge_under_virtual_root():
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 7, [1] * 28)
    sets = [(mask_of([0]), Rat(2)), (mask_of([1]), Rat(2)), (mask_of([2]), Rat(2))]
    inst = McstInstance(graph, tuple(sets))
    state = McstState(inst)
    # 28 > 24 local edges at each root leaf? no: each vertex touches 14
    step = step_at(state, half(range(28)))
    assert step["ev"] == "merge_leaves"
    ((pkey, first, second, new_id),) = step["merges"]
    assert pkey == -1 and (first, second) == (0, 1)
    assert state.forest.roots[0] == new_id


# -- full runs ------------------------------------------------------------------------


def test_run_on_tree_graph_fixes_everything(tree_instance):
    tree, trace = run_mcst(tree_instance)
    assert tree == tree_instance.graph.all_edges_mask
    assert trace.initial_lp_objective() == tree_instance.graph.cost_of(tree)
    report = verify_guarantee(tree_instance, tree, trace)
    assert report.ok and report.t_rounds == 0


def test_run_triangle(triangle):
    inst = McstInstance(triangle, ())
    tree, trace = run_mcst(inst)
    assert triangle.is_spanning_tree(tree)
    assert triangle.cost_of(tree) == 2


def test_infeasible_bounds_detected():
    graph = Graph.from_pairs(3, [(0, 1), (1, 2)], [1, 1])
    inst = McstInstance(graph, ((0b001, Rat(0)),))
    with pytest.raises(InstanceError):
        run_mcst(inst)


def test_zero_drop_runs_satisfy_bounds_exactly(tree_instance):
    tree, trace = run_mcst(tree_instance)
    report = verify_guarantee(tree_instance, tree, trace)
    orig = dict((name, detail) for name, ok, detail in report.checks)
    assert report.t_rounds == 0
    assert orig["original-bounds"]["max_violation"] <= 0


def test_random_runs_against_brute_force():
    rng = random.Random(8)
    for _ in range(6):
        inst = random_mcst_instance(rng, n=8)
        tree, trace = run_mcst(inst)
        report = verify_guarantee(inst, tree, trace)
        assert report.ok, report.failures
        brute = brute_mcst(inst)
        cost = inst.graph.cost_of(tree)
        assert cost <= trace.initial_lp_objective()
        if brute.optimum is not None:
            assert trace.initial_lp_objective() <= brute.optimum


def test_slackened_bounds_keep_guarantees():
    rng = random.Random(14)
    base = random_mcst_instance(rng, n=8)
    slackened = McstInstance(
        base.graph, tuple((m, b + 1) for m, b in base.family)
    )
    tree, trace = run_mcst(slackened)
    report = verify_guarantee(slackened, tree, trace)
    assert report.ok, report.failures
    brute = brute_mcst(slackened)
    assert slackened.graph.cost_of(tree) <= trace.initial_lp_objective()
    assert brute.optimum is not None
    assert trace.initial_lp_objective() <= brute.optimum


def test_known_seeds_exercise_drop_rounds():
    from crossopt.randgen import MCST_DROP_SEEDS

    total_rounds = 0
    for seed in MCST_DROP_SEEDS[:5]:
        inst = random_mcst_instance(random.Random(seed))
        tree, trace = run_mcst(inst)
        report = verify_guarantee(inst, tree, trace)
        assert report.ok, report.failures
        total_rounds += report.t_rounds
    assert total_rounds >= 3


def test_trace_round_trip_and_tamper(tmp_path, tree_instance):
    tree, trace = run_mcst(tree_instance)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    loaded = RunTrace.from_jsonl(path)
    assert verify_guarantee(tree_instance, tree, loaded).ok

    bad = RunTrace([dict(ev) for ev in loaded.events])
    for ev in bad.events:
        if ev["ev"] == "fix":
            ev["edge"] = 2 if ev["edge"] != 2 else 1
            break
    with pytest.raises(InternalCheckError):
        replay_trace(tree_instance, bad)

    # edited footers: the last node removed, and a dead node's bound
    # changed (seed 76 drops bounds, so its final forest has dead nodes)
    def tampered(seed, edit):
        inst = random_mcst_instance(random.Random(seed))
        _, run = run_mcst(inst)
        assert replay_trace(inst, run).matches_footer
        events = copy.deepcopy(run.events)
        edit(events[-1]["forest"]["nodes"])
        return replay_trace(inst, RunTrace(events)).matches_footer

    def edit_dead_bound(nodes):
        dead = next(nd for nd in nodes if not nd["alive"])
        dead["bound"] = "99"

    assert not tampered(5, list.pop)
    assert not tampered(76, edit_dead_bound)


def test_drop_round_limit_values():
    assert drop_round_limit(5) == 17  # smallest k with (8/7)^k >= 9
    assert drop_round_limit(2) == 9
    for n in range(2, 12):
        k = drop_round_limit(n)
        assert 8**k >= (2 * n - 1) * 7**k
        assert 8 ** (k - 1) < (2 * n - 1) * 7 ** (k - 1)
