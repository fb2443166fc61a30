import gc
import random

import pytest

from crossopt.brute import (
    brute_mcst,
    brute_subset_opt,
    enumerate_spanning_trees,
    kirchhoff_count,
    minimum_spanning_tree_cost,
)
from crossopt.errors import SizeGuardError
from crossopt.generators import gadget_graph
from crossopt.graphs import Graph
from crossopt.instances import McstInstance
from crossopt.lpengine import ResidualMcstLp, solve_to_extreme_point
from crossopt.randgen import random_mcst_instance, random_spanning_tree
from crossopt.rational import Rat


def test_triangle_and_cycle_counts(triangle, four_cycle):
    assert kirchhoff_count(triangle) == 3
    assert len(enumerate_spanning_trees(triangle)) == 3
    assert kirchhoff_count(four_cycle) == 4
    assert len(enumerate_spanning_trees(four_cycle)) == 4


def test_gadget_count_matches_determinant():
    g = gadget_graph(2)
    trees = enumerate_spanning_trees(g)
    assert kirchhoff_count(g) == len(trees) == 16  # 4 choices per gadget


def test_parallel_edges_counted_separately():
    g = Graph.from_pairs(2, [(0, 1), (0, 1), (0, 1)], [1, 2, 3])
    assert kirchhoff_count(g) == 3
    assert sorted(enumerate_spanning_trees(g)) == [0b001, 0b010, 0b100]


def test_reverse_enumeration_same_set():
    rng = random.Random(3)
    for _ in range(5):
        inst = random_mcst_instance(rng, n_min=5, n_max=7)
        fwd = sorted(enumerate_spanning_trees(inst.graph))
        rev = sorted(enumerate_spanning_trees(inst.graph, reverse=True))
        assert fwd == rev


def test_enumeration_leaves_no_reference_cycle():
    # a cycle would keep the tree list alive until a full collection
    gc.collect()
    gc.disable()
    try:
        trees = enumerate_spanning_trees(gadget_graph(2))
        del trees
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_guard():
    g = Graph.from_pairs(2, [(0, 1)] * 4, [1] * 4)
    with pytest.raises(SizeGuardError):
        enumerate_spanning_trees(g, limit=3)


def test_brute_mcst_no_bounds_equals_mst():
    rng = random.Random(9)
    for _ in range(5):
        inst = random_mcst_instance(rng, n_min=5, n_max=7)
        free = McstInstance(inst.graph, ())
        result = brute_mcst(free)
        assert result.optimum == minimum_spanning_tree_cost(inst.graph)


def test_bounds_from_tree_keep_that_tree_feasible():
    rng = random.Random(4)
    inst = random_mcst_instance(rng, n=7)
    graph = inst.graph
    tree = random_spanning_tree(random.Random(5), graph)
    family = tuple(
        (vmask, Rat((graph.delta_mask(vmask) & tree).bit_count()))
        for vmask, _ in inst.family
    )
    pinned = McstInstance(graph, family)
    result = brute_mcst(pinned)
    assert result.optimum is not None
    assert result.optimum <= graph.cost_of(tree)


def test_brute_optimum_at_least_lp_optimum():
    rng = random.Random(21)
    for _ in range(5):
        inst = random_mcst_instance(rng, n=8)
        rows = tuple(
            (i, vmask, bound) for i, (vmask, bound) in enumerate(inst.family)
        )
        lp = solve_to_extreme_point(
            ResidualMcstLp(inst.graph, inst.graph.all_edges_mask, 0, rows)
        )
        result = brute_mcst(inst)
        assert result.optimum is None or result.optimum >= lp.objective


def test_violation_profile_is_monotone():
    rng = random.Random(2)
    inst = random_mcst_instance(rng, n=6)
    result = brute_mcst(inst)
    costs = [cost for _, cost in result.profile]
    assert costs == sorted(costs, reverse=True)


def test_brute_subset_opt_cases():
    mask, cost = brute_subset_opt(3, lambda s: True, [Rat(2), Rat(3), Rat(4)])
    assert mask == 0 and cost == 0

    # edge cover of the 4-cycle: minimum size 2
    incident = {v: ((v - 1) % 4, v) for v in range(4)}
    covers = lambda s: all(
        any((s >> e) & 1 for e in incident[v]) for v in range(4)
    )
    mask, cost = brute_subset_opt(4, covers, [Rat(1)] * 4)
    assert cost == 2

    # two cheapest elements for a rank-2 uniform requirement
    mask, cost = brute_subset_opt(
        4, lambda s: s.bit_count() >= 2, [Rat(5), Rat(1), Rat(7), Rat(2)]
    )
    assert cost == 3 and mask == 0b1010

    with pytest.raises(SizeGuardError):
        brute_subset_opt(17, lambda s: True, [Rat(1)] * 17)
