"""The exhaustive crossing spanning tree optimum, for the tests.

`brute_mcst` scans every spanning tree of an mcst instance for the
cheapest one within every degree bound, and for the cheapest tree at
each additive slack.  It reaches the tree enumerator and the violation
scan through ``crossopt.brute``'s module globals, so a test that
patches them there patches this scan too.
"""

from dataclasses import dataclass

from crossopt import brute
from crossopt.brute import TREE_COUNT_GUARD
from crossopt.rational import Rat


@dataclass(frozen=True)
class BruteMcstResult:
    optimum: object  # min cost over bound-feasible trees, None if none
    witness: object  # a tree mask achieving it
    profile: tuple  # ((slack v, min cost over trees with max violation <= v), ...)
    tree_count: int


def brute_mcst(instance):
    """Exact optimum over all spanning trees meeting every bound, plus
    the min-cost profile per additive slack level."""
    graph = instance.graph
    bound_masks = [
        (graph.delta_mask(vmask), bound) for vmask, bound in instance.family
    ]
    return _brute_tree_opt(graph, bound_masks)


def _brute_tree_opt(graph, bound_masks, limit=TREE_COUNT_GUARD):
    trees = brute.enumerate_spanning_trees(graph, limit=limit)
    d, viols = brute._scaled_violations(graph, trees, bound_masks)
    best = None
    witness = None
    by_slack = {}  # scaled slack -> (cost, tree)
    for tree, viol in zip(trees, viols):
        cost = graph.cost_of(tree)
        slack = max(viol, 0)
        cur = by_slack.get(slack)
        if cur is None or cost < cur[0] or (cost == cur[0] and tree < cur[1]):
            by_slack[slack] = (cost, tree)
        if viol <= 0:
            if best is None or cost < best or (cost == best and tree < witness):
                best = cost
                witness = tree
    profile = []
    running = None
    for slack in sorted(by_slack):
        cost, _ = by_slack[slack]
        running = cost if running is None else min(running, cost)
        profile.append((Rat(slack, d), running))
    return BruteMcstResult(best, witness, tuple(profile), len(trees))
