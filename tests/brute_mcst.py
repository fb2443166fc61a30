"""The exhaustive crossing spanning tree optimum, for the tests.

`brute_mcst` scans every spanning tree of an mcst instance for the
cheapest one within every degree bound, and for the cheapest tree at
each additive slack.  It reaches the tree enumerator through
``crossopt.brute``'s module globals, so a test that patches it there
patches this scan too.  Its per-tree violation scan
(`_scaled_violations`) is also the reference for the packed threshold
scan of ``brute.min_max_violation_over_trees``.
"""

from dataclasses import dataclass
from math import lcm
from operator import add

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


def _scaled_violations(graph, trees, bound_masks):
    """(D, [D times each tree's worst violation max(count - bound)]),
    with D the lcm of the bounds' denominators; 0 for every tree when
    there are no bounds.

    A tree's count on a row is the count of its low half (edge ids below
    the middle one) plus that of its high half.  Each distinct half gets
    one row of scaled counts, the scaled bounds taken off the low rows,
    so a tree costs one elementwise sum and a max."""
    d = lcm(*(bound.denominator for _, bound in bound_masks))
    if not bound_masks:
        return d, [0] * len(trees)
    mid = graph.all_edges_mask.bit_length() // 2
    low = (1 << mid) - 1
    lo_rows = [
        (emask & low, bound.numerator * (d // bound.denominator))
        for emask, bound in bound_masks
    ]
    hi_rows = [emask >> mid for emask, _ in bound_masks]
    lo_table = {
        half: [(half & m).bit_count() * d - b for m, b in lo_rows]
        for half in {tree & low for tree in trees}
    }
    hi_table = {
        half: [(half & m).bit_count() * d for m in hi_rows]
        for half in {tree >> mid for tree in trees}
    }
    return d, [max(map(add, lo_table[t & low], hi_table[t >> mid])) for t in trees]


def _brute_tree_opt(graph, bound_masks, limit=TREE_COUNT_GUARD):
    trees = brute.enumerate_spanning_trees(graph, limit=limit)
    d, viols = _scaled_violations(graph, trees, bound_masks)
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
