"""Brute-force ground truth: spanning tree enumeration and exhaustive
subset optimization.

These are the independent oracles the guarantee verifiers compare
against.  Enumeration sizes are pre-checked with an exact Kirchhoff
count (Bareiss fraction-free determinant over the integers) so failure
modes are deterministic counts, never timeouts.

Tree scans compare violations in integers: the bounds are scaled once
by D, the lcm of their denominators, so each tree's worst violation is
max(count * D - bound * D) over the rows, and only the result is turned
back into a rational (worst / D).  Every tree is still visited, in the
enumeration order, with the same smallest-mask tie-break.
"""

from dataclasses import dataclass
from math import lcm

from .errors import SizeGuardError
from .graphs import iter_bits
from .rational import ZERO, Rat

TREE_COUNT_GUARD = 10**6
SUBSET_GUARD = 16


def _bareiss_det(mat):
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def kirchhoff_count(graph):
    """Number of spanning trees (multigraph Laplacian minor determinant)."""
    n = graph.n
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for e in graph.edges:
        lap[e.u][e.u] += 1
        lap[e.v][e.v] += 1
        lap[e.u][e.v] -= 1
        lap[e.v][e.u] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _bareiss_det(minor)


def enumerate_spanning_trees(graph, limit=TREE_COUNT_GUARD, reverse=False):
    """All spanning trees as edge masks, each exactly once.

    Contraction/deletion recursion; `reverse` flips the branching edge
    choice, giving an independent enumeration order for cross-checks.
    """
    count = kirchhoff_count(graph)
    if count > limit:
        raise SizeGuardError(f"{count} spanning trees exceeds guard {limit}")
    out = []
    if graph.n == 0:
        return out
    edges0 = [(e.id, e.u, e.v) for e in graph.edges]
    labels0 = frozenset(range(graph.n))

    def connected(edges, labels):
        parent = {v: v for v in labels}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        comps = len(labels)
        for _, a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        return comps == 1

    def recurse(edges, labels, chosen):
        if len(labels) == 1:
            out.append(chosen)
            return
        if not edges:
            return
        eid, u, v = edges[-1] if reverse else edges[0]
        contracted = []
        for tup in edges:
            if tup[0] == eid:
                continue
            a = u if tup[1] == v else tup[1]
            b = u if tup[2] == v else tup[2]
            if a != b:
                contracted.append((tup[0], a, b))
        recurse(contracted, labels - {v}, chosen | (1 << eid))
        rest = [tup for tup in edges if tup[0] != eid]
        if connected(rest, labels):
            recurse(rest, labels, chosen)

    if connected(edges0, labels0):
        recurse(edges0, labels0, 0)
    # recurse refers to itself through its closure; without the cycle,
    # `out` is freed as soon as the caller drops it, not at the next full
    # garbage collection
    del recurse
    assert len(out) == count, "enumeration disagrees with Kirchhoff count"
    return out


def minimum_spanning_tree_cost(graph):
    """Kruskal cross-check; None when the graph is disconnected."""
    order = sorted(graph.edges, key=lambda e: (e.cost, e.id))
    parent = list(range(graph.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = ZERO
    picked = 0
    for e in order:
        ra, rb = find(e.u), find(e.v)
        if ra != rb:
            parent[ra] = rb
            total += e.cost
            picked += 1
    return total if picked == graph.n - 1 else None


@dataclass(frozen=True)
class BruteMcstResult:
    optimum: object  # min cost over bound-feasible trees, None if none
    witness: object  # a tree mask achieving it
    profile: tuple  # ((slack v, min cost over trees with max violation <= v), ...)
    tree_count: int


def _scaled_bounds(bound_masks):
    """(D, [(emask, bound * D)]) with D the lcm of the bounds'
    denominators, so that a tree's violation count - bound of a row is
    the integer count * D - bound * D over D."""
    d = lcm(*(bound.denominator for _, bound in bound_masks))
    return d, [
        (emask, bound.numerator * (d // bound.denominator))
        for emask, bound in bound_masks
    ]


def brute_mcst(instance, limit=TREE_COUNT_GUARD):
    """Exact optimum over all spanning trees meeting every bound, plus
    the min-cost profile per additive slack level."""
    graph = instance.graph
    bound_masks = [
        (graph.delta_mask(vmask), bound) for vmask, bound in instance.family
    ]
    return _brute_tree_opt(graph, bound_masks, limit)


def brute_general_mcst(instance, limit=TREE_COUNT_GUARD):
    """Same as brute_mcst for explicit edge-set bounds."""
    return _brute_tree_opt(instance.graph, list(instance.bounds), limit)


def _brute_tree_opt(graph, bound_masks, limit):
    trees = enumerate_spanning_trees(graph, limit=limit)
    d, scaled = _scaled_bounds(bound_masks)
    best = None
    witness = None
    by_slack = {}  # scaled slack -> (cost, tree)
    for tree in trees:
        cost = graph.cost_of(tree)
        viol = max(
            [(tree & emask).bit_count() * d - b for emask, b in scaled], default=0
        )
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


def min_max_violation_over_trees(graph, bound_masks, limit=TREE_COUNT_GUARD, reverse=False):
    """min over spanning trees of the max additive bound violation, and
    the smallest tree mask attaining it; no bounds means violation 0.
    (None, None) when the graph has no spanning tree."""
    trees = enumerate_spanning_trees(graph, limit=limit, reverse=reverse)
    d, scaled = _scaled_bounds(bound_masks)
    best = None
    witness = None
    for tree in trees:
        viol = max(
            [(tree & emask).bit_count() * d - b for emask, b in scaled], default=0
        )
        if best is None or viol < best or (viol == best and tree < witness):
            best = viol
            witness = tree
    return (None if best is None else Rat(best, d)), witness


def brute_subset_opt(n, feasible_fn, costs):
    """Exact optimum of min cost(S) over all S in 2^[n] with feasible_fn(S)."""
    if n > SUBSET_GUARD:
        raise SizeGuardError(f"ground set {n} exceeds guard {SUBSET_GUARD}")
    best_cost = None
    best_mask = None
    for mask in range(1 << n):
        if not feasible_fn(mask):
            continue
        cost = ZERO
        for e in iter_bits(mask):
            cost += costs[e]
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_mask = mask
    return best_mask, best_cost
