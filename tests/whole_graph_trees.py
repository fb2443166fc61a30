"""The spanning tree oracles as they were before the block-by-block
rewrite: the reference the package versions are checked against.

``crossopt.brute`` now enumerates spanning trees per biconnected block
and takes their products, scans violations with a threshold test on
packed half-mask counts, and eliminates a whole row per step in
``_bareiss_det``.  The
functions below are the original code, kept verbatim (only the imports
are new): one contraction/deletion recursion over the whole graph with
a union-find connectivity test per deletion, a per-tree count over
every bound row, and a scalar Bareiss inner loop under the same
Kirchhoff count.  The new versions
must agree with them on every input: the same set of trees, and the
same value, type and witness of every scan.
"""

from math import lcm

from brute_mcst import BruteMcstResult
from crossopt.brute import TREE_COUNT_GUARD
from crossopt.errors import SizeGuardError
from crossopt.rational import Rat


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


def _scaled_bounds(bound_masks):
    """(D, [(emask, bound * D)]) with D the lcm of the bounds'
    denominators, so that a tree's violation count - bound of a row is
    the integer count * D - bound * D over D."""
    d = lcm(*(bound.denominator for _, bound in bound_masks))
    return d, [
        (emask, bound.numerator * (d // bound.denominator))
        for emask, bound in bound_masks
    ]


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
