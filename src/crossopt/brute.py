"""Brute-force ground truth: spanning tree enumeration and exhaustive
subset optimization.

These are the independent oracles the guarantee verifiers compare
against.  Enumeration sizes are pre-checked with an exact Kirchhoff
count (a Bareiss fraction-free determinant over the integers) so
failure modes are deterministic counts, never timeouts.  The tree count
of every edge at once comes from the adjugate of the reduced Laplacian,
from one fraction-free Gauss-Jordan pass that also gives the
determinant.  Both are the LP core's one elimination loop
(simplex._eliminate), which also ranks the vertex certificates.

Spanning trees are enumerated block by block.  A connected graph's
biconnected blocks (Hopcroft-Tarjan) share no edge, and an edge set is
a spanning tree exactly when it is a spanning tree of every block, so
the trees are the OR-products of one tree per block.  Each block's
trees come from a contraction/deletion recursion on that block alone,
which is small on graphs made of many little blocks (the gap gadget's
4-cycles at the root).  The Kirchhoff count is still taken on the whole
graph and must equal the number of products, and the blocks must hold
n - 1 tree edges between them, so a block the decomposition split or
lost cannot go unseen.

Tree scans compare violations in integers: the bounds are scaled once
by D, the lcm of their denominators, so each tree's worst violation is
max(count * D - bound * D) over the rows, and only the result is turned
back into a rational (worst / D).  The counts come from two tables, one
row per distinct low half and high half of the tree masks, so a tree
costs one elementwise sum.  Every tree is still visited, in the
enumeration order, with the same smallest-mask tie-break.
"""

from math import lcm
from operator import add

from .errors import SizeGuardError
from .graphs import iter_bits
from .rational import ZERO, Rat
from .simplex import _eliminate

TREE_COUNT_GUARD = 10**6
SUBSET_GUARD = 16


def _bareiss_det(mat):
    """Exact determinant of a square integer matrix (simplex._eliminate:
    sign times the last pivot, 0 when a column has no pivot)."""
    rows = [list(row) for row in mat]
    rank, sign, last = _eliminate(rows, len(rows))
    return sign * last if rank == len(rows) else 0


def _bareiss_adjugate(mat):
    """(det, adj) of a square integer matrix from one fraction-free
    Gauss-Jordan pass on [mat | I]; adj is None when det is 0.

    The row operations make up one matrix R with R mat = d * I, d the
    last pivot, so the right block R is d * mat^-1.  The swaps give
    det(mat) = sign * d, and adj(mat) = det(mat) * mat^-1 is sign times
    the right block."""
    n = len(mat)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    rank, sign, last = _eliminate(rows, n, jordan=True)
    if rank < n:
        return 0, None
    return sign * last, [[sign * x for x in row] for row in rows]


def _reduced_laplacian(graph):
    """The multigraph Laplacian without the row and column of vertex 0."""
    n = graph.n
    lap = [[0] * n for _ in range(n)]
    for e in graph.edges:
        lap[e.u][e.u] += 1
        lap[e.v][e.v] += 1
        lap[e.u][e.v] -= 1
        lap[e.v][e.u] -= 1
    return [row[1:] for row in lap[1:]]


def kirchhoff_count(graph):
    """Number of spanning trees (multigraph Laplacian minor determinant)."""
    return _bareiss_det(_reduced_laplacian(graph))


def edge_tree_counts(graph):
    """(number of spanning trees, [number of them that contain e, for
    each edge e in graph order]), from one adjugate.

    With adj the adjugate of the reduced Laplacian, and its row and
    column of the dropped vertex 0 read as 0, the trees that contain
    edge uv number adj[u][u] + adj[v][v] - 2 * adj[u][v] (Kirchhoff's
    matrix-tree theorem; Lyons and Peres, Probability on Trees and
    Networks, ch. 4).  A graph with no spanning tree has no tree that
    contains any edge."""
    total, adj = _bareiss_adjugate(_reduced_laplacian(graph))
    if total == 0:
        return 0, [0] * len(graph.edges)
    full = [[0] * graph.n] + [[0] + row for row in adj]
    return total, [
        full[e.u][e.u] + full[e.v][e.v] - 2 * full[e.u][e.v] for e in graph.edges
    ]


def _blocks(graph):
    """The biconnected blocks of a graph with n >= 1, each as its list of
    (id, u, v) in graph edge order, or None when the graph is
    disconnected.

    Iterative Hopcroft-Tarjan from vertex 0: edges are stacked as the
    depth-first search meets them, and when a child's low point does not
    reach above its parent, the edges stacked from the tree edge into
    that child onwards are one block.  Only the tree edge itself is
    skipped when looking back, so a parallel edge is a back edge and
    joins its partner's block."""
    adj = [[] for _ in range(graph.n)]
    for pos, e in enumerate(graph.edges):
        adj[e.u].append((e.v, pos))
        adj[e.v].append((e.u, pos))
    disc = [-1] * graph.n
    low = [0] * graph.n
    disc[0] = 0
    seen = 1
    stacked = []
    blocks = []
    # (vertex, position of its tree edge, its edge iterator, the stack
    # depth at which its tree edge lies)
    frames = [(0, -1, iter(adj[0]), 0)]
    while frames:
        v, via, it, depth = frames[-1]
        for w, pos in it:
            if pos == via:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = seen
                seen += 1
                frames.append((w, pos, iter(adj[w]), len(stacked)))
                stacked.append(pos)
                break
            if disc[w] < disc[v]:  # back edge to an ancestor
                stacked.append(pos)
                low[v] = min(low[v], disc[w])
        else:
            frames.pop()
            if not frames:
                break
            parent = frames[-1][0]
            low[parent] = min(low[parent], low[v])
            if low[v] >= disc[parent]:
                edges = [graph.edges[p] for p in sorted(stacked[depth:])]
                del stacked[depth:]
                blocks.append([(e.id, e.u, e.v) for e in edges])
    if seen < graph.n:
        return None
    return blocks


def _connected(edges, labels):
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


def _block_trees(edges, labels, chosen, reverse, out):
    """Append to out every spanning tree (as chosen | edge mask) of the
    connected multigraph (edges, labels): contraction/deletion on the
    first edge, or on the last when reverse."""
    if len(labels) == 1:
        out.append(chosen)
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
    _block_trees(contracted, labels - {v}, chosen | (1 << eid), reverse, out)
    rest = [tup for tup in edges if tup[0] != eid]
    if _connected(rest, labels):
        _block_trees(rest, labels, chosen, reverse, out)


def enumerate_spanning_trees(graph, limit=TREE_COUNT_GUARD, reverse=False):
    """All spanning trees as edge masks, each exactly once.

    The trees are the OR-products of one spanning tree per biconnected
    block, each block's trees enumerated by contraction/deletion.
    `reverse` branches on each block's last edge instead of its first
    and takes the product over the blocks in the opposite order: every
    block's recursion, and so every product, is built by a different
    sequence of steps, which keeps it an independent order for
    cross-checks.  The Kirchhoff count that guards the size is taken on
    the whole graph, never per block, and the number of trees must equal
    it; the blocks' vertex counts, less one each, must add up to the
    n - 1 edges of a tree.  So a block the decomposition split, or one
    it lost, shows as a mismatch instead of a wrong set of trees.
    """
    count = kirchhoff_count(graph)
    if count > limit:
        raise SizeGuardError(f"{count} spanning trees exceeds guard {limit}")
    if graph.n == 0:
        return []
    blocks = _blocks(graph)
    if blocks is None:
        return []
    out = [0]
    tree_size = 0
    for block in reversed(blocks) if reverse else blocks:
        labels = frozenset(x for _, u, v in block for x in (u, v))
        tree_size += len(labels) - 1
        trees = []
        _block_trees(block, labels, 0, reverse, trees)
        out = [head | tail for head in out for tail in trees]
    assert tree_size == graph.n - 1, "blocks do not cover the graph"
    assert len(out) == count, "enumeration disagrees with Kirchhoff count"
    return out


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


def min_max_violation_over_trees(graph, bound_masks, reverse=False):
    """min over spanning trees of the max additive bound violation, and
    the smallest tree mask attaining it; no bounds means violation 0.
    (None, None) when the graph has no spanning tree."""
    trees = enumerate_spanning_trees(graph, reverse=reverse)
    d, viols = _scaled_violations(graph, trees, bound_masks)
    best = None
    witness = None
    for tree, viol in zip(trees, viols):
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
