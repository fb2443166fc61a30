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

The tree scan compares violations in integers: the bounds are scaled
once by D, the lcm of their denominators, and only the result is
turned back into a rational (best / D).  A tree's row counts sit in
fixed-width fields of one int, below its edge mask, and a threshold is
tested on every row at once with one add and one AND against the
fields' guard bits (SWAR; Lamport 1975, "Multiple byte processing with
full-word instructions", CACM).  The counts of a tree are the sums of
its blocks' counts, so the scan folds the blocks one at a time and
keeps, for each distinct vector of counts, only its smallest tree: the
gap gadget's 4^e trees come down to at most 2^e states.  It lowers the
threshold through the values a row can take over those states, and the
witness is the smallest tree mask at the minimum in either enumeration
order.
"""

from itertools import compress
from math import lcm
from operator import not_

from .errors import InternalCheckError, SizeGuardError
from .graphs import joins
from .rational import Rat
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
    return sum(joins((a, b) for _, a, b in edges)) == len(labels) - 1


def _block_trees(edges, labels, chosen, reverse, out):
    """Append to out, for every spanning tree of the connected multigraph
    (edges, labels), chosen plus the sum of its edges' weights:
    contraction/deletion on the first edge, or on the last when reverse.
    An edge is (weight, u, v), and no two edges share a weight."""
    if len(labels) == 1:
        out.append(chosen)
        return
    weight, u, v = edges[-1] if reverse else edges[0]
    contracted = []
    for tup in edges:
        if tup[0] == weight:
            continue
        a = u if tup[1] == v else tup[1]
        b = u if tup[2] == v else tup[2]
        if a != b:
            contracted.append((tup[0], a, b))
    _block_trees(contracted, labels - {v}, chosen + weight, reverse, out)
    rest = [tup for tup in edges if tup[0] != weight]
    if _connected(rest, labels):
        _block_trees(rest, labels, chosen, reverse, out)


def block_spanning_trees(graph, weights=None, limit=TREE_COUNT_GUARD, reverse=False):
    """The spanning trees of each biconnected block, one list per block,
    or None when the graph has no spanning tree.  A block's tree is the
    sum of weights[i] over its edge ids i; weights[i] defaults to 1 << i,
    which makes it the tree's edge mask.  The weights must be distinct.

    An edge set is a spanning tree exactly when it is a spanning tree of
    every block, so the graph's trees are the products of one tree per
    block.  `reverse` branches on each block's last edge instead of its
    first and lists the blocks in the opposite order: every block's
    recursion is built by a different sequence of steps, which keeps it
    an independent order for cross-checks.  The Kirchhoff count that
    guards the size is taken on the whole graph, never per block, and
    the product of the blocks' tree counts must equal it; the blocks'
    vertex counts, less one each, must add up to the n - 1 edges of a
    tree.  So a block the decomposition split, or one it lost, shows as
    a mismatch instead of a wrong set of trees.
    """
    count = kirchhoff_count(graph)
    if count > limit:
        raise SizeGuardError(f"{count} spanning trees exceeds guard {limit}")
    if graph.n == 0:
        return None
    blocks = _blocks(graph)
    if blocks is None:
        return None
    if weights is None:
        weights = {e.id: 1 << e.id for e in graph.edges}
    per_block = []
    tree_size = 0
    product = 1
    for block in reversed(blocks) if reverse else blocks:
        labels = frozenset(x for _, u, v in block for x in (u, v))
        tree_size += len(labels) - 1
        trees = []
        _block_trees([(weights[i], u, v) for i, u, v in block], labels, 0, reverse, trees)
        product *= len(trees)
        per_block.append(trees)
    if tree_size != graph.n - 1:
        raise InternalCheckError("blocks do not cover the graph")
    if product != count:
        raise InternalCheckError("enumeration disagrees with Kirchhoff count")
    return per_block


def enumerate_spanning_trees(graph, limit=TREE_COUNT_GUARD, reverse=False):
    """All spanning trees as edge masks, each exactly once: the
    OR-products of one tree per block of block_spanning_trees, taken in
    its order."""
    per_block = block_spanning_trees(graph, limit=limit, reverse=reverse)
    if per_block is None:
        return []
    out = [0]
    for trees in per_block:
        out = [head | tail for head in out for tail in trees]
    return out


def _least_per_state(sums, counts):
    """Of the ints in sums, which hold a packed state in their `counts`
    bits and a tree mask above them, the one with the smallest mask for
    each state.  Sorted from the largest down, the last one a dict keeps
    for a state is that state's smallest."""
    sums = sorted(sums, reverse=True)
    return list(dict(zip(map(counts.__and__, sums), sums)).values())


def min_max_violation_over_trees(graph, bound_masks, reverse=False):
    """min over spanning trees of the max additive bound violation, and
    the smallest tree mask attaining it; violation 0 at the smallest
    tree when there are no bounds, (None, None) when the graph has no
    spanning tree.

    Scaled by D, the lcm of the bounds' denominators, row r has edge
    mask m_r and bound B_r (an int), and a tree T with n_r = |T & m_r|
    has value v(T) = max_r(n_r * D - B_r).  Each term is one of the
    levels c * D - B_r with 0 <= c <= |m_r|, and v(T) >= L =
    max_r(-B_r), so the minimum is the least level t >= L that some
    tree passes, where T passes t when n_r * D <= t + B_r on every row.

    Packing.  Let W = max_r(|m_r|).bit_length() + 1 and H = 2^(W-1), so
    0 <= n_r <= |m_r| < H.  Field r (bits r*W to r*W + W - 1) of the int
    P(T) holds n_r, and T's mask sits above all R fields, from bit S =
    R*W: T's sum is T * 2^S + P(T).  The fields hold counts, not counts
    times D, so their width does not grow with the bounds' denominators.
    As n_r is an integer, n_r * D <= t + B_r exactly when n_r <= (t +
    B_r) // D.  For a level t >= L, t + B_r >= L + B_r >= 0, so lim_r =
    min((t + B_r) // D, |m_r|) has 0 <= lim_r <= |m_r|, and the constant
    C_t holds c_r = H - 1 - lim_r, with 0 <= c_r <= H - 1, in field r.
    Then field r of P(T) + C_t is n_r + c_r <= |m_r| + H - 1 < 2H = 2^W:
    no field carries into the next one, nor the last into the mask.  Its
    top bit (the guard, H) is set exactly when n_r + H - 1 - lim_r >= H,
    that is, n_r > lim_r, and n_r > lim_r holds exactly when n_r > (t +
    B_r) // D, since n_r <= |m_r|.  So T passes t exactly when (sum +
    C_t) & G == 0, with G the guard bits of every field.

    Fold.  Each edge weighs 2^(S + id) plus 1 in the field of each row
    whose mask holds it, and block_spanning_trees gives each block's
    trees as the sums of their weights.  The blocks share no edge, so
    the mask of a product of block trees is the sum of their masks, and
    each row's count is the sum of the blocks' counts on it.  No field
    carries as partial sums are added: a partial count of row r never
    exceeds the whole count n_r <= |m_r| < H, so P of a product is the
    sum of the blocks' P.  The value and the pass test depend on T only
    through P(T), so at each distinct P, a state, only the smallest mask
    matters.  Each block's trees are cut down to the smallest one per
    state, and the blocks are folded one at a time, states[p + q] =
    min(states[p] + local[q]).  This is exact: the smallest of the sums
    a + b, with a and b drawn from two sets apart, is the sum of the two
    sets' smallest, and the masks of distinct blocks are disjoint, so
    their sum is their union.  The states at the end are every P some
    tree has, each at its smallest tree.

    Search.  The states are tested in ascending mask order, at the
    level just below the least level passed so far (every state passes
    the top level), and while one passes, the least level falls by one;
    a passing test stops at the first state that passes.  Every tree at
    the minimum has its state's smallest tree at or below it, which
    passes too, so the first state to pass the least level is the
    smallest tree mask at the minimum, in either enumeration order."""
    d = lcm(*(bound.denominator for _, bound in bound_masks))
    rows = [
        (emask, bound.numerator * (d // bound.denominator))
        for emask, bound in bound_masks
    ]
    sizes = [emask.bit_count() for emask, _ in rows]
    width = max(sizes, default=0).bit_length() + 1
    top = 1 << (width - 1)
    shifts = range(0, width * len(rows), width)
    span = width * len(rows)
    weights = {
        e.id: (1 << (span + e.id))
        + sum(1 << s for (m, _), s in zip(rows, shifts) if m >> e.id & 1)
        for e in graph.edges
    }
    per_block = block_spanning_trees(graph, weights, reverse=reverse)
    if per_block is None:
        return None, None
    counts = (1 << span) - 1
    states = [0]
    for trees in per_block:
        local = _least_per_state(trees, counts)
        states = _least_per_state([p + q for p in states for q in local], counts)
    states.sort()
    if not rows:
        return Rat(0, 1), states[0] >> span
    guard = sum(top << s for s in shifts)
    floor = max(-b for _, b in rows)
    levels = sorted(
        {
            c * d - b
            for size, (_, b) in zip(sizes, rows)
            for c in range(size + 1)
            if c * d - b >= floor
        }
    )

    def guards(i):
        offset = sum(
            (top - 1 - min((levels[i] + b) // d, size)) << s
            for (_, b), size, s in zip(rows, sizes, shifts)
        )
        return map(guard.__and__, map(offset.__add__, states))

    best = len(levels)  # every state passes levels[-1]
    while best and 0 in guards(best - 1):
        best -= 1
    witness = next(compress(states, map(not_, guards(best))))
    return Rat(levels[best], d), witness >> span


def brute_subset_opt(n, feasible_fn, costs):
    """Exact optimum of min cost(S) over all S in 2^[n] with feasible_fn(S):
    (the smallest mask at the minimum, its cost), or (None, None).

    The costs are scaled once to integers by D, the lcm of their
    denominators, and the cost of every mask is tabulated by doubling
    over the elements.  The masks are scanned in increasing order, and
    one that cannot beat the incumbent is passed over without asking
    feasible_fn; only the result is turned back into a rational."""
    if n > SUBSET_GUARD:
        raise SizeGuardError(f"ground set {n} exceeds guard {SUBSET_GUARD}")
    costs = costs[:n]
    den = lcm(*(c.denominator for c in costs))
    table = [0]
    for c in costs:
        scaled = c.numerator * (den // c.denominator)
        table += [t + scaled for t in table]
    best = None
    best_mask = None
    for mask, cost in enumerate(table):
        if (best is None or cost < best) and feasible_fn(mask):
            best = cost
            best_mask = mask
    if best_mask is None:
        return None, None
    return best_mask, Rat(best, den)
