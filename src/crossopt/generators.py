"""Instance generators for the certified gap and tightness examples.

Every generated instance ships with a GapReport whose claims are
established mechanically: LP feasibility of the stated fractional point
is certified by exact enumeration or exact Kirchhoff contraction
counts, and integral violation lower bounds come from exhaustive
enumeration (never sampling).  Where full enumeration is out of reach
(16-gadget trees, the k=4 hitting sets) the search is factored through
an exactly-verified product structure and the report says so.

The exhaustive scans work in Python ints and precomputed tables: each
set's size and ceil(size/2) are computed once, a cut's paths hit come
from one table per half of its bits, and the path lattice's leq, meet
and join rows are built from the mixed-radix digits of the path index.
Every scan still visits all candidates, in the same order and with the
same tie-breaks, so the reports are unchanged.
"""

from dataclasses import dataclass
from itertools import product

from .brute import kirchhoff_count, min_max_violation_over_trees
from .errors import InstanceError, SizeGuardError
from .graphs import Edge, Graph, iter_bits, mask_of
from .instances import (
    GENERAL,
    GeneralMcstInstance,
    IntersectionInstance,
    LatticeInstance,
)
from .lpengine import separate_lattice, separate_spanning_tree
from .oracles import ContraPolymatroidPair, CrossingConstraint, LatticeOracle
from .rational import ONE, ZERO, Rat, encode_rationals, rat_ceil, render_rat


@dataclass(frozen=True)
class GapReport:
    kind: str
    lp_point: dict  # edge id -> value
    lp_feasible: bool
    integral_min_violation: object
    claimed_bound: object
    claim_ok: bool
    witness: object
    details: dict

    def to_json(self):
        return {
            "schema": 1,
            "kind": self.kind,
            "lp_point": {str(e): render_rat(v) for e, v in self.lp_point.items()},
            "lp_feasible": self.lp_feasible,
            "integral_min_violation": encode_rationals(self.integral_min_violation),
            "claimed_bound": encode_rationals(self.claimed_bound),
            "claim_ok": self.claim_ok,
            "witness": encode_rationals(self.witness),
            "details": encode_rationals(self.details),
        }


# -- shared gadget graph -------------------------------------------------------
#
# Root r plus, per index i, a 4-cycle r - u_i - v_i - w_i - r.  Every
# spanning tree picks exactly 3 of each gadget's 4 edges, so trees
# correspond to a subset X (gadgets keeping both u-edges) plus a free
# 2-way choice per gadget of which side loses an edge.


def _gadget_vertices(e):
    def u(i):
        return 3 * i + 1

    def w(i):
        return 3 * i + 2

    def v(i):
        return 3 * i + 3

    return u, w, v


def gadget_graph(e, costs=None):
    u, w, v = _gadget_vertices(e)
    pairs = []
    for i in range(e):
        pairs.extend([(0, u(i)), (u(i), v(i)), (0, w(i)), (w(i), v(i))])
    return Graph.from_pairs(3 * e + 1, pairs, costs)


def gadget_u_edges(e, i):
    return mask_of([4 * i, 4 * i + 1])


def gadget_w_edges(e, i):
    return mask_of([4 * i + 2, 4 * i + 3])


def tree_to_subset(e, tree_mask):
    """Map a spanning tree of the gadget graph to X = gadgets keeping
    both u-side edges; checks the exactly-3-edges structure."""
    x = 0
    for i in range(e):
        u_cnt = (tree_mask & gadget_u_edges(e, i)).bit_count()
        w_cnt = (tree_mask & gadget_w_edges(e, i)).bit_count()
        if u_cnt + w_cnt != 3 or u_cnt == 0 or w_cnt == 0:
            raise InstanceError(
                f"tree does not pick exactly three edges in gadget {i}"
            )
        if u_cnt == 2:
            x |= 1 << i
    return x


def _contract_edge(graph, eid):
    """Merge the endpoints of one edge, dropping loops (parallels stay)."""
    gone = graph.by_id[eid]
    keep, merge = gone.u, gone.v
    edges = []
    for e in graph.edges:
        if e.id == eid:
            continue
        u = keep if e.u == merge else e.u
        v = keep if e.v == merge else e.v
        if u == v:
            continue
        edges.append((e.id, u, v))
    remap = {}
    for old in range(graph.n):
        if old == merge:
            continue
        remap[old] = len(remap)
    return Graph(
        graph.n - 1,
        [Edge(i, remap[u], remap[v], ZERO) for i, u, v in edges],
    )


def tree_polytope_membership_certificate(graph, point):
    """Certify that the point is the exact average of all spanning trees:
    for every edge, trees-containing(e) / trees-total must equal x_e.

    Both counts are exact Kirchhoff determinants (the containing count
    is the tree count of the graph with e contracted), so this is a
    mechanical convex-combination certificate of membership in the
    spanning tree polytope.
    """
    total = kirchhoff_count(graph)
    if total == 0:
        return False
    for e in graph.edges:
        containing = kirchhoff_count(_contract_edge(graph, e.id))
        if Rat(containing, total) != point[e.id]:
            return False
    return True


# -- Hadamard discrepancy family ------------------------------------------------


def hadamard_sets(e):
    """Row sets (positions of +1) of the order-e Sylvester matrix."""
    if e & (e - 1) or e <= 0:
        raise InstanceError("order must be a power of two")
    h = [[1]]
    while len(h) < e:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return [mask_of(i for i in range(e) if row[i] == 1) for row in h]


def brute_discrepancy(sets, e, reverse=False):
    """min over X of max_j | |X & S_j| - |complement & S_j| |, exhaustive."""
    sized = [(s, s.bit_count()) for s in sets]
    best = None
    witness = None
    space = range((1 << e) - 1, -1, -1) if reverse else range(1 << e)
    for x in space:
        worst = 0
        for s, size in sized:
            imbalance = abs(2 * (x & s).bit_count() - size)
            if imbalance > worst:
                worst = imbalance
        if best is None or worst < best:
            best = worst
            witness = x
    return best, witness


def gen_mcst_gap(e):
    """Gap instance: the fractional point 3/4 on every edge is feasible,
    yet every spanning tree violates a Hadamard-derived bound by at
    least half the measured discrepancy minus one."""
    if e not in (4, 8, 16):
        raise SizeGuardError("supported sizes are 4, 8, 16")
    graph = gadget_graph(e)
    sets = hadamard_sets(e)
    bounds = []
    for s in sets:
        size = s.bit_count()
        limit = Rat(size + rat_ceil(Rat(size, 2)))
        u_mask = 0
        w_mask = 0
        for i in iter_bits(s):
            u_mask |= gadget_u_edges(e, i)
            w_mask |= gadget_w_edges(e, i)
        bounds.append((u_mask, limit))
        bounds.append((w_mask, limit))
    instance = GeneralMcstInstance(graph, tuple(bounds))

    point = {edge.id: Rat(3, 4) for edge in graph.edges}
    feasible = tree_polytope_membership_certificate(graph, point)
    for emask, limit in bounds:
        if Rat(3, 4) * emask.bit_count() > limit:
            feasible = False
    rho, rho_witness = brute_discrepancy(sets, e)
    rho_rev, _ = brute_discrepancy(sets, e, reverse=True)
    if rho != rho_rev:
        raise SizeGuardError("discrepancy re-enumeration disagreed")

    details = {
        "discrepancy": rho,
        "discrepancy_witness": rho_witness,
        "set_sizes": [s.bit_count() for s in sets],
        "method": "tree-exhaustive" if e <= 8 else "gadget-subset-exhaustive",
    }

    if e <= 8:
        viol, witness = min_max_violation_over_trees(graph, bounds)
        viol_rev, _ = min_max_violation_over_trees(graph, bounds, reverse=True)
        if viol != viol_rev:
            raise SizeGuardError("violation re-enumeration disagreed")
        via_subsets = _min_violation_via_subsets(e, sets)
        if Rat(via_subsets) != viol:
            raise SizeGuardError(
                "tree-level and gadget-subset violation search disagree"
            )
        if e == 4:
            sep = separate_spanning_tree(point, graph, 0)
            if not sep.feasible:
                feasible = False
    else:
        viol = Rat(_min_violation_via_subsets(e, sets))
        witness = None

    claimed = Rat(rho, 2) - 1
    report = GapReport(
        kind="mcst-gap",
        lp_point=point,
        lp_feasible=feasible,
        integral_min_violation=viol,
        claimed_bound=claimed,
        claim_ok=bool(feasible and viol >= claimed),
        witness=witness,
        details=details,
    )
    return instance, report


def _min_violation_via_subsets(e, sets):
    """Every tree induces X = gadgets keeping both u-edges, with loads
    |S_j| + |X & S_j| on the u-side bound and |S_j| + |comp & S_j| on
    the w-side; minimize the worst violation over all X exhaustively."""
    sized = [(s, s.bit_count(), -(-s.bit_count() // 2)) for s in sets]
    best = None
    for x in range(1 << e):
        worst = None
        for s, size, half in sized:
            hit = (x & s).bit_count()
            # the larger of hit - half and (size - hit) - half
            v = (hit if 2 * hit >= size else size - hit) - half
            if worst is None or v > worst:
                worst = v
        if best is None or worst < best:
            best = worst
    return best


# -- planar min-cut gap ---------------------------------------------------------


def planar_gap_graph(k):
    """Layered s-t graph: s = v_0, spine v_1..v_{k-1}, t = v_k, and k
    parallel 2-edge channels u_{i,1}..u_{i,k} per layer i."""
    n = (k + 1) + k * k
    pairs = []
    for layer in range(1, k + 1):
        v_prev = layer - 1
        v_next = layer
        for j in range(k):
            u = (k + 1) + (layer - 1) * k + j
            pairs.append((v_prev, u))
            pairs.append((u, v_next))
    return Graph.from_pairs(n, pairs, [1] * len(pairs))


def _planar_paths(k):
    """All s-t paths as channel choices (j_1..j_k); index is mixed radix."""
    return list(product(range(k), repeat=k))


def _path_edge_mask(k, choice):
    mask = 0
    for layer, j in enumerate(choice):
        base = 2 * (layer * k + j)
        mask |= 1 << base | 1 << (base + 1)
    return mask


def _path_lattice_tables(k, choices):
    """leq, meet and join tables of the paths under the componentwise
    order of their channel choices.

    Path b's index is the mixed-radix number of its digits (j_1..j_k),
    so each row is built digit by digit: after layer l the partial row
    lists, for every prefix (j_1..j_l) in index order, the order bit or
    the index weight of min/max(a's digit, j) summed so far."""
    weights = [k ** (k - 1 - layer) for layer in range(k)]
    digits = range(k)
    leq, meet, join = [], [], []
    for choice in choices:
        le_row, meet_row, join_row = [1], [0], [0]
        for d, w in zip(choice, weights):
            le_d = [int(d <= j) for j in digits]
            meet_d = [min(d, j) * w for j in digits]
            join_d = [max(d, j) * w for j in digits]
            le_row = [x & y for x in le_row for y in le_d]
            meet_row = [x + y for x in meet_row for y in meet_d]
            join_row = [x + y for x in join_row for y in join_d]
        leq.append(le_row)
        meet.append(meet_row)
        join.append(join_row)
    return leq, meet, join


def gen_planar_mincut_gap(k):
    """Crossing path-cover instance: 1/(2k) on every edge satisfies all
    path and layer constraints, yet any integral set hitting every path
    loads some layer with at least k edges (violation k-1)."""
    if k not in (2, 3, 4):
        raise SizeGuardError("supported sizes are 2, 3, 4")
    graph = planar_gap_graph(k)
    choices = _planar_paths(k)
    rho = [_path_edge_mask(k, c) for c in choices]
    leq, meet, join = _path_lattice_tables(k, choices)
    lat = LatticeOracle(2 * k * k, rho, [1] * len(choices), leq, meet, join)
    layer_masks = [
        mask_of(range(2 * layer * k, 2 * (layer + 1) * k)) for layer in range(k)
    ]
    cons = tuple(CrossingConstraint(m, None, Rat(1)) for m in layer_masks)
    instance = LatticeInstance(
        lat, tuple(ONE for _ in range(2 * k * k)), cons, GENERAL
    )

    point = {e: Rat(1, 2 * k) for e in range(2 * k * k)}
    feasible = separate_lattice(point, 0, lat).feasible
    for m in layer_masks:
        load = Rat(m.bit_count(), 2 * k)
        if load > 1:
            feasible = False

    if k <= 3:
        viol, witness = _min_hitting_violation_exhaustive(k, rho, layer_masks)
        viol_rev, _ = _min_hitting_violation_exhaustive(
            k, rho, layer_masks, reverse=True
        )
        if viol != viol_rev:
            raise SizeGuardError("hitting-set re-enumeration disagreed")
        method = "subset-exhaustive"
    else:
        viol, witness = _min_hitting_violation_layered(k)
        method = "layer-factored-exhaustive"

    claimed = k - 1
    report = GapReport(
        kind="planar-gap",
        lp_point=point,
        lp_feasible=feasible,
        integral_min_violation=viol,
        claimed_bound=claimed,
        claim_ok=bool(feasible and viol >= claimed),
        witness=witness,
        details={"k": k, "paths": len(choices), "method": method},
    )
    return instance, report


def _path_hit_table(rho, shift, width):
    """table[c] = bitmask of the paths p whose edge mask meets c << shift,
    for every c below 2^width."""
    table = [0]
    for e in range(shift, shift + width):
        paths = mask_of(p for p, m in enumerate(rho) if (m >> e) & 1)
        table += [hit | paths for hit in table]
    return table


def _min_hitting_violation_exhaustive(k, rho, layer_masks, reverse=False):
    """min over all hitting sets of (max layer load - 1), full 2^|E| scan.

    Each cut is split into its low and high halves of bits; a table per
    half gives the paths that half hits, so "hits every path" is one OR
    and one compare.  Cuts are visited in the order of the plain scan
    (high half outer, low half inner)."""
    nbits = 2 * k * k
    low = nbits // 2
    low_hits = _path_hit_table(rho, 0, low)
    high_hits = _path_hit_table(rho, low, nbits - low)
    every = (1 << len(rho)) - 1
    lows = range(len(low_hits))
    highs = range(len(high_hits))
    if reverse:
        lows, highs = lows[::-1], highs[::-1]
    best = None
    witness = None
    for high in highs:
        hit = high_hits[high]
        base = high << low
        for lo in lows:
            if low_hits[lo] | hit != every:
                continue
            cut = base | lo
            worst = max([(cut & m).bit_count() for m in layer_masks])
            if best is None or worst - 1 < best:
                best = worst - 1
                witness = cut
    return best, witness


def _min_hitting_violation_layered(k):
    """Hitting every path means some layer has every channel touched
    (the path family is the product of per-layer channel choices), so
    the minimum is found by exhausting single-layer edge subsets."""
    best = None
    witness = None
    for sub in range(1 << (2 * k)):
        blocked = all(
            (sub >> (2 * j)) & 1 or (sub >> (2 * j + 1)) & 1 for j in range(k)
        )
        if not blocked:
            continue
        load = sub.bit_count()
        if best is None or load - 1 < best:
            best = load - 1
            witness = sub
    return best, witness


# -- bipartite edge cover tight example ------------------------------------------


def gen_edge_cover_tight(n):
    """Cycle of length 4n split into its two perfect matchings, with a
    bound of n on each; one covering function per bipartition side."""
    if n not in (1, 2, 3):
        raise SizeGuardError("supported sizes are 1, 2, 3")
    length = 4 * n
    pairs = [(v, (v + 1) % length) for v in range(length)]
    graph_costs = [1] * length
    incident = {v: ((v - 1) % length, v) for v in range(length)}

    def side_table(parity):
        table = []
        for s in range(1 << length):
            covered = 0
            for v in range(parity, length, 2):
                a, b = incident[v]
                if (s >> a) & 1 and (s >> b) & 1:
                    covered += 1
            table.append(covered)
        return tuple(table)

    pair = ContraPolymatroidPair(length, side_table(0), side_table(1))
    matchings = (
        mask_of(range(0, length, 2)),
        mask_of(range(1, length, 2)),
    )
    cons = tuple(CrossingConstraint(m, None, Rat(n)) for m in matchings)
    return IntersectionInstance(
        pair, tuple(ONE for _ in range(length)), cons
    )


# -- reduction gadget -----------------------------------------------------------


def reduce_uniform_crossing_to_mcst(e, t, bounds):
    """Crossing spanning tree encoding of rank-t uniform-matroid bases:
    per input bound (C, b) a bound |C| + b on the u-side edges of C, and
    the special bound 2e - t on all w-side edges.  No costs."""
    if e < 1:
        raise InstanceError(f"ground size must be at least 1, got {e}")
    if not 0 <= t <= e:
        raise InstanceError(f"rank must be between 0 and the ground size {e}, got {t}")
    graph = gadget_graph(e)
    rows = []
    for c_mask, b in bounds:
        u_edges = 0
        for i in iter_bits(c_mask):
            if i >= e:
                raise InstanceError("bound set out of range")
            u_edges |= gadget_u_edges(e, i)
        rows.append((u_edges, Rat(c_mask.bit_count() + b)))
    special = 0
    for i in range(e):
        special |= gadget_w_edges(e, i)
    rows.append((special, Rat(2 * e - t)))
    return GeneralMcstInstance(graph, tuple(rows))


def yes_case_tree(e, basis_mask):
    """The witness tree for a basis: both u-edges plus (r, w_i) inside
    the basis, both w-edges plus (r, u_i) outside."""
    tree = 0
    for i in range(e):
        if (basis_mask >> i) & 1:
            tree |= mask_of([4 * i, 4 * i + 1, 4 * i + 2])
        else:
            tree |= mask_of([4 * i + 2, 4 * i + 3, 4 * i])
    return tree
