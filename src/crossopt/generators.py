"""Instance generators for the certified gap and tightness examples.

Every generated instance ships with a GapReport whose claims are
established mechanically: LP feasibility of the stated fractional point
is certified by exact enumeration or by exact tree counts (the
Kirchhoff determinant and every edge's count, all read off one
adjugate of the reduced Laplacian), and integral violation lower
bounds come from exhaustive enumeration (never sampling).  Where full
enumeration is out of reach (16-gadget trees, the k=4 hitting sets)
the search is factored through an exactly-verified product structure
and the report says so.

The exhaustive scans work in Python ints and precomputed tables: each
set's size and ceil(size/2) are computed once, and a cut's paths hit
and layer loads come from one table per half of its bits.  Each scan
looks for a minimum, so once it holds an incumbent it skips what could
never replace it: the set scans cut a candidate off as soon as its
running worst reaches the incumbent (branch and bound), and the
hitting-set scan visits only the low halves whose layer loads fit
under the room the incumbent leaves.  Candidates are visited in the
same order as a plain scan, with the same strict-< tie-breaks, so the
minima, the witnesses and the reports are unchanged.  The discrepancy
scan's two orders split the subsets between them by complement, so
the pair visits each subset once.  The tree scan of the mcst-gap
instances is brute.min_max_violation_over_trees, a fold over the
gadgets' 4-cycles that never lists the 4^e trees.

The planar-gap lattice is oracles.PathLattice, a product of k chains
with its axioms proved, so no table is built, written or validated:
the instance file names the lattice by k alone.
"""

from dataclasses import dataclass
from operator import add, le

from .brute import edge_tree_counts, min_max_violation_over_trees
from .errors import InstanceError, InternalCheckError, SizeGuardError
from .graphs import ID_LIMIT, Graph, iter_bits, mask_of
from .instances import (
    GENERAL,
    GeneralMcstInstance,
    IntersectionInstance,
    LatticeInstance,
)
from .lpengine import separate_lattice, separate_spanning_tree
from .oracles import (
    CHAIN_COUNTS,
    ContraPolymatroidPair,
    CrossingConstraint,
    PathLattice,
)
from .rational import ONE, Rat, encode_rationals, rat_ceil
from .simplex import Vertex


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
        # each field by name, not asdict(self), so that the declared-field
        # lint sees details read
        return encode_rationals(
            {
                "schema": 1,
                "kind": self.kind,
                "lp_point": self.lp_point,
                "lp_feasible": self.lp_feasible,
                "integral_min_violation": self.integral_min_violation,
                "claimed_bound": self.claimed_bound,
                "claim_ok": self.claim_ok,
                "witness": self.witness,
                "details": self.details,
            }
        )


# -- shared gadget graph -------------------------------------------------------
#
# Root r plus, per index i, a 4-cycle r - u_i - v_i - w_i - r.  Every
# spanning tree picks exactly 3 of each gadget's 4 edges, so trees
# correspond to a subset X (gadgets keeping both u-edges) plus a free
# 2-way choice per gadget of which side loses an edge.


def gadget_graph(e):
    """Vertex 0 is r; gadget i has u_i = 3i + 1, w_i = 3i + 2 and
    v_i = 3i + 3, and edges r-u_i, u_i-v_i, r-w_i, w_i-v_i with ids
    4i .. 4i + 3, all of cost 0."""
    pairs = []
    for i in range(e):
        u, w, v = 3 * i + 1, 3 * i + 2, 3 * i + 3
        pairs.extend([(0, u), (u, v), (0, w), (w, v)])
    return Graph.from_pairs(3 * e + 1, pairs)


def gadget_u_edges(i):
    return mask_of([4 * i, 4 * i + 1])


def gadget_w_edges(i):
    return mask_of([4 * i + 2, 4 * i + 3])


def tree_polytope_membership_certificate(graph, point):
    """Certify that the point is the exact average of all spanning trees:
    for every edge, trees-containing(e) / trees-total must equal x_e.

    Both counts are exact: the total is the determinant of the reduced
    Laplacian, and every edge's containing count is read off its one
    adjugate (`brute.edge_tree_counts`), so this is a mechanical
    convex-combination certificate of membership in the spanning tree
    polytope.
    """
    total, containing = edge_tree_counts(graph)
    if total == 0:
        return False
    return all(Rat(c, total) == point[e.id] for e, c in zip(graph.edges, containing))


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
    """min over X of max_j | |X & S_j| - |complement & S_j| |, and the
    first minimiser X in scan order, for sets S_j inside [e].

    The two orders split the subsets of [e] between them: the forward
    call scans X < 2^(e-1) in ascending order, the reverse call
    X >= 2^(e-1) in descending order, so the pair visits every subset
    exactly once.  The complement X' = [e] - X keeps every imbalance,
    |2|X' & S| - |S|| = |2|X & S| - |S||, and flips bit e - 1, so it maps
    each half onto the other: either half holds the minimum over all
    subsets, and the two calls re-derive each other's value, so
    comparing them stays a full cross-check.  Even without that lemma,
    two halves that agree hold the minimum over all subsets.  The half a
    call scans is the one a full scan in its order meets first, so the
    call's witness is that scan's first minimiser."""
    sized = [(s, s.bit_count()) for s in sets]
    best = None
    witness = None
    if e == 0:
        space = range(1)  # the one subset of the empty ground set
    elif reverse:
        space = range((1 << e) - 1, (1 << (e - 1)) - 1, -1)
    else:
        space = range(1 << (e - 1))
    for x in space:
        worst = 0
        for s, size in sized:
            imbalance = abs(2 * (x & s).bit_count() - size)
            if imbalance > worst:
                worst = imbalance
                if best is not None and worst >= best:
                    break  # x cannot beat the incumbent
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
            u_mask |= gadget_u_edges(i)
            w_mask |= gadget_w_edges(i)
        bounds.append((u_mask, limit))
        bounds.append((w_mask, limit))
    instance = GeneralMcstInstance(graph, tuple(bounds))

    point = {edge.id: Rat(3, 4) for edge in graph.edges}
    feasible = tree_polytope_membership_certificate(graph, point)
    for emask, limit in bounds:
        if Rat(3, 4) * emask.bit_count() > limit:
            feasible = False
    # the two orders scan complementary halves of the subsets
    rho, rho_witness = brute_discrepancy(sets, e)
    rho_rev, _ = brute_discrepancy(sets, e, reverse=True)
    if rho != rho_rev:
        raise InternalCheckError("discrepancy re-enumeration disagreed")

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
            raise InternalCheckError("violation re-enumeration disagreed")
        via_subsets = _min_violation_via_subsets(e, sets)
        if Rat(via_subsets) != viol:
            raise InternalCheckError(
                "tree-level and gadget-subset violation search disagree"
            )
        if e == 4:
            sep = separate_spanning_tree(Vertex.of_values(point), graph, 0)
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
                if best is not None and worst >= best:
                    break  # x cannot beat the incumbent
        if best is None or worst < best:
            best = worst
    return best


# -- planar min-cut gap ---------------------------------------------------------


def gen_planar_mincut_gap(k):
    """Crossing path-cover instance: 1/(2k) on every edge satisfies all
    path and layer constraints, yet any integral set hitting every path
    loads some layer with at least k edges (violation k-1)."""
    if k not in CHAIN_COUNTS:
        raise SizeGuardError("supported sizes are 2, 3, 4")
    lat = PathLattice(k)
    rho = lat.rho
    layer_masks = [
        mask_of(range(2 * layer * k, 2 * (layer + 1) * k)) for layer in range(k)
    ]
    cons = tuple(CrossingConstraint(m, None, Rat(1)) for m in layer_masks)
    instance = LatticeInstance(
        lat, tuple(ONE for _ in range(2 * k * k)), cons, GENERAL
    )

    point = {e: Rat(1, 2 * k) for e in range(2 * k * k)}
    feasible = separate_lattice(Vertex.of_values(point), 0, lat).feasible
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
            raise InternalCheckError("hitting-set re-enumeration disagreed")
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
        details={"k": k, "paths": lat.size, "method": method},
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


def _layer_load_table(layer_masks, shift, width):
    """table[c] = the list of |(c << shift) & m| over the layer masks m,
    for every c below 2^width."""
    table = [[0] * len(layer_masks)]
    for e in range(shift, shift + width):
        bits = [(m >> e) & 1 for m in layer_masks]
        table += [list(map(add, loads, bits)) for loads in table]
    return table


def _min_hitting_violation_exhaustive(k, rho, layer_masks, reverse=False):
    """min over all hitting sets of (max layer load - 1): an exhaustive
    scan of the 2^|E| cuts that skips only cuts which cannot win.

    Each cut is split into its low and high halves of bits; a table per
    half gives the paths that half hits, so "hits every path" is one OR
    and one compare, and a cut's load on a layer is the sum of its two
    halves' loads.  Cuts are visited in the order of the plain scan
    (high half outer, low half inner), and only a strictly smaller
    violation replaces the incumbent.

    A cut replaces the incumbent, of violation cap, exactly when it hits
    every path and loads no layer above cap.  So for a high half with
    layer loads b, only the low halves whose loads fit under the room
    cap - b on every layer are visited: the low halves are grouped once
    by their load vector, and the groups that fit are merged back into
    scan order, once per distinct room.  A skipped cut loads some layer
    above cap, so it could not have replaced the incumbent, and the
    first cut accepted is the one the plain scan accepts.  The hit test
    and the full load test stay in the inner loop, because cap falls
    whenever a cut is accepted, even in the middle of a high half."""
    nbits = 2 * k * k
    low = nbits // 2
    low_hits = _path_hit_table(rho, 0, low)
    high_hits = _path_hit_table(rho, low, nbits - low)
    low_loads = _layer_load_table(layer_masks, 0, low)
    high_loads = _layer_load_table(layer_masks, low, nbits - low)
    every = (1 << len(rho)) - 1
    lows = range(len(low_hits))
    highs = range(len(high_hits))
    if reverse:
        lows, highs = lows[::-1], highs[::-1]
    groups = {}  # low-half load vector -> its low halves, in scan order
    for lo in lows:
        groups.setdefault(tuple(low_loads[lo]), []).append(lo)
    fitting = {}  # room -> the low halves that fit under it, in scan order
    best = None
    witness = None
    cap = nbits  # a cut with a layer load above cap cannot win
    for high in highs:
        hit = high_hits[high]
        loads = high_loads[high]
        if max(loads, default=0) > cap:
            continue
        room = tuple(cap - b for b in loads)
        fits = fitting.get(room)
        if fits is None:
            fits = fitting[room] = sorted(
                (
                    lo
                    for key, group in groups.items()
                    if all(map(le, key, room))
                    for lo in group
                ),
                reverse=reverse,
            )
        for lo in fits:
            if low_hits[lo] | hit != every:
                continue
            worst = max(map(add, low_loads[lo], loads), default=0)
            if worst <= cap:
                best = cap = worst - 1
                witness = high << low | lo
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
    if 4 * e > ID_LIMIT:
        raise InstanceError(
            f"ground size must be at most {ID_LIMIT // 4}, got {e}: the gadget's "
            f"4e edge ids must stay below the id limit {ID_LIMIT}"
        )
    if not 0 <= t <= e:
        raise InstanceError(f"rank must be between 0 and the ground size {e}, got {t}")
    graph = gadget_graph(e)
    rows = []
    for c_mask, b in bounds:
        u_edges = 0
        for i in iter_bits(c_mask):
            if i >= e:
                raise InstanceError("bound set out of range")
            u_edges |= gadget_u_edges(i)
        rows.append((u_edges, Rat(c_mask.bit_count() + b)))
    special = 0
    for i in range(e):
        special |= gadget_w_edges(i)
    rows.append((special, Rat(2 * e - t)))
    return GeneralMcstInstance(graph, tuple(rows))

