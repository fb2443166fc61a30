"""Step rule for spanning trees under laminar degree bounds.

The relax module runs the loop; this module supplies the residual
state and the step.  At each certified extreme point the step tightens
every alive bound to its exact crossing load, then applies the first
applicable step:

1. fix an edge with value 1 (decrementing the bounds it crosses),
2. delete an edge with value 0,
3. if at least a quarter of the alive nodes are good non-leaves, drop
   the bounds of all children of the good non-leaves on one level
   parity (the parity holding at least an eighth of the nodes; even is
   preferred on ties), splicing grandchildren into the freed positions,
4. if more than a quarter are good leaves, merge them pairwise per
   parent in child order (bounds add; an odd leftover is dropped).

After a fix or delete step the new residual region is the face x_e = 1
(or 0) of the old one, which the old optimal vertex lies on: tightening
only lowered bounds to the loads at that vertex, and fixing decrements
exactly the bounds the fixed edge crosses.  The step returns that face
(e, c), and the old vertex, less the edge e, is reused and re-certified
(lpengine.reuse_extreme_point).  Reuse checks the face, so its subtour
and tree-total rows are not scanned again: with F at 1 and deleted
edges at 0 the point and every such row's excess are unchanged.  A
drop or merge step removes or loosens rows, so the old vertex need not
stay optimal and the LP is solved again.

The state keeps each degree row's edge mask for the whole run, and
each bound only on its forest node.  A fix or delete removes the edge
from the masks that hold it (a fix also lowers those nodes' bounds by
one, compared in integers), a tighten lowers every bound above its
load, and a drop or merge rebuilds the masks; residual() builds the
LP's Rows from the masks and the node bounds, as the covering states
build theirs from E'.  replay_trace applies the same edits through the
same state methods, and builds no LP row.

A node is good when at most MAX_LOCAL = 24 undecided edges are local to
it.  Its local edges are its reach (the edges touching it, less those
inside a grandchild or crossing both a grandchild and the node) within
the undecided edges.  The reach depends only on the forest's shape, so
the state keeps it for every alive node until a drop or merge step.
No undecided edge may be local to more than six alive nodes; the owner
counts are kept as 3-bit counters in bit planes over all edges at once.

If no step applies the run aborts with an internal error: the counting
argument behind the algorithm guarantees this never happens, and the
event trace emitted by every run lets the guarantee verifier re-check
the degree-violation bound round by round.
"""

from dataclasses import dataclass
from math import lcm

from .errors import InstanceError, InternalCheckError, NoStepApplies
from .graphs import iter_bits
from .instances import _rat
from .laminar import VIRTUAL_ROOT, all_consecutive_blocks
from .lpengine import Residual, separate_spanning_tree

# imported by name so that crossopt.mcst.solve_to_extreme_point, which
# the benchmark's wrapper test reads, stays the lpengine function
from .lpengine import solve_to_extreme_point  # noqa: F401
from .rational import Rat, render_rat
from .relax import CheckReport, begin_event, check, relax, step_face
from .simplex import EQ, LE, LinearProgram, Row

MAX_LOCAL = 24  # locality threshold for "good" nodes
VIOLATION_FACTOR = 4 * MAX_LOCAL  # additive degree slack per drop round


def node_reach(forest, graph, node_id):
    """Edges touching the node, excluding any edge inside a grandchild
    or crossing both a grandchild and the node itself.  The node's local
    edges are its reach restricted to the undecided edges; the reach
    itself depends only on the forest's shape."""
    delta_s, touching = graph.cut(forest.node(node_id).vset)
    exclude = 0
    for gid in forest.grandchildren(node_id):
        delta_g, touching_g = graph.cut(forest.node(gid).vset)
        exclude |= (touching_g & ~delta_g) | (delta_g & delta_s)
    return touching & ~exclude


def reach_masks(forest, graph):
    """{alive node id: node_reach} in id order."""
    return {nid: node_reach(forest, graph, nid) for nid in forest.alive_ids()}


def classify_good(forest, reach, eprime):
    """Split alive good nodes by leaf status; also return the local-edge
    masks (each reach & eprime) so callers can check the edge-locality
    bound.  ``reach`` is reach_masks of the forest."""
    locals_by = {}
    good_nonleaves = []
    good_leaves = []
    for nid, node_reach_mask in reach.items():
        mask = node_reach_mask & eprime
        locals_by[nid] = mask
        if mask.bit_count() <= MAX_LOCAL:
            if forest.node(nid).is_leaf():
                good_leaves.append(nid)
            else:
                good_nonleaves.append(nid)
    return locals_by, good_nonleaves, good_leaves


def assert_edge_locality(locals_by, eprime):
    """No undecided edge may be local to more than six alive nodes.

    Each edge's owner count is kept in three bit planes, one 3-bit
    counter per edge, added to once per local-edge mask; ``over``
    collects the edges whose count reached 7.  Only when some edge did
    is the per-edge count taken, to name the first such edge."""
    if len(locals_by) <= 6:
        return
    ones = twos = fours = over = 0
    for mask in locals_by.values():
        carry = ones & mask
        ones ^= mask
        carry, twos = twos & carry, twos ^ carry
        over |= fours & carry
        fours ^= carry
    over = (over | (ones & twos & fours)) & eprime
    if over:
        eid = (over & -over).bit_length() - 1
        owners = sum(1 for mask in locals_by.values() if (mask >> eid) & 1)
        raise InternalCheckError(f"edge {eid} is local to {owners} nodes (limit 6)")


class McstState:
    """Mutable run state: the residual forest and its LP (the chosen
    and undecided edges, the bounds), edited by the step events.

    The LP's rows are the tree-total row x(E') = n - |F| - 1 and one
    degree row x(delta(S) & E') <= b(S) per alive node S, in node id
    order.  The bound b(S) lives on the forest node alone; the state
    keeps each row's edge mask, which a fix or delete edits by scanning
    the masks.  ``residual`` builds the Rows from the masks and the
    bounds, so a trace replay, which never solves, builds none.
    """

    header = {"kind": "mcst-trace", "alpha": MAX_LOCAL}

    def __init__(self, instance):
        self.instance = instance
        self.graph = instance.graph
        self.forest = instance.build_forest()
        self.eprime = self.graph.all_edges_mask
        self.fmask = 0
        # c(F) as the int C * c(F), kept by fix_edge, with C the lcm of
        # the edge costs' denominators
        self.cost_den = lcm(*(e.cost.denominator for e in self.graph.edges))
        self.fcost = 0
        self.reshaped()
        self.iteration_cap = (
            self.eprime.bit_count() + drop_round_limit(self.graph.n) + 2
        )
        # delta masks and bounds of the original sets, for
        # _assert_degree_accounting; the original bounds are integers
        self.family_deltas = tuple(
            self.graph.delta_mask(vmask) for vmask, _ in instance.family
        )
        self.family_bounds = tuple(bound.numerator for _, bound in instance.family)

    def finished(self):
        return not self.eprime

    def reshaped(self):
        """After a drop or merge step, and once at the start: the
        forest's alive nodes changed, so the degree rows' masks are
        rebuilt and the reach masks are dropped until the next
        classification."""
        # reach_masks of the forest; None after a drop or merge step,
        # the only steps that change a node's grandchildren
        self.reach = None
        nodes = self.forest.nodes
        eprime = self.eprime
        cut = self.graph.cut
        self.node_ids = [nd.id for nd in nodes if nd.alive]
        self.masks = [cut(nodes[nid].vset)[0] & eprime for nid in self.node_ids]

    def delete_edge(self, eid):
        """x_e = 0: the undecided edge eid leaves the undecided edges
        and the degree rows that hold it; returns those rows' positions."""
        bit = 1 << eid
        self.eprime ^= bit
        masks = self.masks
        held = [p for p, mask in enumerate(masks) if mask & bit]
        for p in held:
            masks[p] ^= bit
        return held

    def fix_edge(self, eid):
        """x_e = 1: e leaves the LP as on a delete, joins the chosen
        edges and their cost c(F), and every bound it crosses drops by
        one; a bound below one is an InternalCheckError."""
        held = self.delete_edge(eid)
        self.fmask |= 1 << eid
        cost = self.graph.by_id[eid].cost
        self.fcost += cost.numerator * (self.cost_den // cost.denominator)
        nodes, node_ids = self.forest.nodes, self.node_ids
        for p in held:
            node = nodes[node_ids[p]]
            num, den = node.bound.numerator, node.bound.denominator
            if num < den:
                raise InternalCheckError(
                    f"fixing edge {eid} drives bound of node {node.id} negative"
                )
            node.bound = Rat(num - den, den)

    def tighten(self, point):
        """Lower every degree bound to its crossing load x(delta(S) & E')
        at the certified Vertex ``point`` of this LP, compared in
        integers; returns [(node id, old, new)] for the changed rows.
        A load above its bound is an InternalCheckError: tightening
        never raises a bound."""
        den = point.den
        nodes = self.forest.nodes
        changes = []
        for nid, mask in zip(self.node_ids, self.masks):
            node = nodes[nid]
            bound = node.bound
            load = point.load(mask)
            excess = load * bound.denominator - bound.numerator * den
            if excess > 0:
                raise InternalCheckError(
                    f"crossing load exceeds bound at node {nid}; tightening "
                    "would increase the bound"
                )
            if excess:
                node.bound = Rat(load, den)
                changes.append((nid, bound, node.bound))
        return changes

    def residual(self):
        """The LP as it stands, a Residual: the variables and objective
        of E', and the Rows built from the masks and the node bounds."""
        graph, eprime, fmask = self.graph, self.eprime, self.fmask
        nodes, by_id = self.forest.nodes, graph.by_id
        var_ids = tuple(iter_bits(eprime))
        total = Rat(graph.n - fmask.bit_count() - 1)
        rows = [Row(eprime, EQ, total, ("tree_total", None))]
        for nid, mask in zip(self.node_ids, self.masks):
            rows.append(Row(mask, LE, nodes[nid].bound, ("degree", nid)))

        def cut_row(kind, vmask):
            inside = graph.induced_mask(vmask, within=eprime)
            f_inside = (graph.induced_mask(vmask) & fmask).bit_count()
            rhs = Rat(vmask.bit_count() - f_inside - 1)
            return Row(inside, LE, rhs, ("subtour", vmask))

        return Residual(
            LinearProgram(
                var_ids, tuple(by_id[v].cost for v in var_ids), tuple(rows)
            ),
            lambda point: separate_spanning_tree(point, graph, fmask),
            cut_row,
        )

    def step(self, point, lp_initial, trace):
        """Tighten, check the invariants and apply try_step; the face
        (e, c) after a fix or delete, else None."""
        graph = self.graph
        z, z0, c_den = point.objective, lp_initial, self.cost_den
        # c(F) + z > z0, in integers
        if (self.fcost * z.denominator + z.numerator * c_den) * z0.denominator > (
            z0.numerator * c_den * z.denominator
        ):
            raise InternalCheckError("cost accounting broke: c(F) + z > z0")
        changes = self.tighten(point)
        trace.add(
            {
                "ev": "tighten",
                "changes": [
                    [nid, render_rat(old), render_rat(new)]
                    for nid, old, new in changes
                ],
            }
        )
        if self.reach is None:
            self.reach = reach_masks(self.forest, graph)
        classified = classify_good(self.forest, self.reach, self.eprime)
        assert_edge_locality(classified[0], self.eprime)
        _assert_degree_accounting(self)
        before = len(self.reach)  # the alive nodes
        event = try_step(self, point, classified)
        trace.add(event)
        face = step_face(event)
        if face is not None:
            return face
        after = self.forest.size()
        if 8 * (before - after) < before:
            raise InternalCheckError(
                f"drop round shrank the family by {before - after} of {before}, "
                "less than an eighth"
            )
        return None

    def finish(self, lp_initial):
        tree = self.fmask
        if not self.graph.all_edges_mask:
            raise InstanceError("graph has no edges")
        if not self.graph.is_spanning_tree(tree):
            raise InternalCheckError("output is not a spanning tree")
        if self.graph.cost_of(tree) > lp_initial:
            raise InternalCheckError("tree cost exceeds the initial LP optimum")
        return {"tree": sorted(iter_bits(tree)), "forest": _forest_json(self.forest)}


def try_step(state, point, classified):
    """Apply the first applicable step (fix, delete, drop, merge) at the
    certified Vertex ``point`` and return its trace event: ``fix`` or
    ``delete`` with the ``edge``, ``drop_children`` with the ``parity``,
    the ``parents`` and the ``dropped`` nodes, or ``merge_leaves`` with
    the ``merges`` [parent key, first, second, new id] and the
    ``removed`` [parent key, node id].  ``classified`` is classify_good
    of the state's forest and undecided edges, already checked for edge
    locality."""
    forest = state.forest
    if point.ones:
        eid = (point.ones & -point.ones).bit_length() - 1
        state.fix_edge(eid)
        return {"ev": "fix", "edge": eid}
    if point.zeros:
        eid = (point.zeros & -point.zeros).bit_length() - 1
        state.delete_edge(eid)
        return {"ev": "delete", "edge": eid}

    _, good_nonleaves, good_leaves = classified
    total = forest.size()

    if good_nonleaves and 4 * len(good_nonleaves) >= total:
        even = [nid for nid in good_nonleaves if forest.level(nid) % 2 == 0]
        odd = [nid for nid in good_nonleaves if forest.level(nid) % 2 == 1]
        if even and 8 * len(even) >= total:
            parity, chosen = 0, even
        elif odd and 8 * len(odd) >= total:
            parity, chosen = 1, odd
        else:
            raise InternalCheckError(
                "no level parity holds an eighth of the nodes despite a "
                "quarter being good non-leaves"
            )
        parents = sorted(chosen)
        dropped = forest.drop_children_of(parents)
        state.reshaped()
        return {
            "ev": "drop_children",
            "parity": parity,
            "parents": parents,
            "dropped": dropped,
        }

    if 4 * len(good_leaves) > total:
        by_parent = {}
        for nid in good_leaves:
            by_parent.setdefault(forest.parent_key(nid), set()).add(nid)
        merges = []
        removed = []
        for pkey in sorted(by_parent):
            members = by_parent[pkey]
            ordered = [cid for cid in forest.sibling_order(pkey) if cid in members]
            for i in range(len(ordered) // 2):
                first, second = ordered[2 * i], ordered[2 * i + 1]
                new_id = forest.merge_leaf_pair(first, second)
                merges.append([pkey, first, second, new_id])
            if len(ordered) % 2 == 1:
                leftover = ordered[-1]
                forest.remove_leaf(leftover)
                removed.append([pkey, leftover])
        state.reshaped()
        return {"ev": "merge_leaves", "merges": merges, "removed": removed}

    raise NoStepApplies(
        "no step applies: "
        f"|undecided|={state.eprime.bit_count()}, |family|={total}, "
        f"good non-leaves={len(good_nonleaves)}, good leaves={len(good_leaves)}"
    )


# -- run traces ---------------------------------------------------------------


def _forest_json(forest):
    return {
        "nodes": [
            {
                "id": nd.id,
                "vertices": sorted(iter_bits(nd.vset)),
                "bound": render_rat(nd.bound),
                "parent": nd.parent,
                "children": list(nd.children),
                "alive": nd.alive,
            }
            for nd in forest.nodes
        ],
        "roots": list(forest.roots),
    }


def run_mcst(instance):
    """Run to completion; returns (tree mask, trace).

    Raises InstanceError when the initial LP is infeasible and
    InternalCheckError / NoStepApplies when a structural invariant that
    should be impossible to break fails mid-run.
    """
    state = McstState(instance)
    trace, _ = relax(state)
    return state.fmask, trace


def drop_round_limit(n):
    """Smallest k with (8/7)^k >= 2n-1; every run does at most k drops."""
    target = 2 * n - 1
    k = 0
    while 8**k < target * 7**k:
        k += 1
    return k


def _assert_degree_accounting(state):
    """An original node's residual bound plus the chosen edges crossing
    it never exceeds its original bound (tightening only decreases, and
    each fixed crossing edge decremented it by one).  Original nodes
    keep their family index as node id and come first in id order."""
    fmask = state.fmask
    originals = len(state.family_bounds)
    nodes = state.forest.nodes
    for nid in state.node_ids:
        if nid >= originals:
            break
        bound = nodes[nid].bound
        den = bound.denominator
        fixed = (state.family_deltas[nid] & fmask).bit_count()
        # bound + fixed > original bound, in integers
        if bound.numerator + fixed * den > state.family_bounds[nid] * den:
            raise InternalCheckError(f"degree accounting broke at original set {nid}")


# -- replay and verification ---------------------------------------------------


@dataclass
class ReplayResult:
    tree: int
    snapshots: tuple  # (forest copy, undecided mask) at times 0..T
    matches_footer: bool


# the events an mcst trace holds after its begin event
REPLAYED_EVENTS = (
    "solve",
    "tighten",
    "fix",
    "delete",
    "drop_children",
    "merge_leaves",
    "end",
)


def replay_trace(instance, trace):
    """Re-apply the event log mechanically (no LP solves) and check it
    reproduces the recorded final tree and forest.

    The events edit a McstState through the methods the run edits it
    with, and a tighten sets the node bounds it names; no LP row is
    built.  Events are numbered from 1 in trace order
    (a trace file's line numbers when it has no blank lines).  The first
    must be the begin event of a run on this instance, and every later
    one an event an mcst run writes.  A field that replay cannot apply,
    such as a node or edge the run does not have, or a begin header of
    another instance, kind, schema or alpha, is an InstanceError naming
    the event and the field; a well-formed event that does not reproduce
    the run, such as a tighten that raises a bound or leaves it
    negative, a drop parent off the event's level parity, or a merge or
    removal under another parent key, is an InternalCheckError."""
    _check_begin(instance, trace.events)
    state = McstState(instance)
    forest = state.forest
    snapshots = [(forest.snapshot(), state.eprime)]
    for number, ev in enumerate(trace.events[1:], 2):
        kind = ev["ev"]
        if kind == "solve":
            continue
        where = f"trace event {number} ({kind})"
        if kind == "tighten":
            for i, (nid, old, new) in enumerate(_entries(ev, "changes", 3, where)):
                field = f"{where} changes[{i}]"
                nid = _node_id(nid, forest, field)
                old, new = _rat(old, field), _rat(new, field)
                node = forest.node(nid)
                if not node.alive:
                    raise InternalCheckError(
                        f"replay mismatch: {field} tightens node {nid}, which is dead"
                    )
                if node.bound != old:
                    raise InternalCheckError(
                        f"replay mismatch: node {nid} bound differs before tighten"
                    )
                if not 0 <= new <= old:
                    raise InternalCheckError(
                        f"replay mismatch: {field} moves node {nid}'s bound from "
                        f"{render_rat(old)} to {render_rat(new)}; tightening only "
                        "lowers a bound and keeps it non-negative"
                    )
                node.bound = new
        elif kind in ("fix", "delete"):
            eid = _field(ev, "edge", where)
            if type(eid) is not int or eid not in instance.graph.by_id:
                raise InstanceError(
                    f"{where} edge must be an edge id of the instance, got {eid!r}"
                )
            if not (state.eprime >> eid) & 1:
                raise InternalCheckError(
                    f"replay mismatch: {where} edge {eid} is already decided"
                )
            if kind == "fix":
                state.fix_edge(eid)
            else:
                state.delete_edge(eid)
        elif kind == "drop_children":
            parity = _field(ev, "parity", where)
            if type(parity) is not int or parity not in (0, 1):
                raise InstanceError(f"{where} parity must be 0 or 1, got {parity!r}")
            parents = _node_ids(ev, "parents", forest, where)
            expected = _node_ids(ev, "dropped", forest, where)
            for i, nid in enumerate(parents):
                if not forest.node(nid).alive or forest.level(nid) % 2 != parity:
                    raise InternalCheckError(
                        f"replay mismatch: {where} parents[{i}] node {nid} is not "
                        f"an alive node at a level of parity {parity}"
                    )
            dropped = forest.drop_children_of(tuple(parents))
            if sorted(dropped) != sorted(expected):
                raise InternalCheckError("replay mismatch: dropped set differs")
            state.reshaped()
            snapshots.append((forest.snapshot(), state.eprime))
        elif kind == "merge_leaves":
            merges = _entries(ev, "merges", 4, where)
            removed = _entries(ev, "removed", 2, where)
            for i, (pkey, first, second, new_id) in enumerate(merges):
                field = f"{where} merges[{i}]"
                pkey = _node_id(pkey, forest, field, root_ok=True)
                first = _node_id(first, forest, field)
                second = _node_id(second, forest, field)
                _check_parent_key(forest, pkey, first, field)
                if forest.merge_leaf_pair(first, second) != new_id:
                    raise InternalCheckError("replay mismatch: merged node id")
            for i, (pkey, nid) in enumerate(removed):
                field = f"{where} removed[{i}]"
                pkey = _node_id(pkey, forest, field, root_ok=True)
                nid = _node_id(nid, forest, field)
                _check_parent_key(forest, pkey, nid, field)
                forest.remove_leaf(nid)
            state.reshaped()
            snapshots.append((forest.snapshot(), state.eprime))
        elif kind == "end":
            tree, final = _field(ev, "tree", where), _field(ev, "forest", where)
            if not isinstance(tree, list) or not all(
                type(eid) is int and eid in instance.graph.by_id for eid in tree
            ):
                raise InstanceError(
                    f"{where} tree must be a list of edge ids of the instance, "
                    f"got {tree!r}"
                )
            if not isinstance(final, dict):
                raise InstanceError(f"{where} forest must be an object, got {final!r}")
            matches = (
                tree == sorted(iter_bits(state.fmask)) and final == _forest_json(forest)
            )
            return ReplayResult(state.fmask, tuple(snapshots), matches)
        else:
            raise InstanceError(
                f"{where} ev must be one of {', '.join(REPLAYED_EVENTS)} after "
                f"the begin event, got {kind!r}"
            )
    raise InstanceError("trace has no end event")


def _check_begin(instance, events):
    """InstanceError unless events open with the begin event that a run
    on instance writes: relax.begin_event of the instance and
    McstState.header."""
    first = events[0]["ev"] if events else None
    if first != "begin":
        raise InstanceError(f"trace event 1 must be the begin event, got {first!r}")
    where = "trace event 1 (begin)"
    for name, want in begin_event(instance, McstState.header).items():
        got = _field(events[0], name, where)
        if type(got) is not type(want) or got != want:
            raise InstanceError(f"{where} {name} must be {want!r}, got {got!r}")


def _field(ev, name, where):
    if name not in ev:
        raise InstanceError(f"{where} has no field {name!r}")
    return ev[name]


def _entries(ev, name, arity, where):
    """The list field ``name`` of the event, each entry a list of
    ``arity`` items."""
    value = _field(ev, name, where)
    if not isinstance(value, list) or not all(
        isinstance(entry, list) and len(entry) == arity for entry in value
    ):
        raise InstanceError(
            f"{where} {name} must be a list of {arity}-item lists, got {value!r}"
        )
    return value


def _node_id(value, forest, field, root_ok=False):
    """value, which must be the id of a node of the forest, alive or
    not (or, with root_ok, VIRTUAL_ROOT, the parent key of the roots)."""
    if type(value) is int and (
        0 <= value < len(forest.nodes) or (root_ok and value == VIRTUAL_ROOT)
    ):
        return value
    raise InstanceError(
        f"{field} must name a node 0..{len(forest.nodes) - 1}, got {value!r}"
    )


def _check_parent_key(forest, pkey, nid, field):
    """A replay mismatch unless pkey is the forest's parent key of node
    nid."""
    if forest.parent_key(nid) != pkey:
        raise InternalCheckError(
            f"replay mismatch: {field} names parent key {pkey} for node {nid}, "
            f"whose parent key is {forest.parent_key(nid)}"
        )


def _node_ids(ev, name, forest, where):
    value = _field(ev, name, where)
    if not isinstance(value, list):
        raise InstanceError(f"{where} {name} must be a list of node ids, got {value!r}")
    return [_node_id(v, forest, f"{where} {name}[{i}]") for i, v in enumerate(value)]


def verify_guarantee(instance, tree, trace):
    """Check every guarantee a finished run promises.

    (a) drop rounds shrink the family by at least an eighth each and
        T stays within the logarithmic limit,
    (b) every original set S obeys |tree & delta(S)| <= b(S) + 96 T,
    (c) every consecutive sibling block B at every snapshot t obeys
        included(B,t) <= bounds(B,t) + 96 (T - t),
    (d) cost(tree) <= the initial LP optimum.
    """
    graph = instance.graph
    replay = replay_trace(instance, trace)
    if not replay.matches_footer:
        raise InternalCheckError("trace does not replay to its recorded end")
    snapshots = replay.snapshots
    T = len(snapshots) - 1
    if T != trace.drop_round_count():
        raise InternalCheckError("snapshot count disagrees with drop events")
    if replay.tree != tree:
        raise InstanceError("tree does not match the trace")
    checks = []
    failures = []

    sizes = [forest.size() for forest, _ in snapshots]
    shrink_ok = all(
        8 * (sizes[t] - sizes[t + 1]) >= sizes[t] for t in range(T)
    )
    checks.append(check("shrink-per-round", shrink_ok, detail={"sizes": sizes}))
    if not shrink_ok:
        failures.append("shrink-per-round")

    limit = drop_round_limit(graph.n)
    round_ok = T <= limit
    checks.append(check("round-count", round_ok, detail={"T": T, "limit": limit}))
    if not round_ok:
        failures.append("round-count")

    # original bounds are integers (McstInstance checks them when built)
    slack_total = VIOLATION_FACTOR * T
    orig_ok = True
    worst = None
    for idx, (vmask, bound) in enumerate(instance.family):
        over = (graph.delta_mask(vmask) & tree).bit_count() - bound.numerator
        if over > slack_total:
            orig_ok = False
            failures.append(f"original-bound set#{idx}")
        if worst is None or over > worst:
            worst = over
    detail = {
        "max_violation": None if worst is None else Rat(worst),
        "allowed": Rat(slack_total),
    }
    checks.append(check("original-bounds", orig_ok, detail=detail))

    blocks_ok = True
    blocks_checked = 0
    for t, (forest, undecided) in enumerate(snapshots):
        # every bound over one common denominator, so block sums are ints
        alive = [nd for nd in forest.nodes if nd.alive]
        scale = lcm(*(nd.bound.denominator for nd in alive))
        scaled = {
            nd.id: nd.bound.numerator * (scale // nd.bound.denominator)
            for nd in alive
        }
        allowed = VIOLATION_FACTOR * (T - t) * scale
        for block in all_consecutive_blocks(forest):
            blocks_checked += 1
            union = 0
            limit = allowed
            for nid in block:
                union |= forest.node(nid).vset
                limit += scaled[nid]
            # tree edges among the time-t undecided edges crossing B
            inc = (graph.delta_mask(union, within=undecided) & tree).bit_count()
            if inc * scale > limit:
                blocks_ok = False
                failures.append(f"block t={t} B={block}")
    detail = {"blocks": blocks_checked}
    checks.append(check("block-inequalities", blocks_ok, detail=detail))

    lp_initial = trace.initial_lp_objective()
    cost = graph.cost_of(tree)
    cost_ok = cost <= lp_initial
    checks.append(check("cost", cost_ok, detail={"cost": cost, "lp": lp_initial}))
    if not cost_ok:
        failures.append("cost")

    fields = {"drop_rounds": T, "family_sizes": sizes}
    return CheckReport(tuple(checks), tuple(failures), fields)
