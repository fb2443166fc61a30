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
exactly the bounds the fixed edge crosses.  So the old vertex,
restricted to the remaining edges, is reused and re-certified
(lpengine.reuse_extreme_point).  A drop or merge step removes or
loosens rows, so the old vertex need not stay optimal and the LP is
solved again.

A node is good when at most MAX_LOCAL = 24 undecided edges are local to
it.  If no step applies the run aborts with an internal error: the
counting argument behind the algorithm guarantees this never happens,
and the event trace emitted by every run lets the guarantee verifier
re-check the degree-violation bound round by round.
"""

from dataclasses import dataclass

from .errors import InstanceError, InternalCheckError, NoStepApplies
from .graphs import iter_bits
from .laminar import all_consecutive_blocks
from .lpengine import ResidualMcstLp, tighten_degree_bounds

# imported by name so that crossopt.mcst.solve_to_extreme_point, which
# the benchmark's wrapper test reads, stays the lpengine function
from .lpengine import solve_to_extreme_point  # noqa: F401
from .rational import ONE, ZERO, Rat, encode_rationals, parse_rat, render_rat
from .relax import relax

MAX_LOCAL = 24  # locality threshold for "good" nodes
VIOLATION_FACTOR = 4 * MAX_LOCAL  # additive degree slack per drop round


def local_edges(forest, graph, eprime, node_id):
    """Undecided edges touching the node, excluding any edge inside a
    grandchild or crossing both a grandchild and the node itself."""
    node = forest.node(node_id)
    if not node.alive:
        raise InstanceError(f"node {node_id} is dead")
    touching = graph.touching_mask(node.vset, within=eprime)
    delta_s = graph.delta_mask(node.vset, within=eprime)
    exclude = 0
    for gid in forest.grandchildren(node_id):
        gv = forest.node(gid).vset
        exclude |= graph.induced_mask(gv, within=eprime)
        exclude |= graph.delta_mask(gv, within=eprime) & delta_s
    return touching & ~exclude


def classify_good(forest, graph, eprime):
    """Split alive good nodes by leaf status; also return the local-edge
    masks so callers can check the edge-locality bound."""
    locals_by = {}
    good_nonleaves = []
    good_leaves = []
    for nid in forest.alive_ids():
        mask = local_edges(forest, graph, eprime, nid)
        locals_by[nid] = mask
        if mask.bit_count() <= MAX_LOCAL:
            if forest.node(nid).is_leaf():
                good_leaves.append(nid)
            else:
                good_nonleaves.append(nid)
    return locals_by, good_nonleaves, good_leaves


def assert_edge_locality(locals_by, eprime):
    """No undecided edge may be local to more than six alive nodes."""
    for eid in iter_bits(eprime):
        owners = sum(1 for mask in locals_by.values() if (mask >> eid) & 1)
        if owners > 6:
            raise InternalCheckError(
                f"edge {eid} is local to {owners} nodes (limit 6)"
            )


class McstState:
    """Mutable run state: chosen edges, undecided edges, residual forest."""

    header = {"kind": "mcst-trace", "alpha": MAX_LOCAL}

    def __init__(self, instance):
        self.instance = instance
        self.graph = instance.graph
        self.forest = instance.build_forest()
        self.eprime = self.graph.all_edges_mask
        self.fmask = 0
        self.iteration_cap = (
            self.eprime.bit_count() + drop_round_limit(self.graph.n) + 2
        )
        # delta masks of the original sets, for _assert_degree_accounting
        self.family_deltas = tuple(
            self.graph.delta_mask(vmask) for vmask, _ in instance.family
        )

    def finished(self):
        return not self.eprime

    def residual(self):
        rows = tuple(
            (nid, self.forest.node(nid).vset, self.forest.node(nid).bound)
            for nid in sorted(self.forest.alive_ids())
        )
        return ResidualMcstLp(self.graph, self.eprime, self.fmask, rows)

    def fix_edge(self, eid):
        edge = self.graph.by_id[eid]
        self.fmask |= 1 << eid
        self.eprime &= ~(1 << eid)
        for nid in self.forest.alive_ids():
            node = self.forest.node(nid)
            if edge.crosses(node.vset):
                if node.bound < 1:
                    raise InternalCheckError(
                        f"fixing edge {eid} drives bound of node {nid} negative"
                    )
                self.forest.set_bound(nid, node.bound - ONE)

    def delete_edge(self, eid):
        self.eprime &= ~(1 << eid)

    def step(self, point, lp_initial, trace):
        """Tighten, check the invariants and apply try_step; True after
        a fix or delete, whose new region is a face of the old one."""
        graph = self.graph
        if graph.cost_of(self.fmask) + point.objective > lp_initial:
            raise InternalCheckError("cost accounting broke: c(F) + z > z0")
        changes = tighten_degree_bounds(self.forest, graph, self.eprime, point)
        trace.add(
            {
                "ev": "tighten",
                "changes": [
                    [nid, render_rat(old), render_rat(new)]
                    for nid, old, new in changes
                ],
            }
        )
        classified = classify_good(self.forest, graph, self.eprime)
        assert_edge_locality(classified[0], self.eprime)
        _assert_degree_accounting(self)
        before = self.forest.size()
        event = try_step(self, point, classified)
        trace.add(event)
        if event["ev"] in ("fix", "delete"):
            return True
        after = self.forest.size()
        if 8 * (before - after) < before:
            raise InternalCheckError(
                f"drop round shrank the family by {before - after} of {before}, "
                "less than an eighth"
            )
        return False

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
    each fixed crossing edge decremented it by one)."""
    for idx, (delta, (_, bound)) in enumerate(
        zip(state.family_deltas, state.instance.family)
    ):
        node = state.forest.nodes[idx]
        if not node.alive:
            continue
        fixed = (delta & state.fmask).bit_count()
        residual = node.bound
        # residual + fixed > bound, in integers
        if (
            (residual.numerator + fixed * residual.denominator) * bound.denominator
            > bound.numerator * residual.denominator
        ):
            raise InternalCheckError(
                f"degree accounting broke at original set {idx}"
            )


# -- replay and verification ---------------------------------------------------


@dataclass
class ReplayResult:
    tree: int
    forest: object
    snapshots: tuple  # (forest copy, undecided mask) at times 0..T
    matches_footer: bool


def replay_trace(instance, trace):
    """Re-apply the event log mechanically (no LP solves) and check it
    reproduces the recorded final tree and forest."""
    state = McstState(instance)
    forest = state.forest
    snapshots = [(forest.snapshot(), state.eprime)]
    for ev in trace.events:
        kind = ev["ev"]
        if kind in ("begin", "solve"):
            continue
        if kind == "tighten":
            for nid, old, new in ev["changes"]:
                if forest.node(nid).bound != parse_rat(old):
                    raise InternalCheckError(
                        f"replay mismatch: node {nid} bound differs before tighten"
                    )
                forest.set_bound(nid, parse_rat(new))
        elif kind == "fix":
            state.fix_edge(ev["edge"])
        elif kind == "delete":
            state.delete_edge(ev["edge"])
        elif kind == "drop_children":
            dropped = forest.drop_children_of(tuple(ev["parents"]))
            if sorted(dropped) != sorted(ev["dropped"]):
                raise InternalCheckError("replay mismatch: dropped set differs")
            snapshots.append((forest.snapshot(), state.eprime))
        elif kind == "merge_leaves":
            for pkey, first, second, new_id in ev["merges"]:
                got = forest.merge_leaf_pair(first, second)
                if got != new_id:
                    raise InternalCheckError("replay mismatch: merged node id")
            for pkey, nid in ev["removed"]:
                forest.remove_leaf(nid)
            snapshots.append((forest.snapshot(), state.eprime))
        elif kind == "end":
            matches = (
                ev["tree"] == sorted(iter_bits(state.fmask))
                and ev["forest"] == _forest_json(forest)
            )
            return ReplayResult(state.fmask, forest, tuple(snapshots), matches)
    raise InstanceError("trace has no end event")


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
    checks.append(("shrink-per-round", shrink_ok, {"sizes": sizes}))
    if not shrink_ok:
        failures.append("shrink-per-round")

    limit = drop_round_limit(graph.n)
    round_ok = T <= limit
    checks.append(("round-count", round_ok, {"T": T, "limit": limit}))
    if not round_ok:
        failures.append("round-count")

    slack_total = Rat(VIOLATION_FACTOR * T)
    orig_ok = True
    worst = None
    for idx, (vmask, bound) in enumerate(instance.family):
        load = (graph.delta_mask(vmask) & tree).bit_count()
        if Rat(load) > bound + slack_total:
            orig_ok = False
            failures.append(f"original-bound set#{idx}")
        if worst is None or Rat(load) - bound > worst:
            worst = Rat(load) - bound
    checks.append(
        ("original-bounds", orig_ok, {"max_violation": worst, "allowed": slack_total})
    )

    blocks_ok = True
    blocks_checked = 0
    for t, (forest, undecided) in enumerate(snapshots):
        allowed = Rat(VIOLATION_FACTOR * (T - t))
        for block in all_consecutive_blocks(forest):
            blocks_checked += 1
            union = 0
            bnd = ZERO
            for nid in block:
                union |= forest.node(nid).vset
                bnd += forest.node(nid).bound
            # tree edges among the time-t undecided edges crossing B
            inc = (graph.delta_mask(union, within=undecided) & tree).bit_count()
            if Rat(inc) > bnd + allowed:
                blocks_ok = False
                failures.append(f"block t={t} B={block}")
    checks.append(("block-inequalities", blocks_ok, {"blocks": blocks_checked}))

    lp_initial = trace.initial_lp_objective()
    cost = graph.cost_of(tree)
    cost_ok = cost <= lp_initial
    checks.append(("cost", cost_ok, {"cost": cost, "lp": lp_initial}))
    if not cost_ok:
        failures.append("cost")

    return GuaranteeReport(
        ok=not failures,
        t_rounds=T,
        family_sizes=tuple(sizes),
        checks=tuple(checks),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class GuaranteeReport:
    ok: bool
    t_rounds: int
    family_sizes: tuple
    checks: tuple
    failures: tuple

    def to_json(self):
        return {
            "ok": self.ok,
            "drop_rounds": self.t_rounds,
            "family_sizes": list(self.family_sizes),
            "checks": [
                {"name": name, "pass": ok, "detail": encode_rationals(detail)}
                for name, ok, detail in self.checks
            ],
            "failures": list(self.failures),
        }
