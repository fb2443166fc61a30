"""The MCST step facts recomputed on every call, for the tests.

``crossopt.graphs.Graph`` keeps each vertex set's cut once computed;
``crossopt.mcst`` keeps each alive node's reach between drop and merge
steps, classifying nodes by reach & E', and counts each edge's owners
in bit planes; ``crossopt.mcst.McstState`` keeps each degree row's edge
mask for the run, edited by the step events, and lowers the forest's
bounds in integers.  These are the per-call versions they replaced:
every mask is built afresh from the incidence rows, every owner count
is taken edge by edge, and every residual LP is rebuilt from a forest
whose bounds are lowered in rationals, so the tests can compare the
cached and edited forms against them.
"""

from crossopt.errors import InstanceError, InternalCheckError
from crossopt.graphs import iter_bits
from crossopt.lpengine import Residual, separate_spanning_tree
from crossopt.mcst import MAX_LOCAL
from crossopt.rational import ONE, Rat, render_rat
from crossopt.simplex import EQ, LE, LinearProgram, Row


def cut_masks(graph, vmask):
    """(delta, touching) of vmask: the XOR and the OR of its vertices'
    incidence rows."""
    delta = touching = 0
    for v in range(graph.n):
        if (vmask >> v) & 1:
            delta ^= graph.incidence[v]
            touching |= graph.incidence[v]
    return delta, touching


def local_edges(forest, graph, eprime, node_id):
    """Undecided edges touching the node, excluding any edge inside a
    grandchild or crossing both a grandchild and the node itself."""
    node = forest.node(node_id)
    if not node.alive:
        raise InstanceError(f"node {node_id} is dead")
    delta_s, touching = cut_masks(graph, node.vset)
    touching &= eprime
    delta_s &= eprime
    exclude = 0
    for gid in forest.grandchildren(node_id):
        delta_g, touching_g = cut_masks(graph, forest.node(gid).vset)
        exclude |= touching_g & ~delta_g & eprime
        exclude |= delta_g & eprime & delta_s
    return touching & ~exclude


def classify_good(forest, graph, eprime):
    """(local-edge masks by alive node, good non-leaves, good leaves)."""
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
    """No undecided edge may be local to more than six alive nodes,
    counted edge by edge."""
    for eid in iter_bits(eprime):
        owners = sum(1 for mask in locals_by.values() if (mask >> eid) & 1)
        if owners > 6:
            raise InternalCheckError(
                f"edge {eid} is local to {owners} nodes (limit 6)"
            )


def rebuilt_mcst_lp(graph, eprime, fmask, degree_rows):
    """The Residual of one spanning-tree iteration, every row rebuilt
    from the undecided edges, the fixed edges, and the alive degree rows
    (node id, vertex set, bound)."""
    if eprime & fmask:
        raise InstanceError("undecided and fixed edge sets overlap")
    var_ids = tuple(iter_bits(eprime))
    objective = tuple(graph.by_id[v].cost for v in var_ids)
    n_fixed = fmask.bit_count()
    total = Rat(graph.n - n_fixed - 1)
    rows = [Row(eprime, EQ, total, ("tree_total", None))]
    for node_id, vset, bound in degree_rows:
        dmask = graph.delta_mask(vset, within=eprime)
        rows.append(Row(dmask, LE, bound, ("degree", node_id)))

    def cut_row(kind, vmask):
        inside = graph.induced_mask(vmask, within=eprime)
        f_inside = (graph.induced_mask(vmask) & fmask).bit_count()
        rhs = Rat(vmask.bit_count() - f_inside - 1)
        return Row(inside, LE, rhs, ("subtour", vmask))

    def separator(point):
        return separate_spanning_tree(point, graph, fmask)

    return Residual(LinearProgram(var_ids, objective, tuple(rows)), separator, cut_row)


def tighten_degree_bounds(forest, graph, eprime, point):
    """Lower every alive bound to the current crossing load x(delta(S))
    at the certified Vertex ``point``, compared in integers.

    Never increases a bound; returns [(node id, old, new)] for changed
    nodes.
    """
    den = point.den
    changes = []
    for nid in forest.alive_ids():
        bound = forest.node(nid).bound
        load = point.load(graph.delta_mask(forest.node(nid).vset, within=eprime))
        excess = load * bound.denominator - bound.numerator * den
        if excess > 0:
            raise InternalCheckError(
                f"crossing load exceeds bound at node {nid}; tightening "
                "would increase the bound"
            )
        if excess:
            new = Rat(load, den)
            changes.append((nid, bound, new))
            forest.node(nid).bound = new
    return changes


class RebuiltMcstState:
    """The residual state of an MCST run as it was kept before the run
    edited its degree rows' masks: the forest's bounds lowered in
    rationals, fixed edges found by walking every node, and the residual
    LP rebuilt from the forest's vertex sets on every call.  ``apply`` takes the step events of the
    run, recomputing each tighten from the point."""

    def __init__(self, instance):
        self.graph = instance.graph
        self.forest = instance.build_forest()
        self.eprime = self.graph.all_edges_mask
        self.fmask = 0

    def residual(self):
        rows = tuple(
            (nid, self.forest.node(nid).vset, self.forest.node(nid).bound)
            for nid in sorted(self.forest.alive_ids())
        )
        return rebuilt_mcst_lp(self.graph, self.eprime, self.fmask, rows)

    def apply(self, event, point):
        """Apply one step event of the run at its point; the tighten
        changes must equal those recomputed from the point."""
        forest = self.forest
        kind = event["ev"]
        if kind == "tighten":
            changes = tighten_degree_bounds(forest, self.graph, self.eprime, point)
            assert [
                [nid, render_rat(old), render_rat(new)] for nid, old, new in changes
            ] == event["changes"]
        elif kind == "fix":
            bit = 1 << event["edge"]
            self.fmask |= bit
            self.eprime &= ~bit
            for node in forest.nodes:
                if node.alive and self.graph.delta_mask(node.vset) & bit:
                    node.bound -= ONE
        elif kind == "delete":
            self.eprime &= ~(1 << event["edge"])
        elif kind == "drop_children":
            assert forest.drop_children_of(event["parents"]) == event["dropped"]
        elif kind == "merge_leaves":
            for _, first, second, new_id in event["merges"]:
                assert forest.merge_leaf_pair(first, second) == new_id
            for _, nid in event["removed"]:
                forest.remove_leaf(nid)
