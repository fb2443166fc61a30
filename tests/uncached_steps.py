"""The MCST step facts recomputed on every call, for the tests.

``crossopt.graphs.Graph`` keeps each vertex set's cut once computed,
and ``crossopt.mcst`` keeps each alive node's reach between drop and
merge steps, classifying nodes by reach & E'.  These are the per-call
versions they replaced: every mask is built afresh from the incidence
rows, so the tests can compare the caches against them.
"""

from crossopt.errors import InstanceError
from crossopt.mcst import MAX_LOCAL


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
