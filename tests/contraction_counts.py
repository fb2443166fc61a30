"""The spanning-tree polytope certificate as it was before the edge
counts came from one adjugate: the reference for
``crossopt.brute.edge_tree_counts``.

``crossopt.generators.tree_polytope_membership_certificate`` used to
count the spanning trees that contain each edge as the Kirchhoff count
of the graph with that edge contracted, one determinant per edge.
``_contract_edge`` and that certificate are kept below verbatim (only
the imports are new); ``tree_counts_by_contraction`` runs the same
per-edge loop and returns the counts instead of comparing them.
"""

from crossopt.brute import kirchhoff_count
from crossopt.graphs import Edge, Graph
from crossopt.rational import ZERO, Rat


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


def tree_counts_by_contraction(graph):
    """(number of spanning trees, [number of them that contain e, for
    each edge e in graph order]), one Kirchhoff count per edge."""
    return kirchhoff_count(graph), [
        kirchhoff_count(_contract_edge(graph, e.id)) for e in graph.edges
    ]
