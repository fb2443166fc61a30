"""Reference for ``LaminarForest.from_sets``: the incremental builder it
replaced.

Sets are inserted in file order.  Each new set takes as parent its
smallest strict superset among the sets inserted so far, then adopts
the nodes of that parent's child order (or of the root order) that it
contains, keeping their order, and goes to the end of that order.
"""

from crossopt.laminar import LaminarForest, LaminarNode


def add_node(forest, vmask, bound):
    """Insert a set into forest, deriving its parent; keeps insertion
    order."""
    node_id = len(forest.nodes)
    parent = None
    for other in forest.nodes:
        if not other.alive:
            continue
        if other.vset != vmask and other.vset & vmask == vmask:
            if parent is None or other.vset & parent.vset == other.vset:
                parent = other
    node = LaminarNode(node_id, vmask, bound, parent.id if parent else None)
    forest.nodes.append(node)
    # adopt existing nodes that the new set now covers more tightly
    pool = forest.roots if parent is None else parent.children
    adopted = [cid for cid in pool if forest.nodes[cid].vset & vmask == forest.nodes[cid].vset]
    for cid in adopted:
        pool.remove(cid)
        forest.nodes[cid].parent = node_id
        node.children.append(cid)
    pool.append(node_id)
    return node_id


def incremental_forest(sets_with_bounds):
    """The forest of a laminar family of nonempty sets, built set by
    set."""
    forest = LaminarForest()
    for vmask, bound in sets_with_bounds:
        add_node(forest, vmask, bound)
    forest.check_invariants()
    return forest
