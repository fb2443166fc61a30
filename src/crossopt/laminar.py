"""Laminar forests of vertex sets with ordered children.

The forest is the mutable state of the degree-constrained spanning tree
solver: nodes carry residual bounds, every node keeps a linear order on
its children, and the alive roots are themselves kept in a linear order
(they behave like siblings under a virtual super-root, which lets leaf
merging and consecutive-block enumeration treat roots uniformly).

Laminarity is re-verified after every exposed mutation; a violation is
an internal error.
"""

from .errors import InstanceError, InternalCheckError

VIRTUAL_ROOT = -1  # pseudo parent id for the ordered list of roots


class LaminarNode:
    __slots__ = ("id", "vset", "bound", "parent", "children", "alive")

    def __init__(self, node_id, vset, bound, parent=None):
        self.id = node_id
        self.vset = vset
        self.bound = bound
        self.parent = parent
        self.children = []
        self.alive = True

    def is_leaf(self):
        return not self.children

    def copy(self):
        dup = LaminarNode(self.id, self.vset, self.bound, self.parent)
        dup.children = list(self.children)
        dup.alive = self.alive
        return dup


class LaminarForest:
    def __init__(self):
        self.nodes = []
        self.roots = []

    @classmethod
    def from_sets(cls, sets_with_bounds):
        """Build from [(vertex_mask, bound), ...] in file order.

        A set's parent is its smallest strict superset: the supersets of
        a set in a laminar family form a chain.  Node ids, child orders
        and the root order all follow the input order.
        """
        forest = cls()
        masks = [m for m, _ in sets_with_bounds]
        if len(set(masks)) != len(masks):
            raise InstanceError("duplicate sets in laminar family")
        for a in range(len(masks)):
            for b in range(a + 1, len(masks)):
                x, y = masks[a], masks[b]
                if x & y and x | y != x and x | y != y:
                    raise InstanceError(
                        f"family is not laminar: sets {a} and {b} cross"
                    )
        for node_id, (vmask, bound) in enumerate(sets_with_bounds):
            if vmask == 0:
                raise InstanceError("empty set in laminar family")
            supersets = [
                j for j, m in enumerate(masks) if m != vmask and m & vmask == vmask
            ]
            parent = min(supersets, key=lambda j: masks[j].bit_count(), default=None)
            forest.nodes.append(LaminarNode(node_id, vmask, bound, parent))
        for node in forest.nodes:
            p = node.parent
            (forest.roots if p is None else forest.nodes[p].children).append(node.id)
        forest.check_invariants()
        return forest

    # -- queries ---------------------------------------------------------

    def node(self, node_id):
        return self.nodes[node_id]

    def alive_ids(self):
        return [nd.id for nd in self.nodes if nd.alive]

    def size(self):
        return sum(1 for nd in self.nodes if nd.alive)

    def level(self, node_id):
        nd = self.nodes[node_id]
        if not nd.alive:
            raise InstanceError(f"node {node_id} is dead")
        depth = 0
        while nd.parent is not None:
            nd = self.nodes[nd.parent]
            depth += 1
        return depth

    def sibling_order(self, parent_id):
        """Ordered alive children of parent_id (VIRTUAL_ROOT for roots)."""
        if parent_id == VIRTUAL_ROOT or parent_id is None:
            return list(self.roots)
        return list(self.nodes[parent_id].children)

    def grandchildren(self, node_id):
        out = []
        for cid in self.nodes[node_id].children:
            out.extend(self.nodes[cid].children)
        return out

    def parent_key(self, node_id):
        p = self.nodes[node_id].parent
        return VIRTUAL_ROOT if p is None else p

    # -- mutations ---------------------------------------------------------

    def drop_children_of(self, parent_ids):
        """Kill every child of the given nodes, splicing grandchildren
        into the child order at the dead child's position."""
        dropped = []
        for pid in sorted(parent_ids):
            parent = self.nodes[pid]
            new_children = []
            for cid in parent.children:
                child = self.nodes[cid]
                child.alive = False
                dropped.append(cid)
                for gid in child.children:
                    self.nodes[gid].parent = pid
                    new_children.append(gid)
                child.children = []
            parent.children = new_children
        self.check_invariants()
        return dropped

    def merge_leaf_pair(self, first_id, second_id):
        """Replace two sibling leaves by their union at first's position;
        the bound of the union is the sum of the two bounds."""
        a, b = self.nodes[first_id], self.nodes[second_id]
        if not (a.is_leaf() and b.is_leaf() and a.alive and b.alive):
            raise InternalCheckError("merge requires alive sibling leaves")
        if a.parent != b.parent:
            raise InternalCheckError("merge requires siblings")
        new_id = len(self.nodes)
        merged = LaminarNode(new_id, a.vset | b.vset, a.bound + b.bound, a.parent)
        self.nodes.append(merged)
        order = self.roots if a.parent is None else self.nodes[a.parent].children
        order[order.index(first_id)] = new_id
        order.remove(second_id)
        a.alive = False
        b.alive = False
        self.check_invariants()
        return new_id

    def remove_leaf(self, node_id):
        nd = self.nodes[node_id]
        if not nd.is_leaf():
            raise InternalCheckError("cannot drop a non-leaf this way")
        nd.alive = False
        order = self.roots if nd.parent is None else self.nodes[nd.parent].children
        order.remove(node_id)
        self.check_invariants()

    def snapshot(self):
        dup = LaminarForest()
        dup.nodes = [nd.copy() for nd in self.nodes]
        dup.roots = list(self.roots)
        return dup

    # -- verification --------------------------------------------------

    def check_invariants(self):
        alive = [nd for nd in self.nodes if nd.alive]
        for i, a in enumerate(alive):
            for b in alive[i + 1 :]:
                x, y = a.vset, b.vset
                if x & y and x | y != x and x | y != y:
                    raise InternalCheckError(
                        f"laminarity broken between nodes {a.id} and {b.id}"
                    )
        root_set = set()
        for nd in alive:
            if nd.parent is None:
                root_set.add(nd.id)
            else:
                p = self.nodes[nd.parent]
                if not p.alive:
                    raise InternalCheckError(f"node {nd.id} has dead parent")
                if nd.vset & p.vset != nd.vset:
                    raise InternalCheckError(f"node {nd.id} not inside its parent")
                if nd.id not in p.children:
                    raise InternalCheckError(f"node {nd.id} missing from child order")
        if set(self.roots) != root_set or len(self.roots) != len(root_set):
            raise InternalCheckError("root order out of sync")
        for nd in alive:
            kids = nd.children
            if len(set(kids)) != len(kids):
                raise InternalCheckError(f"duplicate children under {nd.id}")
            seen = 0
            for cid in kids:
                c = self.nodes[cid]
                if not c.alive or c.parent != nd.id:
                    raise InternalCheckError(f"stale child {cid} under {nd.id}")
                if seen & c.vset:
                    raise InternalCheckError(f"overlapping siblings under {nd.id}")
                seen |= c.vset


def all_consecutive_blocks(forest):
    """Every consecutive sibling block in the forest (all contiguous runs
    of every parent's child order, roots included)."""
    blocks = []
    parents = [VIRTUAL_ROOT] + [
        nd.id for nd in forest.nodes if nd.alive and nd.children
    ]
    for pid in parents:
        order = forest.sibling_order(pid)
        for i in range(len(order)):
            for j in range(i + 1, len(order) + 1):
                blocks.append(order[i:j])
    return blocks
