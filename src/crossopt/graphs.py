"""Undirected multigraphs with exact rational edge costs.

Vertex and edge sets are passed around as integer bitmasks (bit i set
means vertex/edge id i is in the set), which keeps exhaustive subset
enumeration cheap and exact at desk scale.
"""

from dataclasses import dataclass

from .errors import InstanceError
from .rational import Rat, ZERO

# vertex and edge ids are bit positions in int bitmasks, which take one
# bit per position up to the highest id; ids stay below this limit
ID_LIMIT = 1 << 16


def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids):
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    cost: object


class Graph:
    """Vertices 0..n-1; parallel edges permitted; ids unique and stable."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = tuple(edges)
        seen = set()
        for e in self.edges:
            if e.u == e.v:
                raise InstanceError(f"self-loop on vertex {e.u}")
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise InstanceError(f"edge {e.id} endpoint out of range")
            if e.id in seen:
                raise InstanceError(f"duplicate edge id {e.id}")
            seen.add(e.id)
        self.by_id = {e.id: e for e in self.edges}
        self.full_vmask = (1 << n) - 1
        self.all_edges_mask = mask_of(e.id for e in self.edges)
        # incidence[v]: the edges with an endpoint at v
        self.incidence = [0] * n
        for e in self.edges:
            self.incidence[e.u] |= 1 << e.id
            self.incidence[e.v] |= 1 << e.id
        self._cuts = {}  # vertex mask -> (delta, touching), see cut()

    @classmethod
    def from_pairs(cls, n, pairs, costs=None):
        """pairs: iterable of (u, v); ids assigned 0,1,2,... in order."""
        pairs = list(pairs)
        if costs is None:
            costs = [ZERO] * len(pairs)
        return cls(
            n,
            [Edge(i, u, v, Rat(c)) for i, ((u, v), c) in enumerate(zip(pairs, costs))],
        )

    def cut(self, vmask):
        """(delta, touching) of vmask: the XOR of its vertices' incidence
        masks, in which an edge with both endpoints in vmask cancels, and
        their OR.  Computed on first use and kept, since the graph never
        changes and the solvers ask for the same vertex sets again."""
        cut = self._cuts.get(vmask)
        if cut is None:
            delta = touching = 0
            for v in iter_bits(vmask & self.full_vmask):
                delta ^= self.incidence[v]
                touching |= self.incidence[v]
            cut = self._cuts[vmask] = (delta, touching)
        return cut

    def delta_mask(self, vmask, within=None):
        """Edges with exactly one endpoint in vmask (restricted to
        `within`)."""
        out = self.cut(vmask)[0]
        return out if within is None else out & within

    def induced_mask(self, vmask, within=None):
        """Edges with both endpoints in vmask: touching but not crossing."""
        delta, touching = self.cut(vmask)
        out = touching & ~delta
        return out if within is None else out & within

    def cost_of(self, edge_mask):
        total = ZERO
        for i in iter_bits(edge_mask):
            total += self.by_id[i].cost
        return total

    def components(self, edge_mask=None):
        """Connected components (as vertex masks) of the subgraph."""
        if edge_mask is None:
            edge_mask = self.all_edges_mask
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in iter_bits(edge_mask):
            e = self.by_id[i]
            ra, rb = find(e.u), find(e.v)
            if ra != rb:
                parent[ra] = rb
        comps = {}
        for v in range(self.n):
            comps.setdefault(find(v), 0)
            comps[find(v)] |= 1 << v
        return list(comps.values())

    def is_connected(self, edge_mask=None):
        return len(self.components(edge_mask)) == 1

    def is_spanning_tree(self, edge_mask):
        return edge_mask.bit_count() == self.n - 1 and self.is_connected(edge_mask)
