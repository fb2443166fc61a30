"""Seeded random instance generation for corpus runs.

Instances are feasible by construction: spanning-tree bounds are the
cut loads of an actual random spanning tree, covering bounds come from
a witness cover, and matroid bounds from a witness basis.  All
randomness flows through an explicit random.Random seed; solvers are
seed-free.
"""

import random
from dataclasses import dataclass
from itertools import compress
from operator import le

from .brute import brute_subset_opt  # noqa: F401  (perfbench traces it here by name)
from .graphs import Graph, iter_bits, joins, mask_of
from .instances import (
    GENERAL,
    INCLUSION,
    IntersectionInstance,
    McstInstance,
    from_matroid,
)
from .oracles import ContraPolymatroidPair, CrossingConstraint, MatroidOracle
from .rational import Rat


@dataclass(frozen=True)
class CorpusConfig:
    count: int = 200
    seed: int = 2010
    n_min: int = 5
    n_max: int = 10


# Seeds of random_mcst_instance whose runs take constraint-drop rounds
# (found by scanning; fractional optima are rare at these sizes).  Corpus
# builders mix these in so the drop machinery is always exercised.
MCST_DROP_SEEDS = (76, 266, 491, 654, 916, 1205, 2216, 2254, 2372, 2828, 3003, 3020, 3293, 3389)


def random_connected_graph(rng, n, extra_edges):
    """Random spanning tree plus extra uniform pairs (parallels allowed)."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    costs = [rng.randint(1, 10) for _ in pairs]
    return Graph.from_pairs(n, pairs, costs)


def random_spanning_tree(rng, graph):
    """Kruskal over a random edge order."""
    order = list(graph.edges)
    rng.shuffle(order)
    return mask_of(e.id for e in compress(order, joins((e.u, e.v) for e in order)))


def random_laminar_sets(rng, n, limit):
    """Laminar family from recursive random partitioning; proper subsets
    only, at most `limit` sets."""
    sets = []

    def split(vs):
        if len(sets) >= limit:
            return
        if rng.random() < 0.85 and len(vs) < n:
            sets.append(mask_of(vs))
        if len(vs) <= 1:
            return
        cut = rng.randrange(1, len(vs))
        split(vs[:cut])
        split(vs[cut:])

    vs = list(range(n))
    rng.shuffle(vs)
    cut = rng.randrange(1, n)
    split(vs[:cut])
    split(vs[cut:])
    unique = []
    for m in sets:
        if m not in unique:
            unique.append(m)
    return unique[:limit]


def random_mcst_instance(rng, n=None, n_min=5, n_max=10):
    n = n if n is not None else rng.randint(n_min, n_max)
    graph = random_connected_graph(rng, n, rng.randint(2, 6))
    tree = random_spanning_tree(rng, graph)
    family = tuple(
        (m, Rat((graph.delta_mask(m) & tree).bit_count()))
        for m in random_laminar_sets(rng, n, 2 * n - 1)
    )
    return McstInstance(graph, family)


def mcst_corpus(config):
    """Corpus of `count` instances; the known drop-round seeds lead so
    every corpus run covers the constraint-drop paths."""
    out = [
        random_mcst_instance(random.Random(seed))
        for seed in MCST_DROP_SEEDS[: config.count]
    ]
    rng = random.Random(config.seed)
    while len(out) < config.count:
        out.append(random_mcst_instance(rng, n_min=config.n_min, n_max=config.n_max))
    return out


# -- intersection ------------------------------------------------------------


def random_supermodular_table(rng, n, max_terms=3):
    """Sum of indicator terms w * [D subset of S], kept within r(S) <= |S|
    so the all-ones point stays feasible."""
    while True:
        table = [0] * (1 << n)
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            size = rng.randint(1, min(3, n))
            d = mask_of(rng.sample(range(n), size))
            w = rng.randint(1, max(1, size - 1)) if size > 1 else 1
            terms.append((d, w))
        for s in range(1 << n):
            table[s] = sum(w for d, w in terms if d & s == d)
        if all(table[s] <= s.bit_count() for s in range(1 << n)):
            return tuple(table)


def random_constraint_sets(rng, n, max_delta, count):
    """Element sets with per-element frequency at most max_delta."""
    membership = [[] for _ in range(count)]
    for e in range(n):
        freq = rng.randint(0, max_delta)
        for c in rng.sample(range(count), min(freq, count)):
            membership[c].append(e)
    return [mask_of(m) for m in membership if m]


def random_intersection_instance(rng, max_elems=10, max_delta=3):
    n = rng.randint(4, max_elems)
    pair = ContraPolymatroidPair(
        n,
        random_supermodular_table(rng, n),
        random_supermodular_table(rng, n),
    )
    costs = tuple(Rat(rng.randint(1, 10)) for _ in range(n))
    witness = _least_cover(n, list(map(max, pair.r1, pair.r2)))
    sets = random_constraint_sets(rng, n, max_delta, rng.randint(1, 4))
    cons = tuple(
        CrossingConstraint(
            m, None, Rat((witness & m).bit_count() + rng.randint(0, 1))
        )
        for m in sets
    )
    return IntersectionInstance(pair, costs, cons)


def _covers(requirement, mask):
    """True when |mask & S| >= requirement[S] for every subset S."""
    loads = map(int.bit_count, map(mask.__and__, range(len(requirement))))
    return all(map(le, requirement, loads))


def _least_cover(n, requirement):
    """The smallest mask of least popcount that covers requirement, or
    None: the optimum brute_subset_opt picks at unit costs.  No mask of
    fewer than requirement[full set] elements covers, so popcounts are
    scanned upward from there, the masks of each in increasing order
    (Gosper's hack: the next larger int with as many bits set)."""
    end = 1 << n
    for k in range(max(requirement[-1], 0), n + 1):
        mask = (1 << k) - 1
        while mask < end:
            if _covers(requirement, mask):
                return mask
            if not mask:
                break
            low = mask & -mask
            ripple = mask + low
            mask = ripple | ((mask ^ ripple) >> 2) // low
    return None


# -- lattice ------------------------------------------------------------------


def random_matroid(rng, n):
    kind = rng.choice(("uniform", "graphic", "linear", "partition"))
    if kind == "uniform":
        r = rng.randint(1, n)
        return MatroidOracle(n, tuple(min(s.bit_count(), r) for s in range(1 << n)))
    if kind == "graphic":
        nv = rng.randint(3, max(3, n - 1))
        ends = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(n)]
        table = (sum(joins(ends[e] for e in iter_bits(s))) for s in range(1 << n))
        return MatroidOracle(n, tuple(table))
    if kind == "linear":
        rows = rng.randint(2, max(2, n // 2 + 1))
        cols = [rng.getrandbits(rows) for _ in range(n)]
        table = []
        for s in range(1 << n):
            basis = []
            for e in range(n):
                if (s >> e) & 1:
                    v = cols[e]
                    for b in basis:
                        v = min(v, v ^ b)
                    if v:
                        basis.append(v)
                        basis.sort(reverse=True)
            table.append(len(basis))
        return MatroidOracle(n, tuple(table))
    blocks = []
    remaining = list(range(n))
    rng.shuffle(remaining)
    while remaining:
        size = rng.randint(1, min(3, len(remaining)))
        block = remaining[:size]
        remaining = remaining[size:]
        blocks.append((mask_of(block), rng.randint(1, size)))
    table = tuple(
        sum(min((s & b).bit_count(), cap) for b, cap in blocks)
        for s in range(1 << n)
    )
    return MatroidOracle(n, table)


def random_basis(rng, matroid):
    order = list(range(matroid.n))
    rng.shuffle(order)
    basis = 0
    for e in order:
        if matroid.rank_of(basis | (1 << e)) > matroid.rank_of(basis):
            basis |= 1 << e
    return basis


def random_lattice_instance(rng, max_ground=8, max_delta=2, variant=GENERAL):
    n = rng.randint(4, max_ground)
    matroid = random_matroid(rng, n)
    basis = random_basis(rng, matroid)
    costs = tuple(Rat(rng.randint(1, 10)) for _ in range(n))
    cons = []
    for m in random_constraint_sets(rng, n, max_delta, rng.randint(1, 3)):
        load = (basis & m).bit_count()
        upper = Rat(load + rng.randint(0, 1))
        if variant == INCLUSION:
            cons.append(CrossingConstraint(m, None, upper))
        else:
            lower = Rat(max(0, load - rng.randint(0, 1)))
            cons.append(CrossingConstraint(m, lower, upper))
    return from_matroid(matroid, costs, tuple(cons), variant)
