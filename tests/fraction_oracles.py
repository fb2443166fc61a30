"""The exhaustive oracles as they were before the integer and table
rewrite: the reference the package versions are checked against.

``crossopt.brute`` and ``crossopt.generators`` now scan with Python
ints and precomputed tables, and ``crossopt.oracles.LatticeOracle``
validates on local bitmask tables.  The functions below are the
original code, kept verbatim (only the imports and the functions
around the planar-gap table closures and around the inclusion-variant
check of ``LatticeInstance`` are new): violations as
``Fraction`` differences, ``rat_ceil`` per set, one
``any`` over the paths per cut, closure-built lattice tables and a
method call per order test.  The new versions must agree with them in
value, type and witness on every input, and a lattice must be refused
by both with the same message or accepted by both.
"""

from brute_mcst import BruteMcstResult
from crossopt.brute import TREE_COUNT_GUARD, enumerate_spanning_trees
from crossopt.errors import InstanceError
from crossopt.generators import _planar_paths
from crossopt.graphs import iter_bits
from crossopt.oracles import MAX_GROUND
from crossopt.rational import ZERO, Rat, rat_ceil


# -- crossopt.brute --------------------------------------------------------------


def _max_violation(tree, bound_masks):
    worst = None
    for emask, bound in bound_masks:
        viol = (tree & emask).bit_count() - bound
        if worst is None or viol > worst:
            worst = viol
    return worst


def _brute_tree_opt(graph, bound_masks, limit):
    trees = enumerate_spanning_trees(graph, limit=limit)
    best = None
    witness = None
    by_slack = {}
    for tree in trees:
        cost = graph.cost_of(tree)
        viol = _max_violation(tree, bound_masks)
        if viol is None:
            viol = ZERO
        slack = max(viol, ZERO)
        cur = by_slack.get(slack)
        if cur is None or cost < cur[0] or (cost == cur[0] and tree < cur[1]):
            by_slack[slack] = (cost, tree)
        if viol <= 0:
            if best is None or cost < best or (cost == best and tree < witness):
                best = cost
                witness = tree
    profile = []
    running = None
    for slack in sorted(by_slack):
        cost, _ = by_slack[slack]
        running = cost if running is None else min(running, cost)
        profile.append((slack, running))
    return BruteMcstResult(best, witness, tuple(profile), len(trees))


def min_max_violation_over_trees(graph, bound_masks, limit=TREE_COUNT_GUARD, reverse=False):
    """min over spanning trees of the max additive bound violation."""
    trees = enumerate_spanning_trees(graph, limit=limit, reverse=reverse)
    best = None
    witness = None
    for tree in trees:
        viol = _max_violation(tree, bound_masks)
        if best is None or viol < best or (viol == best and tree < witness):
            best = viol
            witness = tree
    return best, witness


# -- crossopt.generators -----------------------------------------------------------


def brute_discrepancy(sets, e, reverse=False):
    """min over X of max_j | |X & S_j| - |complement & S_j| |, exhaustive."""
    best = None
    witness = None
    space = range((1 << e) - 1, -1, -1) if reverse else range(1 << e)
    for x in space:
        worst = 0
        for s in sets:
            size = s.bit_count()
            imbalance = abs(2 * (x & s).bit_count() - size)
            if imbalance > worst:
                worst = imbalance
        if best is None or worst < best:
            best = worst
            witness = x
    return best, witness


def _min_violation_via_subsets(e, sets):
    """Every tree induces X = gadgets keeping both u-edges, with loads
    |S_j| + |X & S_j| on the u-side bound and |S_j| + |comp & S_j| on
    the w-side; minimize the worst violation over all X exhaustively."""
    best = None
    for x in range(1 << e):
        worst = None
        for s in sets:
            size = s.bit_count()
            half = rat_ceil(Rat(size, 2))
            hit = (x & s).bit_count()
            v = max(hit - half, (size - hit) - half)
            if worst is None or v > worst:
                worst = v
        if best is None or worst < best:
            best = worst
    return best


def _min_hitting_violation_exhaustive(k, rho, layer_masks, reverse=False):
    """min over all hitting sets of (max layer load - 1), full 2^|E| scan."""
    nbits = 2 * k * k
    best = None
    witness = None
    space = range((1 << nbits) - 1, -1, -1) if reverse else range(1 << nbits)
    for cut in space:
        if any(not (cut & m) for m in rho):
            continue
        worst = max((cut & m).bit_count() for m in layer_masks)
        if best is None or worst - 1 < best:
            best = worst - 1
            witness = cut
    return best, witness


def planar_gap_lattice(k, rho):
    """The planar-gap path lattice as gen_planar_mincut_gap built it:
    one closure call per ordered pair of paths and table."""
    choices = _planar_paths(k)
    index = {c: i for i, c in enumerate(choices)}

    def leq(a, b):
        return all(x <= y for x, y in zip(choices[a], choices[b]))

    def meet(a, b):
        return index[tuple(min(x, y) for x, y in zip(choices[a], choices[b]))]

    def join(a, b):
        return index[tuple(max(x, y) for x, y in zip(choices[a], choices[b]))]

    return LatticeOracle.build(
        2 * k * k, rho, [1] * len(choices), leq, meet, join
    )


# -- crossopt.oracles --------------------------------------------------------------


class LatticeOracle:
    """Finite lattice with explicit order, meet/join tables, a ground-set
    image map rho, and an integer rank per member."""

    def __init__(self, ground_n, rho, rank, leq, meet, join):
        self.ground_n = ground_n
        self.rho = tuple(rho)
        self.rank = tuple(rank)
        self.meet = meet
        self.join = join
        m = len(self.rho)
        self.size = m
        if len(self.rank) != m or len(leq) != m:
            raise InstanceError("lattice tables must agree on member count")
        # above[i] = bitmask over members j with i <= j; below[i] dual
        self.above = [0] * m
        self.below = [0] * m
        for i in range(m):
            for j in range(m):
                if leq[i][j]:
                    self.above[i] |= 1 << j
                    self.below[j] |= 1 << i
        self._validate()

    @classmethod
    def build(cls, ground_n, rho, rank, leq_fn, meet_fn, join_fn):
        m = len(rho)
        leq = [[leq_fn(i, j) for j in range(m)] for i in range(m)]
        meet = [[meet_fn(i, j) for j in range(m)] for i in range(m)]
        join = [[join_fn(i, j) for j in range(m)] for i in range(m)]
        return cls(ground_n, rho, rank, leq, meet, join)

    def leq(self, i, j):
        return bool((self.above[i] >> j) & 1)

    def comparable(self, i, j):
        return self.leq(i, j) or self.leq(j, i)

    def members_between(self, lo, hi):
        """Bitmask of members b with lo <= b <= hi."""
        return self.above[lo] & self.below[hi]

    def _validate(self):
        m = self.size
        if any(r < 0 for r in self.rank):
            raise InstanceError("lattice ranks must be non-negative integers")
        for i in range(m):
            if not (self.above[i] >> i) & 1:
                raise InstanceError(f"order not reflexive at member {i}")
            for j in range(m):
                if i != j and self.leq(i, j) and self.leq(j, i):
                    raise InstanceError(f"order not antisymmetric at ({i},{j})")
        for i in range(m):
            acc = self.above[i]
            for j in iter_bits(self.above[i]):
                if self.above[j] & ~acc:
                    raise InstanceError(f"order not transitive through ({i},{j})")
        has_elem = [0] * self.ground_n
        for i in range(m):
            for e in iter_bits(self.rho[i]):
                has_elem[e] |= 1 << i
        for a in range(m):
            for b in range(a, m):
                mt, jn = self.meet[a][b], self.join[a][b]
                if mt != self.meet[b][a] or jn != self.join[b][a]:
                    raise InstanceError(f"meet/join not commutative at ({a},{b})")
                if not (self.leq(mt, a) and self.leq(mt, b)):
                    raise InstanceError(f"meet not below both at ({a},{b})")
                if not (self.leq(a, jn) and self.leq(b, jn)):
                    raise InstanceError(f"join not above both at ({a},{b})")
                outside = (self.rho[mt] | self.rho[jn]) & ~(self.rho[a] | self.rho[b])
                if outside:
                    raise InstanceError(
                        f"image submodularity violated at ({a},{b})"
                    )
                if self.rank[a] + self.rank[b] > self.rank[mt] + self.rank[jn]:
                    raise InstanceError(
                        f"rank supermodularity violated at ({a},{b})"
                    )
        for a in range(m):
            for c in iter_bits(self.above[a]):
                common = self.rho[a] & self.rho[c]
                if not common:
                    continue
                between = self.members_between(a, c)
                for e in iter_bits(common):
                    bad = between & ~has_elem[e]
                    if bad:
                        b = (bad & -bad).bit_length() - 1
                        raise InstanceError(
                            f"consecutive property violated: {a}<={b}<={c}, element {e}"
                        )


def matroid_to_lattice(matroid):
    """Subset lattice of a matroid ground set: order by inclusion, meet
    and join are intersection and union, the image map is the identity,
    and the rank of S is rank(E) - rank(E without S)."""
    n = matroid.n
    if n > MAX_GROUND:
        raise InstanceError(f"ground set {n} exceeds {MAX_GROUND}")
    full = (1 << n) - 1
    members = list(range(1 << n))
    rank = [matroid.full_rank - matroid.rank_of(full & ~s) for s in members]
    return LatticeOracle.build(
        n,
        rho=members,
        rank=rank,
        leq_fn=lambda a, b: a & b == a,
        meet_fn=lambda a, b: a & b,
        join_fn=lambda a, b: a | b,
    )


# -- crossopt.instances ----------------------------------------------------------


def check_inclusion_variant(lat):
    """The inclusion-variant order check of LatticeInstance.__post_init__."""
    for i in range(lat.size):
        for j in range(lat.size):
            if lat.leq(i, j) != (lat.rho[i] & lat.rho[j] == lat.rho[i]):
                raise InstanceError(
                    "inclusion variant requires the order to be "
                    f"image inclusion; members ({i},{j}) disagree"
                )
