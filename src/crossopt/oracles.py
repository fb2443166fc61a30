"""Matroid, contra-polymatroid, and lattice oracles.

Rank tables (matroid, covering pair) and explicit lattices (order,
meet and join tables) list every subset or member, and their axioms
are verified exhaustively at construction time.  Construction fails
loudly with the violated axiom and a witness; nothing is ever assumed.

The lattice of a matroid is implicit: ``SubsetLattice`` numbers the
subsets of the ground set by their bitmasks, and order, meet, join and
intervals are bit operations on those numbers.  Its axioms hold by
construction.  Inclusion is a partial order whose meet and join are
intersection and union.  The image map is the identity, so images are
submodular, the consecutive property holds and images grow strictly up
the order.  The one axiom that depends on the data is supermodularity
of the rank r(E) - r(E without S), and it is equivalent to the
submodularity of r that ``MatroidOracle`` verifies.

Submodularity and supermodularity are verified through the equivalent
local exchange conditions (for all S and e != f outside S, compare
r(S+e) + r(S+f) against r(S+e+f) + r(S)), which cover exactly the same
inequalities as the pairwise definition.

``uncross`` turns a family of tight sets or lattice members into a
chain by meets and joins, for the tight-chain diagnostics of the
covering solvers.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

from .errors import InstanceError, InternalCheckError
from .graphs import iter_bits, mask_of

MAX_GROUND = 16


def _check_local_exchange(table, n, direction, name):
    """direction=+1 checks submodular, -1 checks supermodular."""
    for s in range(1 << n):
        free = [e for e in range(n) if not (s >> e) & 1]
        for a in range(len(free)):
            for b in range(a + 1, len(free)):
                e, f = free[a], free[b]
                lhs = table[s | (1 << e)] + table[s | (1 << f)]
                rhs = table[s | (1 << e) | (1 << f)] + table[s]
                if direction * (lhs - rhs) < 0:
                    raise InstanceError(
                        f"{name} violated at S={s:#x}, e={e}, f={f}"
                    )


def supermodular_violation(table, n):
    """Return a witness (S, e, f) if the table is not supermodular."""
    try:
        _check_local_exchange(table, n, -1, "supermodularity")
    except InstanceError:
        for s in range(1 << n):
            free = [e for e in range(n) if not (s >> e) & 1]
            for a in range(len(free)):
                for b in range(a + 1, len(free)):
                    e, f = free[a], free[b]
                    lhs = table[s | (1 << e)] + table[s | (1 << f)]
                    rhs = table[s | (1 << e) | (1 << f)] + table[s]
                    if lhs > rhs:
                        return (s, e, f)
    return None


@dataclass(frozen=True)
class MatroidOracle:
    """Explicit rank table over all subsets of a ground set of size n."""

    n: int
    rank: tuple

    def __post_init__(self):
        if self.n > MAX_GROUND:
            raise InstanceError(f"ground set {self.n} exceeds {MAX_GROUND}")
        if len(self.rank) != 1 << self.n:
            raise InstanceError("rank table must cover every subset")
        if self.rank[0] != 0:
            raise InstanceError("rank of empty set must be 0")
        for e in range(self.n):
            if not 0 <= self.rank[1 << e] <= 1:
                raise InstanceError(f"rank of single element {e} must be 0 or 1")
        for s in range(1 << self.n):
            for e in range(self.n):
                if not (s >> e) & 1:
                    if self.rank[s | (1 << e)] < self.rank[s]:
                        raise InstanceError(
                            f"monotonicity violated at S={s:#x} + element {e}"
                        )
        _check_local_exchange(self.rank, self.n, +1, "matroid submodularity")

    def rank_of(self, mask):
        return self.rank[mask]

    @property
    def full_rank(self):
        return self.rank[(1 << self.n) - 1]


@dataclass(frozen=True)
class ContraPolymatroidPair:
    """Two supermodular functions over the same ground set, given as
    full tables; covering constraints are x(S) >= max(r1(S), r2(S))."""

    n: int
    r1: tuple
    r2: tuple

    def __post_init__(self):
        if self.n > MAX_GROUND:
            raise InstanceError(f"ground set {self.n} exceeds {MAX_GROUND}")
        for name, table in (("r1", self.r1), ("r2", self.r2)):
            if len(table) != 1 << self.n:
                raise InstanceError(f"{name} table must cover every subset")
            if table[0] != 0:
                raise InstanceError(f"{name}(empty) must be 0")
            if any(v < 0 for v in table):
                raise InstanceError(f"{name} must be non-negative")
            _check_local_exchange(table, self.n, -1, f"{name} supermodularity")

    def requirement(self, mask):
        return max(self.r1[mask], self.r2[mask])


def _check_table(name, table, m, types, values, what):
    """InstanceError unless the table has m rows of m entries, each of a
    type in types and with a value in values.  The entry tests are set
    operations over whole rows, so a valid table costs little."""
    if not isinstance(table, (list, tuple)) or len(table) != m:
        raise InstanceError(f"lattice {name} table must have {m} rows, one per member")
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or len(row) != m:
            raise InstanceError(f"lattice {name} row {i} must have {m} entries")
        if not (types.issuperset(map(type, row)) and values.issuperset(row)):
            j = next(
                j for j, v in enumerate(row) if type(v) not in types or v not in values
            )
            raise InstanceError(f"lattice {name}[{i}][{j}] is {row[j]!r}, not {what}")


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
        if len(self.rank) != m:
            raise InstanceError("lattice tables must agree on member count")
        _check_table("leq", leq, m, {int, bool}, {0, 1}, "0 or 1")
        members = set(range(m))
        _check_table("meet", meet, m, {int}, members, f"a member index below {m}")
        _check_table("join", join, m, {int}, members, f"a member index below {m}")
        for i, r in enumerate(self.rho):
            if r >> ground_n:  # also true for a negative mask
                raise InstanceError(
                    f"lattice member {i} rho has an element outside 0..{ground_n - 1}"
                )
        # above[i] = bitmask over members j with i <= j; below[i] dual
        self.above = [mask_of(compress(range(m), row)) for row in leq]
        self.below = below = [0] * m
        for i, up in enumerate(self.above):
            for j in iter_bits(up):
                below[j] |= 1 << i
        self._validate()

    def leq(self, i, j):
        return bool((self.above[i] >> j) & 1)

    def comparable(self, i, j):
        return self.leq(i, j) or self.leq(j, i)

    def members_between(self, lo, hi):
        """Bitmask of members b with lo <= b <= hi."""
        return self.above[lo] & self.below[hi]

    def meet_of(self, a, b):
        return self.meet[a][b]

    def join_of(self, a, b):
        return self.join[a][b]

    def covers(self, mask):
        """True when the element set mask meets every rank row:
        |mask & rho[j]| >= rank[j] for every member j."""
        return all((mask & r).bit_count() >= k for r, k in zip(self.rho, self.rank))

    def monotonicity_witness(self):
        """None if strictly comparable members have strictly larger
        images; otherwise the first such pair (smaller, larger)."""
        rho = self.rho
        for i in range(self.size):
            for j in iter_bits(self.above[i]):
                if j != i and rho[i].bit_count() >= rho[j].bit_count():
                    return (i, j)
        return None

    def inclusion_witness(self):
        """None if i <= j exactly when rho[i] is a subset of rho[j];
        otherwise the first disagreeing pair in row-major order.  Row i
        of the order is compared with the AND, over the elements of
        rho[i], of the masks of members whose image holds the element."""
        holding = [0] * self.ground_n
        for j, r in enumerate(self.rho):
            for e in iter_bits(r):
                holding[e] |= 1 << j
        everyone = (1 << self.size) - 1
        for i, r in enumerate(self.rho):
            supersets = everyone
            for e in iter_bits(r):
                supersets &= holding[e]
            bad = self.above[i] ^ supersets
            if bad:
                return (i, (bad & -bad).bit_length() - 1)
        return None

    def _validate(self):
        """Check the lattice axioms in a fixed order; the first failure
        raises InstanceError naming the check and its members.  Order
        tests are bit tests on the above/below rows."""
        m = self.size
        rho, rank, above, below = self.rho, self.rank, self.above, self.below
        meet, join = self.meet, self.join
        if any(r < 0 for r in rank):
            raise InstanceError("lattice ranks must be non-negative integers")
        for i in range(m):
            if not (above[i] >> i) & 1:
                raise InstanceError(f"order not reflexive at member {i}")
            twins = above[i] & below[i] & ~(1 << i)
            if twins:
                j = (twins & -twins).bit_length() - 1
                raise InstanceError(f"order not antisymmetric at ({i},{j})")
        for i in range(m):
            acc = above[i]
            for j in iter_bits(acc):
                if above[j] & ~acc:
                    raise InstanceError(f"order not transitive through ({i},{j})")
        has_elem = [0] * self.ground_n
        for i in range(m):
            for e in iter_bits(rho[i]):
                has_elem[e] |= 1 << i
        for a in range(m):
            meet_a, join_a = meet[a], join[a]
            rho_a, rank_a = rho[a], rank[a]
            for b in range(a, m):
                mt, jn = meet_a[b], join_a[b]
                if mt != meet[b][a] or jn != join[b][a]:
                    raise InstanceError(f"meet/join not commutative at ({a},{b})")
                pair = (1 << a) | (1 << b)
                if above[mt] & pair != pair:
                    raise InstanceError(f"meet not below both at ({a},{b})")
                if below[jn] & pair != pair:
                    raise InstanceError(f"join not above both at ({a},{b})")
                if (rho[mt] | rho[jn]) & ~(rho_a | rho[b]):
                    raise InstanceError(
                        f"image submodularity violated at ({a},{b})"
                    )
                if rank_a + rank[b] > rank[mt] + rank[jn]:
                    raise InstanceError(
                        f"rank supermodularity violated at ({a},{b})"
                    )
        for a in range(m):
            for c in iter_bits(above[a]):
                common = rho[a] & rho[c]
                if not common:
                    continue
                between = above[a] & below[c]
                for e in iter_bits(common):
                    bad = between & ~has_elem[e]
                    if bad:
                        b = (bad & -bad).bit_length() - 1
                        raise InstanceError(
                            f"consecutive property violated: {a}<={b}<={c}, element {e}"
                        )


class _Supersets(Sequence):
    """The above rows of a subset lattice, each built when it is read."""

    def __init__(self, lat):
        self.lat = lat

    def __len__(self):
        return self.lat.size

    def __getitem__(self, i):
        if not 0 <= i < self.lat.size:
            raise IndexError(i)
        return self.lat.members_between(i, self.lat.size - 1)


class SubsetLattice:
    """Subset lattice of a matroid's ground set E, with nothing tabled.

    Member S is the subset whose bitmask is S.  The order is inclusion,
    meet and join are intersection and union, the image rho[S] is S, and
    the rank of S is r(E) - r(E without S).  Only the rank list is
    stored.  The axioms hold by construction once the matroid's own
    checks pass (module docstring), so nothing else is validated."""

    def __init__(self, matroid):
        self.matroid = matroid
        self.ground_n = matroid.n
        self.size = 1 << matroid.n
        self.rho = range(self.size)
        # E without S is the mask E - S, so in member order the ranks
        # of the complements are the matroid's table reversed
        self.rank = tuple(matroid.full_rank - r for r in reversed(matroid.rank))
        self.above = _Supersets(self)

    def leq(self, i, j):
        return not i & ~j

    def comparable(self, i, j):
        return not i & ~j or not j & ~i

    def members_between(self, lo, hi):
        """Bitmask of members b with lo <= b <= hi: the bit of lo,
        copied up once by each element of hi outside lo."""
        if lo & ~hi:
            return 0
        between = 1 << lo
        for e in iter_bits(hi & ~lo):
            between |= between << (1 << e)
        return between

    def meet_of(self, a, b):
        return a & b

    def join_of(self, a, b):
        return a | b

    def covers(self, mask):
        """True when mask meets every rank row, which on the subset
        lattice means r(mask) = r(E).  If r(T) = r(E), submodularity and
        monotonicity give, for every S,
        |T & S| >= r(T & S) >= r(T) - r(T - S) >= r(E) - r(E - S);
        conversely the row S = E - T asks 0 >= r(E) - r(T)."""
        return self.matroid.rank[mask & (self.size - 1)] == self.matroid.full_rank

    def monotonicity_witness(self):
        """None: a proper superset has more elements."""
        return None

    def inclusion_witness(self):
        """None: the order is image inclusion, as rho is the identity."""
        return None


def matroid_to_lattice(matroid):
    """The subset lattice of a matroid's ground set (SubsetLattice)."""
    return SubsetLattice(matroid)


@dataclass(frozen=True)
class CrossingConstraint:
    """a <= x(elements) <= b; lower may be absent (None)."""

    elems: int
    lower: object
    upper: object

    def __post_init__(self):
        if self.lower is not None and self.lower > self.upper:
            raise InstanceError("constraint lower bound exceeds upper bound")


def uncross(members, comparable, meet, join, assert_pair):
    """Repeatedly replace the first incomparable pair, in sorted order,
    by its meet and join until every pair is comparable; returns the
    family sorted.

    ``assert_pair(a, b, meet, join)`` is called at every replacement so
    callers can verify tightness is preserved.
    """
    family = sorted(set(members))
    rounds = 0
    while True:
        found = next(
            (
                (a, b)
                for i, a in enumerate(family)
                for b in family[i + 1 :]
                if not comparable(a, b)
            ),
            None,
        )
        if found is None:
            return family
        a, b = found
        low, high = meet(a, b), join(a, b)
        assert_pair(a, b, low, high)
        family.remove(a)
        family.remove(b)
        for new in (low, high):
            if new not in family:
                family.append(new)
        family.sort()
        rounds += 1
        if rounds > 300 * (len(members) + 2):
            raise InternalCheckError("uncrossing failed to terminate")


def max_frequency(constraints, n):
    """Largest number of constraint sets any single element belongs to."""
    best = 0
    for e in range(n):
        freq = sum(1 for c in constraints if (c.elems >> e) & 1)
        best = max(best, freq)
    return best
