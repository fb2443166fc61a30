"""Matroid, contra-polymatroid, and lattice oracles.

Rank tables (matroid, covering pair) and explicit lattices (order,
meet and join tables) list every subset or member, and their axioms
are verified exhaustively at construction time.  Construction fails
loudly with the violated axiom and a witness; nothing is ever assumed.
A lattice file with explicit tables decodes to a ``LatticeOracle`` and
is validated in full.  Two lattices are implicit, with their axioms
proved rather than checked on tables, and a file holds only what
defines them: a matroid's rank table, or the number of chains.

The path lattice of the planar-gap instances is implicit:
``PathLattice`` is a product of k chains, and its docstring proves
each axiom that ``LatticeOracle`` checks.

The lattice of a matroid is implicit: ``SubsetLattice`` numbers the
subsets of the ground set by their bitmasks, and order, meet and join
are bit operations on those numbers.  Its axioms hold by
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

The exchange conditions, and the monotonicity of a matroid's rank, are
decided by one packed-integer pass (SIMD within a register: Lamport
1975, "Multiple byte processing with full-word instructions"; Fisher
and Dietz 1998, "Compiling for SIMD within a register").  Let t be an
int table with span = max(t) - min(t), and w = 8k the smallest
whole-byte width with 2^(w-1) > 2 span.  P is one int whose field s
(bits ws .. ws+w-1) holds t(s) - min(t), in [0, span]; H has 2^(w-1)
in each of the 2^n fields.  Field s of P_e = P >> (w 2^e) holds field
s + 2^e of P, which is t(S+e) - min(t) when S = s avoids e, and P_ef =
P_e >> (w 2^f) holds t(S+e+f) - min(t) when S avoids both; every field
of the shifted ints, also one wrapped in from another position or
shifted past the top, lies in [0, span].  For each pair e < f,

    y = H + P_e + P_f - P_ef - P

(the pairs of terms swapped for supermodularity).  Taken field by
field, the sum has 2^(w-1) + a + b - c - d in field s, with a, b, c, d
in [0, span]; that lies in [2^(w-1) - 2 span, 2^(w-1) + 2 span], inside
[0, 2^w), so these values are the base-2^w digits of y and no carry or
borrow crosses a field.  Field s has its top bit set exactly when
a + b - c - d >= 0.  So the condition holds for every S that avoids e
and f exactly when y & M == M, where M = C_e & C_f and C_e marks the top
bits of the fields whose index has bit e clear; the fields that wrap in
from other positions are masked out.  Monotonicity is the same test on
H + P_e - P under C_e, whose fields lie in [2^(w-1) - span, 2^(w-1) +
span].  Only when the pass finds a violation are the tables scanned in
order, to name the same first witness; a table whose packed int would
exceed PACK_LIMIT bytes (a huge span) is scanned directly.

A covering pair's rows x(S) >= max(r1(S), r2(S)) are the rank rows
of the subset lattice.  ``ContraPolymatroidPair.rows`` lists them once
per pair, the nonempty subsets by size, then mask, so the one rank-row
separator in lpengine scans them as it scans a lattice's members.

``uncross`` turns a family of tight sets or lattice members into a
chain by meets and joins, for the tight-chain checks of the
covering solvers.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, product, repeat
from operator import eq, le, mul, or_, sub

from .errors import InstanceError, InternalCheckError
from .graphs import iter_bits, mask_of

MAX_GROUND = 16
# the numbers of chains a PathLattice is built for: k^k members over
# 2k^2 elements (the planar-gap generator's size guard)
CHAIN_COUNTS = (2, 3, 4)
# bytes in one packed table (module docstring): at n = 16 this allows
# fields of 16 bytes, so spans below 2^126; wider tables are scanned
PACK_LIMIT = 1 << 20


def _packed(table, n):
    """(w, P, H, C) for the packed pass of the module docstring, with C
    the list of C_e, or None when P would exceed PACK_LIMIT bytes."""
    low = min(table)
    size = ((max(table) - low).bit_length() + 9) // 8  # 2^(8 size - 1) > 2 span
    if size << n > PACK_LIMIT:
        return None
    deltas = map(sub, table, repeat(low))
    fields = b"".join(map(int.to_bytes, deltas, repeat(size), repeat("little")))
    top = bytes(size - 1) + b"\x80"  # one field with only its top bit set
    # C_e repeats 2^e top-bit fields (bit e of the index clear), 2^e zero ones
    clear = [
        (top * (1 << e) + bytes(size << e)) * (1 << (n - e - 1)) for e in range(n)
    ]
    return (
        size * 8,
        int.from_bytes(fields, "little"),
        int.from_bytes(top * (1 << n), "little"),
        [int.from_bytes(c, "little") for c in clear],
    )


def _packed_exchange_holds(table, n, direction):
    """True when the packed pass shows that the table meets the local
    exchange condition (direction as in _local_exchange_violation);
    False when it finds a violation or cannot pack the table."""
    packed = _packed(table, n)
    if packed is None:
        return False
    w, p, half, clear = packed
    up = [p >> (w << e) for e in range(n)]
    for e in range(n):
        for f in range(e + 1, n):
            lhs = up[e] + up[f]
            rhs = (up[e] >> (w << f)) + p
            y = half + lhs - rhs if direction > 0 else half + rhs - lhs
            mask = clear[e] & clear[f]
            if y & mask != mask:
                return False
    return True


def _packed_monotone(table, n):
    """True when the packed pass shows t(S+e) >= t(S) for every S and e
    outside S; False when it finds a violation or cannot pack the table."""
    packed = _packed(table, n)
    if packed is None:
        return False
    w, p, half, clear = packed
    return all((half + (p >> (w << e)) - p) & c == c for e, c in enumerate(clear))


def _monotonicity_violation(table, n):
    """The first (S, e), in scan order, with e outside S and
    t(S+e) < t(S), or None."""
    for s in range(1 << n):
        for e in range(n):
            if not (s >> e) & 1 and table[s | (1 << e)] < table[s]:
                return (s, e)
    return None


def _local_exchange_violation(table, n, direction):
    """The first (S, e, f), in scan order, at which the table breaks the
    local exchange condition, or None; direction=+1 checks submodular,
    -1 supermodular."""
    for s in range(1 << n):
        free = [e for e in range(n) if not (s >> e) & 1]
        for a in range(len(free)):
            for b in range(a + 1, len(free)):
                e, f = free[a], free[b]
                lhs = table[s | (1 << e)] + table[s | (1 << f)]
                rhs = table[s | (1 << e) | (1 << f)] + table[s]
                if direction * (lhs - rhs) < 0:
                    return (s, e, f)
    return None


def _check_local_exchange(table, n, direction, name):
    """Raise on the first local exchange violation (see
    _local_exchange_violation); the scan runs only when the packed pass
    does not show that the condition holds."""
    if _packed_exchange_holds(table, n, direction):
        return
    witness = _local_exchange_violation(table, n, direction)
    if witness is not None:
        s, e, f = witness
        raise InstanceError(f"{name} violated at S={s:#x}, e={e}, f={f}")


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
        if not _packed_monotone(self.rank, self.n):
            witness = _monotonicity_violation(self.rank, self.n)
            if witness is not None:
                s, e = witness
                raise InstanceError(f"monotonicity violated at S={s:#x} + element {e}")
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

    @cached_property
    def rows(self):
        """(masks, requirements): the nonempty subsets by size, then
        mask, and max(r1(S), r2(S)) for each.  These are the covering
        rows as rank rows over the subset lattice, in the order that
        breaks separation ties by smaller set, then smaller mask."""
        masks = tuple(sorted(range(1, 1 << self.n), key=int.bit_count))
        r1, r2 = self.r1, self.r2
        return masks, tuple([r1[s] if r1[s] >= r2[s] else r2[s] for s in masks])


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


def _member_count(rho, rank):
    if len(rank) != len(rho):
        raise InstanceError("lattice tables must agree on member count")
    return len(rho)


class LatticeOracle:
    """Finite lattice with explicit order, meet/join tables, a ground-set
    image map rho, and an integer rank per member.

    The order comes in as bitmask rows: bit j of above[i] is set when
    i <= j.  ``from_leq`` checks an m x m 0/1 order table and folds it
    into those rows.  The dual rows below[j] (bit i set when i <= j) are
    built by transposing the above rows as one bit matrix."""

    def __init__(self, ground_n, rho, rank, above, meet, join):
        self.ground_n = ground_n
        self.rho = tuple(rho)
        self.rank = tuple(rank)
        self.meet = meet
        self.join = join
        self.size = m = _member_count(self.rho, self.rank)
        if not isinstance(above, (list, tuple)) or len(above) != m:
            raise InstanceError(f"lattice above table must have {m} rows, one per member")
        for i, up in enumerate(above):
            if type(up) is not int or up < 0 or up >> m:
                raise InstanceError(
                    f"lattice above[{i}] is {up!r}, not a bitmask of members below {m}"
                )
        members = set(range(m))
        _check_table("meet", meet, m, {int}, members, f"a member index below {m}")
        _check_table("join", join, m, {int}, members, f"a member index below {m}")
        for i, r in enumerate(self.rho):
            if r >> ground_n:  # also true for a negative mask
                raise InstanceError(
                    f"lattice member {i} rho has an element outside 0..{ground_n - 1}"
                )
        self.above = list(above)
        # row i's binary digits, highest member first: column t of these
        # strings holds bit m-1-t of every row, which read lowest member
        # first is below[m-1-t]
        digits = [format(up, f"0{m}b") for up in above]
        self.below = [int("".join(col)[::-1], 2) for col in zip(*digits)][::-1]
        self._validate()

    @classmethod
    def from_leq(cls, ground_n, rho, rank, leq, meet, join):
        """The lattice whose order is the 0/1 table leq (leq[i][j] = 1
        when i <= j), checked to be m x m and folded into above rows."""
        rho, rank = tuple(rho), tuple(rank)
        m = _member_count(rho, rank)
        _check_table("leq", leq, m, {int, bool}, {0, 1}, "0 or 1")
        above = [mask_of(compress(range(m), row)) for row in leq]
        return cls(ground_n, rho, rank, above, meet, join)

    def leq(self, i, j):
        return bool((self.above[i] >> j) & 1)

    def comparable(self, i, j):
        return self.leq(i, j) or self.leq(j, i)

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
        tests are bit tests on the above/below rows.

        One walk over the pairs (`_check_pairs`) raises at once on every
        pair failure but a meet or join that is not the best bound; that
        message is raised only after the consecutive property passes."""
        m = self.size
        above, below = self.above, self.below
        if any(r < 0 for r in self.rank):
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
        bound_failure = self._check_pairs()
        self._check_consecutive()
        if bound_failure:
            raise InstanceError(bound_failure)

    def _check_pairs(self):
        """Walk the pairs a <= b (by index) once.  A pair passes when its
        images are submodular, its ranks supermodular, below[meet] equals
        below[a] & below[b] and above[join] equals above[a] & above[b]:
        as the order is reflexive, that also puts the meet below both and
        the join above both, and makes them the greatest lower and least
        upper bounds.  Commutativity is one comparison of each table with
        its transpose; when it fails, every pair is taken apart.

        A pair that is taken apart raises on the first of: not
        commutative, meet not below both, join not above both, image
        submodularity, rank supermodularity.  Failing none of those, its
        meet or join is a bound but not the best one; the message for
        the first such pair is returned (None when there is none)."""
        meet, join = self.meet, self.join
        skewed = not all(
            all(map(eq, map(tuple, table), zip(*table))) for table in (meet, join)
        )
        rho, rank, above, below = self.rho, self.rank, self.above, self.below
        first = None
        for a in range(self.size):
            rho_a, rank_a, below_a, above_a = rho[a], rank[a], below[a], above[a]
            for b, mt, jn, rho_b, rank_b, below_b, above_b in zip(
                range(a, self.size),
                meet[a][a:], join[a][a:], rho[a:], rank[a:], below[a:], above[a:],
            ):
                if not (
                    skewed
                    or (rho[mt] | rho[jn]) & ~(rho_a | rho_b)
                    or rank_a + rank_b > rank[mt] + rank[jn]
                    or below_a & below_b != below[mt]
                    or above_a & above_b != above[jn]
                ):
                    continue
                if mt != meet[b][a] or jn != join[b][a]:
                    raise InstanceError(f"meet/join not commutative at ({a},{b})")
                pair = (1 << a) | (1 << b)
                if above[mt] & pair != pair:
                    raise InstanceError(f"meet not below both at ({a},{b})")
                if below[jn] & pair != pair:
                    raise InstanceError(f"join not above both at ({a},{b})")
                if (rho[mt] | rho[jn]) & ~(rho_a | rho_b):
                    raise InstanceError(
                        f"image submodularity violated at ({a},{b})"
                    )
                if rank_a + rank_b > rank[mt] + rank[jn]:
                    raise InstanceError(
                        f"rank supermodularity violated at ({a},{b})"
                    )
                if first is None:
                    if below_a & below_b != below[mt]:
                        first = f"meet not greatest lower bound at ({a},{b})"
                    elif above_a & above_b != above[jn]:
                        first = f"join not least upper bound at ({a},{b})"
        return first

    def _check_consecutive(self):
        """The consecutive property (a <= b <= c puts every element of
        rho[a] & rho[c] in rho[b]) is checked one element e at a time:
        with H the members whose image holds e, it fails exactly when a
        member outside H lies above one member of H and below another.
        Only then are the comparable pairs walked, to name the first
        violating a, b, c and e."""
        m = self.size
        rho, above, below = self.rho, self.above, self.below
        # per element e: the members holding e, and those above or
        # below some member holding e; elements no image holds are
        # left out, so a huge ground_n allocates nothing
        width = reduce(or_, rho, 0).bit_length()
        has_elem, ups, downs = [0] * width, [0] * width, [0] * width
        for i in range(m):
            for e in iter_bits(rho[i]):
                has_elem[e] |= 1 << i
                ups[e] |= above[i]
                downs[e] |= below[i]
        if any(up & down & ~held for up, down, held in zip(ups, downs, has_elem)):
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
                                "consecutive property violated: "
                                f"{a}<={b}<={c}, element {e}"
                            )


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

    def leq(self, i, j):
        return not i & ~j

    def comparable(self, i, j):
        return not i & ~j or not j & ~i

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


def _planar_paths(k):
    """All s-t paths of the planar-gap graph as channel choices
    (j_1..j_k); a path's index is the mixed-radix number of its digits.

    The graph is layered: s = v_0, spine v_1..v_{k-1}, t = v_k, and in
    each layer k parallel channels of two edges through a vertex of
    their own."""
    return list(product(range(k), repeat=k))


def _path_edge_mask(k, choice):
    """The edges of the path that takes channel j in each layer: edges
    2(layer k + j) and 2(layer k + j) + 1."""
    mask = 0
    for layer, j in enumerate(choice):
        base = 2 * (layer * k + j)
        mask |= 1 << base | 1 << (base + 1)
    return mask


class PathLattice:
    """The planar-gap path lattice, held as the product of k chains
    0 < 1 < ... < k-1, one per layer, with nothing tabled.

    Member i is the path whose channel choices (j_1..j_k) are the
    mixed-radix digits of i, in `_planar_paths` order.  Its image rho[i]
    is the path's edges, two per layer (`_path_edge_mask`), and its rank
    is 1.  Order, meet and join go digit by digit: <=, min and max.
    Every axiom that `LatticeOracle` checks on tables holds by
    construction (Topkis 1978 treats such products of chains):

    - the digit-wise order of a product of chains is a partial order in
      which the digit-wise min and max are the greatest lower and least
      upper bounds, and min and max distribute over each other in a
      chain, so the product is a distributive lattice;
    - in each layer, the meet and the join of a and b take the two
      channels of a and b, and a path's image is one channel's edges
      per layer, so rho(a meet b) | rho(a join b) = rho(a) | rho(b),
      and the same holds for &: images are submodular;
    - the rank is the constant 1, so it is supermodular;
    - each edge lies in one layer and one channel, so the members whose
      image holds it are the choices with one fixed digit, which is a
      convex set: that is the consecutive property.

    An instance file names this lattice by k alone
    (``{"product_of_chains": {"k": k}}``), and decoding builds it
    again with nothing to validate but k."""

    def __init__(self, k):
        self.k = k
        self.digits = _planar_paths(k)
        self.weights = [k ** (k - 1 - layer) for layer in range(k)]
        self.ground_n = 2 * k * k
        self.size = len(self.digits)
        self.rho = tuple(_path_edge_mask(k, c) for c in self.digits)
        self.rank = (1,) * self.size

    def leq(self, i, j):
        return all(map(le, self.digits[i], self.digits[j]))

    def comparable(self, i, j):
        return self.leq(i, j) or self.leq(j, i)

    def meet_of(self, a, b):
        digits = map(min, self.digits[a], self.digits[b])
        return sum(map(mul, digits, self.weights))

    def join_of(self, a, b):
        digits = map(max, self.digits[a], self.digits[b])
        return sum(map(mul, digits, self.weights))

    def covers(self, mask):
        """True when mask meets every path (every rank is 1)."""
        return all(mask & r for r in self.rho)

    def monotonicity_witness(self):
        """(0, 1), the first pair `LatticeOracle` reports (k >= 2): every
        image has 2k edges, so no image grows up the order, and the
        first strictly comparable pair in row-major order is member 0
        (all digits 0, below every member) and member 1."""
        return (0, 1)

    def inclusion_witness(self):
        """(0, 1), the first pair `LatticeOracle` reports: images of
        distinct paths have equal size and so are never nested, yet
        member 0 lies below member 1."""
        return (0, 1)


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
