"""Exact rational simplex returning certified vertices.

The solver is a bounded-variable primal simplex over exact rationals:
variable bounds l <= x <= u are handled natively rather than as extra
rows, Bland's rule (lowest index for entering and for leaving ties)
guarantees termination and determinism, and degeneracy needs no
perturbation because all arithmetic is exact.

Every LP has one row type, kept in integer form.  A Row is
``(sum of a * x(mask) over its terms (a, mask)) / scale  rel  rhs``,
where x(mask) sums x over the variable ids in the bitmask ``mask`` and
every coefficient a is an int: the solvers' 0/1 rows are the one term
(1, mask) with scale 1, and make_lp groups a dense coefficient list
into one term per distinct coefficient, scaled by L, the lcm of the
coefficients' denominators.  A LinearProgram's column j is the variable
var_ids[j] (make_lp numbers them 0..n-1).  No row is ever expanded into
a vector of rationals.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968).  It is
stored as an integer matrix A with one common denominator q > 0, so
the rational tableau is T = A / q.  Row i enters as its integer terms,
that is L_i = scale times the original row; its slack and artificial
keep their unit coefficients and so stand for L_i times the original
slack and artificial, and phase 1 charges that artificial 1/L_i.  The
starting basis is then the identity with q = 1.  A pivot on
p = A[r][j] (row r negated first when p < 0, so q stays positive) sets
A_i <- (A_i * p - A_ij * A_r) / q for every row i != r, then q <- p;
by Sylvester's identity every division is exact.  Reduced costs are
integers over q * C, C the lcm of the phase's cost denominators, and
are updated as one more row.

The right-hand side is one more column, the last of A, and no step of
a solve touches a rational.  With R the lcm of the denominators of the
shifted right-hand sides and of the finite spans (upper - lower), row
i's column entry starts as R * L_i * (its shifted rhs) and every
stored upper bound is R * span, all ints.  The column is always
q * R * B^-1 (b - sum of u_j * a_j over the columns j at their upper
bound), so beta_i = A[i][-1] is q * R times the value basic in row i.
It takes the same Bareiss steps as every other column, and stays
exact because q * B^-1 is an integer matrix (plus or minus the
adjugate of B) and b - sum u_j a_j is an integer vector once scaled by
R.  A change of which columns are at their upper bound moves it by an
integer multiple of a column: a bound flip of j by R * span_j times
column j, and before a pivot, column j leaving its upper bound by
R * span_j times column j, and a basic variable leaving row r for its
upper bound by q * R * span at row r.  The ratio test compares the
limits num_i / |A[i][enter]|, num_i = beta_i or q * R * span - beta_i,
by cross-multiplying ints, and solve reads the vertex as (D, X) off
the column.

The pivots are exactly those of a Fraction tableau on the unscaled
rows.  T = B^-1 A does not depend on how rows are scaled.  Standing
for L_i times a variable divides its column and its reduced cost by
L_i and multiplies the row it is basic in, and its basic value, by L_i.
So every reduced cost keeps its sign, every zero entry stays zero, and
the ratios of one ratio test are all multiplied by the same positive
factor (the scale of the entering column), which leaves Bland's choice
of entering column, leaving row and tie-break unchanged; structural
columns are never scaled, so their values are the same rationals.  The
integer ratio test multiplies every limit, and the entering column's
own span it is compared with, by the same R > 0 once more, so each
comparison, and each tie, comes out as it does on the rationals.

A solved or reused vertex is one Vertex: x = X / D, D the lcm of the
values' denominators and X the ints D * x.  Row checks run on it in
integers: a row's lhs times scale * D is a sum of ``Vertex.load``
values, so the sign of lhs - rhs, and each bound comparison, is one
integer comparison.  row_status finds the tight rows of a point, and
certificate_rows re-checks claimed tight rows and hands the rank check
their integer coefficients.  The rank comes from _eliminate, the one
fraction-free elimination loop: it takes the tableau's _bareiss step,
skips columns with no pivot, and also gives brute its Kirchhoff
determinants and, in Gauss-Jordan mode, its adjugates.  certify runs
both on a vertex and claims its tight rows on that one object; the
simplex certifies its own vertices with it, and so does the engine a
reused vertex.  A row's ``tag`` names it for the engine's step rules
(Vertex.tight_tags) and is otherwise ignored.

Every returned vertex carries a vertex certificate: the indices of all
rows and variable bounds satisfied with equality, verified to have full
column rank on the support of the solution.  Certificate failure is an
internal error, never ignored.

Row index scheme used by ``Vertex.tight_rows``: indices ``0..m-1`` are
the rows in order; ``m + j`` is the lower bound of column ``j``;
``m + num_vars + j`` is its upper bound.
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .errors import InternalCheckError
from .rational import Rat, ZERO, ONE

LE = "<="
EQ = "="
GE = ">="
RELATIONS = (LE, EQ, GE)


class LpInfeasible(Exception):
    """The feasible region is empty."""


class LpUnbounded(Exception):
    """The objective is unbounded below on the feasible region."""


def scale_values(values):
    """(D, [v * D for v in values]) with D the lcm of the values'
    denominators, so every scaled value is an int."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def violated(rel, excess):
    """Whether a row whose lhs - rhs has the sign of excess is violated."""
    if rel == LE:
        return excess > 0
    if rel == GE:
        return excess < 0
    return excess != 0


class Row(NamedTuple):
    """The row  (sum of a * x(mask) over (a, mask) in terms) / scale
    rel  rhs, where x(mask) is the sum of x over the variable ids in the
    bitmask mask.  The row is kept in its integer form: every coefficient
    a is an int, and scale is the lcm of the denominators of the
    rational coefficients it was built from (1 for a 0/1 row).  ``tag``
    names the row for its builder (Vertex.tight_tags); the tableau and
    the checks ignore it."""

    terms: tuple
    rel: str
    rhs: object
    scale: int = 1
    tag: object = None

    @classmethod
    def of_mask(cls, mask, rel, rhs, tag=None):
        """The 0/1 row x(mask) rel rhs."""
        return cls(((1, mask),), rel, rhs, 1, tag)

    @classmethod
    def of_coefficients(cls, coeffs, var_ids, rel, rhs, tag=None):
        """The row with the rational coefficient coeffs[j] on variable
        var_ids[j]; the variables sharing a coefficient share one term."""
        k = lcm(*(a.denominator for a in coeffs if a))
        masks = {}
        for a, v in zip(coeffs, var_ids):
            if a:
                a = a.numerator * (k // a.denominator)
                masks[a] = masks.get(a, 0) | 1 << v
        return cls(tuple(masks.items()), rel, rhs, k, tag)

    def columns(self, var_ids):
        """The row's integer form as one coefficient per variable of
        var_ids."""
        coeffs = [0] * len(var_ids)
        for a, mask in self.terms:
            coeffs = [c + a if (mask >> v) & 1 else c for c, v in zip(coeffs, var_ids)]
        return coeffs

    def excess(self, point):
        """scale * D * Q * (lhs - rhs) at the Vertex point, Q the rhs's
        denominator: an int with the sign of lhs - rhs."""
        rhs = self.rhs
        terms = self.terms
        if len(terms) == 1 and self.scale == 1 and terms[0][0] == 1:
            # the 0/1 row x(mask) of every solver
            return point.load(terms[0][1]) * rhs.denominator - rhs.numerator * point.den
        load = 0  # scale * D * lhs
        for a, mask in terms:
            load += a * point.load(mask)
        return load * rhs.denominator - rhs.numerator * self.scale * point.den


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  rows, lower <= x <= upper.

    Column j is the variable var_ids[j]; rows name variables by id.
    The bounds are ints or rationals; ``upper[j] is None`` means no
    finite upper bound, and lower bounds must be finite.
    """

    var_ids: tuple
    objective: tuple
    rows: tuple  # Row
    lower: tuple
    upper: tuple

    def __post_init__(self):
        n = self.num_vars
        if len(self.objective) != n or len(self.lower) != n or len(self.upper) != n:
            raise ValueError("objective/bounds length mismatch")
        for row in self.rows:
            if row.rel not in RELATIONS:
                raise ValueError(f"bad relation {row.rel!r}")
        for lo, up in zip(self.lower, self.upper):
            if lo is None:
                raise ValueError("lower bounds must be finite")
            if up is not None and lo > up:
                raise ValueError("lower bound exceeds upper bound")

    @property
    def num_vars(self):
        return len(self.var_ids)


def objective_value(objective, den, scaled):
    """c.x at x = scaled / den, computed in integers."""
    k = lcm(*(c.denominator for c in objective))
    total = sum(
        c.numerator * (k // c.denominator) * x for c, x in zip(objective, scaled)
    )
    return Rat(total, k * den)


@dataclass
class Vertex:
    """A point x = X / D of ``lp``, with D = ``den`` and X = ``scaled``
    (ints aligned with var_ids, as scale_values gives them), its one
    stored form; ``values`` and ``x_by_id`` derive the rationals from
    it.  ``tight_rows`` lists the rows and bounds claimed tight (the
    module's index scheme), which certify sets on the vertex itself."""

    lp: object
    var_ids: tuple
    den: int
    scaled: tuple
    objective: object
    tight_rows: tuple

    @classmethod
    def at(cls, lp, values):
        """The point of lp with the rational values (aligned with
        lp.var_ids), claiming no tight rows."""
        den, scaled = scale_values(values)
        return cls.scaled_at(lp, den, tuple(scaled))

    @classmethod
    def scaled_at(cls, lp, den, scaled):
        """The point scaled / den of lp, claiming no tight rows."""
        objective = objective_value(lp.objective, den, scaled)
        return cls(lp, lp.var_ids, den, scaled, objective, ())

    @classmethod
    def of_values(cls, x_by_id):
        """The point with the values x_by_id ({variable id: rational}),
        of no LP, for separators and step rules that read only the
        point."""
        var_ids = tuple(sorted(x_by_id))
        den, scaled = scale_values([x_by_id[v] for v in var_ids])
        return cls(None, var_ids, den, tuple(scaled), None, ())

    def restricted_to(self, lp):
        """This point's values on the variables of lp, as a point of lp
        claiming no tight rows; KeyError names a variable it lacks."""
        by_id = dict(zip(self.var_ids, self.scaled))
        return Vertex.scaled_at(lp, self.den, tuple(by_id[v] for v in lp.var_ids))

    @property
    def values(self):
        den = self.den
        return tuple(Rat(x, den) for x in self.scaled)

    @property
    def x_by_id(self):
        return dict(zip(self.var_ids, self.values))

    def tight_tags(self):
        """The tags of the rows of lp claimed tight (bounds have none)."""
        rows = self.lp.rows
        m = len(rows)
        return [rows[idx].tag for idx in self.tight_rows if idx < m]

    @cached_property
    def ones(self):
        """Bitmask of the variable ids at value 1."""
        den = self.den
        return sum(1 << v for v, x in zip(self.var_ids, self.scaled) if x == den)

    @cached_property
    def zeros(self):
        """Bitmask of the variable ids at value 0."""
        return sum(1 << v for v, x in zip(self.var_ids, self.scaled) if not x)

    @cached_property
    def fractional(self):
        """{1 << variable id: X} for every value other than 0 and 1."""
        den = self.den
        return {1 << v: x for v, x in zip(self.var_ids, self.scaled) if x and x != den}

    @cached_property
    def _fractional_mask(self):
        return sum(self.fractional)

    def load(self, mask):
        """D * x(mask), an int."""
        total = self.den * (mask & self.ones).bit_count()
        rest = mask & self._fractional_mask
        if rest:
            fractional = self.fractional
            while rest:
                low = rest & -rest
                total += fractional[low]
                rest ^= low
        return total


def make_lp(objective, constraints, lower=None, upper=None):
    """An LP over the variables 0..n-1 from dense coefficient lists
    (coeffs, rel, rhs); defaults to the 0 <= x <= 1 box."""
    objective = tuple(Rat(c) for c in objective)
    n = len(objective)
    rows = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        coeffs = [Rat(a) for a in coeffs]
        rows.append(Row.of_coefficients(coeffs, range(n), rel, Rat(rhs)))
    lo = tuple(Rat(v) for v in lower) if lower is not None else (ZERO,) * n
    up = (
        tuple(None if v is None else Rat(v) for v in upper)
        if upper is not None
        else (ONE,) * n
    )
    return LinearProgram(tuple(range(n)), objective, tuple(rows), lo, up)


def _bareiss(row, prow, col, p, q):
    """One fraction-free (Bareiss) step: row after eliminating its entry
    in column col with the pivot row prow, p = prow[col], q the previous
    pivot.  The division is exact when row and prow are rows of a
    matrix reached from an integer one by such steps (Sylvester)."""
    f = row[col]
    if f:
        return [(a * p - f * b) // q for a, b in zip(row, prow)]
    if p != q:
        return [a * p // q for a in row]
    return row


def _eliminate(rows, width, jordan=False):
    """Fraction-free (Bareiss) elimination of the first width columns of
    a list of distinct, equal-length int lists, in place; returns (rank,
    sign, last pivot).

    Each step takes the first column left.  A column with no nonzero
    entry in the rows not yet pivoted is skipped, which keeps every
    division exact; else the first such row is swapped into place,
    flipping sign, and every row below it, or with jordan every other
    row, takes one _bareiss step.  The column is then cut off; the rows
    are kept reversed meanwhile so that the cut is a pop.  For a square
    matrix of full rank, sign times the last pivot is the determinant,
    and with jordan the rows end as their columns past width."""
    for row in rows:
        row.reverse()
    rank = 0
    sign = 1
    prev = 1
    n = len(rows)
    for _ in range(width):
        piv = next((i for i in range(rank, n) if rows[i][-1]), None)
        if piv is None:
            for i in range(0 if jordan else rank, n):
                rows[i].pop()
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        prow = rows[rank]
        p = prow[-1]
        for i in range(0 if jordan else rank + 1, n):
            if i != rank:
                row = rows[i] = _bareiss(rows[i], prow, -1, p, prev)
                row.pop()
        prow.pop()
        prev = p
        rank += 1
    for row in rows:
        row.reverse()
    return rank, sign, prev


def _int_rank(rows):
    """Rank of a list of equal-length int rows; rewrites rows."""
    return _eliminate(rows, len(rows[0]) if rows else 0)[0]


def rank_of_rows(rows):
    """Exact rank of a list of rational row vectors: each row is scaled
    to ints by the lcm of its denominators, then eliminated
    fraction-free."""
    mat = []
    for r in rows:
        k = lcm(*(a.denominator for a in r))
        mat.append([a.numerator * (k // a.denominator) for a in r])
    if any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged rows")
    return _int_rank(mat)


_MAX_PIVOTS = 500_000

# running totals so callers can confirm every simplex solve and every
# reused vertex (lpengine.reuse_extreme_point) was certified; pivots
# counts every tableau pivot, including those of failed solves
STATS = {"solves": 0, "certificates": 0, "reused": 0, "pivots": 0}


class _Tableau:
    """Bounded-variable simplex working state (owned by one solve)."""

    def __init__(self, lp):
        self.lp = lp
        n = lp.num_vars
        self.n_struct = n
        # structurals are shifted to y = x - lower, so every internal
        # variable has lower bound 0.  K clears every denominator of the
        # bounds and right-hand sides: K * span and K * (shifted rhs) are
        # ints, and dividing them by their gcd g with K leaves R = K / g,
        # the lcm of the spans' and shifted rhs values' denominators.
        K = lcm(
            *(lo.denominator for lo in lp.lower),
            *(up.denominator for up in lp.upper if up is not None),
            *(row.rhs.denominator for row in lp.rows),
        )
        self.K = K
        self.shift = shift = [lo.numerator * (K // lo.denominator) for lo in lp.lower]
        spans = [
            None if up is None else up.numerator * (K // up.denominator) - s
            for s, up in zip(shift, lp.upper)
        ]

        # (integer form over structurals, row scale L, K * L * shifted
        # rhs, relation), negated where the shifted rhs is negative
        rows = []
        self.slack_of_row = []
        self.art_of_row = []
        cols = n
        slack_cols = []
        art_cols = []
        shifted = any(shift)
        for row in lp.rows:
            coeffs = row.columns(lp.var_ids)
            rhs = row.rhs.numerator * (K // row.rhs.denominator) * row.scale
            if shifted:
                rhs -= sum(a * s for a, s in zip(coeffs, shift) if a and s)
            rel = row.rel
            if rhs < 0:
                coeffs = [-a for a in coeffs]
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            rows.append((coeffs, row.scale, rhs, rel))

        for i, (_, _, _, rel) in enumerate(rows):
            if rel in (LE, GE):
                self.slack_of_row.append(cols)
                slack_cols.append((cols, i, 1 if rel == LE else -1))
                cols += 1
            else:
                self.slack_of_row.append(None)
        for i, (_, _, _, rel) in enumerate(rows):
            if rel == LE:
                self.art_of_row.append(None)  # slack serves as initial basis
            else:
                self.art_of_row.append(cols)
                art_cols.append((cols, i))
                cols += 1

        g = gcd(K, *(u for u in spans if u), *(rhs for _, _, rhs, _ in rows))
        self.R = K // g
        self.ncols = cols
        self.art_start = cols - len(art_cols)
        # R times the upper bound of each internal column (lower bounds
        # are all 0), an int or None
        self.ub = [None if u is None else u // g for u in spans] + [None] * (cols - n)

        m = len(rows)
        self.m = m
        # row i is row_scale[i] times the original; its slack and
        # artificial stand for row_scale[i] times the originals.  Column
        # ncols, the last, is the right-hand side: beta_i = q * R times
        # the value of the variable basic in row i.
        self.row_scale = [k for _, k, _, _ in rows]
        self.A = [coeffs + [0] * (cols - n) + [rhs // g] for coeffs, _, rhs, _ in rows]
        for col, i, sign in slack_cols:
            self.A[i][col] = sign
        for col, i in art_cols:
            self.A[i][col] = 1
        self.q = 1

        # basis: one column per row
        self.basis = [0] * m
        self.row_of = {}
        self.status = ["L"] * cols  # L / U / B
        for i in range(m):
            col = self.art_of_row[i]
            if col is None:
                col = self.slack_of_row[i]
            self.basis[i] = col
            self.row_of[col] = i
            self.status[col] = "B"
        self.d = [0] * cols  # reduced costs times q * cost_den, set per phase
        self.cost_den = 1
        self.pivots = 0

    # -- basic helpers -------------------------------------------------

    def set_costs(self, cost, cost_den):
        """Reduced costs for the internal cost vector cost / cost_den
        (cost a list of ints), as ints over q * cost_den."""
        d = [self.q * c for c in cost]
        for b, row in zip(self.basis, self.A):
            cb = cost[b]
            if cb:
                d = [x - cb * a for x, a in zip(d, row)]
        self.d = d
        self.cost_den = cost_den

    def _pivot(self, r, j):
        """Bareiss update making column j the unit column of row r."""
        A = self.A
        prow = A[r]
        p = prow[j]
        if not p:
            raise InternalCheckError("zero pivot")
        if p < 0:
            prow = A[r] = [-a for a in prow]
            p = -p
        q = self.q
        for i in range(self.m):
            if i != r:
                A[i] = _bareiss(A[i], prow, j, p, q)
        self.d = _bareiss(self.d, prow, j, p, q)
        self.q = p
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise InternalCheckError("pivot limit exceeded")

    def _shift_rhs(self, j, t):
        """Raise the nonbasic variable j by t / R: the right-hand side
        column gives up t times column j."""
        for row in self.A:
            a = row[j]
            if a:
                row[-1] -= t * a

    def _enter_basis(self, r, j, leave_status):
        """Pivot column j into row r; its old basic variable leaves at
        leave_status.  The right-hand side column first takes j off its
        upper bound and puts the leaving variable at its new bound, so
        the pivot leaves it at the new basis's values."""
        old = self.basis[r]
        if self.status[j] == "U":
            self._shift_rhs(j, -self.ub[j])
        if leave_status == "U":
            self.A[r][-1] -= self.q * self.ub[old]
        self._pivot(r, j)
        self.basis[r] = j
        del self.row_of[old]
        self.row_of[j] = r
        self.status[old] = leave_status
        self.status[j] = "B"

    # -- simplex iterations --------------------------------------------

    def optimize(self, allow_art_entering):
        """Bland-rule iteration until optimal; raises LpUnbounded."""
        A = self.A
        ub = self.ub
        basis = self.basis
        status = self.status
        while True:
            enter = None
            direction = 0
            limit = self.ncols if allow_art_entering else self.art_start
            d = self.d
            for j in range(limit):
                st = status[j]
                if st == "B" or ub[j] == 0:
                    continue  # a fixed variable can never move
                dj = d[j]
                if st == "L" and dj < 0:
                    enter = j
                    direction = 1
                    break
                if st == "U" and dj > 0:
                    enter = j
                    direction = -1
                    break
            if enter is None:
                return

            # ratio test: the step limit of row i is num / (R * a) with
            # a = |A[i][enter]| (over q > 0), compared by cross-multiplying
            q = self.q
            best_num = best_a = leave_row = leave_to = leave_var = None
            for i, row in enumerate(A):
                a = row[enter]
                if not a:
                    continue
                if direction < 0:
                    a = -a
                if a > 0:
                    num = row[-1]
                    to = "L"
                else:
                    u = ub[basis[i]]
                    if u is None:
                        continue
                    num = q * u - row[-1]
                    a = -a
                    to = "U"
                if best_a is not None:
                    lhs, rhs = num * best_a, best_num * a
                    if lhs > rhs or (lhs == rhs and basis[i] > leave_var):
                        continue
                best_num, best_a = num, a
                leave_row, leave_to, leave_var = i, to, basis[i]

            own = ub[enter]
            if own is not None and (best_a is None or own * best_a < best_num):
                # bound flip, basis unchanged (own > 0: the scan skips
                # fixed variables)
                self._shift_rhs(enter, direction * own)
                status[enter] = "U" if direction == 1 else "L"
                continue
            if best_a is None:
                raise LpUnbounded()
            self._enter_basis(leave_row, enter, leave_to)

    def drive_out_artificials(self):
        for r in range(self.m):
            b = self.basis[r]
            if b < self.art_start:
                continue
            row = self.A[r]
            if row[-1]:
                raise InternalCheckError("artificial basic at nonzero value")
            target = None
            for j in range(self.art_start):
                if self.status[j] != "B" and row[j]:
                    target = j
                    break
            if target is None:
                continue  # redundant row; artificial stays pinned at 0
            self._enter_basis(r, target, "L")

    def solve(self):
        """The optimal vertex as (D, X): x = X / D with D the lcm of the
        values' denominators, as scale_values gives it."""
        has_art = self.art_start < self.ncols
        if has_art:
            # the artificial of row i stands for row_scale[i] times the
            # original, so it costs 1 / row_scale[i]
            arts = [
                (j, self.row_scale[i])
                for i, j in enumerate(self.art_of_row)
                if j is not None
            ]
            den = lcm(*(k for _, k in arts))
            cost1 = [0] * self.ncols
            for j, k in arts:
                cost1[j] = den // k
            self.set_costs(cost1, den)
            self.optimize(allow_art_entering=True)
            # every basic value is >= 0: infeasible when an artificial is not 0
            art_start = self.art_start
            if any(row[-1] for b, row in zip(self.basis, self.A) if b >= art_start):
                raise LpInfeasible()
            self.drive_out_artificials()
            for j in range(self.art_start, self.ncols):
                self.ub[j] = 0

        den = lcm(*(c.denominator for c in self.lp.objective if c))
        cost2 = [0] * self.ncols
        for j, c in enumerate(self.lp.objective):
            cost2[j] = c.numerator * (den // c.denominator)
        self.set_costs(cost2, den)
        self.optimize(allow_art_entering=False)
        return self.vertex()

    def vertex(self):
        """(D, X) of the structural values x_j = y_j + lower_j, from
        y_j = beta / (q * R) (basic), ub_j / R (at U) or 0: over
        M = q * K they are g * (beta, q * ub_j or 0) + q * K * lower_j,
        g = K / R, and dividing M and them by their gcd leaves D."""
        q, A, status, ub = self.q, self.A, self.status, self.ub
        g = self.K // self.R
        nums = []
        for j, shift in enumerate(self.shift):
            st = status[j]
            if st == "B":
                y = A[self.row_of[j]][-1]
            elif st == "U":
                y = q * ub[j]
            else:
                y = 0
            nums.append(y * g + q * shift)
        M = q * self.K
        common = gcd(M, *nums)
        return M // common, [x // common for x in nums]


def row_status(lp, point):
    """The tight rows of the Vertex point in lp (the module's index
    scheme), or None when point violates a row or a bound.  Each row
    and bound is one integer comparison."""
    den = point.den
    tight = []
    for idx, row in enumerate(lp.rows):
        excess = row.excess(point)
        if not excess:
            tight.append(idx)
        elif violated(row.rel, excess):
            return None
    m, n = len(lp.rows), lp.num_vars
    for j, (x, lo, up) in enumerate(zip(point.scaled, lp.lower, lp.upper)):
        below = x * lo.denominator - lo.numerator * den
        if below < 0:
            return None
        if not below:
            tight.append(m + j)
        if up is not None:
            above = x * up.denominator - up.numerator * den
            if above > 0:
                return None
            if not above:
                tight.append(m + n + j)
    return tuple(tight)


def certificate_rows(lp, point):
    """(support size, support columns with a tight bound, the tight rows
    as int rows over the other support columns) of the Vertex point for
    verify_vertex_certificate; raises when a claimed tight row or bound
    is not tight."""
    den, scaled = point.den, point.scaled
    m, n = len(lp.rows), lp.num_vars
    bound_cols = set()
    for idx in point.tight_rows:
        if idx < m:
            if lp.rows[idx].excess(point):
                raise InternalCheckError(f"claimed tight row {idx} is not tight")
        else:
            j = idx - m
            if j >= n:
                j -= n
                up = lp.upper[j]
                if up is None or scaled[j] * up.denominator != up.numerator * den:
                    raise InternalCheckError(
                        f"claimed tight upper bound {j} is not"
                    )
            elif scaled[j] * lp.lower[j].denominator != lp.lower[j].numerator * den:
                raise InternalCheckError(f"claimed tight lower bound {j} is not")
            if scaled[j]:
                bound_cols.add(j)
    support = [j for j in range(n) if scaled[j]]
    free = [lp.var_ids[j] for j in support if j not in bound_cols]
    rows = []
    if free:
        for idx in point.tight_rows:
            if idx < m:
                row = lp.rows[idx].columns(free)
                if any(row):
                    rows.append(row)
    return len(support), len(bound_cols), rows


def verify_vertex_certificate(lp, point):
    """Check the tight rows of the Vertex point span its support; raise
    on failure.

    A vertex of the feasible region has tight rows of full rank, and
    restricting those rows to the support columns must leave them with
    full column rank.  A tight bound row is a unit row, so each support
    column with one counts once and drops out; the remaining tight rows
    on the remaining support columns are ranked by integer elimination
    (certificate_rows, which first re-checks every claimed tight row).
    Returns the computed support rank.
    """
    support, bounded, rows = certificate_rows(lp, point)
    rank = bounded + _int_rank(rows)
    if rank != support:
        raise InternalCheckError(
            f"vertex certificate failed: support {support}, tight-row rank {rank}"
        )
    STATS["certificates"] += 1
    return rank


def certify(point, infeasible):
    """Claim the tight rows of the Vertex point in point.lp and verify
    its vertex certificate; returns point.  Raises ``infeasible`` when
    point violates a row or a bound."""
    tight = row_status(point.lp, point)
    if tight is None:
        raise infeasible
    point.tight_rows = tight
    verify_vertex_certificate(point.lp, point)
    return point


def simplex_solve(lp):
    """Solve to an optimal certified Vertex; raises LpInfeasible /
    LpUnbounded.

    Deterministic: identical input yields the identical Vertex.
    """
    den, scaled = 1, ()
    if lp.num_vars:
        tableau = _Tableau(lp)
        try:
            den, scaled = tableau.solve()
        finally:
            STATS["pivots"] += tableau.pivots
        infeasible = InternalCheckError("simplex returned an infeasible point")
    else:
        infeasible = LpInfeasible()
    point = certify(Vertex.scaled_at(lp, den, tuple(scaled)), infeasible)
    STATS["solves"] += 1
    return point
