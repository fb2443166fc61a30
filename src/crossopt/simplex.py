"""Exact simplex over 0/1 rows in the unit box, returning certified
vertices.

Every LP the solvers build is  min c.x  subject to 0/1 rows
``x(mask) rel rhs`` and the box 0 <= x <= 1, where x(mask) sums x over
the variable ids in the bitmask ``mask``; only the costs and the
right-hand sides can be fractional.  A LinearProgram's column j is the
variable var_ids[j].  The solver is a bounded-variable primal simplex:
the box is handled natively rather than as rows, Bland's rule (lowest
index for entering and for leaving ties) guarantees termination and
determinism, and degeneracy needs no perturbation because all
arithmetic is exact.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968).  It is
stored as an integer matrix A with one common denominator q > 0, so
the rational tableau is T = A / q.  Row i enters as its 0/1
coefficients, negated with its rhs when the rhs is negative (a lattice
row's lower - fixed can be), with a unit slack and, unless it is a <=
row, a unit artificial that phase 1 charges 1; the starting basis is
the identity with q = 1.  A pivot on p = A[r][j] (row r negated first
when p < 0, so q stays positive) sets A_i <- (A_i * p - A_ij * A_r) / q
for every row i != r, then q <- p; by Sylvester's identity every
division is exact.  Reduced costs are integers over q * C, C the lcm of
the phase's cost denominators, and are updated as one more row.

The right-hand side is one more column, the last of A, and no step of
a solve touches a rational.  With R the lcm of the rhs denominators,
row i's entry starts as R * rhs_i and every structural's stored upper
bound is R.  The column is always q * R * B^-1 (b - the sum of the
columns at their upper bound), so beta_i = A[i][-1] is q * R times the
value basic in row i; it takes the same Bareiss steps as every other
column and stays integral because q * B^-1 is plus or minus the
adjugate of B.  A bound flip of column j moves it by R times column j,
and a basic variable leaving row r for its upper bound by q * R at row
r.  The ratio test compares the limits num_i / |A[i][enter]|, num_i =
beta_i or q * R - beta_i, and the entering column's own span R, by
cross-multiplying ints: every limit is scaled by the same R > 0, so
each comparison and each tie comes out as on the rationals and the
pivots are those of a Fraction tableau.  solve reads the vertex as
(D, X) off the column.  A box-bounded LP always meets a row limit or a
bound flip, so a step with neither is an internal error.

A solved or reused vertex is one Vertex: x = X / D, D the lcm of the
values' denominators and X the ints D * x.  Row checks run on it in
integers: D * x(mask) is ``Vertex.load(mask)``, so the sign of
lhs - rhs is one integer comparison, and so is each bound (X_j against
0 and D).  row_status finds the tight rows of a point, and
certificate_rows re-checks claimed tight rows and hands the rank check
their 0/1 columns.  The rank comes from _eliminate, the one
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
from .rational import Rat

LE = "<="
EQ = "="
GE = ">="
RELATIONS = (LE, EQ, GE)
# the relation of a row negated with its rhs
_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


class LpInfeasible(Exception):
    """The feasible region is empty."""


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
    """The 0/1 row  x(mask) rel rhs, where x(mask) is the sum of x over
    the variable ids in the bitmask mask.  ``tag`` names the row for its
    builder (Vertex.tight_tags); the tableau and the checks ignore it."""

    mask: int
    rel: str
    rhs: object
    tag: object = None

    def excess(self, point):
        """D * Q * (lhs - rhs) at the Vertex point, Q the rhs's
        denominator: an int with the sign of lhs - rhs."""
        rhs = self.rhs
        return point.load(self.mask) * rhs.denominator - rhs.numerator * point.den


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  rows and 0 <= x <= 1.

    Column j is the variable var_ids[j]; rows name variables by id.
    """

    var_ids: tuple
    objective: tuple
    rows: tuple  # Row

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length mismatch")
        for row in self.rows:
            if row.rel not in RELATIONS:
                raise ValueError(f"bad relation {row.rel!r}")

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
    stored form; ``values`` derives the rationals from it.
    ``tight_rows`` lists the rows and bounds claimed tight (the module's
    index scheme), which certify sets on the vertex itself."""

    lp: object
    var_ids: tuple
    den: int
    scaled: tuple
    objective: object
    tight_rows: tuple

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

    @property
    def values(self):
        den = self.den
        return tuple(Rat(x, den) for x in self.scaled)

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


_MAX_PIVOTS = 500_000


class _Tableau:
    """Bounded-variable simplex working state (owned by one solve)."""

    def __init__(self, lp):
        self.lp = lp
        n = lp.num_vars
        var_ids = lp.var_ids
        # R clears the rhs denominators: R * rhs is an int for every row
        self.R = R = lcm(*(row.rhs.denominator for row in lp.rows))

        # (coefficients, R * rhs, relation), negated where rhs < 0
        rows = []
        for row in lp.rows:
            coeffs = [(row.mask >> v) & 1 for v in var_ids]
            rhs = row.rhs.numerator * (R // row.rhs.denominator)
            rel = row.rel
            if rhs < 0:
                coeffs = [-a for a in coeffs]
                rhs = -rhs
                rel = _FLIPPED[rel]
            rows.append((coeffs, rhs, rel))

        # columns: the structurals, then a slack per LE or GE row and an
        # artificial per GE or EQ row, each in row order; a row's
        # artificial, else its slack, starts basic in it
        art = n + sum(rel != EQ for _, _, rel in rows)
        self.art_start = art
        self.ncols = cols = art + sum(rel != LE for _, _, rel in rows)
        # R times the upper bound of each internal column (lower bounds
        # are all 0): R for a structural, None for a slack or artificial
        self.ub = [R] * n + [None] * (cols - n)

        self.m = len(rows)
        # column ncols, the last, is the right-hand side: beta_i = q * R
        # times the value of the variable basic in row i
        self.A = []
        self.basis = []  # one column per row
        slack = n
        for coeffs, rhs, rel in rows:
            row = coeffs + [0] * (cols - n) + [rhs]
            if rel != EQ:
                row[slack] = 1 if rel == LE else -1
                basic = slack
                slack += 1
            if rel != LE:
                row[art] = 1
                basic = art
                art += 1
            self.A.append(row)
            self.basis.append(basic)
        self.q = 1
        self.status = ["L"] * cols  # L / U / B
        for col in self.basis:
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
        self.status[old] = leave_status
        self.status[j] = "B"

    # -- simplex iterations --------------------------------------------

    def optimize(self, allow_art_entering):
        """Bland-rule iteration until optimal."""
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
                raise InternalCheckError("no row limits a step in a box-bounded LP")
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
            # every artificial costs 1
            art_start = self.art_start
            self.set_costs([0] * art_start + [1] * (self.ncols - art_start), 1)
            self.optimize(allow_art_entering=True)
            # every basic value is >= 0: infeasible when an artificial is not 0
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
        """(D, X) of the structural values x_j = beta / (q * R) (basic),
        1 (at U) or 0: over M = q * R they are beta, M or 0, and dividing
        M and them by their gcd leaves D."""
        n = self.lp.num_vars
        M = self.q * self.R
        nums = [M if st == "U" else 0 for st in self.status[:n]]
        for b, row in zip(self.basis, self.A):
            if b < n:
                nums[b] = row[-1]
        common = gcd(M, *nums)
        return M // common, [x // common for x in nums]


def row_status(lp, point):
    """The tight rows of the Vertex point in lp (the module's index
    scheme), or None when point violates a row or leaves the box.  Each
    row and bound is one integer comparison."""
    den = point.den
    tight = []
    for idx, row in enumerate(lp.rows):
        excess = row.excess(point)
        if not excess:
            tight.append(idx)
        elif violated(row.rel, excess):
            return None
    m, n = len(lp.rows), lp.num_vars
    for j, x in enumerate(point.scaled):
        if not x:
            tight.append(m + j)
        elif x == den:
            tight.append(m + n + j)
        elif x < 0 or x > den:
            return None
    return tuple(tight)


def certificate_rows(lp, point):
    """(support size, support columns with a tight bound, the tight rows
    as 0/1 int rows over the other support columns) of the Vertex point
    for verify_vertex_certificate; raises when a claimed tight row or
    bound is not tight."""
    den, scaled = point.den, point.scaled
    m, n = len(lp.rows), lp.num_vars
    bound_cols = set()
    for idx in point.tight_rows:
        if idx < m:
            if lp.rows[idx].excess(point):
                raise InternalCheckError(f"claimed tight row {idx} is not tight")
        elif idx < m + n:
            if scaled[idx - m]:
                raise InternalCheckError(f"claimed tight lower bound {idx - m} is not")
        else:
            j = idx - m - n
            if scaled[j] != den:
                raise InternalCheckError(f"claimed tight upper bound {j} is not")
            bound_cols.add(j)
    support = [j for j in range(n) if scaled[j]]
    free = [lp.var_ids[j] for j in support if j not in bound_cols]
    rows = []
    if free:
        for idx in point.tight_rows:
            if idx < m:
                mask = lp.rows[idx].mask
                row = [(mask >> v) & 1 for v in free]
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
    """Solve to an optimal certified Vertex; raises LpInfeasible.

    Deterministic: identical input yields the identical Vertex.
    """
    den, scaled = 1, ()
    if lp.num_vars:
        den, scaled = _Tableau(lp).solve()
        infeasible = InternalCheckError("simplex returned an infeasible point")
    else:
        infeasible = LpInfeasible()
    return certify(Vertex.scaled_at(lp, den, tuple(scaled)), infeasible)
