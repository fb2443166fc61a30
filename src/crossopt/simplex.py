"""Exact rational simplex returning certified vertex solutions.

The solver is a bounded-variable primal simplex over exact rationals:
variable bounds l <= x <= u are handled natively rather than as extra
rows, Bland's rule (lowest index for entering and for leaving ties)
guarantees termination and determinism, and degeneracy needs no
perturbation because all arithmetic is exact.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968).  It is
stored as an integer matrix A with one common denominator q > 0, so
the rational tableau is T = A / q.  Each constraint row is first
multiplied by L_i, the lcm of its coefficient denominators; its slack
and artificial keep their unit coefficients and so stand for L_i times
the original slack and artificial, and phase 1 charges that artificial
1/L_i.  The starting basis is then the identity with q = 1.  A pivot on
p = A[r][j] (row r negated first when p < 0, so q stays positive) sets
A_i <- (A_i * p - A_ij * A_r) / q for every row i != r, then q <- p;
by Sylvester's identity every division is exact.  Reduced costs are
integers over q * C, C the lcm of the phase's cost denominators, and
are updated as one more row.  Basic values, ratios and bounds stay
rationals: they take O(m) operations per iteration.

The pivots are exactly those of a Fraction tableau on the unscaled
rows.  T = B^-1 A does not depend on how rows are scaled.  Standing
for L_i times a variable divides its column and its reduced cost by
L_i and multiplies the row it is basic in, and its basic value, by L_i.
So every reduced cost keeps its sign, every zero entry stays zero, and
the ratios of one ratio test are all multiplied by the same positive
factor (the scale of the entering column), which leaves Bland's choice
of entering column, leaving row and tie-break unchanged; structural
columns are never scaled, so their values are the same rationals.

Row checks run in integers too: a point x is scaled once by D, the lcm
of its denominators, and each row's sign of lhs - rhs is one integer
comparison against the row's cached integer form (Constraint.scaled).
The vertex certificate's rank comes from fraction-free elimination of
integer rows.

Every returned solution carries a vertex certificate: the indices of
all constraints and variable bounds satisfied with equality, verified
to have full column rank on the support of the solution.  Certificate
failure is an internal error, never ignored.

Row index scheme used by ``BasicSolution.tight_rows``: indices
``0..m-1`` are the constraints in order; ``m + j`` is the lower bound
of variable ``j``; ``m + num_vars + j`` is its upper bound.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm

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


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    rel: str
    rhs: object

    @cached_property
    def scaled(self):
        """(K, terms, K * rhs): K is the lcm of the row's denominators
        and terms are (j, K * a_j) for the nonzero coefficients a_j, so
        K * rhs and every term are ints."""
        # skipping the shared ZERO by identity saves a rational test per
        # coefficient; any other zero just gives a zero term
        nonzero = [(j, a) for j, a in enumerate(self.coeffs) if a is not ZERO]
        k = lcm(self.rhs.denominator, *(a.denominator for _, a in nonzero))
        terms = tuple((j, a.numerator * (k // a.denominator)) for j, a in nonzero)
        return k, terms, self.rhs.numerator * (k // self.rhs.denominator)

    def excess(self, den, scaled_values):
        """K * D * (lhs - rhs) at the point scaled_values / D (see
        scale_values): an int with the sign of lhs - rhs."""
        _, terms, rhs = self.scaled
        return sum(a * scaled_values[j] for j, a in terms) - rhs * den


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  constraints, lower <= x <= upper.

    ``upper[j] is None`` means no finite upper bound.  Lower bounds must
    be finite rationals.
    """

    num_vars: int
    objective: tuple
    constraints: tuple
    lower: tuple
    upper: tuple

    def __post_init__(self):
        n = self.num_vars
        if len(self.objective) != n or len(self.lower) != n or len(self.upper) != n:
            raise ValueError("objective/bounds length mismatch")
        for c in self.constraints:
            if len(c.coeffs) != n:
                raise ValueError("constraint arity mismatch")
            if c.rel not in RELATIONS:
                raise ValueError(f"bad relation {c.rel!r}")
        for lo, up in zip(self.lower, self.upper):
            if lo is None:
                raise ValueError("lower bounds must be finite")
            if up is not None and lo > up:
                raise ValueError("lower bound exceeds upper bound")

    # tight_rows index helpers
    def lower_row(self, j):
        return len(self.constraints) + j

    def upper_row(self, j):
        return len(self.constraints) + self.num_vars + j

    def row_vector(self, idx):
        """Coefficient vector of a constraint or bound row."""
        m = len(self.constraints)
        if idx < m:
            return self.constraints[idx].coeffs
        j = idx - m
        if j >= self.num_vars:
            j -= self.num_vars
        vec = [ZERO] * self.num_vars
        vec[j] = ONE
        return tuple(vec)

    def certificate_rows(self, solution):
        """(support size, support columns with a tight bound, the tight
        constraint rows as int rows over the other support columns) for
        verify_vertex_certificate; raises when a claimed tight row is
        not tight."""
        values = solution.values
        m = len(self.constraints)
        n = self.num_vars
        den, scaled = scale_values(values)
        bound_cols = set()
        for idx in solution.tight_rows:
            if idx < m:
                if self.constraints[idx].excess(den, scaled):
                    raise InternalCheckError(f"claimed tight row {idx} is not tight")
            else:
                j = idx - m
                if j >= n:
                    j -= n
                    if self.upper[j] is None or values[j] != self.upper[j]:
                        raise InternalCheckError(
                            f"claimed tight upper bound {j} is not"
                        )
                elif values[j] != self.lower[j]:
                    raise InternalCheckError(f"claimed tight lower bound {j} is not")
                if scaled[j]:
                    bound_cols.add(j)
        support = [j for j in range(n) if scaled[j]]
        free = {j: k for k, j in enumerate(j for j in support if j not in bound_cols)}
        rows = []
        if free:
            for idx in solution.tight_rows:
                if idx < m:
                    row = [0] * len(free)
                    for j, a in self.constraints[idx].scaled[1]:
                        k = free.get(j)
                        if k is not None:
                            row[k] = a
                    if any(row):
                        rows.append(row)
        return len(support), len(bound_cols), rows


@dataclass(frozen=True)
class BasicSolution:
    values: tuple
    objective_value: object
    tight_rows: tuple


def make_lp(objective, constraints, lower=None, upper=None):
    """Convenience constructor; defaults to the 0 <= x <= 1 box."""
    objective = tuple(Rat(c) for c in objective)
    n = len(objective)
    cons = tuple(
        Constraint(tuple(Rat(a) for a in coeffs), rel, Rat(rhs))
        for coeffs, rel, rhs in constraints
    )
    lo = tuple(Rat(v) for v in lower) if lower is not None else (ZERO,) * n
    up = (
        tuple(None if v is None else Rat(v) for v in upper)
        if upper is not None
        else (ONE,) * n
    )
    return LinearProgram(n, objective, cons, lo, up)


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


def _int_rank(rows):
    """Rank of a list of equal-length int rows by fraction-free
    elimination.  Rewrites rows."""
    rank = 0
    prev = 1
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for i in range(rank + 1, len(rows)):
            rows[i] = _bareiss(rows[i], prow, col, p, prev)
        prev = p
        rank += 1
    return rank


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
        # shift structurals to y = x - lower, so every internal variable
        # has lower bound 0
        self.shift = list(lp.lower)
        self.span = [
            None if up is None else up - lo for lo, up in zip(lp.lower, lp.upper)
        ]

        rows = []  # (coeffs over structurals, rhs, original rel after normalize)
        self.slack_of_row = []
        self.art_of_row = []
        cols = n
        slack_cols = []
        art_cols = []
        for c in lp.constraints:
            rhs = c.rhs - sum(
                (a * s for a, s in zip(c.coeffs, self.shift) if a and s), ZERO
            )
            coeffs = list(c.coeffs)
            rel = c.rel
            if rhs < 0:
                coeffs = [-a for a in coeffs]
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            rows.append((coeffs, rhs, rel))

        for i, (_, rhs, rel) in enumerate(rows):
            if rel in (LE, GE):
                self.slack_of_row.append(cols)
                slack_cols.append((cols, i, 1 if rel == LE else -1))
                cols += 1
            else:
                self.slack_of_row.append(None)
        for i, (_, rhs, rel) in enumerate(rows):
            if rel == LE:
                self.art_of_row.append(None)  # slack serves as initial basis
            else:
                self.art_of_row.append(cols)
                art_cols.append((cols, i))
                cols += 1

        self.ncols = cols
        self.art_start = cols - len(art_cols)
        # upper bounds per internal column (lower bounds are all 0)
        self.ub = [None] * cols
        for j in range(n):
            self.ub[j] = self.span[j]

        m = len(rows)
        self.m = m
        # row i times row_scale[i] has integer coefficients; its slack
        # and artificial stand for row_scale[i] times the originals
        self.row_scale = []
        self.A = []
        self.bval = []
        for coeffs, rhs, _ in rows:
            k = lcm(*(a.denominator for a in coeffs if a))
            self.row_scale.append(k)
            self.A.append(
                [a.numerator * (k // a.denominator) for a in coeffs] + [0] * (cols - n)
            )
            self.bval.append(rhs * k)
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

    def value_of(self, j):
        if self.status[j] == "B":
            return self.bval[self.row_of[j]]
        if self.status[j] == "U":
            return self.ub[j]
        return ZERO

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

    def _enter_basis(self, r, j, new_value, leave_status):
        old = self.basis[r]
        self._pivot(r, j)
        self.basis[r] = j
        del self.row_of[old]
        self.row_of[j] = r
        self.status[old] = leave_status
        self.status[j] = "B"
        self.bval[r] = new_value

    # -- simplex iterations --------------------------------------------

    def optimize(self, allow_art_entering):
        """Bland-rule iteration until optimal; raises LpUnbounded."""
        A = self.A
        while True:
            enter = None
            direction = 0
            limit = self.ncols if allow_art_entering else self.art_start
            for j in range(limit):
                st = self.status[j]
                if st == "B":
                    continue
                ubj = self.ub[j]
                if ubj is not None and ubj == 0:
                    continue  # fixed variable can never move
                dj = self.d[j]
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

            # ratio test: largest step t >= 0 for the entering variable;
            # column entries are A[i][enter] / q with q > 0
            q = self.q
            best_t = None
            leave_row = None
            leave_to = None
            leave_var = None
            for i in range(self.m):
                a = A[i][enter]
                if not a:
                    continue
                a *= direction
                if a > 0:
                    lim = self.bval[i] * q / a
                    to = "L"
                else:
                    ub_b = self.ub[self.basis[i]]
                    if ub_b is None:
                        continue
                    lim = (ub_b - self.bval[i]) * q / (-a)
                    to = "U"
                if (
                    best_t is None
                    or lim < best_t
                    or (lim == best_t and self.basis[i] < leave_var)
                ):
                    best_t = lim
                    leave_row = i
                    leave_to = to
                    leave_var = self.basis[i]

            own = self.ub[enter]
            if own is not None and (best_t is None or own < best_t):
                # bound flip, basis unchanged
                t = own
                if t:
                    step = t * direction / q
                    for i in range(self.m):
                        a = A[i][enter]
                        if a:
                            self.bval[i] -= step * a
                self.status[enter] = "U" if direction == 1 else "L"
                continue
            if best_t is None:
                raise LpUnbounded()
            t = best_t
            if t:
                step = t * direction / q
                for i in range(self.m):
                    a = A[i][enter]
                    if a:
                        self.bval[i] -= step * a
            new_val = self.value_of(enter) + t * direction
            self._enter_basis(leave_row, enter, new_val, leave_to)

    def drive_out_artificials(self):
        for r in range(self.m):
            b = self.basis[r]
            if b < self.art_start:
                continue
            if self.bval[r] != 0:
                raise InternalCheckError("artificial basic at nonzero value")
            target = None
            for j in range(self.art_start):
                if self.status[j] != "B" and self.A[r][j]:
                    target = j
                    break
            if target is None:
                continue  # redundant row; artificial stays pinned at 0
            self._enter_basis(r, target, self.value_of(target), "L")

    def solve(self):
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
            infeas = sum(
                (self.value_of(j) for j in range(self.art_start, self.ncols)), ZERO
            )
            if infeas != 0:
                raise LpInfeasible()
            self.drive_out_artificials()
            for j in range(self.art_start, self.ncols):
                self.ub[j] = ZERO

        den = lcm(*(c.denominator for c in self.lp.objective if c))
        cost2 = [0] * self.ncols
        for j, c in enumerate(self.lp.objective):
            cost2[j] = c.numerator * (den // c.denominator)
        self.set_costs(cost2, den)
        self.optimize(allow_art_entering=False)

        return tuple(
            self.value_of(j) + self.shift[j] for j in range(self.n_struct)
        )


def row_status(lp, values):
    """(feasible, tight rows) of values in one pass: each constraint is
    one integer comparison on the scaled point.  Tight rows use the
    ``tight_rows`` index scheme and are None when values is infeasible."""
    den, scaled = scale_values(values)
    tight = []
    for idx, c in enumerate(lp.constraints):
        excess = c.excess(den, scaled)
        if not excess:
            tight.append(idx)
        elif c.rel == EQ or (excess > 0 if c.rel == LE else excess < 0):
            return False, None
    for j, (v, lo, up) in enumerate(zip(values, lp.lower, lp.upper)):
        if v < lo or (up is not None and v > up):
            return False, None
        if v == lo:
            tight.append(lp.lower_row(j))
        if up is not None and v == up:
            tight.append(lp.upper_row(j))
    return True, tuple(tight)


def verify_vertex_certificate(lp, solution):
    """Check the tight rows span the support; raise on failure.

    A vertex of the feasible region has tight rows of full rank, and
    restricting those rows to the support columns must leave them with
    full column rank.  A tight bound row is a unit row, so each support
    column with one counts once and drops out; the constraint rows on
    the remaining support columns are ranked by integer elimination.
    ``lp`` supplies those rows through ``certificate_rows(solution)``,
    which first re-checks every claimed tight row: a LinearProgram for
    a simplex solution, or the 0/1 mask rows of a reused vertex
    (lpengine.MaskLp).  Returns the computed support rank.
    """
    support, bounded, rows = lp.certificate_rows(solution)
    rank = bounded + _int_rank(rows)
    if rank != support:
        raise InternalCheckError(
            f"vertex certificate failed: support {support}, tight-row rank {rank}"
        )
    STATS["certificates"] += 1
    return rank


def simplex_solve(lp):
    """Solve to an optimal vertex; raises LpInfeasible / LpUnbounded.

    Deterministic: identical input yields the identical BasicSolution.
    """
    if lp.num_vars == 0:
        feasible, tight = row_status(lp, ())
        if not feasible:
            raise LpInfeasible()
        STATS["solves"] += 1
        STATS["certificates"] += 1
        return BasicSolution((), ZERO, tight)

    tableau = _Tableau(lp)
    try:
        values = tableau.solve()
    finally:
        STATS["pivots"] += tableau.pivots
    feasible, tight = row_status(lp, values)
    if not feasible:
        raise InternalCheckError("simplex returned an infeasible point")
    objective = sum((c * v for c, v in zip(lp.objective, values) if c and v), ZERO)
    solution = BasicSolution(values, objective, tight)
    verify_vertex_certificate(lp, solution)
    STATS["solves"] += 1
    return solution
