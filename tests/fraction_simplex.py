"""The exact simplex as it was before the integer-preserving rewrite:
the reference the package's simplex is checked against.

``crossopt.simplex`` now keeps its tableau as an integer matrix over
one common denominator, takes only 0/1 rows over the unit box, checks
rows in integers scaled by the point's common denominator, and ranks
certificates by fraction-free elimination.  The code below is the
original, kept verbatim; it takes the general dense LPs of
tests/dense_rows.py (``dense_rows.dense_lp`` turns a package LP into
one).  It is a ``Fraction`` tableau, row checks through
``Constraint.evaluate`` and Gaussian elimination over rationals.  Only
these are new: the imports; the deleted ``Constraint`` methods
``evaluate``, ``holds`` and ``tight`` are module functions
``_evaluate``, ``_holds`` and ``_tight`` of the constraint (and are
called as such); ``STATS`` and ``LpUnbounded`` are this module's own;
and ``simplex_solve`` adds each tableau's pivots to ``STATS["pivots"]``
the way the package does, so pivot counts can be compared.
"""

from crossopt.errors import InternalCheckError
from crossopt.rational import ONE, ZERO, Rat
from crossopt.simplex import EQ, GE, LE, LpInfeasible
from dense_rows import BasicSolution

_MAX_PIVOTS = 500_000


class LpUnbounded(Exception):
    """The objective is unbounded below on the feasible region."""


STATS = {"solves": 0, "certificates": 0, "pivots": 0}


def _evaluate(constraint, values):
    acc = ZERO
    for a, v in zip(constraint.coeffs, values):
        if a:
            acc += a * v
    return acc


def _holds(constraint, values):
    lhs = _evaluate(constraint, values)
    if constraint.rel == LE:
        return lhs <= constraint.rhs
    if constraint.rel == GE:
        return lhs >= constraint.rhs
    return lhs == constraint.rhs


def _tight(constraint, values):
    return _evaluate(constraint, values) == constraint.rhs


def rank_of_rows(rows):
    """Exact rank of a list of rational row vectors (Gaussian elimination)."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    width = len(mat[0])
    for r in mat:
        if len(r) != width:
            raise ValueError("ragged rows")
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < width:
        piv = None
        for i in range(rank, nrows):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        prow = mat[rank]
        for i in range(nrows):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pv
                row = mat[i]
                for k in range(col, width):
                    if prow[k]:
                        row[k] -= f * prow[k]
        rank += 1
        col += 1
    return rank


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
                slack_cols.append((cols, i, ONE if rel == LE else -ONE))
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
        self.T = [[ZERO] * cols for _ in range(m)]
        self.bval = [ZERO] * m
        for i, (coeffs, rhs, _) in enumerate(rows):
            Ti = self.T[i]
            for j, a in enumerate(coeffs):
                Ti[j] = Rat(a)
            self.bval[i] = rhs
        for col, i, sign in slack_cols:
            self.T[i][col] = sign
        for col, i in art_cols:
            self.T[i][col] = ONE

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
        self.d = [ZERO] * cols  # reduced costs, set per phase
        self.pivots = 0

    # -- basic helpers -------------------------------------------------

    def value_of(self, j):
        if self.status[j] == "B":
            return self.bval[self.row_of[j]]
        if self.status[j] == "U":
            return self.ub[j]
        return ZERO

    def set_costs(self, cost):
        """Recompute reduced costs for the given internal cost vector."""
        cb = [cost[self.basis[i]] for i in range(self.m)]
        d = list(cost)
        for i, ci in enumerate(cb):
            if ci:
                Ti = self.T[i]
                for j in range(self.ncols):
                    if Ti[j]:
                        d[j] -= ci * Ti[j]
        self.d = d

    def _pivot(self, r, j):
        """Row-reduce so column j becomes the identity column of row r."""
        T = self.T
        piv = T[r][j]
        if not piv:
            raise InternalCheckError("zero pivot")
        prow = T[r]
        if piv != ONE:
            inv = ONE / piv
            for k in range(self.ncols):
                if prow[k]:
                    prow[k] *= inv
        for i in range(self.m):
            if i != r:
                f = T[i][j]
                if f:
                    row = T[i]
                    for k in range(self.ncols):
                        if prow[k]:
                            row[k] -= f * prow[k]
        dj = self.d[j]
        if dj:
            d = self.d
            for k in range(self.ncols):
                if prow[k]:
                    d[k] -= dj * prow[k]
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

            # ratio test: largest step t >= 0 for the entering variable
            best_t = None
            leave_row = None
            leave_to = None
            leave_var = None
            for i in range(self.m):
                a = self.T[i][enter]
                if not a:
                    continue
                a = a * direction
                if a > 0:
                    lim = self.bval[i] / a
                    to = "L"
                else:
                    ub_b = self.ub[self.basis[i]]
                    if ub_b is None:
                        continue
                    lim = (ub_b - self.bval[i]) / (-a)
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
                    for i in range(self.m):
                        a = self.T[i][enter]
                        if a:
                            self.bval[i] -= t * direction * a
                self.status[enter] = "U" if direction == 1 else "L"
                continue
            if best_t is None:
                raise LpUnbounded()
            t = best_t
            if t:
                col = [self.T[i][enter] for i in range(self.m)]
                for i in range(self.m):
                    if col[i]:
                        self.bval[i] -= t * direction * col[i]
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
                if self.status[j] != "B" and self.T[r][j]:
                    target = j
                    break
            if target is None:
                continue  # redundant row; artificial stays pinned at 0
            self._enter_basis(r, target, self.value_of(target), "L")

    def solve(self):
        has_art = self.art_start < self.ncols
        if has_art:
            cost1 = [ZERO] * self.ncols
            for j in range(self.art_start, self.ncols):
                cost1[j] = ONE
            self.set_costs(cost1)
            self.optimize(allow_art_entering=True)
            infeas = sum(
                (self.value_of(j) for j in range(self.art_start, self.ncols)), ZERO
            )
            if infeas != 0:
                raise LpInfeasible()
            self.drive_out_artificials()
            for j in range(self.art_start, self.ncols):
                self.ub[j] = ZERO

        cost2 = [ZERO] * self.ncols
        for j in range(self.n_struct):
            cost2[j] = self.lp.objective[j]
        self.set_costs(cost2)
        self.optimize(allow_art_entering=False)

        return tuple(
            self.value_of(j) + self.shift[j] for j in range(self.n_struct)
        )


def row_status(lp, values):
    """(feasible, tight rows) of values in one pass: each constraint's
    lhs is evaluated once.  Tight rows use the ``tight_rows`` index
    scheme and are None when values is infeasible."""
    tight = []
    for idx, c in enumerate(lp.constraints):
        lhs = _evaluate(c, values)
        if lhs == c.rhs:
            tight.append(idx)
        elif c.rel == EQ or (lhs > c.rhs if c.rel == LE else lhs < c.rhs):
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
    full column rank.  Returns the computed support rank.
    """
    values = solution.values
    support = [j for j in range(lp.num_vars) if values[j] != 0]
    for idx in solution.tight_rows:
        m = len(lp.constraints)
        if idx < m:
            if not _tight(lp.constraints[idx], values):
                raise InternalCheckError(f"claimed tight row {idx} is not tight")
        else:
            j = idx - m
            if j >= lp.num_vars:
                j -= lp.num_vars
                if lp.upper[j] is None or values[j] != lp.upper[j]:
                    raise InternalCheckError(f"claimed tight upper bound {j} is not")
            elif values[j] != lp.lower[j]:
                raise InternalCheckError(f"claimed tight lower bound {j} is not")
    if not support:
        STATS["certificates"] += 1
        return 0
    rows = [
        [lp.row_vector(idx)[j] for j in support] for idx in solution.tight_rows
    ]
    rank = rank_of_rows(rows)
    if rank != len(support):
        raise InternalCheckError(
            f"vertex certificate failed: support {len(support)}, tight-row rank {rank}"
        )
    STATS["certificates"] += 1
    return rank


def simplex_solve(lp):
    """Solve to an optimal vertex; raises LpInfeasible / LpUnbounded.

    Deterministic: identical input yields the identical BasicSolution.
    """
    if lp.num_vars == 0:
        tight = []
        for idx, c in enumerate(lp.constraints):
            if not _holds(c, ()):
                raise LpInfeasible()
            if _tight(c, ()):
                tight.append(idx)
        STATS["solves"] += 1
        STATS["certificates"] += 1
        return BasicSolution((), ZERO, tuple(tight))

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
