"""The full-width integer tableau the package's simplex condensed: the
reference the condensed tableau is stepped against.

``crossopt.simplex._Tableau`` stores only the nonbasic columns and the
right-hand side, each nonbasic column at a position, and a pivot writes
the leaving column into the entering column's position.  The code below
is the tableau it replaced, kept verbatim: every row holds all ncols
columns, the m basic unit columns (q on their own row, 0 elsewhere)
included, and every pivot recomputes them.  Only the imports are new;
``_bareiss`` and ``_MAX_PIVOTS`` are this module's copies as they were,
the step without the package's unit-pivot fast path.  Both tableaux
take the same LP and must take the same pivots.  The helpers at the end
write the condensed tableau in this one's columns (``expanded``) and
step the two side by side, entry by entry (``step_side_by_side``).
"""

from math import gcd, lcm

from crossopt.errors import InternalCheckError
from crossopt.simplex import _FLIPPED, EQ, LE, LpInfeasible


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


# -- stepping the condensed tableau against this one ----------------------------


def expanded(tableau):
    """(rows, reduced costs) of the package's condensed tableau in this
    one's columns: basic column basis[i] is q times unit i, and each
    nonbasic column j is read at its position pos[j].  Checks first that
    cols and pos are inverse and that each column is basic or stored."""
    cols, pos, basis = tableau.cols, tableau.pos, tableau.basis
    ncols, width = tableau.ncols, len(cols)
    assert sorted(cols + basis) == list(range(ncols))
    assert all(pos[j] == s for s, j in enumerate(cols))
    assert all(pos[b] is None for b in basis)
    assert len(tableau.d) == width and all(len(row) == width + 1 for row in tableau.A)
    rows = []
    for b, row in zip(basis, tableau.A):
        full = [0] * ncols + [row[-1]]
        for s, j in enumerate(cols):
            full[j] = row[s]
        full[b] = tableau.q
        rows.append(full)
    d = [0] * ncols
    for s, j in enumerate(cols):
        d[j] = tableau.d[s]
    return rows, d


def state(tableau):
    """Everything a step of either tableau sets, in this one's columns:
    basis, bound statuses, q, reduced costs and their denominator, and
    the rows with their right-hand side."""
    if isinstance(tableau, _Tableau):
        rows, d = [list(row) for row in tableau.A], list(tableau.d)
    else:
        rows, d = expanded(tableau)
    head = (list(tableau.basis), list(tableau.status), tableau.q, tableau.cost_den)
    return head + (d, rows)


class Recorded:
    """Mixin: snapshot the tableau after every pivot (once the basis
    records it) and every change of costs."""

    def __init__(self, lp):
        super().__init__(lp)
        self.snapshots = []

    def set_costs(self, *args):
        super().set_costs(*args)
        self.snapshots.append(self.snapshot())

    def _enter_basis(self, *args):
        super()._enter_basis(*args)
        self.snapshots.append(self.snapshot())


class RecordedFull(Recorded, _Tableau):
    snapshot = state


def _outcome(solve):
    try:
        return solve()
    except LpInfeasible:
        return LpInfeasible


def step_side_by_side(patch, module):
    """Replace module._Tableau, through patch, by a subclass whose every
    solve also runs this full-width tableau on its LP: both must give
    the same vertex or infeasibility, the same pivot count, the same
    state after every pivot and change of costs, and the same final
    state (bound flips after the last pivot included)."""

    class SideBySide(Recorded, module._Tableau):
        snapshot = state

        def solve(self):
            twin = RecordedFull(self.lp)
            got = _outcome(super().solve)
            assert got == _outcome(twin.solve)
            assert self.pivots == twin.pivots
            assert self.snapshots == twin.snapshots
            assert state(self) == state(twin)
            if got is LpInfeasible:
                raise LpInfeasible()
            return got

    patch.setattr(module, "_Tableau", SideBySide)
