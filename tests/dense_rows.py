"""Dense rows and the row checks of the LP layer before it had one row
type: the references the unified routines are checked against, and the
general LP forms the package no longer has.

``crossopt.simplex`` keeps every row as one 0/1 id-mask over the unit
box and checks solved and reused vertices with one ``row_status`` and
one ``certificate_rows``.  Before that, the simplex path expanded each
row into a dense ``Constraint`` of one rational per column, with
general bounds, and checked its vertices with a dense ``row_status``
and ``LinearProgram.certificate_rows``, while a reused vertex was
checked by a second copy of both on 0/1 mask rows (``lpengine.MaskLp``).
Those classes and routines are kept below verbatim; only these are new:
the imports, ``verify_vertex_certificate`` calls ``lp.certificate_rows``
of either kind of LP as the package's ``verify_vertex_certificate`` did,
and the helpers at the end: the dense row, dense LP, mask LP and
``BasicSolution`` of a package row, LP or Vertex, a package LP built
from 0/1 coefficient lists, a point of a package LP at given values,
and the exact rank of rational rows.  The certificate count that the
package no longer keeps is left out.
"""

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import NamedTuple

from crossopt import simplex as package
from crossopt.errors import InternalCheckError
from crossopt.graphs import mask_of
from crossopt.rational import ONE, ZERO, Rat
from crossopt.simplex import (
    EQ,
    GE,
    LE,
    RELATIONS,
    _int_rank,
    scale_values,
)


# -- crossopt.simplex ------------------------------------------------------------


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
    """Check the tight rows span the support; raise on failure.  Returns
    the computed support rank."""
    support, bounded, rows = lp.certificate_rows(solution)
    rank = bounded + _int_rank(rows)
    if rank != support:
        raise InternalCheckError(
            f"vertex certificate failed: support {support}, tight-row rank {rank}"
        )
    return rank


# -- crossopt.lpengine -----------------------------------------------------------


def _violated(rel, excess):
    """Whether a row whose lhs - rhs has the sign of excess is violated."""
    if rel == LE:
        return excess > 0
    if rel == GE:
        return excess < 0
    return excess != 0


class MaskRow(NamedTuple):
    """The 0/1 row x(mask) rel rhs: the sum of x over the variable ids
    in the bitmask ``mask``."""

    mask: int
    rel: str
    rhs: object

    def excess(self, den, load):
        """An int with the sign of lhs - rhs, where lhs = load / den."""
        return load * self.rhs.denominator - self.rhs.numerator * den

    def dense(self, var_ids):
        """The row as a Constraint over the columns var_ids."""
        coeffs = tuple(ONE if (self.mask >> v) & 1 else ZERO for v in var_ids)
        return Constraint(coeffs, self.rel, self.rhs)


@dataclass(frozen=True)
class MaskLp:
    """A working LP kept as 0/1 mask rows over the box 0 <= x <= 1: the
    system a reused vertex is checked and certified on, with no dense
    rows built."""

    var_ids: tuple
    rows: tuple  # MaskRow

    def status(self, point):
        """The tight rows of point (simplex.BasicSolution's index
        scheme), or None when it violates a row or leaves the box."""
        den = point.den
        if any(x < 0 or x > den for x in point.fractional.values()):
            return None
        tight = []
        for idx, row in enumerate(self.rows):
            excess = row.excess(den, point.load(row.mask))
            if not excess:
                tight.append(idx)
            elif _violated(row.rel, excess):
                return None
        m, n = len(self.rows), len(self.var_ids)
        for j, x in enumerate(point.scaled):
            if not x:
                tight.append(m + j)
            elif x == den:
                tight.append(m + n + j)
        return tuple(tight)

    def certificate_rows(self, point):
        """simplex.verify_vertex_certificate's rows for a reused Vertex:
        the claimed tight rows are re-checked, and each tight mask row,
        restricted to the support columns strictly inside the box, is a
        0/1 int row."""
        den, scaled = point.den, point.scaled
        m, n = len(self.rows), len(self.var_ids)
        bound_cols = set()
        for idx in point.tight_rows:
            if idx < m:
                row = self.rows[idx]
                if row.excess(den, point.load(row.mask)):
                    raise InternalCheckError(f"claimed tight row {idx} is not tight")
            else:
                j = idx - m
                if j >= n:
                    j -= n
                    if scaled[j] != den:
                        raise InternalCheckError(
                            f"claimed tight upper bound {j} is not"
                        )
                elif scaled[j]:
                    raise InternalCheckError(f"claimed tight lower bound {j} is not")
                if scaled[j]:
                    bound_cols.add(j)
        support = [j for j in range(n) if scaled[j]]
        free = [self.var_ids[j] for j in support if j not in bound_cols]
        rows = []
        if free:
            for idx in point.tight_rows:
                if idx < m:
                    mask = self.rows[idx].mask
                    row = [(mask >> v) & 1 for v in free]
                    if any(row):
                        rows.append(row)
        return len(support), len(bound_cols), rows


# -- adapters and general forms --------------------------------------------------


def dense_row(var_ids, row):
    """The Constraint of a package Row over the columns var_ids."""
    coeffs = tuple(ONE if (row.mask >> v) & 1 else ZERO for v in var_ids)
    return Constraint(coeffs, row.rel, Rat(row.rhs))


def dense_lp(lp):
    """The dense LinearProgram of a package LinearProgram: its rows as
    Constraints over the box 0 <= x <= 1."""
    n = lp.num_vars
    constraints = tuple(dense_row(lp.var_ids, row) for row in lp.rows)
    return LinearProgram(n, lp.objective, constraints, (ZERO,) * n, (ONE,) * n)


def mask_lp(lp):
    """The MaskLp of a package LinearProgram."""
    rows = tuple(MaskRow(row.mask, row.rel, row.rhs) for row in lp.rows)
    return MaskLp(lp.var_ids, rows)


def dense_solution(point):
    """The BasicSolution of a package Vertex."""
    return BasicSolution(point.values, point.objective, point.tight_rows)


def box_lp(objective, constraints):
    """The package LP over the variables 0..n-1 from dense 0/1
    coefficient lists (coeffs, rel, rhs)."""
    n = len(objective)
    rows = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != n or any(a not in (0, 1) for a in coeffs):
            raise ValueError(f"not a 0/1 row over {n} variables: {coeffs}")
        mask = mask_of(j for j, a in enumerate(coeffs) if a)
        rows.append(package.Row(mask, rel, Rat(rhs)))
    objective = tuple(Rat(c) for c in objective)
    return package.LinearProgram(tuple(range(n)), objective, tuple(rows))


def vertex_at(lp, values):
    """The point of the package LP lp with the rational values (aligned
    with lp.var_ids), claiming no tight rows."""
    den, scaled = scale_values(values)
    return package.Vertex.scaled_at(lp, den, tuple(scaled))


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
