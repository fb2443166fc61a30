"""Post-hoc LP checks the tests run on a residual LP and its vertex.

``coordinate_ranges`` measures the optimal face: it solves the residual
LP again under a pinned objective value with a unit objective, once per
direction and coordinate.  The pin row has the costs as coefficients,
which the package simplex (0/1 rows only) does not take, so the pinned
LP is solved by the Fraction reference (tests/fraction_simplex.py) on
the dense rows of tests/dense_rows.py, in a cutting-plane loop of its
own with the residual LP's separator and cut builder.
``full_separation_clean`` re-checks a vertex against the base rows and
the separator from scratch.
"""

import fraction_simplex
from dense_rows import Constraint, LinearProgram as DenseLp, dense_row
from crossopt.rational import ONE, ZERO, Rat
from crossopt.simplex import EQ, LinearProgram, Vertex, row_status


def pinned_optimum(state, pin, objective):
    """min objective . x over the full system of the residual LP state
    plus the Constraint pin: the Fraction simplex on the dense base rows,
    adding each violated row the separator finds until none is left."""
    var_ids, _, rows, separator, cut_row = state.base()
    n = len(var_ids)
    constraints = [dense_row(var_ids, row) for row in rows] + [pin]
    seen = set()
    while True:
        lp = DenseLp(n, objective, tuple(constraints), (ZERO,) * n, (ONE,) * n)
        sol = fraction_simplex.simplex_solve(lp)
        res = separator(Vertex.of_values(dict(zip(var_ids, sol.values))))
        if res.feasible:
            return sol.objective_value
        row = cut_row(res)
        assert row.tag not in seen, f"separator repeated row {row.tag}"
        seen.add(row.tag)
        constraints.append(dense_row(var_ids, row))


def coordinate_ranges(state, optimum, base_objective):
    """Exact per-coordinate min/max over the optimal face.

    Adds the row base_objective . x = optimum and re-optimizes +e_j and
    -e_j for every variable; a coordinate is pinned when min == max.
    """
    n = len(state.base()[0])
    pin = Constraint(tuple(Rat(c) for c in base_objective), EQ, Rat(optimum))
    ranges = []
    for j in range(n):
        unit = [ZERO] * n
        unit[j] = ONE
        lo = pinned_optimum(state, pin, tuple(unit))
        unit[j] = -ONE
        hi = -pinned_optimum(state, pin, tuple(unit))
        ranges.append((lo, hi))
    return ranges


def full_separation_clean(state, point):
    """No family constraint is violated at the Vertex point, and it
    satisfies the base rows and the box."""
    var_ids, objective, rows, separator, _ = state.base()
    if not separator(point).feasible:
        return False
    lp = LinearProgram(var_ids, objective, tuple(rows))
    return row_status(lp, point.restricted_to(lp)) is not None
