"""Post-hoc LP checks the tests run on a residual LP and its vertex.

``coordinate_ranges`` measures the optimal face: it solves the residual
LP again under a pinned objective value with a unit objective, once per
direction and coordinate.  ``full_separation_clean`` re-checks a vertex
against the base rows and the separator from scratch.  The engine
takes any object with a ``base()``, so the pinned LP is a wrapper
around the residual state and the engine needs no knob for it.
"""

from dataclasses import dataclass

from crossopt.lpengine import _box_lp, solve_to_extreme_point
from crossopt.rational import ONE, ZERO
from crossopt.simplex import EQ, Row, row_status


@dataclass(frozen=True)
class PinnedLp:
    """The residual LP ``state`` with the extra row ``pin`` and the
    objective ``objective`` (aligned with the sorted undecided ids)."""

    state: object
    pin: Row
    objective: tuple

    def base(self):
        var_ids, _, rows, separator, cut_row = self.state.base()
        return var_ids, self.objective, list(rows) + [self.pin], separator, cut_row


def coordinate_ranges(state, optimum, base_objective):
    """Exact per-coordinate min/max over the optimal face.

    Adds the row base_objective . x = optimum and re-optimizes +e_j and
    -e_j for every variable; a coordinate is pinned when min == max.
    """
    var_ids = state.base()[0]
    pin = Row.of_coefficients(base_objective, var_ids, EQ, optimum, ("pin", None))
    ranges = []
    for j in range(len(var_ids)):
        unit = [ZERO] * len(var_ids)
        unit[j] = ONE
        lo = solve_to_extreme_point(PinnedLp(state, pin, tuple(unit))).objective
        unit[j] = -ONE
        hi = -solve_to_extreme_point(PinnedLp(state, pin, tuple(unit))).objective
        ranges.append((lo, hi))
    return ranges


def full_separation_clean(state, point):
    """No family constraint is violated at the Vertex point, and it
    satisfies the base rows and the box."""
    var_ids, objective, rows, separator, _ = state.base()
    if not separator(point).feasible:
        return False
    lp = _box_lp(var_ids, objective, rows)
    return row_status(lp, point.restricted_to(lp)) is not None
