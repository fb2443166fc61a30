"""Dense vertex reuse: the reference the integer-row reuse is checked against.

``crossopt.lpengine.reuse_extreme_point`` used to rebuild the working LP
after a fix or delete step as a dense ``LinearProgram`` of rational
``Constraint`` rows, then run the dense ``row_status`` and vertex
certificate on it.  It now checks the reused vertex on the 0/1 rows in
integers, checks the face the step names and does not separate the
vertex again.  The dense version is kept below verbatim; only the
imports (the dense types and checks now come from tests/dense_rows.py),
``_dense_base`` (which turns the Residual's 0/1 rows back into the
indicator Constraints the old ``base()`` built), the tags read through
``Vertex.tight_tags`` (a cut tag is a tight tag the base rows do not
hold), the previous values read by id, the separator's point (now a
``Vertex``) and the result type are new, and the count of reused
vertices that the package no longer keeps is left out.  It still takes
the previous vertex's values by the new variable ids and separates the
reused vertex in full, so it stays the differential against both
checks the face replaced.
"""

from dataclasses import dataclass

from conftest import values_by_id
from dense_rows import (
    BasicSolution,
    Constraint,
    LinearProgram,
    row_status,
    verify_vertex_certificate,
)
from crossopt.errors import InternalCheckError
from crossopt.lpengine import SeparationResult
from crossopt.rational import ONE, ZERO
from crossopt.simplex import Vertex


@dataclass(frozen=True)
class DenseReuse:
    solution: object
    lp: LinearProgram
    var_ids: tuple
    row_tags: tuple
    x_by_id: dict


def _dense_base(residual):
    """The Residual's base LP and cut builder with every tagged 0/1 Row,
    including the rows the cut builder returns, as an indicator
    (Constraint, tag) row, in the five-tuple the old ``base()`` gave."""
    lp = residual.lp
    var_ids = lp.var_ids

    def dense(row):
        return Constraint(_indicator(var_ids, row.mask), row.rel, row.rhs), row.tag

    return (
        var_ids,
        lp.objective,
        [dense(row) for row in lp.rows],
        residual.separate,
        lambda res: dense(residual.cut_row(res.family, res.witness)),
    )


# -- crossopt.lpengine -----------------------------------------------------------


def _indicator(var_ids, mask):
    return tuple(ONE if (mask >> v) & 1 else ZERO for v in var_ids)


def _working_lp(var_ids, objective, rows):
    n = len(var_ids)
    return LinearProgram(
        n, objective, tuple(c for c, _ in rows), (ZERO,) * n, (ONE,) * n
    )


def reuse_extreme_point(state, prev):
    """Certified optimal vertex of ``state`` after a fix or delete step,
    taken from the previous extreme point ``prev`` without a solve.

    The working LP is the base rows of ``state`` plus the cut rows that
    were tight at ``prev``, each rebuilt from its tag by the cut builder
    of ``state``.  The restriction of ``prev`` to the undecided
    variables must satisfy that LP, pass full separation and carry a
    vertex certificate; otherwise InternalCheckError.  Optimality is the
    face argument in the module docstring.
    """
    var_ids, objective, rows, separator, cut_row = _dense_base(state)
    rows = list(rows)
    base = {tag for _, tag in rows}
    for kind, witness in prev.tight_tags():
        if (kind, witness) not in base:
            rows.append(cut_row(SeparationResult(False, kind, witness)))
    prev_values = values_by_id(prev)
    try:
        values = tuple(prev_values[v] for v in var_ids)
    except KeyError as exc:
        raise InternalCheckError(
            f"undecided variable {exc} has no value at the previous vertex"
        ) from None
    lp = _working_lp(var_ids, objective, rows)
    feasible, tight = row_status(lp, values)
    if not feasible:
        raise InternalCheckError("reused vertex violates the new working LP")
    x_by_id = dict(zip(var_ids, values))
    if not separator(Vertex.of_values(x_by_id)).feasible:
        raise InternalCheckError("reused vertex violates a family constraint")
    value = sum((c * v for c, v in zip(objective, values) if c and v), ZERO)
    solution = BasicSolution(values, value, tight)
    verify_vertex_certificate(lp, solution)
    return DenseReuse(
        solution, lp, var_ids, tuple(t for _, t in rows), x_by_id
    )
