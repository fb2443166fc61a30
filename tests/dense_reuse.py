"""Dense vertex reuse: the reference the integer-row reuse is checked against.

``crossopt.lpengine.reuse_extreme_point`` used to rebuild the working LP
after a fix or delete step as a dense ``LinearProgram`` of rational
``Constraint`` rows, then run the dense ``row_status`` and vertex
certificate on it.  It now checks the reused vertex on the 0/1 rows in
integers.  The dense version is kept below verbatim; only the imports
(the dense types and checks now come from tests/dense_rows.py),
``_dense_base`` (which turns the residual LP's 0/1 rows back into the
indicator Constraints the old ``base()`` built), the tags read through
``Vertex.tight_tags``, the separator's point (now a ``Vertex``) and the
result type are new.
"""

from dataclasses import dataclass

from dense_rows import (
    BasicSolution,
    Constraint,
    LinearProgram,
    row_status,
    verify_vertex_certificate,
)
from crossopt.errors import InternalCheckError
from crossopt.lpengine import CUT_KINDS, SeparationResult
from crossopt.rational import ONE, ZERO
from crossopt.simplex import STATS, Vertex


@dataclass(frozen=True)
class DenseReuse:
    solution: object
    lp: LinearProgram
    var_ids: tuple
    row_tags: tuple
    x_by_id: dict


def _dense_base(state):
    """state.base() with every tagged 0/1 Row, including the rows the
    cut builder returns, as an indicator (Constraint, tag) row."""
    var_ids, objective, rows, separator, cut_row = state.base()

    def dense(row):
        return Constraint(_indicator(var_ids, row.mask), row.rel, row.rhs), row.tag

    return (
        var_ids,
        objective,
        [dense(row) for row in rows],
        separator,
        lambda res: dense(cut_row(res)),
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
    for kind, witness in prev.tight_tags():
        if kind in CUT_KINDS:
            rows.append(cut_row(SeparationResult(False, kind, witness)))
    try:
        values = tuple(prev.x_by_id[v] for v in var_ids)
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
    STATS["reused"] += 1
    return DenseReuse(
        solution, lp, var_ids, tuple(t for _, t in rows), x_by_id
    )
