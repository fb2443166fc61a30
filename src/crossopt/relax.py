"""The iterative-relaxation loop that all three solvers share.

Every run repeats one iteration: solve the residual LP to a certified
extreme point, then let the problem's step rule act on it (fix or
delete variables with integral values, round, or drop degree bounds).
The loop and its event trace are the same for every problem.  A run
passes ``relax`` its residual state, an object with

- ``instance``: the instance being solved;
- ``header``: fields of the trace's ``begin`` event, ``kind`` at least;
- ``iteration_cap``: the most iterations the counting argument allows;
- ``eprime``: the undecided variables as a bitmask;
- ``finished()``: true when nothing is left to decide;
- ``residual()``: the current residual LP (an lpengine ``Residual*Lp``);
- ``step(point, lp_initial, trace)``: apply one step at the extreme
  point (``None`` when no variable is undecided), add its events to the
  trace, and return True when the new region is the face of the old one
  that the point lies on, so the point stays optimal and is reused;
- ``finish(lp_initial)``: the final checks; returns the fields of the
  trace's ``end`` event.

The first LP decides feasibility: if it is empty the instance is
infeasible (InstanceError).  Each step keeps the residual LP feasible,
so an empty LP later is an internal error.  The initial optimum is the
first LP's objective, or zero when no variable was ever undecided.

CoverReport is the outcome of re-checking a covering solution
(intersection or lattice) from scratch.
"""

import json
from dataclasses import dataclass

from .errors import InstanceError, InternalCheckError
from .instances import SCHEMA_VERSION, instance_digest
from .lpengine import reuse_extreme_point, solve_to_extreme_point
from .rational import ZERO, parse_rat, render_rat
from .simplex import LpInfeasible


class RunTrace:
    """Ordered event log of one run.

    Every run writes ``begin``, then per iteration a ``solve`` event
    (the vertex, its objective, and whether it was reused) unless no
    variable was undecided, then the step's events, and finally ``end``
    with ``lp_initial``.  Steps are ``fix`` and ``delete`` (one
    ``"edge"`` each, the variable id), ``drop`` (one ``"bound"``) and,
    for spanning trees, ``tighten``, ``drop_children`` and
    ``merge_leaves``.  Replaying a spanning-tree trace against its
    instance reproduces the final tree and forest exactly.
    """

    def __init__(self, events=None):
        self.events = events if events is not None else []

    def add(self, event):
        self.events.append(event)

    @property
    def footer(self):
        if not self.events or self.events[-1].get("ev") != "end":
            raise InstanceError("trace has no end event")
        return self.events[-1]

    def initial_lp_objective(self):
        return parse_rat(self.footer["lp_initial"])

    def drop_round_count(self):
        return sum(
            1 for ev in self.events if ev["ev"] in ("drop_children", "merge_leaves")
        )

    def to_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev, sort_keys=True, separators=(",", ":")))
                fh.write("\n")

    @classmethod
    def from_jsonl(cls, path):
        events = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return cls(events)


def relax(state):
    """Run ``state`` to completion; returns (trace, initial LP optimum).

    Raises InstanceError when the first LP is infeasible and
    InternalCheckError when a later one is or the iteration cap is
    exceeded; the step rule raises its own invariant failures.
    """
    trace = RunTrace()
    trace.add(
        {
            "ev": "begin",
            "schema": SCHEMA_VERSION,
            "instance_digest": instance_digest(state.instance),
            **state.header,
        }
    )
    lp_initial = None
    point = None
    reuse = False
    iterations = 0
    while not state.finished():
        iterations += 1
        if iterations > state.iteration_cap:
            raise InternalCheckError(
                f"iteration cap {state.iteration_cap} exceeded"
            )
        if not state.eprime:
            point = None
        else:
            try:
                if reuse:
                    point = reuse_extreme_point(state.residual(), point)
                else:
                    point = solve_to_extreme_point(state.residual())
            except LpInfeasible:
                if lp_initial is None:
                    raise InstanceError("instance LP is infeasible") from None
                raise InternalCheckError(
                    "LP became infeasible mid-run; feasibility is maintained "
                    "inductively and must never fail"
                ) from None
            if lp_initial is None:
                lp_initial = point.objective
            trace.add(
                {
                    "ev": "solve",
                    "x": {str(e): render_rat(v) for e, v in point.x_by_id.items()},
                    "objective": render_rat(point.objective),
                    "reused": reuse,
                }
            )
        reuse = state.step(point, lp_initial, trace)
    if lp_initial is None:
        lp_initial = ZERO
    trace.add(
        {"ev": "end", "lp_initial": render_rat(lp_initial), **state.finish(lp_initial)}
    )
    return trace, lp_initial


@dataclass(frozen=True)
class CoverReport:
    """Each check is (name, passed, bound, achieved), both as strings."""

    ok: bool
    cover_ok: bool
    bounds_ok: bool
    cost_ok: bool
    checks: tuple
    failures: tuple

    def to_json(self):
        return {
            "ok": self.ok,
            "checks": [
                {"name": name, "pass": good, "bound": bound, "achieved": achieved}
                for name, good, bound, achieved in self.checks
            ],
            "failures": list(self.failures),
        }
