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
- ``residual()``: the current residual LP as an lpengine ``Residual``
  (its base LP, separator and cut builder), which the step rule builds
  from its own bounds and which later steps leave unchanged;
- ``step(point, lp_initial, trace)``: apply one step at the extreme
  point (``None`` when no variable is undecided), add its events to the
  trace, and return the face (e, c) after a fix (c = 1) or a delete
  (c = 0) of the variable e, else ``None``.  The new region is then the
  face x_e = c of the old one, so the point stays optimal and is
  reused; reuse checks the face;
- ``finish(lp_initial)``: the final checks; returns the fields of the
  trace's ``end`` event.

The first LP decides feasibility: if it is empty the instance is
infeasible (InstanceError).  Each step keeps the residual LP feasible,
so an empty LP later is an internal error.  The initial optimum is the
first LP's objective, or zero when no variable was ever undecided;
``initial_optimum`` reads it without running the loop.

CheckReport is the outcome of re-checking a solution from scratch; all
three verifiers return one.
"""

from dataclasses import dataclass
from math import gcd

from .errors import InstanceError, InternalCheckError
from .instances import (
    ENCODER,
    SCHEMA_VERSION,
    _rat,
    instance_digest,
    parse_json,
    write_text,
)
from .lpengine import reuse_extreme_point, solve_to_extreme_point
from .rational import ZERO, encode_rationals, render_rat
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
        where = f"trace event {len(self.events)} (end) lp_initial"
        return _rat(self.footer.get("lp_initial"), where)

    def drop_round_count(self):
        return sum(
            1 for ev in self.events if ev["ev"] in ("drop_children", "merge_leaves")
        )

    def to_jsonl(self, path):
        """Write the trace to path, one canonical JSON event per line."""
        encode = ENCODER.encode
        write_text(path, "".join([encode(ev) + "\n" for ev in self.events]))

    @classmethod
    def from_jsonl(cls, path):
        """The trace in a JSON-lines file, one event object per line;
        InstanceError when the file cannot be read or a line is not a
        JSON object with an "ev" field."""
        events = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for number, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    invalid = f"trace {path} line {number} is not valid JSON"
                    ev = parse_json(line, invalid)
                    if not isinstance(ev, dict) or "ev" not in ev:
                        raise InstanceError(
                            f'trace {path} line {number} must be an event object '
                            f'with an "ev" field, got {ev!r}'
                        )
                    events.append(ev)
        except (OSError, UnicodeDecodeError) as exc:
            raise InstanceError(f"cannot read trace {path}: {exc}") from exc
        return cls(events)


def _render_values(point):
    """The solve event's {variable id: "p/q"} of the Vertex point, each
    X / D reduced by gcd(X, D) in integers (render_rat of the value)."""
    den = point.den
    out = {}
    for var, x in zip(point.var_ids, point.scaled):
        g = gcd(x, den)
        out[str(var)] = f"{x // g}/{den // g}"
    return out


def begin_event(instance, header):
    """The ``begin`` event of a run on instance: the schema, the
    instance's digest and the state's header fields."""
    return {
        "ev": "begin",
        "schema": SCHEMA_VERSION,
        "instance_digest": instance_digest(instance),
        **header,
    }


def relax(state):
    """Run ``state`` to completion; returns (trace, initial LP optimum).

    Raises InstanceError when the first LP is infeasible and
    InternalCheckError when a later one is or the iteration cap is
    exceeded; the step rule raises its own invariant failures.
    """
    trace = RunTrace()
    trace.add(begin_event(state.instance, state.header))
    lp_initial = None
    point = None
    face = None
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
            point = _extreme_point(state, point, face, lp_initial is None)
            if lp_initial is None:
                lp_initial = point.objective
            trace.add(
                {
                    "ev": "solve",
                    "x": _render_values(point),
                    "objective": render_rat(point.objective),
                    "reused": face is not None,
                }
            )
        face = state.step(point, lp_initial, trace)
    if lp_initial is None:
        lp_initial = ZERO
    trace.add(
        {"ev": "end", "lp_initial": render_rat(lp_initial), **state.finish(lp_initial)}
    )
    return trace, lp_initial


def step_face(event):
    """(e, c) for a fix (c = 1) or delete (c = 0) of the variable e, else None."""
    c = {"fix": 1, "delete": 0}.get(event["ev"])
    return None if c is None else (event["edge"], c)


def _extreme_point(state, prev, face, first):
    """The certified extreme point of state's residual LP: prev reused on
    the face (e, c) when a face is given, else a fresh solve.  An empty
    LP is InstanceError when it is the first, and InternalCheckError
    after that."""
    try:
        if face is not None:
            return reuse_extreme_point(state.residual(), prev, face)
        return solve_to_extreme_point(state.residual())
    except LpInfeasible:
        if first:
            raise InstanceError("instance LP is infeasible") from None
        raise InternalCheckError(
            "LP became infeasible mid-run; feasibility is maintained "
            "inductively and must never fail"
        ) from None


def initial_optimum(state):
    """The initial LP optimum that relax(state) reports, from the first
    LP alone: ZERO when nothing is undecided, else the objective of the
    first residual LP.  Raises InstanceError when that LP is empty."""
    if state.finished() or not state.eprime:
        return ZERO
    return _extreme_point(state, None, None, True).objective


def check(name, passed, **compared):
    """One check of a CheckReport: its name, whether it passed, and
    what it compared."""
    return {"name": name, "pass": passed, **compared}


@dataclass(frozen=True)
class CheckReport:
    """The checks (each from ``check``), the names of what failed, and
    the verifier's own report fields."""

    checks: tuple
    failures: tuple
    fields: dict

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        body = {"ok": self.ok, "checks": self.checks, "failures": self.failures}
        return encode_rationals({**body, **self.fields})
