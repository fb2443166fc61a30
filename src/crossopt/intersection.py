"""Rounding for two supermodular covering functions with crossing upper
bounds.

Each iteration solves the residual LP to a certified extreme point,
deletes every zero element, rounds every element of value at least 1/2
into the solution (decrementing residual bounds by the fractional
value, exactly), and drops every bound whose undecided support has
shrunk to ceil(2 b') + frequency - 1 elements.  A full iteration that
changes nothing is an internal error: the counting argument guarantees
progress.

Every iteration re-solves the LP from scratch: rounding a value in
[1/2, 1) up and lowering bounds by fractional amounts does not restrict
the old region to a face, so the old vertex is not reused (compare
lpengine.reuse_extreme_point).

The final solution covers both functions on every subset, exceeds no
bound by more than b + frequency - 1 beyond a factor two, and costs at
most twice the initial LP optimum; verify_intersection re-checks all
three claims exhaustively from scratch.
"""

from dataclasses import dataclass

from .errors import InstanceError, InternalCheckError, NoStepApplies
from .graphs import iter_bits
from .instances import instance_digest
from .lpengine import (
    INTERSECTION,
    ResidualIntersectionLp,
    solve_to_extreme_point,
)
from .oracles import supermodular_violation
from .rational import HALF, ZERO, Rat, rat_ceil, render_rat
from .simplex import LpInfeasible

SPOT_CHECK_LIMIT = 10  # residual supermodularity re-check up to 2^10 subsets


def _residual(instance, eprime, fmask, alive, bprime):
    rows = tuple(
        (i, instance.constraints[i].elems, bprime[i]) for i in sorted(alive)
    )
    return ResidualIntersectionLp(
        instance.pair, instance.costs, eprime, fmask, rows
    )


def _drop_threshold(bprime_i, delta):
    return rat_ceil(2 * bprime_i) + delta - 1


def run_intersection(instance, collect_chain_checks=False):
    """Round to an integral covering set; returns (mask, events, lp opt).

    Raises InstanceError when the initial LP is infeasible; any later
    infeasibility or a no-progress iteration is an internal error.
    """
    n = instance.n
    delta = instance.delta
    eprime = (1 << n) - 1
    fmask = 0
    alive = set(range(len(instance.constraints)))
    bprime = {i: instance.constraints[i].upper for i in alive}
    events = [
        {"ev": "begin", "kind": "intersection-trace", "digest": instance_digest(instance)}
    ]
    initial_opt = None
    chain_reports = []

    while eprime:
        try:
            point = solve_to_extreme_point(
                INTERSECTION, _residual(instance, eprime, fmask, alive, bprime)
            )
        except LpInfeasible:
            if initial_opt is None:
                raise InstanceError("instance LP is infeasible") from None
            raise InternalCheckError("LP became infeasible mid-run") from None
        if initial_opt is None:
            initial_opt = point.objective
        events.append(
            {
                "ev": "solve",
                "x": {str(e): render_rat(v) for e, v in point.x_by_id.items()},
                "objective": render_rat(point.objective),
            }
        )
        if collect_chain_checks and all(v > 0 for v in point.x_by_id.values()):
            chain_reports.append(
                [
                    check_chain_token_bound(point, instance.pair, f, fmask)
                    for f in (1, 2)
                ]
            )

        zeros = [e for e, v in sorted(point.x_by_id.items()) if v == ZERO]
        for e in zeros:
            eprime &= ~(1 << e)
        halves = [e for e, v in sorted(point.x_by_id.items()) if v >= HALF]
        for e in halves:
            fmask |= 1 << e
            eprime &= ~(1 << e)
            for i in alive:
                if (instance.constraints[i].elems >> e) & 1:
                    bprime[i] -= point.x_by_id[e]
        for i in alive:
            if bprime[i] < 0:
                raise InternalCheckError(f"residual bound {i} went negative")

        drops = [
            i
            for i in sorted(alive)
            if (instance.constraints[i].elems & eprime).bit_count()
            <= _drop_threshold(bprime[i], delta)
        ]
        for i in drops:
            _assert_drop_accounting(instance, i, bprime[i], eprime, fmask, delta)
            alive.discard(i)

        if not zeros and not halves and not drops:
            raise NoStepApplies(
                "no zero element, no half element, and no droppable bound"
            )
        if zeros:
            events.append({"ev": "delete", "edges": zeros})
        if halves:
            events.append({"ev": "fix", "edges": halves})
        if drops:
            events.append({"ev": "drop", "bounds": drops})
        if halves and instance.n <= SPOT_CHECK_LIMIT:
            _assert_residual_supermodular(instance, fmask)

    cost = ZERO
    for e in iter_bits(fmask):
        cost += instance.costs[e]
    if initial_opt is not None and cost > 2 * initial_opt:
        raise InternalCheckError("final cost exceeds twice the LP optimum")
    events.append({"ev": "end", "solution": sorted(iter_bits(fmask))})
    result = (fmask, events, initial_opt)
    return result + (chain_reports,) if collect_chain_checks else result


def _assert_drop_accounting(instance, i, bprime_i, eprime, fmask, delta):
    """Telescoping that yields the final bound: at drop time the fixed
    part used at most 2 b - ceil(2 b') slots and the undecided part at
    most ceil(2 b') + frequency - 1."""
    con = instance.constraints[i]
    undecided = (con.elems & eprime).bit_count()
    fixed = (con.elems & fmask).bit_count()
    if undecided > _drop_threshold(bprime_i, delta):
        raise InternalCheckError(f"drop rule fired early for bound {i}")
    if fixed > 2 * con.upper - rat_ceil(2 * bprime_i):
        raise InternalCheckError(
            f"fixed elements of bound {i} exceed the telescoping budget"
        )


def _assert_residual_supermodular(instance, fmask):
    for name, table in (("r1", instance.pair.r1), ("r2", instance.pair.r2)):
        residual = [
            table[s] - (s & fmask).bit_count() for s in range(1 << instance.n)
        ]
        witness = supermodular_violation(residual, instance.n)
        if witness is not None:
            raise InternalCheckError(
                f"residual {name} lost supermodularity at {witness}"
            )


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionReport:
    ok: bool
    coverage_ok: bool
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


def verify_intersection(instance, solution, lp_opt):
    """Re-check the three output clauses exhaustively and exactly."""
    n = instance.n
    delta = instance.delta
    failures = []
    checks = []

    coverage_ok = True
    worst = None
    for s in range(1, 1 << n):
        have = (solution & s).bit_count()
        need = instance.pair.requirement(s)
        slack = have - need
        if worst is None or slack < worst:
            worst = slack
        if have < need:
            coverage_ok = False
            failures.append(f"coverage S={s:#x}")
            break
    checks.append(("coverage", coverage_ok, "0", str(worst)))

    bounds_ok = True
    for i, con in enumerate(instance.constraints):
        allowed = 2 * con.upper + delta - 1
        got = (solution & con.elems).bit_count()
        checks.append(
            (f"bound[{i}]", Rat(got) <= allowed, render_rat(allowed), str(got))
        )
        if Rat(got) > allowed:
            bounds_ok = False
            failures.append(f"bound {i}")

    cost = ZERO
    for e in iter_bits(solution):
        cost += instance.costs[e]
    cost_ok = cost <= 2 * lp_opt
    checks.append(("cost", cost_ok, render_rat(2 * lp_opt), render_rat(cost)))
    if not cost_ok:
        failures.append("cost")

    return IntersectionReport(
        ok=not failures,
        coverage_ok=coverage_ok,
        bounds_ok=bounds_ok,
        cost_ok=cost_ok,
        checks=tuple(checks),
        failures=tuple(failures),
    )


# -- tight-set chain diagnostics ----------------------------------------------


def uncross_to_chain(masks, assert_pair):
    """Repeatedly replace the lexicographically smallest incomparable
    pair by (intersection, union) until the family is a chain.

    ``assert_pair(a, b, meet, join)`` is called at every replacement so
    callers can verify tightness is preserved.
    """
    family = sorted(set(masks))
    rounds = 0
    while True:
        found = None
        for ai in range(len(family)):
            for bi in range(ai + 1, len(family)):
                a, b = family[ai], family[bi]
                if a & b != a and a & b != b:
                    found = (a, b)
                    break
            if found:
                break
        if not found:
            return sorted(family, key=lambda m: (m.bit_count(), m))
        a, b = found
        meet, join = a & b, a | b
        assert_pair(a, b, meet, join)
        family.remove(a)
        family.remove(b)
        for new in (meet, join):
            if new not in family:
                family.append(new)
        family.sort()
        rounds += 1
        if rounds > 300 * (len(masks) + 2):
            raise InternalCheckError("uncrossing failed to terminate")


def check_chain_token_bound(point, pair, which, fmask=0):
    """Tight covering rows of one function, uncrossed into a chain, must
    number at most x(E'); at equality the chain top is all of E'.

    Requires a vertex with strictly positive values everywhere; fmask is
    the fixed set the point was solved against.
    """
    x = point.x_by_id
    if any(v <= 0 for v in x.values()):
        raise ValueError("chain token bound needs strictly positive values")
    eprime = 0
    for e in x:
        eprime |= 1 << e
    table = pair.r1 if which == 1 else pair.r2
    fam = f"cover{which}"
    tight_full = []
    for tag, witness in point.tight_constraint_tags():
        if tag == fam:
            tight_full.append(witness)

    def residual(s):
        req = table[s] - (fmask & s).bit_count()
        lhs = ZERO
        for e in iter_bits(s & eprime):
            lhs += x[e]
        return lhs, Rat(req)

    def assert_pair(a, b, meet, join):
        for s in (meet, join):
            lhs, rhs = residual(s)
            if lhs != rhs:
                raise InternalCheckError(
                    f"uncrossing lost tightness at {s:#x} for {fam}"
                )

    for s in tight_full:
        lhs, rhs = residual(s)
        if lhs != rhs:
            raise InternalCheckError(f"certificate row {s:#x} is not tight")

    chain_full = uncross_to_chain(tight_full, assert_pair)
    restricted = sorted({s & eprime for s in chain_full if s & eprime})
    total = sum(x.values(), ZERO)
    k = len(restricted)
    if Rat(k) > total:
        raise InternalCheckError(
            f"chain of {k} tight sets exceeds x(E') = {total}"
        )
    if Rat(k) == total and restricted and restricted[-1] != eprime:
        raise InternalCheckError("chain saturates x(E') without topping at E'")
    return {"function": which, "chain": restricted, "x_total": total}
