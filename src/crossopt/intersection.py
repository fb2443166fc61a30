"""Step rule for two supermodular covering functions with crossing
upper bounds.

The relax module runs the loop; this module supplies the residual
state and the step.  At each certified extreme point the step deletes
every zero element, rounds every element of value at least 1/2 into the
solution (decrementing residual bounds by the fractional value,
exactly), and drops every bound whose undecided support has shrunk to
ceil(2 b') + frequency - 1 elements.  A step that changes nothing is an
internal error: the counting argument guarantees progress.

The step never asks for the old vertex to be reused: rounding a value in
[1/2, 1) up and lowering bounds by fractional amounts does not restrict
the old region to a face, so every iteration solves the LP again.

The final solution covers both functions on every subset, exceeds no
bound by more than b + frequency - 1 beyond a factor two, and costs at
most twice the initial LP optimum; verify_intersection re-checks all
three claims exhaustively from scratch.
"""

from .errors import InternalCheckError, NoStepApplies
from .graphs import iter_bits
from .lpengine import ResidualIntersectionLp
from .oracles import supermodular_violation, uncross
from .rational import HALF, ZERO, Rat, rat_ceil, render_rat
from .relax import CoverReport, relax

SPOT_CHECK_LIMIT = 10  # residual supermodularity re-check up to 2^10 subsets


def _drop_threshold(bprime_i, delta):
    return rat_ceil(2 * bprime_i) + delta - 1


class IntersectionState:
    """Mutable run state: chosen and undecided elements, alive bounds
    and their residual values."""

    header = {"kind": "intersection-trace"}

    def __init__(self, instance, collect_chain_checks):
        self.instance = instance
        self.eprime = (1 << instance.n) - 1
        self.fmask = 0
        self.alive = set(range(len(instance.constraints)))
        self.bprime = {i: instance.constraints[i].upper for i in self.alive}
        self.delta = instance.delta
        # every step removes an element or a bound
        self.iteration_cap = instance.n + len(instance.constraints)
        self.chain_reports = [] if collect_chain_checks else None

    def finished(self):
        return not self.eprime

    def residual(self):
        instance = self.instance
        rows = tuple(
            (i, instance.constraints[i].elems, self.bprime[i])
            for i in sorted(self.alive)
        )
        return ResidualIntersectionLp(
            instance.pair, instance.costs, self.eprime, self.fmask, rows
        )

    def step(self, point, lp_initial, trace):
        """Delete zeros, round up halves, drop small bounds; never a face."""
        instance = self.instance
        delta = self.delta
        x = point.x_by_id
        if self.chain_reports is not None and all(v > 0 for v in x.values()):
            self.chain_reports.append(
                [
                    check_chain_token_bound(point, instance.pair, f, self.fmask)
                    for f in (1, 2)
                ]
            )

        zeros = [e for e, v in sorted(x.items()) if v == ZERO]
        for e in zeros:
            self.eprime &= ~(1 << e)
        halves = [e for e, v in sorted(x.items()) if v >= HALF]
        for e in halves:
            self.fmask |= 1 << e
            self.eprime &= ~(1 << e)
            for i in self.alive:
                if (instance.constraints[i].elems >> e) & 1:
                    self.bprime[i] -= x[e]
        for i in self.alive:
            if self.bprime[i] < 0:
                raise InternalCheckError(f"residual bound {i} went negative")

        drops = [
            i
            for i in sorted(self.alive)
            if (instance.constraints[i].elems & self.eprime).bit_count()
            <= _drop_threshold(self.bprime[i], delta)
        ]
        for i in drops:
            _assert_drop_accounting(
                instance, i, self.bprime[i], self.eprime, self.fmask, delta
            )
            self.alive.discard(i)

        if not zeros and not halves and not drops:
            raise NoStepApplies(
                "no zero element, no half element, and no droppable bound"
            )
        for e in zeros:
            trace.add({"ev": "delete", "edge": e})
        for e in halves:
            trace.add({"ev": "fix", "edge": e})
        for i in drops:
            trace.add({"ev": "drop", "bound": i})
        if halves and instance.n <= SPOT_CHECK_LIMIT:
            _assert_residual_supermodular(instance, self.fmask)
        return False

    def finish(self, lp_initial):
        cost = ZERO
        for e in iter_bits(self.fmask):
            cost += self.instance.costs[e]
        if cost > 2 * lp_initial:
            raise InternalCheckError("final cost exceeds twice the LP optimum")
        return {"solution": sorted(iter_bits(self.fmask))}


def run_intersection(instance, collect_chain_checks=False):
    """Round to an integral covering set; returns (mask, events, lp opt).

    With collect_chain_checks, every strictly positive vertex also runs
    the tight-chain token diagnostic and the reports are appended to the
    return tuple.  Raises InstanceError when the initial LP is
    infeasible; any later infeasibility or a no-progress iteration is an
    internal error.
    """
    state = IntersectionState(instance, collect_chain_checks)
    trace, lp_initial = relax(state)
    result = (state.fmask, trace.events, lp_initial)
    return result + (state.chain_reports,) if collect_chain_checks else result


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
    # r(empty) = 0, so on an empty ground set the only slack is 0
    checks.append(("coverage", coverage_ok, "0", str(0 if worst is None else worst)))

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

    return CoverReport(
        ok=not failures,
        cover_ok=coverage_ok,
        bounds_ok=bounds_ok,
        cost_ok=cost_ok,
        checks=tuple(checks),
        failures=tuple(failures),
    )


# -- tight-set chain diagnostics ----------------------------------------------


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

    chain_full = uncross(
        tight_full,
        lambda a, b: a & b in (a, b),
        lambda a, b: a & b,
        lambda a, b: a | b,
        assert_pair,
    )
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
