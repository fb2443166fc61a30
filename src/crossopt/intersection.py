"""Step rule for two supermodular covering functions with crossing
upper bounds.

The relax module runs the loop; this module supplies the residual
state and the step.  At each certified extreme point the step deletes
every zero element, rounds every element of value at least 1/2 into the
solution (decrementing residual bounds by the fractional value,
exactly), and drops every bound whose undecided support has shrunk to
ceil(2 b') + frequency - 1 elements.  A step that changes nothing is an
internal error: the counting argument guarantees progress.

The residual requirement r_i(S) - |S & F| needs no supermodularity
check of its own.  |S & F| is modular, so every local exchange
difference of the residual equals that of r_i, which
ContraPolymatroidPair verified when the instance was built.

The step never names a face, so the old vertex is never reused:
rounding a value in [1/2, 1) up and lowering bounds by fractional
amounts does not restrict the old region to a face, so every iteration
solves the LP again.

The final solution covers both functions on every subset, exceeds no
bound by more than b + frequency - 1 beyond a factor two, and costs at
most twice the initial LP optimum; verify_intersection re-checks all
three claims exhaustively from scratch.
"""

from .errors import InternalCheckError, NoStepApplies
from .graphs import iter_bits
from .lpengine import Residual, separate_contra_polymatroid
from .oracles import uncross
from .rational import Rat, rat_ceil, render_rat
from .relax import CheckReport, check, relax
from .simplex import GE, LE, LinearProgram, Row


def _drop_threshold(bprime_i, delta):
    return rat_ceil(2 * bprime_i) + delta - 1


class IntersectionState:
    """Mutable run state: chosen and undecided elements, alive bounds
    and their residual values."""

    header = {"kind": "intersection-trace"}

    def __init__(self, instance):
        self.instance = instance
        self.eprime = (1 << instance.n) - 1
        self.fmask = 0
        self.alive = set(range(len(instance.constraints)))
        self.bprime = {i: instance.constraints[i].upper for i in self.alive}
        self.delta = instance.delta
        # every step removes an element or a bound
        self.iteration_cap = instance.n + len(instance.constraints)

    def finished(self):
        return not self.eprime

    def residual(self):
        """The residual LP: a bound row x(B & E') <= b' per alive bound
        and, as cuts, the covering rows x(S & E') >= r_i(S) - |F & S|."""
        instance, eprime, fmask = self.instance, self.eprime, self.fmask
        pair = instance.pair
        var_ids = tuple(iter_bits(eprime))
        bounds = instance.constraints
        rows = tuple(
            Row(bounds[i].elems & eprime, LE, self.bprime[i], ("bound_upper", i))
            for i in sorted(self.alive)
        )

        def cut_row(kind, s):
            table = pair.r1 if kind == "cover1" else pair.r2
            rhs = Rat(table[s] - (fmask & s).bit_count())
            return Row(s & eprime, GE, rhs, (kind, s))

        objective = tuple(instance.costs[v] for v in var_ids)
        return Residual(
            LinearProgram(var_ids, objective, rows),
            lambda point: separate_contra_polymatroid(point, fmask, pair),
            cut_row,
        )

    def step(self, point, lp_initial, trace):
        """Delete zeros, round up halves, drop small bounds; never a face."""
        instance = self.instance
        delta = self.delta
        if not point.zeros:
            # the tight-chain token check of every strictly positive vertex
            for f in (1, 2):
                check_chain_token_bound(point, instance.pair, f, self.fmask)

        zeros = list(iter_bits(point.zeros))
        for e in zeros:
            self.eprime &= ~(1 << e)
        den = point.den
        # x_e >= 1/2, compared in integers as 2 X_e >= D
        halves = [(e, x) for e, x in zip(point.var_ids, point.scaled) if 2 * x >= den]
        for e, x in halves:
            self.fmask |= 1 << e
            self.eprime &= ~(1 << e)
            for i in self.alive:
                if (instance.constraints[i].elems >> e) & 1:
                    self.bprime[i] -= Rat(x, den)
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
        for e, _ in halves:
            trace.add({"ev": "fix", "edge": e})
        for i in drops:
            trace.add({"ev": "drop", "bound": i})
        return None

    def finish(self, lp_initial):
        if self.instance.cost_of(self.fmask) > 2 * lp_initial:
            raise InternalCheckError("final cost exceeds twice the LP optimum")
        return {"solution": sorted(iter_bits(self.fmask))}


def run_intersection(instance):
    """Round to an integral covering set; returns (mask, events, lp opt).

    Every strictly positive vertex also passes the tight-chain token
    check.  Raises InstanceError when the initial LP is infeasible; any
    later infeasibility, a no-progress iteration or a failed chain check
    is an internal error.
    """
    state = IntersectionState(instance)
    trace, lp_initial = relax(state)
    return state.fmask, trace.events, lp_initial


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
    achieved = str(0 if worst is None else worst)
    checks.append(check("coverage", coverage_ok, bound="0", achieved=achieved))

    for i, con in enumerate(instance.constraints):
        allowed = 2 * con.upper + delta - 1
        got = (solution & con.elems).bit_count()
        good = Rat(got) <= allowed
        checks.append(
            check(f"bound[{i}]", good, bound=render_rat(allowed), achieved=str(got))
        )
        if not good:
            failures.append(f"bound {i}")

    cost = instance.cost_of(solution)
    cost_ok = cost <= 2 * lp_opt
    checks.append(
        check("cost", cost_ok, bound=render_rat(2 * lp_opt), achieved=render_rat(cost))
    )
    if not cost_ok:
        failures.append("cost")

    return CheckReport(tuple(checks), tuple(failures), {})


# -- tight-set chain checks ---------------------------------------------------


def check_chain_token_bound(point, pair, which, fmask=0):
    """Tight covering rows of one function, uncrossed into a chain, must
    number at most x(E'); at equality the chain top is all of E'.

    Requires a vertex with strictly positive values everywhere; fmask is
    the fixed set the point was solved against.  Every comparison is in
    the point's integers: x(S) = r is D * x(S) = D * r.
    """
    if point.zeros:
        raise ValueError("chain token bound needs strictly positive values")
    den = point.den
    eprime = sum(1 << e for e in point.var_ids)
    table = pair.r1 if which == 1 else pair.r2
    fam = f"cover{which}"
    tight_full = []
    for tag, witness in point.tight_tags():
        if tag == fam:
            tight_full.append(witness)

    def tight(s):
        return point.load(s) == den * (table[s] - (fmask & s).bit_count())

    def assert_pair(a, b, meet, join):
        for s in (meet, join):
            if not tight(s):
                raise InternalCheckError(
                    f"uncrossing lost tightness at {s:#x} for {fam}"
                )

    for s in tight_full:
        if not tight(s):
            raise InternalCheckError(f"certificate row {s:#x} is not tight")

    chain_full = uncross(
        tight_full,
        lambda a, b: a & b in (a, b),
        lambda a, b: a & b,
        lambda a, b: a | b,
        assert_pair,
    )
    restricted = sorted({s & eprime for s in chain_full if s & eprime})
    load = point.load(eprime)
    total = Rat(load, den)
    k = len(restricted)
    if k * den > load:
        raise InternalCheckError(
            f"chain of {k} tight sets exceeds x(E') = {total}"
        )
    if k * den == load and restricted and restricted[-1] != eprime:
        raise InternalCheckError("chain saturates x(E') without topping at E'")
    return {"function": which, "chain": restricted, "x_total": total}
