"""Step rule for lattice covering constraints with crossing bounds.

The algorithm needs the monotonicity property (comparable members have
strictly growing images); run_lattice checks it up front, never assumes
it: an explicit lattice scans its order, and the subset lattice of a
matroid has it by construction.  The relax module runs the loop; this
module supplies the residual state and the step.  Each step does
exactly one thing, in order: delete a zero element, fix a one element,
or drop a bound whose undecided support is small enough.  The drop
threshold is 2*frequency in the general variant; when the member order
is image inclusion and only upper bounds are present, the sharper
threshold residual_bound + frequency - 1 applies and halves the final
violation.

A delete or fix step leaves the face x_e = 0 (or 1) of the old region
with e dropped (a fix lowers every rank and bound rhs containing e by
one, exactly x_e), and the old optimal vertex lies on that face, so the
step asks for its restriction to be reused after certify re-checks it
(lpengine.reuse_extreme_point).  Its rank rows are not scanned again:
with F at 1 and deleted elements at 0 the point and every rank row's
excess are unchanged, so the state's separator finds the verdict among
the run's feasible keys (lpengine.remembering_feasible).  Dropping a
bound removes rows and can enlarge the region, so the LP after a drop,
like the first, is solved from scratch.

Exactly one action happens per iteration, so |undecided| + |bounds|
drops by one each time and the run ends after at most |E| + |I|
iterations with all rank constraints met exactly.
"""

from math import floor

from .errors import InstanceError, InternalCheckError, NoStepApplies
from .graphs import iter_bits
from .instances import INCLUSION
from .lpengine import Residual, remembering_feasible, separate_lattice
from .oracles import uncross
from .rational import Rat, rat_ceil, render_rat
from .relax import CheckReport, check, relax
from .simplex import GE, LE, LinearProgram, Row


def _drop_threshold(instance, i, fmask, variant):
    con = instance.constraints[i]
    if variant == INCLUSION:
        residual = con.upper - (con.elems & fmask).bit_count()
        return residual + instance.delta - 1
    return Rat(2 * instance.delta)


class LatticeState:
    """Mutable run state: chosen and undecided elements, alive bounds."""

    header = {"kind": "lattice-trace"}

    def __init__(self, instance):
        self.instance = instance
        self.eprime = (1 << instance.n) - 1
        self.fmask = 0
        self.alive = set(range(len(instance.constraints)))
        # full-coordinate keys of the points separation found feasible
        self.feasible = set()
        self.iteration_cap = instance.n + len(instance.constraints)

    def finished(self):
        return not self.eprime and not self.alive

    def residual(self):
        """The residual LP: per alive bound an upper row, and a lower
        row when it has one, both less the fixed elements of its set;
        as cuts, the rank rows x(rho(S) & E') >= r(S) - |F & rho(S)|."""
        instance, eprime, fmask = self.instance, self.eprime, self.fmask
        lat = instance.lat
        var_ids = tuple(iter_bits(eprime))
        rows = []
        for i in sorted(self.alive):
            con = instance.constraints[i]
            fixed = (con.elems & fmask).bit_count()
            mask = con.elems & eprime
            rows.append(Row(mask, LE, con.upper - fixed, ("bound_upper", i)))
            if con.lower is not None:
                rows.append(Row(mask, GE, con.lower - fixed, ("bound_lower", i)))

        def cut_row(kind, j):
            rho = lat.rho[j]
            rhs = Rat(lat.rank[j] - (fmask & rho).bit_count())
            return Row(rho & eprime, GE, rhs, ("rank", j))

        objective = tuple(instance.costs[v] for v in var_ids)
        return Residual(
            LinearProgram(var_ids, objective, tuple(rows)),
            remembering_feasible(
                lambda point: separate_lattice(point, fmask, lat),
                fmask,
                self.feasible,
            ),
            cut_row,
        )

    def step(self, point, lp_initial, trace):
        """One delete, fix or drop; True after a delete or fix."""
        budget = self.eprime.bit_count() + len(self.alive)
        event = self._delete_or_fix(point) or self._drop(point)
        if event is None:
            raise NoStepApplies(
                "no zero element, no one element, and no droppable bound "
                f"(undecided={self.eprime.bit_count()}, bounds={len(self.alive)})"
            )
        trace.add(event)
        if self.eprime.bit_count() + len(self.alive) != budget - 1:
            raise InternalCheckError("|E'| + |W| did not decrease by exactly 1")
        return event["ev"] != "drop"

    def _delete_or_fix(self, point):
        if point is None:
            return None
        if point.zeros:
            e = (point.zeros & -point.zeros).bit_length() - 1
            self.eprime &= ~(1 << e)
            return {"ev": "delete", "edge": e}
        if point.ones:
            e = (point.ones & -point.ones).bit_length() - 1
            self.fmask |= 1 << e
            self.eprime &= ~(1 << e)
            return {"ev": "fix", "edge": e}
        return None

    def _drop(self, point):
        instance = self.instance
        for i in sorted(self.alive):
            support = (instance.constraints[i].elems & self.eprime).bit_count()
            threshold = _drop_threshold(instance, i, self.fmask, instance.variant)
            if Rat(support) <= threshold:
                _assert_drop_accounting(
                    instance, i, self.eprime, self.fmask, instance.variant
                )
                self.alive.discard(i)
                # the tight-chain growth check of every fresh fractional vertex
                if point is not None and not self.fmask:
                    check_chain_growth(point, instance.lat)
                return {"ev": "drop", "bound": i}
        return None

    def finish(self, lp_initial):
        return {"solution": sorted(iter_bits(self.fmask))}


def run_lattice(instance):
    """Round to an integral covering set; returns (mask, events, lp opt).

    Every strictly fractional vertex met at a bound-drop iteration with
    nothing fixed also passes the tight-chain growth check; a failure is
    an internal error.
    """
    witness = instance.lat.monotonicity_witness()
    if witness is not None:
        raise InstanceError(
            f"lattice violates the image-growth property at members {witness}; "
            "the rounding guarantees do not apply"
        )
    state = LatticeState(instance)
    trace, lp_initial = relax(state)
    return state.fmask, trace.events, lp_initial


def _assert_drop_accounting(instance, i, eprime, fmask, variant):
    """The two clauses the final guarantee telescopes from."""
    con = instance.constraints[i]
    fixed = (con.elems & fmask).bit_count()
    undecided = (con.elems & eprime).bit_count()
    slack = instance.delta - 1 if variant == INCLUSION else 2 * instance.delta - 1
    if con.lower is not None and con.lower > fixed + 2 * instance.delta - 1:
        raise InternalCheckError(f"lower-bound drop accounting failed for {i}")
    if Rat(fixed + undecided) > con.upper + slack:
        raise InternalCheckError(f"upper-bound drop accounting failed for {i}")


# -- verification -------------------------------------------------------------


def verify_lattice(instance, solution, brute_optimum=None):
    """Exhaustive re-check: every rank constraint holds, every bound is
    within the additive slack of its variant, and (when a bound-feasible
    integral solution exists) the cost is at most the brute optimum."""
    lat = instance.lat
    slack = instance.delta - 1 if instance.variant == INCLUSION else (
        2 * instance.delta - 1
    )
    failures = []
    checks = []

    rank_ok = True
    for j in range(lat.size):
        got = (solution & lat.rho[j]).bit_count()
        if got < lat.rank[j]:
            rank_ok = False
            failures.append(f"rank member {j}")
    checks.append(check("rank-coverage", rank_ok, bound="exact", achieved="exhaustive"))

    for i, con in enumerate(instance.constraints):
        got = (solution & con.elems).bit_count()
        hi = con.upper + slack
        ok_here = Rat(got) <= hi
        if con.lower is not None:
            ok_here = ok_here and Rat(got) >= con.lower - slack
        checks.append(
            check(f"bound[{i}]", ok_here, bound=render_rat(hi), achieved=str(got))
        )
        if not ok_here:
            failures.append(f"bound {i}")

    if brute_optimum is not None:
        cost = instance.cost_of(solution)
        cost_ok = cost <= brute_optimum
        bound = render_rat(brute_optimum)
        checks.append(check("cost", cost_ok, bound=bound, achieved=render_rat(cost)))
        if not cost_ok:
            failures.append("cost")

    return CheckReport(tuple(checks), tuple(failures), {})


def bound_feasible_predicate(instance):
    """Feasibility test for the brute-force optimum: all bounds and all
    rank constraints met exactly (no slack).  A count is an integer, so
    it meets an upper bound iff it is at most its floor, and a lower
    bound iff it is at least its ceiling; the bounds are checked first,
    as they cost one AND and one popcount each."""
    covers = instance.lat.covers
    limits = [
        (con.elems, floor(con.upper), 0 if con.lower is None else rat_ceil(con.lower))
        for con in instance.constraints
    ]

    def feasible(mask):
        for elems, most, least in limits:
            got = (mask & elems).bit_count()
            if got > most or got < least:
                return False
        return covers(mask)

    return feasible


# -- tight-chain checks ---------------------------------------------------------


def check_chain_growth(point, lat, fmask=0):
    """Uncross the tight rank rows of a strictly fractional vertex into a
    chain and check each member with a nonempty image contributes at
    least two new elements, which caps the chain at |E'| / 2.

    Applies to vertices of the fresh system only (nothing fixed): once
    elements are fixed the residual images can stop growing along the
    order and the counting argument no longer binds.  The meet/join
    image identity chi(S) + chi(T) = chi(meet) + chi(join) is asserted
    at every uncrossing step.  Tightness is compared in the point's
    integers: x(rho(S)) = r(S) is D * x(rho(S)) = D * r(S).
    """
    if fmask:
        raise ValueError("chain growth applies to fresh vertices only")
    if point.zeros or point.ones:
        raise ValueError("chain growth needs a strictly fractional vertex")
    eprime = sum(1 << e for e in point.var_ids)

    def residual_tight(j):
        return point.load(lat.rho[j]) == point.den * lat.rank[j]

    tight = [w for tag, w in point.tight_tags() if tag == "rank"]
    for j in tight:
        if not residual_tight(j):
            raise InternalCheckError(f"certificate rank row {j} is not tight")

    def assert_pair(a, b, meet, join):
        for j in (meet, join):
            if not residual_tight(j):
                raise InternalCheckError(
                    f"uncrossing lost tightness at member {j}"
                )
        ra, rb = lat.rho[a] & eprime, lat.rho[b] & eprime
        rm, rj = lat.rho[meet] & eprime, lat.rho[join] & eprime
        if (ra & rb) != (rm & rj) or (ra | rb) != (rm | rj):
            raise InternalCheckError(
                f"image identity chi(S)+chi(T)=chi(meet)+chi(join) failed "
                f"at members ({a},{b})"
            )

    family = uncross(tight, lat.comparable, lat.meet_of, lat.join_of, assert_pair)
    chain = sorted(family, key=lambda j: (lat.rho[j].bit_count(), j))
    for prev, cur in zip(chain, chain[1:]):
        if not lat.leq(prev, cur):
            raise InternalCheckError("uncrossed family is not a chain")
    seen_images = set()
    kept = []
    for j in chain:
        image = lat.rho[j] & eprime
        if image and image not in seen_images:
            seen_images.add(image)
            kept.append(j)
    union = 0
    for j in kept:
        new = (lat.rho[j] & eprime) & ~union
        if new.bit_count() < 2:
            raise InternalCheckError(
                f"chain member {j} contributes {new.bit_count()} new "
                "elements (needs 2)"
            )
        union |= lat.rho[j] & eprime
    if 2 * len(kept) > eprime.bit_count():
        raise InternalCheckError("chain longer than |E'|/2 despite growth")
    return {"chain": kept, "undecided": eprime.bit_count()}
