"""Rounding over lattice covering constraints with crossing bounds.

The algorithm needs the monotonicity property (comparable members have
strictly growing images); it is checked up front, never assumed: an
explicit lattice scans its order, and the subset lattice of a matroid
has it by construction.  Each iteration solves the residual LP to a
certified extreme point and then, in order: deletes a zero element,
fixes a one element, or drops a bound whose undecided support is small
enough.  The drop threshold is 2*frequency in the general variant; when
the member order is image inclusion and only upper bounds are present,
the sharper threshold residual_bound + frequency - 1 applies and halves
the final violation.

After a delete or fix step the LP is not re-solved: the new residual
region is the face x_e = 0 (or 1) of the old one with e dropped (a fix
lowers every rank and bound rhs containing e by one, exactly x_e), the
old optimal vertex lies on that face, so its restriction is optimal and
is reused after a full re-check (lpengine.reuse_extreme_point); the
``solve`` event says ``"reused": true``.  Dropping a bound removes rows
and can enlarge the region, so the LP after a drop, like the first, is
solved from scratch.

Exactly one action happens per iteration, so |undecided| + |bounds|
drops by one each time and the run ends after at most |E| + |I|
iterations with all rank constraints met exactly.
"""

from dataclasses import dataclass

from .errors import InstanceError, InternalCheckError, NoStepApplies
from .graphs import iter_bits
from .instances import INCLUSION, instance_digest
from .lpengine import (
    LATTICE,
    ResidualLatticeLp,
    reuse_extreme_point,
    solve_to_extreme_point,
)
from .rational import ONE, ZERO, Rat, render_rat
from .simplex import LpInfeasible


def check_monotonicity_star(lat):
    """None if strictly comparable members have strictly larger images;
    otherwise a witness pair (smaller, larger)."""
    return lat.monotonicity_witness()


def _drop_threshold(instance, i, fmask, variant):
    con = instance.constraints[i]
    if variant == INCLUSION:
        residual = con.upper - (con.elems & fmask).bit_count()
        return residual + instance.delta - 1
    return Rat(2 * instance.delta)


def run_lattice(instance, collect_chain_checks=False):
    """Round to an integral covering set; returns (mask, events, lp opt).

    With collect_chain_checks, every strictly fractional vertex met at a
    bound-drop iteration also runs the tight-chain growth diagnostic and
    the reports are appended to the return tuple.
    """
    witness = check_monotonicity_star(instance.lat)
    if witness is not None:
        raise InstanceError(
            f"lattice violates the image-growth property at members {witness}; "
            "the rounding guarantees do not apply"
        )
    variant = instance.variant
    n = instance.n
    eprime = (1 << n) - 1
    fmask = 0
    alive = set(range(len(instance.constraints)))
    events = [
        {"ev": "begin", "kind": "lattice-trace", "digest": instance_digest(instance)}
    ]
    initial_opt = None
    max_iters = n + len(instance.constraints)
    iters = 0
    chain_reports = []
    point = None

    while eprime or alive:
        iters += 1
        if iters > max_iters:
            raise InternalCheckError(
                "progress invariant broke: more iterations than |E| + |I|"
            )
        budget_before = eprime.bit_count() + len(alive)
        # after a delete or fix the previous vertex, restricted, is optimal
        reuse = events[-1]["ev"] in ("delete", "fix")
        if not eprime:
            point = None
        else:
            state = _residual(instance, eprime, fmask, alive)
            try:
                if reuse:
                    point = reuse_extreme_point(LATTICE, state, point)
                else:
                    point = solve_to_extreme_point(LATTICE, state)
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
                    "reused": reuse,
                }
            )

        acted = False
        if point is not None:
            for e, v in sorted(point.x_by_id.items()):
                if v == ZERO:
                    eprime &= ~(1 << e)
                    events.append({"ev": "delete", "edge": e})
                    acted = True
                    break
            if not acted:
                for e, v in sorted(point.x_by_id.items()):
                    if v == ONE:
                        fmask |= 1 << e
                        eprime &= ~(1 << e)
                        events.append({"ev": "fix", "edge": e})
                        acted = True
                        break
        if not acted:
            for i in sorted(alive):
                support = (instance.constraints[i].elems & eprime).bit_count()
                if Rat(support) <= _drop_threshold(instance, i, fmask, variant):
                    _assert_drop_accounting(instance, i, eprime, fmask, variant)
                    alive.discard(i)
                    events.append({"ev": "drop", "bound": i})
                    acted = True
                    if collect_chain_checks and point is not None and not fmask:
                        chain_reports.append(
                            check_chain_growth(point, instance.lat)
                        )
                    break
        if not acted:
            raise NoStepApplies(
                "no zero element, no one element, and no droppable bound "
                f"(undecided={eprime.bit_count()}, bounds={len(alive)})"
            )
        if eprime.bit_count() + len(alive) != budget_before - 1:
            raise InternalCheckError("|E'| + |W| did not decrease by exactly 1")

    events.append({"ev": "end", "solution": sorted(iter_bits(fmask))})
    opt = initial_opt if initial_opt is not None else ZERO
    if collect_chain_checks:
        return fmask, events, opt, chain_reports
    return fmask, events, opt


def _residual(instance, eprime, fmask, alive):
    rows = tuple(
        (
            i,
            instance.constraints[i].elems,
            instance.constraints[i].lower,
            instance.constraints[i].upper,
        )
        for i in sorted(alive)
    )
    return ResidualLatticeLp(
        instance.lat, instance.costs, eprime, fmask, rows
    )


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


@dataclass(frozen=True)
class LatticeReport:
    ok: bool
    rank_ok: bool
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
    checks.append(("rank-coverage", rank_ok, "exact", "exhaustive"))

    bounds_ok = True
    for i, con in enumerate(instance.constraints):
        got = (solution & con.elems).bit_count()
        hi = con.upper + slack
        ok_here = Rat(got) <= hi
        if con.lower is not None:
            ok_here = ok_here and Rat(got) >= con.lower - slack
        checks.append((f"bound[{i}]", ok_here, render_rat(hi), str(got)))
        if not ok_here:
            bounds_ok = False
            failures.append(f"bound {i}")

    cost = ZERO
    for e in iter_bits(solution):
        cost += instance.costs[e]
    cost_ok = True
    if brute_optimum is not None:
        cost_ok = cost <= brute_optimum
        checks.append(("cost", cost_ok, render_rat(brute_optimum), render_rat(cost)))
        if not cost_ok:
            failures.append("cost")

    return LatticeReport(
        ok=not failures,
        rank_ok=rank_ok,
        bounds_ok=bounds_ok,
        cost_ok=cost_ok,
        checks=tuple(checks),
        failures=tuple(failures),
    )


def bound_feasible_predicate(instance):
    """Feasibility test for the brute-force optimum: all rank constraints
    and all bounds met exactly (no slack)."""
    covers = instance.lat.covers

    def feasible(mask):
        if not covers(mask):
            return False
        for con in instance.constraints:
            got = (mask & con.elems).bit_count()
            if Rat(got) > con.upper:
                return False
            if con.lower is not None and Rat(got) < con.lower:
                return False
        return True

    return feasible


# -- tight-chain diagnostics ----------------------------------------------------


def uncross_tight_members(lat, members, assert_pair):
    """Meet/join uncrossing of lattice members (smallest incomparable
    pair by index first) until the family is a chain in the order."""
    family = sorted(set(members))
    rounds = 0
    while True:
        found = None
        for ai in range(len(family)):
            for bi in range(ai + 1, len(family)):
                a, b = family[ai], family[bi]
                if not lat.comparable(a, b):
                    found = (a, b)
                    break
            if found:
                break
        if not found:
            break
        a, b = found
        meet, join = lat.meet_of(a, b), lat.join_of(a, b)
        assert_pair(a, b, meet, join)
        family.remove(a)
        family.remove(b)
        for new in (meet, join):
            if new not in family:
                family.append(new)
        family.sort()
        rounds += 1
        if rounds > 300 * (len(members) + 2):
            raise InternalCheckError("lattice uncrossing failed to terminate")
    chain = sorted(family, key=lambda j: (lat.rho[j].bit_count(), j))
    for prev, cur in zip(chain, chain[1:]):
        if not lat.leq(prev, cur):
            raise InternalCheckError("uncrossed family is not a chain")
    return chain


def check_chain_growth(point, lat, fmask=0):
    """Uncross the tight rank rows of a strictly fractional vertex into a
    chain and check each member with a nonempty image contributes at
    least two new elements, which caps the chain at |E'| / 2.

    Applies to vertices of the fresh system only (nothing fixed): once
    elements are fixed the residual images can stop growing along the
    order and the counting argument no longer binds.  The meet/join
    image identity chi(S) + chi(T) = chi(meet) + chi(join) is asserted
    at every uncrossing step.
    """
    if fmask:
        raise ValueError("chain growth applies to fresh vertices only")
    x = point.x_by_id
    if any(not (ZERO < v < ONE) for v in x.values()):
        raise ValueError("chain growth needs a strictly fractional vertex")
    eprime = 0
    for e in x:
        eprime |= 1 << e

    def residual_tight(j):
        lhs = ZERO
        for e in iter_bits(lat.rho[j] & eprime):
            lhs += x[e]
        rhs = lat.rank[j] - (lat.rho[j] & fmask).bit_count()
        return lhs == Rat(rhs)

    tight = [w for tag, w in point.tight_constraint_tags() if tag == "rank"]
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

    chain = uncross_tight_members(lat, tight, assert_pair)
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
