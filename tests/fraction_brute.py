"""The brute-force lattice optimum as it was before the integer rewrite:
the reference ``crossopt.brute.brute_subset_opt`` and
``crossopt.lattice.bound_feasible_predicate`` are checked against.

Both functions below are the original code, kept verbatim but for the
imports: a ``Fraction`` cost summed over the bits of every feasible
mask, and a ``Fraction`` built for every bound the predicate compares.
The package versions must give the same mask, the same rational cost
and the same verdict on every input.
"""

from crossopt.brute import SUBSET_GUARD
from crossopt.errors import SizeGuardError
from crossopt.graphs import iter_bits
from crossopt.rational import ZERO, Rat


def brute_subset_opt(n, feasible_fn, costs):
    """Exact optimum of min cost(S) over all S in 2^[n] with feasible_fn(S)."""
    if n > SUBSET_GUARD:
        raise SizeGuardError(f"ground set {n} exceeds guard {SUBSET_GUARD}")
    best_cost = None
    best_mask = None
    for mask in range(1 << n):
        if not feasible_fn(mask):
            continue
        cost = ZERO
        for e in iter_bits(mask):
            cost += costs[e]
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_mask = mask
    return best_mask, best_cost


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
