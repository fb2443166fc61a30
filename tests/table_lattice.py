"""The table-built matroid lattice: the reference for SubsetLattice.

``crossopt.oracles.matroid_to_lattice`` used to build the subset
lattice of a matroid as an explicit ``LatticeOracle``: 2^n x 2^n leq,
meet and join tables, validated axiom by axiom.  It now returns the
implicit ``SubsetLattice``.  The table-built version and the brute-force
feasibility predicate that scanned every member are kept below
verbatim (only the imports are new, and the constructor is now
``LatticeOracle.from_leq``, which takes the same leq table), so the
implicit lattice can be checked against them member by member and pair
by pair.
"""

from crossopt.errors import InstanceError
from crossopt.oracles import MAX_GROUND, LatticeOracle
from crossopt.rational import Rat


# -- crossopt.oracles ----------------------------------------------------------


def matroid_to_lattice(matroid):
    """Subset lattice of a matroid ground set: order by inclusion, meet
    and join are intersection and union, the image map is the identity,
    and the rank of S is rank(E) - rank(E without S)."""
    n = matroid.n
    if n > MAX_GROUND:
        raise InstanceError(f"ground set {n} exceeds {MAX_GROUND}")
    full = (1 << n) - 1
    members = range(1 << n)
    rank = [matroid.full_rank - matroid.rank_of(full & ~s) for s in members]
    return LatticeOracle.from_leq(
        n,
        rho=members,
        rank=rank,
        leq=[[a & b == a for b in members] for a in members],
        meet=[[a & b for b in members] for a in members],
        join=[[a | b for b in members] for a in members],
    )


# -- crossopt.lattice ----------------------------------------------------------


def bound_feasible_predicate(instance):
    """Feasibility test for the brute-force optimum: all rank constraints
    and all bounds met exactly (no slack)."""
    lat = instance.lat

    def feasible(mask):
        for j in range(lat.size):
            if (mask & lat.rho[j]).bit_count() < lat.rank[j]:
                return False
        for con in instance.constraints:
            got = (mask & con.elems).bit_count()
            if Rat(got) > con.upper:
                return False
            if con.lower is not None and Rat(got) < con.lower:
                return False
        return True

    return feasible
