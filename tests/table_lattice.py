"""The table-built lattices: the references for SubsetLattice and
PathLattice.

``crossopt.oracles.matroid_to_lattice`` used to build the subset
lattice of a matroid as an explicit ``LatticeOracle``: 2^n x 2^n leq,
meet and join tables, validated axiom by axiom.  It now returns the
implicit ``SubsetLattice``.  The table-built version and the brute-force
feasibility predicate that scanned every member are kept below
verbatim (only the imports are new, and the constructor is now
``LatticeOracle.from_leq``, which takes the same leq table), so the
implicit lattice can be checked against them member by member and pair
by pair.

The planar-gap generator used to build and write the above, meet and
join tables of its path lattice (``_path_lattice_tables``, with
``_layer_rows``); it now writes the implicit product-of-chains body of
``PathLattice``.  The table builder is kept below verbatim, and
``path_lattice`` turns its tables into a fully validated
``LatticeOracle``, whose file body is the one the generator wrote
before.
"""

from functools import reduce
from itertools import chain
from operator import and_

from crossopt.errors import InstanceError
from crossopt.graphs import mask_of
from crossopt.oracles import (
    MAX_GROUND,
    LatticeOracle,
    _path_edge_mask,
    _planar_paths,
)
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


# -- crossopt.generators -------------------------------------------------------


def _layer_rows(k, weights, pick):
    """{digits over these layers: [sum of pick(digit, j) * weight, for
    every choice of the j over these layers, in index order]}."""
    rows = {(): [0]}
    for w in weights:
        rows = {
            digits + (d,): [x + pick(d, j) * w for x in row for j in range(k)]
            for digits, row in rows.items()
            for d in range(k)
        }
    return rows


def _path_lattice_tables(k, choices):
    """above, meet and join tables of the paths under the componentwise
    order of their channel choices.

    Path b's index is the mixed-radix number of its digits (j_1..j_k).
    In a layer of index weight w, the paths whose digit is at least d
    are the bits d*w..k*w-1 of every period of k*w bits, so above[a]
    is the AND over the layers of those masks at a's digits.  Meet and
    join are sums over the layers of min/max(a's digit, b's digit)
    times the layer's weight, so with the first k//2 layers as the head
    and the rest as the tail, row a is, for each head partial sum h of
    a's head digits in index order, the block [h + t for t in a's tail
    row]; the blocks are built once for each tail row and head sum."""
    weights = [k ** (k - 1 - layer) for layer in range(k)]
    digits = range(k)
    at_least = []  # at_least[layer][d]: the paths whose digit there is >= d
    for w in weights:
        starts = mask_of(range(0, k**k, k * w))  # the first bit of each period
        at_least.append([((1 << k * w) - (1 << d * w)) * starts for d in digits])
    above = [
        reduce(and_, (masks[d] for masks, d in zip(at_least, choice)))
        for choice in choices
    ]
    split = k // 2
    tables = []
    for pick in (min, max):
        heads = _layer_rows(k, weights[:split], pick)
        sums = set().union(*heads.values())
        # blocks[tail digits][h]: that tail row with h added to each entry
        blocks = {
            tail: {h: [h + t for t in row] for h in sums}
            for tail, row in _layer_rows(k, weights[split:], pick).items()
        }
        tables.append(
            [
                list(chain.from_iterable(map(blocks[tail].__getitem__, heads[head])))
                for head, tail in ((c[:split], c[split:]) for c in choices)
            ]
        )
    meet, join = tables
    return above, meet, join


def path_lattice(k):
    """The planar-gap path lattice of k chains as a LatticeOracle of the
    reference tables, validated in full (raises on a failed axiom)."""
    choices = _planar_paths(k)
    rho = [_path_edge_mask(k, c) for c in choices]
    above, meet, join = _path_lattice_tables(k, choices)
    return LatticeOracle(2 * k * k, rho, [1] * len(choices), above, meet, join)
