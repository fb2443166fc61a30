"""The lattice validation as it was before its pair checks ran in one
pass: the reference for the messages of ``LatticeOracle._validate``.

``crossopt.oracles.LatticeOracle._validate`` now walks the pairs once:
a pair that fails is taken apart in the order of the messages below,
and a meet or join that is a bound but not the best one is named only
after the consecutive property has passed.  The method below is the
earlier ``_validate``, kept verbatim (only the imports and the class
around it are new): commutativity, "meet below both", "join above both" and the
two inequalities in one loop over the pairs, then the consecutive
property, then the bounds in a second loop.  Every lattice must be
accepted by both, or refused by both with the same message.
"""

from functools import reduce
from operator import or_

from crossopt.errors import InstanceError
from crossopt.graphs import iter_bits
from crossopt.oracles import LatticeOracle


class PairwiseLatticeOracle(LatticeOracle):
    """LatticeOracle with the earlier, check-by-check validation."""

    def _validate(self):
        """Check the lattice axioms in a fixed order; the first failure
        raises InstanceError naming the check and its members.  Order
        tests are bit tests on the above/below rows.

        The consecutive property (a <= b <= c puts every element of
        rho[a] & rho[c] in rho[b]) is checked one element e at a time:
        with H the members whose image holds e, it fails exactly when a
        member outside H lies above one member of H and below another.
        Only then are the comparable pairs walked, to name the first
        violating a, b, c and e.  Last, each meet must be the greatest
        lower bound and each join the least upper bound."""
        m = self.size
        rho, rank, above, below = self.rho, self.rank, self.above, self.below
        meet, join = self.meet, self.join
        if any(r < 0 for r in rank):
            raise InstanceError("lattice ranks must be non-negative integers")
        for i in range(m):
            if not (above[i] >> i) & 1:
                raise InstanceError(f"order not reflexive at member {i}")
            twins = above[i] & below[i] & ~(1 << i)
            if twins:
                j = (twins & -twins).bit_length() - 1
                raise InstanceError(f"order not antisymmetric at ({i},{j})")
        for i in range(m):
            acc = above[i]
            for j in iter_bits(acc):
                if above[j] & ~acc:
                    raise InstanceError(f"order not transitive through ({i},{j})")
        for a in range(m):
            meet_a, join_a = meet[a], join[a]
            rho_a, rank_a = rho[a], rank[a]
            for b in range(a, m):
                mt, jn = meet_a[b], join_a[b]
                if mt != meet[b][a] or jn != join[b][a]:
                    raise InstanceError(f"meet/join not commutative at ({a},{b})")
                pair = (1 << a) | (1 << b)
                if above[mt] & pair != pair:
                    raise InstanceError(f"meet not below both at ({a},{b})")
                if below[jn] & pair != pair:
                    raise InstanceError(f"join not above both at ({a},{b})")
                if (rho[mt] | rho[jn]) & ~(rho_a | rho[b]):
                    raise InstanceError(
                        f"image submodularity violated at ({a},{b})"
                    )
                if rank_a + rank[b] > rank[mt] + rank[jn]:
                    raise InstanceError(
                        f"rank supermodularity violated at ({a},{b})"
                    )
        # per element e: the members holding e, and those above or
        # below some member holding e; elements no image holds are
        # left out, so a huge ground_n allocates nothing
        width = reduce(or_, rho, 0).bit_length()
        has_elem, ups, downs = [0] * width, [0] * width, [0] * width
        for i in range(m):
            for e in iter_bits(rho[i]):
                has_elem[e] |= 1 << i
                ups[e] |= above[i]
                downs[e] |= below[i]
        if any(up & down & ~held for up, down, held in zip(ups, downs, has_elem)):
            for a in range(m):
                for c in iter_bits(above[a]):
                    common = rho[a] & rho[c]
                    if not common:
                        continue
                    between = above[a] & below[c]
                    for e in iter_bits(common):
                        bad = between & ~has_elem[e]
                        if bad:
                            b = (bad & -bad).bit_length() - 1
                            raise InstanceError(
                                "consecutive property violated: "
                                f"{a}<={b}<={c}, element {e}"
                            )
        # a meet is a lower bound of both members (checked above), so
        # its down-set lies inside theirs and is greatest exactly when
        # it equals their intersection; dually for joins
        for a in range(m):
            meet_a, join_a = meet[a], join[a]
            below_a, above_a = below[a], above[a]
            for b in range(a, m):
                if below_a & below[b] != below[meet_a[b]]:
                    raise InstanceError(
                        f"meet not greatest lower bound at ({a},{b})"
                    )
                if above_a & above[b] != above[join_a[b]]:
                    raise InstanceError(f"join not least upper bound at ({a},{b})")


