"""The covering test of the intersection generator as it was before it
read one requirement list: the reference for ``crossopt.randgen._covers``.

``random_intersection_instance`` picks its witness cover with
``brute_subset_opt`` over every mask, and used to ask the pair for
max(r1(S), r2(S)) afresh for every subset S of every mask.  The function
below is that ``_covers``, kept verbatim.
"""


def _covers(pair, mask):
    for s in range(1, 1 << pair.n):
        if (mask & s).bit_count() < pair.requirement(s):
            return False
    return True
