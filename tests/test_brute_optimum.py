"""The integer brute-force lattice optimum against its Fraction reference.

``crossopt.brute.brute_subset_opt`` tabulates integer costs and passes
over masks that cannot beat the incumbent, and
``crossopt.lattice.bound_feasible_predicate`` compares counts with the
bounds' floors and ceilings.  Both must give what ``fraction_brute``
gives: the same verdict on every mask, the same smallest mask at the
minimum, the same ``Fraction`` cost, ``(None, None)`` when no mask is
feasible, and the same guard.
"""

import random
from types import SimpleNamespace

import pytest

import fraction_brute as reference
from crossopt.brute import SUBSET_GUARD, brute_subset_opt
from crossopt.errors import SizeGuardError
from crossopt.lattice import bound_feasible_predicate
from crossopt.oracles import CrossingConstraint
from crossopt.randgen import random_lattice_instance
from crossopt.rational import Rat


def assert_same_optimum(n, feasible, costs):
    got = brute_subset_opt(n, feasible, costs)
    want = reference.brute_subset_opt(n, feasible, costs)
    assert got == want, (got, want)
    assert type(got[1]) is type(want[1])


def random_cost(rng):
    """A few repeated values make ties common; the rest mix denominators."""
    if rng.random() < 0.5:
        return rng.choice([Rat(0), Rat(1), Rat(3, 2), Rat(2)])
    return Rat(rng.randint(0, 40), rng.choice([1, 2, 3, 7, 10**9]))


def with_fractional_bounds(rng, inst):
    """inst's lattice and costs, each bound widened or narrowed by a
    fraction (2 becomes 5/2 above or 3/2 below, say).  LatticeInstance
    takes integer bounds only, so the predicate gets a stand-in holding
    the two fields it reads."""
    constraints = []
    for con in inst.constraints:
        upper = con.upper + Rat(rng.choice([-1, 1]), rng.choice([2, 3]))
        lower = None
        if con.lower is not None:
            lower = min(upper, con.lower + Rat(rng.choice([-1, 1]), rng.choice([2, 3])))
        constraints.append(CrossingConstraint(con.elems, lower, upper))
    return SimpleNamespace(lat=inst.lat, constraints=tuple(constraints))


@pytest.mark.parametrize("seed", range(40))
def test_optimum_and_predicate_match_reference(seed):
    rng = random.Random(seed)
    inst = random_lattice_instance(rng, max_ground=9)
    costs = tuple(random_cost(rng) for _ in range(inst.n))
    for case in (inst, with_fractional_bounds(rng, inst)):
        fast = bound_feasible_predicate(case)
        slow = reference.bound_feasible_predicate(case)
        assert [fast(m) for m in range(1 << inst.n)] == [
            slow(m) for m in range(1 << inst.n)
        ]
        assert_same_optimum(inst.n, fast, costs)


def test_fractional_bounds_meet_floor_and_ceiling():
    # |mask & 0b111| must lie in [3/2, 5/2]: exactly two of the three
    lat = SimpleNamespace(covers=lambda mask: True)
    case = SimpleNamespace(
        lat=lat, constraints=(CrossingConstraint(0b111, Rat(3, 2), Rat(5, 2)),)
    )
    fast = bound_feasible_predicate(case)
    slow = reference.bound_feasible_predicate(case)
    assert [m for m in range(8) if fast(m)] == [0b011, 0b101, 0b110]
    assert [m for m in range(8) if slow(m)] == [0b011, 0b101, 0b110]


def test_ties_keep_the_smallest_mask():
    # every pair of two elements costs 1; the smallest pair is 0b0011
    assert_same_optimum(4, lambda s: s.bit_count() == 2, [Rat(1, 2)] * 4)
    assert brute_subset_opt(4, lambda s: s.bit_count() == 2, [Rat(1, 2)] * 4) == (
        0b0011,
        Rat(1),
    )
    # {0} costs 3/2 and {1, 2} costs 1 + 1/2: equal, and 0b001 is smaller
    costs = [Rat(3, 2), Rat(1), Rat(1, 2)]
    feasible = lambda s: s in (0b001, 0b110)
    assert_same_optimum(3, feasible, costs)
    assert brute_subset_opt(3, feasible, costs) == (0b001, Rat(3, 2))


def test_no_feasible_mask():
    assert_same_optimum(5, lambda s: False, [Rat(1)] * 5)
    assert brute_subset_opt(5, lambda s: False, [Rat(1)] * 5) == (None, None)


def test_empty_ground_set():
    assert_same_optimum(0, lambda s: True, [])
    assert brute_subset_opt(0, lambda s: True, []) == (0, Rat(0))
    assert_same_optimum(0, lambda s: False, [])


def test_guard_at_seventeen():
    n = SUBSET_GUARD + 1
    assert n == 17
    for opt in (brute_subset_opt, reference.brute_subset_opt):
        with pytest.raises(SizeGuardError, match="ground set 17 exceeds guard 16"):
            opt(n, lambda s: True, [Rat(1)] * n)
