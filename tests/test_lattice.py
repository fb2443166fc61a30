import random

import pytest

from conftest import (
    k4_graphic_matroid,
    run_with_chain_reports,
    triangle_graphic_matroid,
    values_by_id,
)
from crossopt.brute import brute_subset_opt
from crossopt.errors import InstanceError
from crossopt.instances import GENERAL, INCLUSION, from_matroid
from crossopt.lattice import (
    LatticeState,
    bound_feasible_predicate,
    check_chain_growth,
    run_lattice,
    verify_lattice,
)
from crossopt.lpengine import solve_to_extreme_point
from crossopt.oracles import (
    CrossingConstraint,
    LatticeOracle,
    MatroidOracle,
    matroid_to_lattice,
    uncross,
)
from crossopt.randgen import random_lattice_instance
from crossopt.rational import Rat
from crossopt.simplex import Vertex


def brute_opt(inst):
    return brute_subset_opt(inst.n, bound_feasible_predicate(inst), inst.costs)[1]


# -- monotonicity -----------------------------------------------------------------


def test_matroid_lattice_satisfies_monotonicity():
    lat = matroid_to_lattice(triangle_graphic_matroid())
    assert lat.monotonicity_witness() is None


def test_incomparable_same_size_members_pass():
    # diamond: bottom {0} < P {0,1}, Q {0,2} < top {0,1,2}; P,Q same size
    lat = LatticeOracle.from_leq(
        3,
        rho=[0b001, 0b011, 0b101, 0b111],
        rank=[1, 1, 1, 2],
        leq=[[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
        meet=[[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
        join=[[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
    )
    assert lat.monotonicity_witness() is None


def test_comparable_equal_size_images_witnessed():
    lat = LatticeOracle.from_leq(
        2,
        rho=[0b01, 0b10],
        rank=[1, 1],
        leq=[[1, 1], [0, 1]],
        meet=[[0, 0], [0, 1]],
        join=[[0, 1], [1, 1]],
    )
    assert lat.monotonicity_witness() == (0, 1)


def test_planar_gap_lattice_fails_monotonicity_and_is_refused():
    from crossopt.generators import gen_planar_mincut_gap

    inst, _ = gen_planar_mincut_gap(2)
    assert inst.lat.monotonicity_witness() is not None
    with pytest.raises(InstanceError):
        run_lattice(inst)


# -- runs --------------------------------------------------------------------------


def test_free_matroid_takes_everything():
    free = MatroidOracle(2, (0, 1, 1, 2))
    inst = from_matroid(free, [1, 1], ())
    sol, events, opt = run_lattice(inst)
    assert sol == 0b11 and opt == 2


def test_triangle_with_pair_bound():
    inst = from_matroid(
        triangle_graphic_matroid(),
        [1, 1, 1],
        (CrossingConstraint(0b011, None, Rat(1)),),
        GENERAL,
    )
    sol, events, opt = run_lattice(inst)
    assert sol.bit_count() == 2  # a spanning tree of the triangle
    assert (sol & 0b011).bit_count() <= 1 + 2 * inst.delta - 1
    report = verify_lattice(inst, sol, brute_opt(inst))
    assert report.ok


def test_uniform_matroid_lower_bound():
    u24 = MatroidOracle(4, tuple(min(s.bit_count(), 2) for s in range(16)))
    inst = from_matroid(
        u24, [1, 1, 1, 1], (CrossingConstraint(0b0011, Rat(2), Rat(2)),), GENERAL
    )
    sol, events, opt = run_lattice(inst)
    assert (sol & 0b0011).bit_count() >= 2 - (2 * inst.delta - 1)
    report = verify_lattice(inst, sol, brute_opt(inst))
    assert report.ok


def test_no_bounds_reduces_to_rank_coverage():
    inst = from_matroid(k4_graphic_matroid(), [2, 1, 3, 1, 2, 4], ())
    sol, events, opt = run_lattice(inst)
    report = verify_lattice(inst, sol, brute_opt(inst))
    assert report.ok and report.checks[0]["pass"]
    assert inst.lat.rank[(1 << 6) - 1] == sol.bit_count() == 3


def test_inclusion_variant_delta_one_is_exact():
    inst = from_matroid(
        triangle_graphic_matroid(),
        [3, 1, 2],
        (CrossingConstraint(0b011, None, Rat(1)),),
        INCLUSION,
    )
    assert inst.delta == 1
    sol, events, opt = run_lattice(inst)
    assert (sol & 0b011).bit_count() <= 1  # additive slack Delta-1 = 0
    assert verify_lattice(inst, sol, brute_opt(inst)).ok


def test_random_batches_general_and_inclusion():
    rng = random.Random(77)
    for variant in (GENERAL, INCLUSION):
        for _ in range(8):
            inst = random_lattice_instance(rng, max_ground=7, variant=variant)
            sol, events, opt = run_lattice(inst)
            report = verify_lattice(inst, sol, brute_opt(inst))
            assert report.ok, report.failures


def test_verify_catches_bad_solution():
    inst = from_matroid(triangle_graphic_matroid(), [1, 1, 1], ())
    report = verify_lattice(inst, 0b001, None)
    assert not report.ok and not report.checks[0]["pass"]


# -- chain growth diagnostics ---------------------------------------------------------


def fractional_block_instance():
    """Equality bounds around a 5-cycle pin every element to 1/2; the
    partition block {0,5} needs a covering cut, giving a tight rank row
    at a strictly fractional fresh vertex."""

    def rank(s):
        return sum(1 for b in (0b100001, 0b000110, 0b011000) if s & b)

    matroid = MatroidOracle(6, tuple(rank(s) for s in range(64)))
    cyc = tuple(
        CrossingConstraint((1 << i) | (1 << ((i + 1) % 5)), Rat(1), Rat(1))
        for i in range(5)
    )
    return from_matroid(matroid, [Rat(1)] * 6, cyc, GENERAL)


def test_chain_growth_on_forced_fractional_vertex():
    inst = fractional_block_instance()
    point = solve_to_extreme_point(LatticeState(inst).residual())
    assert all(v == Rat(1, 2) for v in point.values)
    rep = check_chain_growth(point, inst.lat)
    assert rep["chain"] == [0b100001]
    assert 2 * len(rep["chain"]) <= rep["undecided"]


def test_chain_growth_collected_during_run():
    inst = fractional_block_instance()
    sol, events, opt, chains = run_with_chain_reports(LatticeState(inst))
    assert chains and chains[0]["chain"] == [0b100001]
    assert verify_lattice(inst, sol, brute_opt(inst)).ok


def test_chain_growth_preconditions():
    # a point with a coordinate at 0 or 1 is not strictly fractional
    inst = fractional_block_instance()
    point = solve_to_extreme_point(LatticeState(inst).residual())
    for value in (Rat(0), Rat(1)):
        moved = Vertex.of_values({**values_by_id(point), 0: value})
        with pytest.raises(ValueError, match="strictly fractional"):
            check_chain_growth(moved, inst.lat)


def test_uncross_tight_members_produces_chain():
    lat = matroid_to_lattice(MatroidOracle(3, (0, 1, 1, 2, 1, 2, 2, 3)))
    seen = []

    def watcher(a, b, meet, join):
        seen.append((a, b))

    chain = uncross([0b011, 0b110], lat.comparable, lat.meet_of, lat.join_of, watcher)
    assert chain == [0b010, 0b111]
    assert seen == [(0b011, 0b110)]
