import random

import pytest

from conftest import run_with_chain_reports
from crossopt.generators import gen_edge_cover_tight
from crossopt.instances import IntersectionInstance
from crossopt.intersection import (
    IntersectionState,
    check_chain_token_bound,
    run_intersection,
    verify_intersection,
)
from crossopt.lpengine import solve_to_extreme_point
from crossopt.oracles import ContraPolymatroidPair, CrossingConstraint, uncross
from crossopt.randgen import random_intersection_instance
from crossopt.rational import Rat
from crossopt.relax import RunTrace
from crossopt.simplex import Vertex
from optimal_face import coordinate_ranges


def first_point(inst):
    state = IntersectionState(inst).residual()
    return state, solve_to_extreme_point(state)


def test_huge_bounds_drop_immediately():
    pair = gen_edge_cover_tight(1).pair
    cons = (CrossingConstraint(0b1111, None, Rat(4)),)
    inst = IntersectionInstance(pair, (Rat(1),) * 4, cons)
    sol, events, opt = run_intersection(inst)
    first_round = [ev["ev"] for ev in events if ev["ev"] in ("fix", "delete", "drop")]
    assert "drop" in first_round
    drop_event = next(ev for ev in events if ev["ev"] == "drop")
    assert drop_event["bound"] == 0
    assert verify_intersection(inst, sol, opt).ok


def test_zero_requirements_give_empty_solution():
    pair = ContraPolymatroidPair(3, (0,) * 8, (0,) * 8)
    inst = IntersectionInstance(pair, (Rat(1), Rat(2), Rat(3)), ())
    sol, events, opt = run_intersection(inst)
    assert sol == 0 and opt == 0
    assert verify_intersection(inst, sol, opt).ok


def test_tight_example_pipeline(edge_cover_4cycle):
    inst = edge_cover_4cycle
    state, point = first_point(inst)
    assert all(v == Rat(1, 2) for v in point.values)
    # unique optimum: every coordinate pinned
    ranges = coordinate_ranges(state, point.objective, inst.costs)
    assert all(lo == hi == Rat(1, 2) for lo, hi in ranges)

    sol, events, opt = run_intersection(inst)
    assert sol == 0b1111 and opt == 2
    report = verify_intersection(inst, sol, opt)
    assert report.ok
    for con in inst.constraints:
        assert (sol & con.elems).bit_count() == 2 * con.upper + inst.delta - 1


def test_longer_cycles_tight(edge_cover_4cycle):
    for n in (2, 3):
        inst = gen_edge_cover_tight(n)
        sol, events, opt = run_intersection(inst)
        assert opt == 2 * n
        assert sol == (1 << (4 * n)) - 1
        assert verify_intersection(inst, sol, opt).ok


def test_random_batch_exhaustive():
    rng = random.Random(31)
    for _ in range(12):
        inst = random_intersection_instance(rng, max_elems=8)
        sol, events, opt = run_intersection(inst)
        report = verify_intersection(inst, sol, opt)
        assert report.ok, report.failures


def test_verify_catches_bad_solution(edge_cover_4cycle):
    report = verify_intersection(edge_cover_4cycle, 0b0001, Rat(2))
    assert not report.ok and not report.checks[0]["pass"]


def test_chain_token_bound_on_tight_example(edge_cover_4cycle):
    _, point = first_point(edge_cover_4cycle)
    for which in (1, 2):
        rep = check_chain_token_bound(point, edge_cover_4cycle.pair, which)
        assert Rat(len(rep["chain"])) <= rep["x_total"]


def test_chain_token_bound_integral_vertex():
    # modular requirement |S| forces the all-ones point
    n = 3
    table = tuple(s.bit_count() for s in range(1 << n))
    pair = ContraPolymatroidPair(n, table, table)
    inst = IntersectionInstance(pair, (Rat(1),) * n, ())
    _, point = first_point(inst)
    assert all(v == Rat(1) for v in point.values)
    rep = check_chain_token_bound(point, pair, 1)
    assert Rat(len(rep["chain"])) <= rep["x_total"] == Rat(n)


def test_chain_token_bound_requires_positive_values(edge_cover_4cycle):
    _, point = first_point(edge_cover_4cycle)
    from dataclasses import replace

    zero_first = replace(point, scaled=(0,) + point.scaled[1:])
    assert zero_first.zeros == 0b1
    with pytest.raises(ValueError):
        check_chain_token_bound(zero_first, edge_cover_4cycle.pair, 1)


def test_rounding_compares_halves_in_integers():
    # x_e >= 1/2 is 2 X_e >= D: 1/2 rounds, 1/2 - 10^-9 does not
    pair = ContraPolymatroidPair(3, (0,) * 8, (0,) * 8)
    state = IntersectionState(IntersectionInstance(pair, (Rat(1),) * 3, ()))
    below = Rat(1, 2) - Rat(1, 10**9)
    point = Vertex.of_values({0: Rat(0), 1: Rat(1, 2), 2: below})
    trace = RunTrace()
    state.step(point, Rat(0), trace)
    assert trace.events == [{"ev": "delete", "edge": 0}, {"ev": "fix", "edge": 1}]
    assert state.fmask == 0b010 and state.eprime == 0b100


def test_uncross_to_chain_tightness_hook():
    calls = []

    def watcher(a, b, meet, join):
        calls.append((a, b, meet, join))

    chain = uncross(
        [0b011, 0b110],
        lambda a, b: a & b in (a, b),
        lambda a, b: a & b,
        lambda a, b: a | b,
        watcher,
    )
    assert chain == [0b010, 0b111]
    assert calls == [(0b011, 0b110, 0b010, 0b111)]


def test_chain_checks_during_run(edge_cover_4cycle):
    sol, events, opt, chains = run_with_chain_reports(
        IntersectionState(edge_cover_4cycle)
    )
    assert chains, "the half-integral vertex should trigger the diagnostic"
