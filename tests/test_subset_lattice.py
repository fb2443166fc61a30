"""The implicit subset lattice against the table-built one
(tests/table_lattice.py).

A matroid instance's lattice is now a SubsetLattice: order, meet and
join are bit operations, and feasibility is one rank lookup.
The explicit LatticeOracle that matroid_to_lattice used to build must
accept the same matroid, agree with it member by member and pair by
pair, and give identical runs, brute-force optima and reports on every
matroid instance of the acceptance corpus and of covering-corpus (seeds
0 and 7919), and on random matroids with up to 8 elements.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table_lattice
from conftest import run_with_chain_reports
from test_lattice import fractional_block_instance
from crossopt.brute import brute_subset_opt
from crossopt.cli import main
from crossopt.instances import (
    GENERAL,
    INCLUSION,
    LatticeInstance,
    dump_instance,
    from_matroid,
    instance_digest,
    load_instance,
)
from crossopt.lattice import (
    LatticeState,
    bound_feasible_predicate,
    run_lattice,
    verify_lattice,
)
from crossopt.oracles import (
    CrossingConstraint,
    MatroidOracle,
    SubsetLattice,
    matroid_to_lattice,
    uncross,
)
from crossopt.randgen import (
    random_basis,
    random_constraint_sets,
    random_lattice_instance,
    random_matroid,
)
from crossopt.rational import Rat

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def acceptance_lattices():
    """The lattice instances of test_acceptance.py's criterion 5, in its
    order: 100 general, then 60 inclusion instances from seed 505."""
    rng = random.Random(505)
    for _ in range(100):
        yield random_lattice_instance(rng, max_ground=8, max_delta=2)
    for i in range(60):
        max_delta = 1 if i % 2 == 0 else 2
        yield random_lattice_instance(
            rng, max_ground=8, max_delta=max_delta, variant=INCLUSION
        )


def covering_corpus_lattices(seed, work_dir):
    """The lattice instances of the benchmark's covering-corpus at seed,
    decoded from the files its set-up writes (the intersection half is
    left out: per_size=0)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    work_dir.mkdir()
    ops = workloads.WORKLOADS["covering-corpus"].build(
        seed, str(work_dir), str(work_dir), per_size=0
    )
    assert ops and all(op.argv[0] == "solve-lattice" for op in ops)
    return [load_instance(op.argv[op.argv.index("--in") + 1]) for op in ops]


def table_twin_run(explicit, inst):
    """The run of the table-built twin of inst.  Its begin event names
    the digest of its own tables; that digest is checked and swapped
    for inst's, the one field in which the two runs may differ."""
    fmask, events, lp, chains = run_with_chain_reports(LatticeState(explicit))
    begin = events[0]
    assert begin["instance_digest"] == instance_digest(explicit)
    events = [{**begin, "instance_digest": instance_digest(inst)}, *events[1:]]
    return fmask, events, lp, chains


def assert_same_as_tables(inst):
    """The instance's SubsetLattice against the explicit LatticeOracle of
    the same matroid: members, answers, runs, optima and reports."""
    sub = inst.lat
    assert type(sub) is SubsetLattice
    tab = table_lattice.matroid_to_lattice(sub.matroid)  # validates every axiom
    assert tuple(sub.rho) == tab.rho and sub.rank == tab.rank
    assert (sub.size, sub.ground_n) == (tab.size, tab.ground_n)
    assert sub.monotonicity_witness() is None and tab.monotonicity_witness() is None
    assert sub.inclusion_witness() is None and tab.inclusion_witness() is None
    explicit = LatticeInstance(tab, inst.costs, inst.constraints, inst.variant)
    for variant in (GENERAL, INCLUSION):
        if variant == INCLUSION and any(c.lower is not None for c in inst.constraints):
            continue
        LatticeInstance(sub, inst.costs, inst.constraints, variant)
        LatticeInstance(tab, inst.costs, inst.constraints, variant)

    masks = range(1 << inst.n)
    new = bound_feasible_predicate(inst)
    old = table_lattice.bound_feasible_predicate(explicit)
    assert [new(s) for s in masks] == [old(s) for s in masks]
    assert [sub.covers(s) for s in masks] == [tab.covers(s) for s in masks]

    got = run_with_chain_reports(LatticeState(inst))
    assert got == table_twin_run(explicit, inst)
    sol = got[0]
    brute_new = brute_subset_opt(inst.n, new, inst.costs)
    brute_old = brute_subset_opt(inst.n, old, inst.costs)
    assert brute_new == brute_old
    report_new = verify_lattice(inst, sol, brute_new[1])
    report_old = verify_lattice(explicit, sol, brute_old[1])
    assert report_new == report_old
    assert json.dumps(report_new.to_json()) == json.dumps(report_old.to_json())


def test_acceptance_corpus_matches_tables():
    for inst in acceptance_lattices():
        assert_same_as_tables(inst)


@pytest.mark.parametrize("seed", [0, 7919])
def test_covering_corpus_matches_tables(seed, tmp_path):
    instances = covering_corpus_lattices(seed, tmp_path / "corpus")
    assert len(instances) == 105
    for inst in instances:
        assert_same_as_tables(inst)


@st.composite
def matroid_instances(draw):
    """A random matroid of 1..8 elements (uniform, graphic, linear or
    partition) with bounds around a random basis, in either variant."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 8))
    variant = draw(st.sampled_from([GENERAL, INCLUSION]))
    matroid = random_matroid(rng, n)
    basis = random_basis(rng, matroid)
    cons = []
    for m in random_constraint_sets(rng, n, 2, rng.randint(1, 3)):
        load = (basis & m).bit_count()
        lower = None if variant == INCLUSION else Rat(max(0, load - rng.randint(0, 1)))
        cons.append(CrossingConstraint(m, lower, Rat(load + rng.randint(0, 1))))
    costs = [rng.randint(0, 10) for _ in range(n)]
    return from_matroid(matroid, costs, tuple(cons), variant)


@settings(max_examples=60, deadline=None)
@given(matroid_instances())
def test_random_matroids_match_tables(inst):
    assert_same_as_tables(inst)


@pytest.mark.parametrize("n", range(9))
def test_order_meet_join_match_tables_for_all_pairs(n):
    # order, meet and join depend on the ground size alone
    matroid = MatroidOracle(n, tuple(min(s.bit_count(), 2) for s in range(1 << n)))
    sub, tab = matroid_to_lattice(matroid), table_lattice.matroid_to_lattice(matroid)
    members = range(1 << n)
    for a in members:
        assert [sub.leq(a, b) for b in members] == [tab.leq(a, b) for b in members]
        assert [sub.comparable(a, b) for b in members] == [
            tab.comparable(a, b) for b in members
        ]
        assert [sub.meet_of(a, b) for b in members] == tab.meet[a]
        assert [sub.join_of(a, b) for b in members] == tab.join[a]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
))
def test_uncrossing_matches_tables(case):
    n, family = case
    matroid = MatroidOracle(n, tuple(min(s.bit_count(), 3) for s in range(1 << n)))
    outcomes = []
    for lat in (matroid_to_lattice(matroid), table_lattice.matroid_to_lattice(matroid)):
        steps = []
        chain = uncross(
            family, lat.comparable, lat.meet_of, lat.join_of,
            lambda *pair: steps.append(pair),
        )
        order = sorted(chain, key=lambda j: (lat.rho[j].bit_count(), j))
        assert all(lat.leq(a, b) for a, b in zip(order, order[1:]))
        outcomes.append((chain, steps))
    assert outcomes[0] == outcomes[1]


def test_chain_growth_matches_tables():
    inst = fractional_block_instance()
    explicit = LatticeInstance(
        table_lattice.matroid_to_lattice(inst.lat.matroid),
        inst.costs,
        inst.constraints,
        inst.variant,
    )
    got = run_with_chain_reports(LatticeState(inst))
    assert got[3] and got == table_twin_run(explicit, inst)


@pytest.mark.parametrize("seed", [3, 10, 41])
def test_direct_construction_matches_from_matroid(seed):
    # a SubsetLattice built by hand, not through from_matroid, is still
    # written as its matroid's rank table and runs the same rounding
    inst = random_lattice_instance(random.Random(seed))
    m = inst.lat.matroid
    for cons in ((), inst.constraints):
        made = from_matroid(m, inst.costs, cons, inst.variant)
        direct = LatticeInstance(matroid_to_lattice(m), inst.costs, cons, inst.variant)
        assert direct.to_json() == made.to_json()
        assert direct.to_json()["matroid_rank"] == list(m.rank)
        assert instance_digest(direct) == instance_digest(made)
        assert run_lattice(direct) == run_lattice(made)


def test_matroid_lattice_keeps_no_tables():
    sub = matroid_to_lattice(MatroidOracle(3, (0, 1, 1, 2, 1, 2, 2, 2)))
    assert sub.rho == range(8) and sub.rank == (0, 0, 0, 1, 0, 1, 1, 2)
    assert not hasattr(sub, "meet") and not hasattr(sub, "join")
    # E = {0, 1, 2} has rank 2 and {0, 1} spans it: r({0, 1}) = r(E)
    assert sub.covers(0b011) and not sub.covers(0b100)


# -- larger ground sets ------------------------------------------------------------


@pytest.mark.parametrize("variant, seed", [(GENERAL, 20), (INCLUSION, 42)])
def test_fourteen_element_lattice_solves_and_verifies(variant, seed, tmp_path):
    # 2^14 members: the parent's tables would hold 3 x 2^28 entries
    inst = random_lattice_instance(random.Random(seed), max_ground=14, variant=variant)
    assert inst.n == 14 and len(inst.constraints) == 3
    path, report = tmp_path / "inst.json", tmp_path / "report.json"
    dump_instance(inst, path)
    argv = ["solve-lattice", "--in", str(path), "--verify", "--report", str(report)]
    assert main(argv) == 0
    body = json.loads(report.read_text())
    assert body["outcome"] == "ok" and body["variant"] == variant
    names = [c["name"] for c in body["checks"]]
    assert names[0] == "rank-coverage" and names[-1] == "cost"
    assert all(c["pass"] for c in body["checks"])
