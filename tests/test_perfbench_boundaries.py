"""Every layer boundary the benchmark wraps still exists.

perfbench/tracing.py wraps the functions in its BOUNDARIES list for the
traced run, and a boundary the package no longer has just records no
spans.  This test reads that list (perfbench/ itself is not changed or
run here) so that renaming or removing such a function fails the test
suite instead of silently emptying a benchmark metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BOUNDARIES


BOUNDARIES = boundaries()


def test_boundaries_are_listed():
    assert len(BOUNDARIES) >= 20
    assert len({b.span for b in BOUNDARIES}) == len(BOUNDARIES)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.span)
def test_boundary_exists(boundary):
    module = importlib.import_module(boundary.module)
    assert callable(getattr(module, boundary.attr, None)), (
        f"{boundary.module}.{boundary.attr}, wrapped as {boundary.span}, is gone"
    )


def test_gap_certify_spans_fire_through_module_globals(monkeypatch):
    """gen_mcst_gap reaches the block-tree source and the Kirchhoff
    count through crossopt.brute's module globals, where the benchmark's
    wrappers can sit, once per order, and calls the violation scan by the
    name it imports, once per order.  The whole-graph tree list is not
    built, so the benchmark's brute.tree_enum span, which wraps
    enumerate_spanning_trees, stays empty on this path."""
    from crossopt import brute, generators

    calls = {"blocks": [], "kirchhoff": 0, "scan": 0}
    block_trees = brute.block_spanning_trees
    kirchhoff = brute.kirchhoff_count
    scan = generators.min_max_violation_over_trees

    def counted_blocks(graph, weights=None, limit=brute.TREE_COUNT_GUARD, reverse=False):
        calls["blocks"].append(reverse)
        return block_trees(graph, weights, limit=limit, reverse=reverse)

    def counted_kirchhoff(graph):
        calls["kirchhoff"] += 1
        return kirchhoff(graph)

    def counted_scan(*args, **kwargs):
        calls["scan"] += 1
        return scan(*args, **kwargs)

    monkeypatch.setattr(brute, "block_spanning_trees", counted_blocks)
    monkeypatch.setattr(brute, "kirchhoff_count", counted_kirchhoff)
    monkeypatch.setattr(generators, "min_max_violation_over_trees", counted_scan)
    generators.gen_mcst_gap(4)
    assert calls == {"blocks": [False, True], "kirchhoff": 2, "scan": 2}


def test_run_lattice_events_carry_solve_vertices():
    """The benchmark counts reusable lattice solves from the event dicts
    that run_lattice returns second, reading each solve event's "x"."""
    import random

    from crossopt.lattice import run_lattice
    from crossopt.randgen import random_lattice_instance

    events = run_lattice(random_lattice_instance(random.Random(505)))[1]
    assert isinstance(events, list) and all(isinstance(ev, dict) for ev in events)
    solves = [ev for ev in events if ev["ev"] == "solve"]
    assert solves and all(isinstance(ev["x"], dict) for ev in solves)


@pytest.mark.parametrize(
    "command, name",
    [("solve-intersection", "run_intersection"), ("solve-lattice", "run_lattice")],
)
def test_cli_reaches_covering_runs_through_module_globals(command, name, tmp_path, monkeypatch):
    """cli calls run_intersection and run_lattice by their names in its
    own module, where the benchmark's wrappers sit: a replacement there
    is what runs, and an internal failure in it exits 3."""
    import random

    from crossopt import cli
    from crossopt.errors import InternalCheckError
    from crossopt.instances import dump_instance
    from crossopt.randgen import random_intersection_instance, random_lattice_instance

    make = random_intersection_instance if name == "run_intersection" else random_lattice_instance
    inst = tmp_path / "inst.json"
    dump_instance(make(random.Random(3)), inst)

    def boom(instance):
        raise InternalCheckError("synthetic")

    monkeypatch.setattr(cli, name, boom)
    assert cli.main([command, "--in", str(inst)]) == 3


def test_mcst_classify_and_verify_fire_through_module_globals(tmp_path, monkeypatch):
    """McstState.step calls classify_good through crossopt.mcst's module
    global once per step, and a verified solve calls verify_guarantee
    through the name cli imports once per run: where the benchmark's
    mcst.classify and mcst.verify wrappers sit."""
    import json
    import random

    from crossopt import cli, mcst
    from crossopt.instances import dump_instance
    from crossopt.randgen import MCST_DROP_SEEDS, random_mcst_instance

    calls = {"classify": 0, "verify": 0}
    classify, verify = mcst.classify_good, mcst.verify_guarantee

    def counted_classify(*args):
        calls["classify"] += 1
        return classify(*args)

    def counted_verify(*args):
        calls["verify"] += 1
        return verify(*args)

    monkeypatch.setattr(mcst, "classify_good", counted_classify)
    for module in (mcst, cli):
        monkeypatch.setattr(module, "verify_guarantee", counted_verify)
    steps = 0
    seeds = MCST_DROP_SEEDS[:2] + (3, 4)
    for seed in seeds:
        inst, trace = tmp_path / f"{seed}.json", tmp_path / f"{seed}.jsonl"
        dump_instance(random_mcst_instance(random.Random(seed)), inst)
        report = tmp_path / "report.json"
        argv = ["solve-mcst", "--in", str(inst), "--trace", str(trace), "--verify"]
        assert cli.main(argv + ["--report", str(report)]) == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        steps += sum(1 for ev in events if ev["ev"] == "tighten")
    assert steps > len(seeds)
    assert calls == {"classify": steps, "verify": len(seeds)}
