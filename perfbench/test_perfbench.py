"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from crossopt import randgen
from crossopt.instances import GENERAL, INCLUSION

SMALL = {
    "mcst-corpus": lambda seed, i, o: workloads.WORKLOADS["mcst-corpus"].build(seed, i, o, per_size=1),
    "covering-corpus": lambda seed, i, o: workloads.WORKLOADS["covering-corpus"].build(
        seed, i, o, per_size=1, lattice_per_size={INCLUSION: 1, GENERAL: 1}
    ),
    # mcst-gap e=4 and planar-gap k=2 reach every gap-certify boundary
    # (once each; the pass repeats them)
    "gap-certify": lambda seed, i, o: list(
        {
            op.argv: op
            for op in workloads.WORKLOADS["gap-certify"].build(seed, i, o)
            if op.argv[1:4] in (("mcst-gap", "--e", "4"), ("planar-gap", "--k", "2"))
        }.values()
    ),
}


def traced_pass(name, seed, work_dir):
    """Set up and run one untraced and one traced pass of a small
    version of the workload; returns (metrics, tracer, digests)."""
    in_dir = os.path.join(work_dir, "in")
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        ops = SMALL[name](seed, in_dir, out_dir)
    untraced = run.timed_phase(ops, 0, True, max_passes=1)
    with tracing.patched(tracer):
        traced = run.timed_phase(ops, 0, True, tracer=tracer, max_passes=1)
    assert set(untraced.codes) == set(traced.codes) == {0}
    metrics = run.layer_metrics(tracer, traced, untraced, [(1.0, 1.0)], ops)
    return metrics, tracer, untraced.digests + traced.digests


def test_wrappers_replace_every_by_name_import():
    originals = {
        ("crossopt.mcst", "solve_to_extreme_point"): sys.modules["crossopt.mcst"].solve_to_extreme_point,
        ("crossopt.cli", "run_lattice"): sys.modules["crossopt.cli"].run_lattice,
        ("crossopt.instances", "matroid_to_lattice"): sys.modules["crossopt.instances"].matroid_to_lattice,
        ("crossopt.generators", "min_max_violation_over_trees"): sys.modules[
            "crossopt.generators"
        ].min_max_violation_over_trees,
        ("crossopt.lpengine", "simplex_solve"): sys.modules["crossopt.lpengine"].simplex_solve,
        ("crossopt.randgen", "brute_subset_opt"): sys.modules["crossopt.randgen"].brute_subset_opt,
    }
    with tracing.patched(tracing.Tracer()) as replaced:
        for (module, attr), original in originals.items():
            assert (module, attr) in replaced
            assert getattr(sys.modules[module], attr).__wrapped__ is original
        # every boundary's defining module is patched too
        for b in tracing.BOUNDARIES:
            assert (b.module, b.attr) in replaced
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_boundaries_fire_and_counts_repeat(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first, tracer, digests = traced_pass(name, 3, str(tmp_path / "a"))
    fired = {rec[0] for rec in tracer.spans}
    for span in workload.boundaries + workload.setup_boundaries:
        assert span in fired, f"{span} did not fire on {name}"
    assert len(set(digests)) == 1, "tracing changed a report"
    second, _, _ = traced_pass(name, 3, str(tmp_path / "b"))
    assert set(first) == set(second)
    for metric, (value, unit) in first.items():
        if unit in ("count", "ratio"):
            assert second[metric][0] == value, metric


def test_stratified_keeps_quota_and_interleaves():
    sizes = iter([3, 1, 1, 2, 9, 3, 2, 1, 3])

    def draw(i):
        size = next(sizes)
        return size, (i, size)

    picked = workloads.stratified(draw, {1: 2, 2: 2, 3: 1})
    assert [size for _, size in picked] == [1, 2, 3, 1, 2]
    assert [i for i, _ in picked] == [1, 3, 0, 2, 6]


def test_acceptance_mcst_corpus_reusable_solves(tmp_path):
    """1885 of the 2100 LP solves on the acceptance suite's MCST corpus
    return the previous vertex restricted to the remaining edges."""
    os.makedirs(tmp_path / "in")
    os.makedirs(tmp_path / "out")
    corpus = randgen.mcst_corpus(randgen.CorpusConfig())
    ops = workloads.mcst_ops(corpus, str(tmp_path / "in"), str(tmp_path / "out"))
    assert set(run.timed_phase(ops, 0, True, max_passes=1).codes) == {0}
    counts = run.mcst_trace_counts(ops)
    assert (counts["reusable"], counts["solve"]) == (1885, 2100)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap-certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
