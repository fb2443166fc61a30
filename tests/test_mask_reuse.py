"""Mask-row vertex reuse against the dense reference, and its accounting.

lpengine.reuse_extreme_point checks a reused vertex on 0/1 mask rows in
integers.  Every reuse call of the benchmark's mcst-corpus (seeds 0 and
7919), its covering-corpus (seed 0, whose lattices reuse vertices) and
of Hypothesis-drawn graphs with n <= 8 is repeated here with the dense
reference (tests/dense_reuse.py), which must return the same values,
tight rows, row tags and objective.  The other tests check, run by run,
that every solved and every reused vertex was certified, and that
reuse builds no dense LinearProgram or Constraint.
"""

import importlib.util
import random
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reuse
import fraction_simplex
from crossopt import lpengine, relax, simplex
from crossopt.errors import InternalCheckError
from crossopt.instances import (
    GENERAL,
    INCLUSION,
    LatticeInstance,
    McstInstance,
    load_instance,
)
from crossopt.intersection import run_intersection
from crossopt.lattice import run_lattice
from crossopt.mcst import run_mcst
from crossopt.rational import Rat
from crossopt.randgen import (
    CorpusConfig,
    mcst_corpus,
    random_lattice_instance,
    random_mcst_instance,
)
from crossopt.simplex import STATS, verify_vertex_certificate

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
# reused vertices in one pass of the benchmark's mcst-corpus at seed 0
MCST_CORPUS_REUSED = 1829


def benchmark_instances(workload, seed, work_dir):
    """The instances one pass of a benchmark workload solves (perfbench/
    itself is only read)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    in_dir, out_dir = work_dir / "in", work_dir / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    ops = workloads.WORKLOADS[workload].build(seed, str(in_dir), str(out_dir))
    return [load_instance(op.argv[op.argv.index("--in") + 1]) for op in ops]


def solve(instance):
    if isinstance(instance, McstInstance):
        run_mcst(instance)
    elif isinstance(instance, LatticeInstance):
        run_lattice(instance)
    else:
        run_intersection(instance)


@contextmanager
def compared_reuse():
    """Every reuse call of the runs also runs the dense reference, whose
    result must match.  Yields the list of (state, prev) calls."""
    calls = []

    def both(state, prev):
        point = lpengine.reuse_extreme_point(state, prev)
        ref = dense_reuse.reuse_extreme_point(state, prev)
        assert point.values == ref.solution.values
        assert point.x_by_id == ref.x_by_id
        assert point.tight_rows == ref.solution.tight_rows
        assert point.row_tags == ref.row_tags
        assert point.objective == ref.solution.objective_value
        assert point.var_ids == ref.var_ids
        assert all(
            Rat(x, point.den) == v for x, v in zip(point.scaled, point.values)
        )
        calls.append((state, prev))
        return point

    with mock.patch.object(relax, "reuse_extreme_point", both):
        yield calls


@pytest.mark.parametrize("seed", [0, 7919])
def test_mcst_corpus_reuse_matches_dense(seed, tmp_path):
    with compared_reuse() as calls:
        for instance in benchmark_instances("mcst-corpus", seed, tmp_path):
            solve(instance)
    if seed == 0:
        assert len(calls) == MCST_CORPUS_REUSED
    assert calls


def test_covering_corpus_reuse_matches_dense(tmp_path):
    with compared_reuse() as calls:
        for instance in benchmark_instances("covering-corpus", 0, tmp_path):
            solve(instance)
    assert {type(state) for state, _ in calls} == {lpengine.ResidualLatticeLp}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_property_mcst_reuse_matches_dense(seed, n):
    with compared_reuse():
        run_mcst(random_mcst_instance(random.Random(seed), n=n))


def small_corpora():
    rng = random.Random(505)
    variants = [INCLUSION, GENERAL, GENERAL] * 4
    lattices = [
        random_lattice_instance(rng, max_ground=7, variant=variant)
        for variant in variants
    ]
    return mcst_corpus(CorpusConfig(count=20)) + lattices


def test_every_vertex_is_certified_run_by_run():
    reused = 0
    for instance in small_corpora():
        before = dict(STATS)
        solve(instance)
        delta = {key: STATS[key] - before[key] for key in STATS}
        assert delta["certificates"] == delta["solves"] + delta["reused"]
        reused += delta["reused"]
    assert reused > 0


@pytest.fixture(scope="module")
def reuse_calls():
    """(state, prev, reused point) of every reuse in small_corpora()."""
    calls = []

    def recorded(state, prev):
        point = lpengine.reuse_extreme_point(state, prev)
        calls.append((state, prev, point))
        return point

    with mock.patch.object(relax, "reuse_extreme_point", recorded):
        for instance in small_corpora():
            solve(instance)
    assert {type(state) for state, _, _ in calls} == {
        lpengine.ResidualMcstLp,
        lpengine.ResidualLatticeLp,
    }
    return calls


def certificate_outcome(verify, lp, solution):
    try:
        return verify(lp, solution)
    except InternalCheckError as exc:
        return str(exc)


def test_mask_certificate_matches_fraction_reference(reuse_calls):
    # the true tight rows, some dropped, and rows or bounds that are not
    # tight claimed as tight: the mask certificate must give the rank or
    # the error the Fraction certificate gives on the dense rows
    rng = random.Random(0)
    for _, _, point in reuse_calls:
        tight = point.tight_rows
        loose = [
            i
            for i in range(len(point.row_tags) + 2 * len(point.var_ids))
            if i not in tight
        ]
        claims = [tight]
        dropped = rng.sample(range(len(tight)), min(3, len(tight)))
        claims += [tight[:k] + tight[k + 1:] for k in dropped]
        claims += [tight + (i,) for i in rng.sample(loose, min(4, len(loose)))]
        lp = dense_reuse.dense_lp(point)
        for claim in claims:
            claimed = replace(point, tight_rows=claim)
            assert certificate_outcome(
                verify_vertex_certificate, point.lp, claimed
            ) == certificate_outcome(
                fraction_simplex.verify_vertex_certificate,
                lp,
                dense_reuse.dense_solution(claimed),
            )


def test_reuse_builds_no_dense_lp(reuse_calls, monkeypatch):
    calls = [(state, prev) for state, prev, _ in reuse_calls]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built during reuse")

    monkeypatch.setattr(simplex.LinearProgram, "__init__", refuse)
    monkeypatch.setattr(simplex.Constraint, "__init__", refuse)
    before = STATS["certificates"]
    for state, prev in calls:
        lpengine.reuse_extreme_point(state, prev)
    assert STATS["certificates"] - before == len(calls)
    # the patch does stop the dense path
    with pytest.raises(AssertionError, match="built during reuse"):
        lpengine.solve_to_extreme_point(calls[0][0])
