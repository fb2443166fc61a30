"""Integer-row vertex checks against the references they replaced, and
their accounting.

simplex.row_status and simplex.certificate_rows check every solved and
every reused vertex on the integer rows of its LP.  Every solve and
every reuse of the benchmark's mcst-corpus (seeds 0 and 7919), its
covering-corpus (seed 0, whose lattices reuse vertices) and of
Hypothesis-drawn graphs with n <= 8 is checked here against the
references in tests/dense_rows.py: the dense row_status and certificate
the simplex path used, and the MaskLp status and certificate the reuse
path used.  Each must give the same tight rows, and on the true claim of
tight rows, on claims with a tight row dropped and on claims with a
loose row or bound added, the same rank or the same error message.
Each reuse is also repeated with the dense reuse reference
(tests/dense_reuse.py), which must return the same values, tight rows,
row tags and objective.  The last test checks that reuse runs no
simplex and certifies every reused vertex.
"""

import importlib.util
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reuse
import dense_rows
import fraction_simplex
from conftest import _after, counted_core, values_by_id
from dense_rows import dense_lp, dense_solution, mask_lp
from crossopt import lpengine, relax, simplex
from crossopt.errors import InternalCheckError
from crossopt.instances import (
    GENERAL,
    INCLUSION,
    IntersectionInstance,
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
from crossopt.simplex import row_status, verify_vertex_certificate

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
# simplex solves and reused vertices in one pass of the benchmark's
# mcst-corpus at seed 0
MCST_CORPUS_SOLVES = 280
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


def certificate_outcome(verify, lp, solution):
    try:
        return verify(lp, solution)
    except InternalCheckError as exc:
        return str(exc)


def claims(point, rng, count):
    """The true tight rows of point, up to count claims with one of them
    dropped, and up to count with a loose row or bound added."""
    tight = point.tight_rows
    loose = [
        i for i in range(len(point.lp.rows) + 2 * len(point.var_ids)) if i not in tight
    ]
    dropped = rng.sample(range(len(tight)), min(count, len(tight)))
    added = rng.sample(loose, min(count, len(loose)))
    return (
        [tight]
        + [tight[:k] + tight[k + 1:] for k in dropped]
        + [tight + (i,) for i in added]
    )


def assert_same_checks(point, rng):
    """The integer checks of a solved or reused vertex give the tight
    rows, ranks and errors of the dense and the mask references."""
    lp = point.lp
    dense, mask = dense_lp(lp), mask_lp(lp)
    unclaimed = replace(point, tight_rows=())
    assert row_status(lp, unclaimed) == point.tight_rows
    assert mask.status(unclaimed) == point.tight_rows
    assert dense_rows.row_status(dense, point.values) == (True, point.tight_rows)
    for claim in claims(point, rng, 2):
        claimed = replace(point, tight_rows=claim)
        outcome = certificate_outcome(verify_vertex_certificate, lp, claimed)
        verify = dense_rows.verify_vertex_certificate
        assert outcome == certificate_outcome(verify, mask, claimed)
        assert outcome == certificate_outcome(verify, dense, dense_solution(claimed))


@contextmanager
def compared_reuse():
    """Every simplex solve and every reuse call of the runs is checked by
    assert_same_checks, and every reuse also runs the dense reference,
    whose result must match.  Yields the lists of solved vertices
    ("solve") and of (state, prev, face) reuse calls ("reuse")."""
    calls = {"solve": [], "reuse": []}
    rng = random.Random(0)

    def solved(point, lp):
        assert_same_checks(point, rng)
        calls["solve"].append(point)

    def reused(point, state, prev, face):
        ref = dense_reuse.reuse_extreme_point(state, prev)
        assert point.values == ref.solution.values
        assert values_by_id(point) == ref.x_by_id
        assert point.tight_rows == ref.solution.tight_rows
        assert tuple(row.tag for row in point.lp.rows) == ref.row_tags
        assert point.objective == ref.solution.objective_value
        assert point.var_ids == ref.var_ids
        assert all(
            Rat(x, point.den) == v for x, v in zip(point.scaled, point.values)
        )
        assert_same_checks(point, rng)
        calls["reuse"].append((state, prev, face))

    with pytest.MonkeyPatch.context() as patch:
        _after(patch, lpengine, "simplex_solve", solved)
        _after(patch, relax, "reuse_extreme_point", reused)
        yield calls


@pytest.mark.parametrize("seed", [0, 7919])
def test_mcst_corpus_reuse_matches_dense(seed, tmp_path):
    with compared_reuse() as calls:
        for instance in benchmark_instances("mcst-corpus", seed, tmp_path):
            solve(instance)
    if seed == 0:
        assert len(calls["solve"]) == MCST_CORPUS_SOLVES
        assert len(calls["reuse"]) == MCST_CORPUS_REUSED
    assert calls["solve"] and calls["reuse"]


def test_covering_corpus_reuse_matches_dense(tmp_path):
    # reuse calls by the kind of run that made them: lattice runs reuse
    # vertices, intersection runs never do
    reused = Counter()
    with compared_reuse() as calls:
        for instance in benchmark_instances("covering-corpus", 0, tmp_path):
            before = len(calls["reuse"])
            solve(instance)
            reused[type(instance)] += len(calls["reuse"]) - before
    assert reused[LatticeInstance] > 0
    assert IntersectionInstance in reused and reused[IntersectionInstance] == 0
    assert calls["solve"]


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


@pytest.fixture(scope="module")
def reuse_calls():
    """(residual, prev, face, reused point) of every reuse in
    small_corpora()."""
    calls = []
    reused = Counter()

    def recorded(point, state, prev, face):
        calls.append((state, prev, face, point))

    with pytest.MonkeyPatch.context() as patch:
        _after(patch, relax, "reuse_extreme_point", recorded)
        for instance in small_corpora():
            before = len(calls)
            solve(instance)
            reused[type(instance)] += len(calls) - before
    # both kinds of run that reuse vertices are in the sample
    assert reused[McstInstance] > 0 and reused[LatticeInstance] > 0
    return calls


def test_mask_certificate_matches_fraction_reference(reuse_calls):
    # the true tight rows, some dropped, and rows or bounds that are not
    # tight claimed as tight: the integer certificate must give the rank
    # or the error the Fraction certificate gives on the dense rows
    rng = random.Random(0)
    for *_, point in reuse_calls:
        lp = dense_lp(point.lp)
        for claim in claims(point, rng, 4):
            claimed = replace(point, tight_rows=claim)
            assert certificate_outcome(
                verify_vertex_certificate, point.lp, claimed
            ) == certificate_outcome(
                fraction_simplex.verify_vertex_certificate,
                lp,
                dense_solution(claimed),
            )


def test_reuse_builds_no_dense_lp(reuse_calls, monkeypatch):
    # reuse re-checks the previous vertex and never runs the simplex
    calls = [call[:3] for call in reuse_calls]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built during reuse")

    monkeypatch.setattr(simplex._Tableau, "__init__", refuse)
    with counted_core() as counts:
        for call in calls:
            lpengine.reuse_extreme_point(*call)
    assert counts["certificates"] == len(calls)
    # the patch does stop the simplex
    with pytest.raises(AssertionError, match="built during reuse"):
        lpengine.solve_to_extreme_point(calls[0][0])
