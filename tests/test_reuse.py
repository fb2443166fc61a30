"""Vertex reuse after fix and delete steps against cold re-solving.

After a fix or delete step run_mcst and run_lattice take the previous
vertex less the variable on the face the step names
(lpengine.reuse_extreme_point, called by the relax loop) instead of
running the cutting-plane loop.  These tests swap that call
for a cold solve_to_extreme_point and compare, and check that a
tampered previous point is refused.
"""

import random
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossopt import lpengine, relax
from crossopt.errors import InternalCheckError
from crossopt.instances import GENERAL, INCLUSION
from crossopt.lattice import run_lattice
from crossopt.mcst import run_mcst
from crossopt.rational import Rat
from crossopt.randgen import (
    CorpusConfig,
    mcst_corpus,
    random_lattice_instance,
    random_mcst_instance,
)
from crossopt.simplex import scale_values, verify_vertex_certificate
from conftest import _after, values_by_id
from dense_rows import dense_lp, rank_of_rows
from optimal_face import full_separation_clean

ACCEPTANCE_MCST = 200
LATTICE_SLICE = 30
INCLUSION_SLICE = 12


def cold(state, prev, face):
    return lpengine.solve_to_extreme_point(state)


@contextmanager
def reuse_replaced(fn):
    """Route the solvers' reuse calls through fn(state, prev, face)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relax, "reuse_extreme_point", fn)
        yield


@contextmanager
def checked_reuse():
    """Every reuse call also runs a cold solve of the same state; the
    reused vertex must be certified, separation-clean and as cheap as
    the cold one.  Yields the list of (state, prev, face) calls."""
    calls = []

    def checked(point, state, prev, face):
        verify_vertex_certificate(point.lp, point)
        assert full_separation_clean(state, point)
        assert point.objective == lpengine.solve_to_extreme_point(state).objective
        calls.append((state, prev, face))

    with pytest.MonkeyPatch.context() as patch:
        _after(patch, relax, "reuse_extreme_point", checked)
        yield calls


def solve_events(events):
    return [ev for ev in events if ev["ev"] == "solve"]


def lattice_slice(general=LATTICE_SLICE, inclusion=INCLUSION_SLICE):
    rng = random.Random(505)
    out = [random_lattice_instance(rng) for _ in range(general)]
    rng = random.Random(606)
    return out + [
        random_lattice_instance(rng, max_ground=7, variant=INCLUSION)
        for _ in range(inclusion)
    ]


def test_acceptance_mcst_traces_equal_cold_solves():
    corpus = mcst_corpus(CorpusConfig(count=ACCEPTANCE_MCST))
    cold_calls = []

    def counted_cold(state, prev, face):
        cold_calls.append(state)
        return cold(state, prev, face)

    reused = 0
    for inst in corpus:
        tree, trace = run_mcst(inst)
        with reuse_replaced(counted_cold):
            cold_tree, cold_trace = run_mcst(inst)
        assert cold_tree == tree
        assert cold_trace.events == trace.events
        reused += sum(ev["reused"] for ev in solve_events(trace.events))
    assert reused == len(cold_calls) == 1878


def test_lattice_reused_objectives_equal_cold():
    reused = 0
    with checked_reuse() as calls:
        for inst in lattice_slice():
            _, events, _ = run_lattice(inst)
            reused += sum(ev["reused"] for ev in solve_events(events))
    assert reused == len(calls) > 0


def test_reused_flag_follows_the_step():
    _, events, _ = run_lattice(random_lattice_instance(random.Random(505)))
    for before, ev in zip(events, events[1:]):
        if ev["ev"] == "solve":
            assert ev["reused"] == (before["ev"] in ("delete", "fix"))
    assert {ev["reused"] for ev in solve_events(events)} == {False, True}
    # the first drop-round seed: fix, delete and drop steps all occur
    _, trace = run_mcst(mcst_corpus(CorpusConfig(count=1))[0])
    last_step = None
    for ev in trace.events:
        if ev["ev"] == "solve":
            assert ev["reused"] == (last_step in ("fix", "delete"))
        elif ev["ev"] in ("fix", "delete", "drop_children", "merge_leaves"):
            last_step = ev["ev"]
    assert {ev["reused"] for ev in solve_events(trace.events)} == {False, True}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 7))
def test_property_reused_mcst_vertex_certified_and_optimal(seed, n):
    with checked_reuse():
        run_mcst(random_mcst_instance(random.Random(seed), n=n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((GENERAL, INCLUSION)))
def test_property_reused_lattice_vertex_certified_and_optimal(seed, variant):
    inst = random_lattice_instance(random.Random(seed), max_ground=6, variant=variant)
    with checked_reuse():
        run_lattice(inst)


def recorded_calls():
    with checked_reuse() as calls:
        for inst in mcst_corpus(CorpusConfig(count=6)):
            run_mcst(inst)
        mcst_calls = len(calls)
        for inst in lattice_slice(10, 2):
            run_lattice(inst)
    # both the mcst and the lattice runs reused vertices
    assert 0 < mcst_calls < len(calls)
    return calls


@pytest.fixture(scope="module")
def reuse_calls():
    return recorded_calls()


def test_moved_value_is_refused(reuse_calls):
    # a move smaller than every nonzero slack leaves the moved
    # coordinate in the support with no tight row covering it, or
    # breaks a tight equality or upper row: never a certified vertex
    eps = Rat(1, 10**9)
    for state, prev, face in reuse_calls:
        for var in sorted(state.lp.var_ids)[:3]:
            x = values_by_id(prev)
            x[var] += eps if x[var] < 1 else -eps
            den, scaled = scale_values([x[v] for v in prev.var_ids])
            moved = replace(prev, den=den, scaled=tuple(scaled))
            with pytest.raises(InternalCheckError):
                lpengine.reuse_extreme_point(state, moved, face)


def test_dropped_tight_cut_is_refused_when_needed(reuse_calls):
    # Dropping a tight cut changes nothing but the certificate, so the
    # reuse must fail exactly when the rows left do not span the support.
    refused = kept = 0
    for state, prev, face in reuse_calls:
        point = lpengine.reuse_extreme_point(state, prev, face)
        base = {row.tag for row in state.lp.rows}
        lp = dense_lp(point.lp)
        values = point.values
        support = [j for j, v in enumerate(values) if v]
        m = len(prev.lp.rows)
        for idx in prev.tight_rows:
            if idx >= m or prev.lp.rows[idx].tag in base:
                continue
            tag = prev.lp.rows[idx].tag
            left = [
                i for i in point.tight_rows
                if i >= len(point.lp.rows) or point.lp.rows[i].tag != tag
            ]
            rows = [[lp.row_vector(i)[j] for j in support] for i in left]
            needed = rank_of_rows(rows) < len(support)
            tampered = replace(
                prev, tight_rows=tuple(i for i in prev.tight_rows if i != idx)
            )
            if needed:
                with pytest.raises(InternalCheckError):
                    lpengine.reuse_extreme_point(state, tampered, face)
                refused += 1
            else:
                lpengine.reuse_extreme_point(state, tampered, face)
                kept += 1
    assert refused > 0 and kept > 0
