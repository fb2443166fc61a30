"""The cached MCST step facts against their per-call references.

``Graph`` keeps each vertex set's cut once computed; ``McstState``
keeps each alive node's reach, rebuilding it only after drop and merge
steps, counts each edge's owners in bit planes, and keeps the degree
rows' edge masks, which the step events edit.  tests/uncached_steps.py
recomputes all of them on every call; these tests compare the two on
random inputs and on every step of seeded runs.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossopt import mcst
from crossopt.errors import InternalCheckError
from crossopt.graphs import Edge, Graph
from crossopt.randgen import MCST_DROP_SEEDS, random_mcst_instance
from crossopt.rational import Rat
from uncached_steps import (
    RebuiltMcstState,
    assert_edge_locality,
    classify_good,
    cut_masks,
    local_edges,
)


@st.composite
def graphs(draw):
    """Multigraphs on up to 10 vertices, parallel edges and sparse ids."""
    n = draw(st.integers(1, 10))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = [(u, v) for u, v in draw(st.lists(ends, max_size=24)) if u != v]
    ids = draw(
        st.lists(
            st.integers(0, 60), min_size=len(pairs), max_size=len(pairs), unique=True
        )
    )
    return Graph(n, [Edge(i, u, v, Rat(1)) for i, (u, v) in zip(ids, pairs)])


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_cached_cuts_match_incidence_rows(graph, data):
    # repeated masks read the cache, fresh ones fill it
    vmasks = data.draw(
        st.lists(st.integers(0, graph.full_vmask), min_size=1, max_size=12)
    )
    within = data.draw(st.integers(0, (1 << 61) - 1))
    for vmask in vmasks + vmasks[::-1]:
        delta, touching = cut_masks(graph, vmask)
        assert graph.cut(vmask) == (delta, touching)
        assert graph.delta_mask(vmask) == delta
        assert graph.induced_mask(vmask) == touching & ~delta
        assert graph.induced_mask(vmask, within) == touching & ~delta & within


def test_classification_matches_reference_on_every_step(monkeypatch):
    """On every step of seeded runs, drop-round seeds included,
    crossopt.mcst.classify_good of the state's reach equals the uncached
    reference, and the reach equals the reference local edges over all
    edges, whatever step came before."""
    classify, try_step = mcst.classify_good, mcst.try_step
    run = {"graph": None, "last": None}
    checked = Counter()

    def checking_classify(forest, reach, eprime):
        graph = run["graph"]
        got = classify(forest, reach, eprime)
        assert got == classify_good(forest, graph, eprime)
        assert reach == {
            nid: local_edges(forest, graph, graph.all_edges_mask, nid)
            for nid in forest.alive_ids()
        }
        checked[run["last"]] += 1
        return got

    def recording_try_step(state, point, classified):
        event = try_step(state, point, classified)
        run["last"] = event["ev"]
        return event

    monkeypatch.setattr(mcst, "classify_good", checking_classify)
    monkeypatch.setattr(mcst, "try_step", recording_try_step)
    for seed in MCST_DROP_SEEDS + tuple(range(40)):
        inst = random_mcst_instance(random.Random(seed))
        run.update(graph=inst.graph, last="start")
        mcst.run_mcst(inst)
    # the reach is rebuilt after both kinds of drop round, and kept
    # across fix and delete steps
    assert checked["drop_children"] > 0 and checked["merge_leaves"] > 0
    assert checked["fix"] > 0 and checked["delete"] > 0
    assert checked["start"] == len(MCST_DROP_SEEDS) + 40


@st.composite
def local_edge_masks(draw):
    """(local-edge masks by node, undecided edges): up to 12 nodes over
    up to 40 edges, with some edges made local to exactly 6 or exactly
    7 of the nodes."""
    nodes = draw(st.integers(0, 12))
    edges = draw(st.integers(1, 40))
    eprime = draw(st.integers(0, (1 << edges) - 1))
    masks = [draw(st.integers(0, (1 << edges) - 1)) & eprime for _ in range(nodes)]
    for owners in draw(st.lists(st.sampled_from((6, 7)), max_size=3)):
        if owners > nodes or not eprime:
            continue
        eid = draw(st.sampled_from([e for e in range(edges) if (eprime >> e) & 1]))
        chosen = set(draw(st.permutations(range(nodes)))[:owners])
        for i in range(nodes):
            if i in chosen:
                masks[i] |= 1 << eid
            else:
                masks[i] &= ~(1 << eid)
    return {nid: mask for nid, mask in enumerate(masks)}, eprime


def locality_outcome(check, locals_by, eprime):
    try:
        check(locals_by, eprime)
    except InternalCheckError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(local_edge_masks())
def test_bit_sliced_locality_matches_edge_by_edge_count(case):
    locals_by, eprime = case
    assert locality_outcome(
        mcst.assert_edge_locality, locals_by, eprime
    ) == locality_outcome(assert_edge_locality, locals_by, eprime)


@pytest.mark.parametrize("owners", [6, 7, 8, 15, 16])
def test_bit_sliced_locality_at_the_counter_edges(owners):
    # counts 7 and 8 (the counter's overflow), and 15 and 16, where a
    # 3-bit count would read 7 and 0 again
    locals_by = {nid: 0b100 if nid < owners else 0b011 for nid in range(owners + 3)}
    got = locality_outcome(mcst.assert_edge_locality, locals_by, 0b111)
    assert got == locality_outcome(assert_edge_locality, locals_by, 0b111)
    assert (got is None) == (owners <= 6)


def test_edited_lp_matches_rebuilt_reference_on_every_step(monkeypatch):
    """On every step of seeded runs, drop-round seeds included, the
    residual LP the run edits has the Row list (mask, relation, rhs and
    tag, in order), the variables and the objective of the LP rebuilt
    from a reference state that replays the run's events the old way."""
    residual, step = mcst.McstState.residual, mcst.McstState.step
    references = {}
    last = {}
    checked = Counter()

    def checking_residual(state):
        got = residual(state)
        if state not in references:
            references[state] = RebuiltMcstState(state.instance)
        assert got.lp == references[state].residual().lp
        checked[last.get(state, "start")] += 1
        return got

    def recording_step(state, point, lp_initial, trace):
        start = len(trace.events)
        reuse = step(state, point, lp_initial, trace)
        for event in trace.events[start:]:
            references[state].apply(event, point)
            last[state] = event["ev"]
        return reuse

    monkeypatch.setattr(mcst.McstState, "residual", checking_residual)
    monkeypatch.setattr(mcst.McstState, "step", recording_step)
    for seed in MCST_DROP_SEEDS + tuple(range(40)):
        mcst.run_mcst(random_mcst_instance(random.Random(seed)))
    assert checked["drop_children"] > 0 and checked["merge_leaves"] > 0
    assert checked["fix"] > 0 and checked["delete"] > 0
    assert checked["start"] == len(MCST_DROP_SEEDS) + 40


def test_replay_builds_no_row(monkeypatch):
    """A trace replay edits a McstState through the run's methods but
    never solves, so it builds no LP row; the counter itself sees the
    rows a residual builds."""
    runs = [
        (inst, mcst.run_mcst(inst)[1])
        for inst in (
            random_mcst_instance(random.Random(seed))
            for seed in MCST_DROP_SEEDS + tuple(range(10))
        )
    ]
    built = Counter()
    row = mcst.Row

    def counting_row(*args):
        built["rows"] += 1
        return row(*args)

    monkeypatch.setattr(mcst, "Row", counting_row)
    for inst, trace in runs:
        assert mcst.replay_trace(inst, trace).matches_footer
    assert built["rows"] == 0
    mcst.McstState(runs[0][0]).residual()
    assert built["rows"] > 0
