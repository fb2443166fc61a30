"""The cached MCST step facts against their per-call references.

``Graph`` keeps each vertex set's cut once computed, and ``McstState``
keeps each alive node's reach, rebuilding it only after drop and merge
steps.  tests/uncached_steps.py recomputes both on every call; these
tests compare the two on random graphs and on every step of seeded
runs.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from crossopt import mcst
from crossopt.graphs import Edge, Graph
from crossopt.randgen import MCST_DROP_SEEDS, random_mcst_instance
from crossopt.rational import Rat
from uncached_steps import classify_good, cut_masks, local_edges


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
