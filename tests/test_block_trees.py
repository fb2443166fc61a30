"""Block-by-block tree enumeration, half-table violation scans and the
row-wise Bareiss determinant against the code they replaced
(tests/whole_graph_trees.py).

Enumeration must give the same set of trees, each once, in both orders;
the scans must return results equal in value, type and witness; the
determinant must be the same integer.  Inputs are random multigraphs on
at most eight vertices, with parallel edges, bridges, cut vertices,
isolated vertices and no vertex at all, and the gap gadget graphs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whole_graph_trees as reference
from test_oracle_scans import assert_same, assert_same_brute, bounds_strategy
from brute_mcst import _brute_tree_opt
from crossopt import brute
from crossopt.brute import TREE_COUNT_GUARD, enumerate_spanning_trees
from crossopt.generators import gadget_graph, gen_mcst_gap
from crossopt.graphs import Graph

# -- graphs -----------------------------------------------------------------------


@st.composite
def glued_graphs(draw):
    """Pieces glued at cut vertices: each piece is a bridge, a parallel
    pair or a cycle through one placed vertex and up to three new ones,
    with chords; then isolated vertices, and the labels and edge order
    shuffled."""
    n = 1
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        if n == 8:
            break
        at = draw(st.integers(0, n - 1))
        ring = [at, *range(n, n + draw(st.integers(1, min(3, 8 - n))))]
        n = ring[-1] + 1
        if len(ring) == 2 and draw(st.booleans()):
            pairs.append((at, ring[1]))  # a bridge
            continue
        pairs += [(ring[i - 1], ring[i]) for i in range(len(ring))]
        for _ in range(draw(st.integers(0, 2))):
            chord = st.lists(st.sampled_from(ring), min_size=2, max_size=2, unique=True)
            pairs.append(tuple(draw(chord)))
    n += draw(st.integers(0, 8 - n))
    label = draw(st.permutations(range(n)))
    pairs = draw(st.permutations(pairs))
    return Graph.from_pairs(n, [(label[a], label[b]) for a, b in pairs])


@st.composite
def random_graphs(draw):
    """Up to twelve random edges on 0..8 vertices."""
    n = draw(st.integers(0, 8))
    if n < 2:
        return Graph.from_pairs(n, [])
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=12,
        )
    )
    costs = draw(st.lists(st.integers(0, 5), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_pairs(n, pairs, costs)


graphs = st.one_of(glued_graphs(), random_graphs())


def assert_same_trees(graph, reverse):
    got = enumerate_spanning_trees(graph, reverse=reverse)
    want = reference.enumerate_spanning_trees(graph, reverse=reverse)
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(want)
    return want


@settings(max_examples=300, deadline=None)
@given(graphs)
def test_trees_match_reference(graph):
    for reverse in (False, True):
        assert_same_trees(graph, reverse)


@st.composite
def scan_cases(draw):
    graph = draw(graphs)
    full = graph.all_edges_mask
    row = st.tuples(st.integers(0, full), bounds_strategy())
    return graph, draw(st.lists(row, max_size=6))


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_scans_match_reference(case):
    graph, bounds = case
    assert_same_brute(
        _brute_tree_opt(graph, bounds, TREE_COUNT_GUARD),
        reference._brute_tree_opt(graph, bounds, TREE_COUNT_GUARD),
    )
    for reverse in (False, True):
        assert_same(
            brute.min_max_violation_over_trees(graph, bounds, reverse=reverse),
            reference.min_max_violation_over_trees(graph, bounds, reverse=reverse),
        )


def test_small_graphs():
    assert enumerate_spanning_trees(Graph(0, [])) == []
    assert enumerate_spanning_trees(Graph(1, [])) == [0]
    assert enumerate_spanning_trees(Graph(2, [])) == []
    bridge_and_triangle = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert sorted(enumerate_spanning_trees(bridge_and_triangle)) == [
        0b1011,
        0b1101,
        0b1110,
    ]


@pytest.mark.parametrize("e", [1, 2, 3, 4, 8])
def test_gadget_trees_match_reference(e, monkeypatch):
    graph = gadget_graph(e)
    # the reference's own trees, in its own order
    order = {reverse: assert_same_trees(graph, reverse) for reverse in (False, True)}
    if e not in (4, 8):
        return
    # the reference scans enumerate again; hand them the trees just checked
    monkeypatch.setattr(
        reference,
        "enumerate_spanning_trees",
        lambda graph, limit, reverse=False: order[reverse],
    )
    bounds = list(gen_mcst_gap(e)[0].bounds)
    for reverse in (False, True):
        assert_same(
            brute.min_max_violation_over_trees(graph, bounds, reverse=reverse),
            reference.min_max_violation_over_trees(graph, bounds, reverse=reverse),
        )


# -- determinants -----------------------------------------------------------------


@st.composite
def integer_matrices(draw):
    """Square integer matrices of order 0..7: mostly zeros (zero pivots
    that need a row swap, singular matrices), small or huge entries, and
    sometimes a row repeated as a multiple of another."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(
        st.just(0), st.integers(-3, 3), st.integers(-(10**20), 10**20)
    )
    mat = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        i, j = draw(rows)
        mat[j] = [draw(st.integers(-3, 3)) * x for x in mat[i]]
    return mat


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_bareiss_matches_reference(mat):
    assert brute._bareiss_det(mat) == reference._bareiss_det(mat)


@pytest.mark.parametrize(
    "mat, det",
    [
        ([[0, 1], [1, 0]], -1),  # swap at the first pivot
        ([[1, 2, 3], [2, 4, 5], [1, 0, 0]], -2),  # swap at the second pivot
        ([[0, 0], [0, 1]], 0),  # no pivot in the first column
        ([[1, 2], [2, 4]], 0),
        ([[5]], 5),
        ([], 1),
    ],
)
def test_bareiss_fixed_cases(mat, det):
    assert brute._bareiss_det(mat) == reference._bareiss_det(mat) == det
