"""Edge tree counts from one adjugate against the per-edge contraction
counts they replaced (tests/contraction_counts.py), and the
fraction-free Gauss-Jordan adjugate against cofactor expansion.

The determinant, the adjugate and the certificate rank share one
elimination loop (crossopt.simplex._eliminate); fixed matrices with
skipped columns check all three against cofactor expansion and the
rational Gaussian elimination of tests/fraction_simplex.py.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contraction_counts as reference
import fraction_simplex
from crossopt import brute
from crossopt.simplex import _int_rank
from crossopt.generators import gadget_graph, tree_polytope_membership_certificate
from crossopt.graphs import Graph
from crossopt.rational import Rat


def cofactor_det(mat):
    """Determinant by Laplace expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, x in enumerate(mat[0])
        if x
    )


def cofactor_adjugate(mat):
    """adj[i][j] = (-1)^(i+j) times the minor without row j and column i."""
    n = len(mat)
    return [
        [
            (-1) ** (i + j)
            * cofactor_det(
                [row[:i] + row[i + 1 :] for k, row in enumerate(mat) if k != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


@st.composite
def integer_matrices(draw):
    """Square integer matrices of order 0..5, mostly zeros: zero leading
    pivots that need one or more row swaps, and singular matrices."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**12), 10**12))
    mat = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        mat[0][0] = 0  # the first pivot needs a swap unless the column is 0
    return mat


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_adjugate_matches_cofactor_expansion(mat):
    det, adj = brute._bareiss_adjugate(mat)
    assert det == cofactor_det(mat) == brute._bareiss_det(mat)
    if det == 0:
        assert adj is None
    else:
        assert adj == cofactor_adjugate(mat)


@pytest.mark.parametrize(
    "mat, det, adj",
    [
        ([[0, 1], [1, 0]], -1, [[0, -1], [-1, 0]]),  # swap at the first pivot
        ([[0, 0, 1], [0, 2, 0], [3, 0, 0]], -6, [[0, 0, -2], [0, -3, 0], [-6, 0, 0]]),
        ([[1, 2, 3], [2, 4, 5], [1, 0, 0]], -2, [[0, 0, -2], [5, -3, 1], [-4, 2, 0]]),
        ([[0, 0], [0, 1]], 0, None),  # no pivot in the first column
        ([[1, 2], [2, 4]], 0, None),
        ([[5]], 5, [[1]]),
        ([], 1, []),
    ],
)
def test_adjugate_fixed_cases(mat, det, adj):
    assert brute._bareiss_adjugate(mat) == (det, adj)
    assert cofactor_det(mat) == det


@pytest.mark.parametrize(
    "mat, rank",
    [
        ([], 0),
        ([[7]], 1),
        ([[0]], 0),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0),
        ([[0, 1, 2], [0, 3, 4], [0, 5, 7]], 2),  # zero column first
        ([[1, 0, 2], [3, 0, 4], [5, 0, 7]], 2),  # zero column in the middle
        ([[1, 2, 0], [3, 4, 0], [5, 7, 0]], 2),  # zero column last
        ([[1, 2, 3], [1, 2, 3], [4, 5, 6]], 2),  # duplicate rows
        ([[0, 2, 1], [0, 4, 2], [3, 1, 1], [0, 0, 0]], 2),  # tall, zero row
        ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 1]], 2),  # wide
        ([[0, 0, 5, 1], [0, 0, 10, 2]], 1),  # wide, two zero columns first
    ],
)
def test_elimination_fixed_cases(mat, rank):
    want = fraction_simplex.rank_of_rows([[Rat(x) for x in row] for row in mat])
    assert _int_rank([list(row) for row in mat]) == want == rank
    if all(len(row) == len(mat) for row in mat):
        det = cofactor_det(mat)
        assert brute._bareiss_det(mat) == det
        adj = cofactor_adjugate(mat) if det else None
        assert brute._bareiss_adjugate(mat) == (det, adj)


@st.composite
def multigraphs(draw):
    """A multigraph on at most 9 vertices: parallel edges, and sometimes
    disconnected or with no edges at all."""
    n = draw(st.integers(0, 9))
    if n < 2:
        return Graph.from_pairs(n, [])
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=16,
        )
    )
    if pairs and draw(st.booleans()):
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))  # parallels
    return Graph.from_pairs(n, pairs)


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_edge_tree_counts_match_contraction_counts(graph):
    assert brute.edge_tree_counts(graph) == reference.tree_counts_by_contraction(graph)


@pytest.mark.parametrize("e", [4, 8, 16])
def test_gadget_edge_tree_counts_match_contraction_counts(e):
    graph = gadget_graph(e)
    total, containing = brute.edge_tree_counts(graph)
    assert (total, containing) == reference.tree_counts_by_contraction(graph)
    assert total == 4**e and all(4 * c == 3 * total for c in containing)


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.data())
def test_membership_certificate_matches_reference(graph, data):
    """The same verdict as the per-edge certificate, on the exact tree
    average (accepted when a tree exists) and on a perturbed point."""
    total, containing = reference.tree_counts_by_contraction(graph)
    point = {
        e.id: Rat(c, total) if total else Rat(0)
        for e, c in zip(graph.edges, containing)
    }
    if graph.edges and data.draw(st.booleans()):
        eid = data.draw(st.sampled_from([e.id for e in graph.edges]))
        point[eid] += Rat(1, data.draw(st.integers(1, 5)))
    got = tree_polytope_membership_certificate(graph, point)
    assert got == reference.tree_polytope_membership_certificate(graph, point)
