"""graphs.joins, the one union-find, against a breadth-first reference
and against the private union-finds it replaced."""

import random
from itertools import compress

from hypothesis import given, settings
from hypothesis import strategies as st

from crossopt.brute import _connected
from crossopt.graphs import Graph, iter_bits, joins
from crossopt.randgen import random_matroid, random_spanning_tree
from inline_union_find import (
    component_count,
    loop_graphic_ranks,
    loop_random_spanning_tree,
)


@st.composite
def multigraphs(draw, loops=True):
    """(n, pairs): n <= 8 vertices, parallel edges, and self-loops
    unless loops is False."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex)
    if not loops:
        pair = pair.filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=16))


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_joining_pairs_form_a_spanning_forest(graph):
    n, pairs = graph
    flags = joins(pairs)
    assert len(flags) == len(pairs)
    kept = list(compress(pairs, flags))
    components = component_count(n, pairs)
    # as many edges as a spanning forest has, spanning the same
    # components, so acyclic
    assert len(kept) == n - components
    assert component_count(n, kept) == components
    assert not any(u == v for u, v in kept)
    # vertices are labels: renaming them changes nothing
    assert joins((f"v{u}", f"v{v}") for u, v in pairs) == flags


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_block_connectivity_matches_bfs(graph):
    n, pairs = graph
    edges = [(i, u, v) for i, (u, v) in enumerate(pairs)]
    assert _connected(edges, set(range(n))) == (component_count(n, pairs) == 1)


@settings(max_examples=300, deadline=None)
@given(multigraphs(loops=False), st.randoms(use_true_random=False))
def test_is_spanning_tree_matches_bfs(graph, rng):
    n, pairs = graph
    g = Graph.from_pairs(n, pairs)
    for _ in range(8):
        mask = rng.getrandbits(len(pairs))
        chosen = [pairs[i] for i in iter_bits(mask)]
        expected = len(chosen) == n - 1 and component_count(n, chosen) == 1
        assert g.is_spanning_tree(mask) == expected


def test_random_spanning_tree_reproduces_the_inline_loop():
    for seed in range(300):
        shape = random.Random(seed)
        n = shape.randint(2, 10)
        pairs = []
        for _ in range(shape.randint(0, 16)):
            u, v = shape.randrange(n), shape.randrange(n)
            if u != v:
                pairs.append((u, v))
        graph = Graph.from_pairs(n, pairs)
        got = random_spanning_tree(random.Random(seed), graph)
        assert got == loop_random_spanning_tree(random.Random(seed), graph), seed


def test_graphic_ranks_reproduce_the_inline_loop():
    graphic = 0
    for seed in range(300):
        n = 4 + seed % 5
        expected = loop_graphic_ranks(random.Random(seed), n)
        if expected is not None:
            graphic += 1
            assert random_matroid(random.Random(seed), n).rank == expected, seed
    assert graphic >= 50
