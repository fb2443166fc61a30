from collections import Counter
from contextlib import contextmanager

import pytest

from crossopt import intersection, lattice, lpengine, relax, simplex
from crossopt.generators import gen_edge_cover_tight, gen_mcst_gap
from crossopt.graphs import Graph
from crossopt.instances import McstInstance
from crossopt.oracles import MatroidOracle
from crossopt.rational import Rat


@pytest.fixture(scope="session")
def mcst_gap_e8():
    """gen_mcst_gap(8): (instance, report).  Deterministic, and built
    once for every test that reads it."""
    return gen_mcst_gap(8)


@pytest.fixture(scope="session")
def mcst_gap_e16():
    """gen_mcst_gap(16): (instance, report), about 1 s; built once."""
    return gen_mcst_gap(16)


@pytest.fixture
def triangle():
    return Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])


@pytest.fixture
def four_cycle():
    return Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1, 1, 1, 1])


@pytest.fixture
def edge_cover_4cycle():
    return gen_edge_cover_tight(1)


def triangle_graphic_matroid():
    def rank(s):
        return min(s.bit_count(), 2)

    return MatroidOracle(3, tuple(rank(s) for s in range(8)))


def k4_graphic_matroid():
    ends = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def rank(s):
        parent = list(range(4))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        r = 0
        for e in range(6):
            if (s >> e) & 1:
                u, v = ends[e]
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    r += 1
        return r

    return MatroidOracle(6, tuple(rank(s) for s in range(64)))


@pytest.fixture
def tree_instance():
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)], [5, 2, 7])
    return McstInstance(graph, ((0b0011, Rat(2)), (0b0100, Rat(2))))


def values_by_id(point):
    """{variable id: rational value} of the Vertex point."""
    return dict(zip(point.var_ids, point.values))


def _after(patch, module, name, record):
    """Replace module.name, through patch, by a wrapper that passes each
    result it returns, then the call's arguments, to record."""
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        record(result, *args, **kwargs)
        return result

    patch.setattr(module, name, recorded)


def count_pivots(patch, module, counts):
    """Replace module._Tableau, through patch, by a subclass that adds the
    pivots of each solve, failed solves included, to counts["pivots"]."""

    class Counted(module._Tableau):
        def solve(self):
            try:
                return super().solve()
            finally:
                counts["pivots"] += self.pivots

    patch.setattr(module, "_Tableau", Counted)


@contextmanager
def counted_core():
    """Count the simplex core's work while the block runs; yields a
    Counter of "solves" and "reused" (the certified vertices that the
    cutting-plane loop solved and reused), "certificates" (vertex
    certificates verified) and "pivots" (tableau pivots).

    Each count wraps the name that the package calls, where the
    benchmark's wrappers sit too: lpengine.simplex_solve,
    relax.reuse_extreme_point, simplex.verify_vertex_certificate and
    simplex._Tableau.  A failed solve or reuse counts only its pivots."""
    counts = Counter()

    def count(key):
        def record(*_):
            counts[key] += 1

        return record

    with pytest.MonkeyPatch.context() as patch:
        _after(patch, lpengine, "simplex_solve", count("solves"))
        _after(patch, relax, "reuse_extreme_point", count("reused"))
        _after(patch, simplex, "verify_vertex_certificate", count("certificates"))
        count_pivots(patch, simplex, counts)
        yield counts


def run_with_chain_reports(state):
    """relax(state) as (fixed mask, events, LP optimum, the report of each
    tight-chain check the run made, in order)."""
    reports = []

    def record(report, *_):
        reports.append(report)

    with pytest.MonkeyPatch.context() as patch:
        _after(patch, intersection, "check_chain_token_bound", record)
        _after(patch, lattice, "check_chain_growth", record)
        trace, lp_initial = relax.relax(state)
    return state.fmask, trace.events, lp_initial, reports
