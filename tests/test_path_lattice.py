"""The implicit planar-gap path lattice against its own tables.

`generators.PathLattice` answers order, meet and join digit by digit and
skips `LatticeOracle`'s validation, on a proof.  These tests check that
proof on the generator's whole input domain, k = 2, 3, 4: the tables it
writes pass `LatticeOracle`'s full validation, and the implicit answers
equal the tables' and the validated oracle's.
"""

import random

import pytest

from crossopt.generators import PathLattice
from crossopt.lpengine import separate_lattice
from crossopt.oracles import LatticeOracle
from crossopt.rational import Rat
from crossopt.simplex import Vertex


def table_oracle(lat):
    """The validated LatticeOracle of lat's tables."""
    return LatticeOracle(lat.ground_n, lat.rho, lat.rank, lat.above, lat.meet, lat.join)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_tables_pass_full_validation(k):
    lat = PathLattice(k)
    assert (lat.ground_n, lat.size) == (2 * k * k, k**k)
    table_oracle(lat)  # raises InstanceError on any failed axiom


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_answers_equal_its_tables(k):
    lat = PathLattice(k)
    pairs = range(lat.size)
    for a in pairs:
        assert [lat.leq(a, b) for b in pairs] == [
            bool((lat.above[a] >> b) & 1) for b in pairs
        ]
        assert [lat.meet_of(a, b) for b in pairs] == lat.meet[a]
        assert [lat.join_of(a, b) for b in pairs] == lat.join[a]
        assert [lat.comparable(a, b) for b in pairs] == [
            lat.leq(a, b) or lat.leq(b, a) for b in pairs
        ]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_agrees_with_the_table_oracle(k):
    lat = PathLattice(k)
    oracle = table_oracle(lat)
    assert lat.monotonicity_witness() == oracle.monotonicity_witness()
    assert lat.inclusion_witness() == oracle.inclusion_witness()
    rng = random.Random(k)
    full = (1 << lat.ground_n) - 1
    masks = [0, full] + [
        rng.getrandbits(lat.ground_n) & rng.getrandbits(lat.ground_n)
        for _ in range(300)
    ]
    masks += [full & ~(1 << e) for e in range(lat.ground_n)]
    for layer in range(k):  # one whole layer meets every path
        masks.append(((1 << 2 * k) - 1) << 2 * k * layer)
    verdicts = [lat.covers(mask) for mask in masks]
    assert verdicts == [oracle.covers(mask) for mask in masks]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_separates_like_the_table_oracle(k):
    lat = PathLattice(k)
    oracle = table_oracle(lat)
    edges = range(lat.ground_n)
    rng = random.Random(100 + k)
    points = [{e: Rat(1, 2 * k) for e in edges}]
    for _ in range(20):
        points.append(
            {e: Rat(1, 2 * k) + Rat(rng.randint(-2, 2), 8 * k) for e in edges}
        )
        points.append({e: Rat(rng.randint(0, 4), 4) for e in edges})
    fmasks = [0, 1, rng.getrandbits(lat.ground_n)]
    results = []
    for values in points:
        point = Vertex.of_values(values)
        for fmask in fmasks:
            got = separate_lattice(point, fmask, lat)
            assert got == separate_lattice(point, fmask, oracle)
            results.append(got.feasible)
    assert results[0] and not all(results)
