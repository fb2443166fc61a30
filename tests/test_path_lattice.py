"""The implicit planar-gap path lattice against its reference tables.

`oracles.PathLattice` answers order, meet and join digit by digit and
skips `LatticeOracle`'s validation, on a proof, and a planar-gap file
names it by k alone (`{"product_of_chains": {"k": k}}`).  The tables
the generator used to write are kept in `tests/table_lattice.py`.
These tests check the proof on the generator's whole input domain,
k = 2, 3, 4: the reference tables pass `LatticeOracle`'s full
validation, and each gap instance, decoded from its implicit body and
from its explicit-table body, gives lattices that agree on every query
and reports that agree apart from the instance digest.
"""

import json
import random

import pytest

import table_lattice
from crossopt.cli import main
from crossopt.generators import gen_planar_mincut_gap
from crossopt.instances import (
    LatticeInstance,
    canonical_json,
    decode_instance,
    parse_json,
)
from crossopt.lpengine import separate_lattice
from crossopt.oracles import LatticeOracle, PathLattice
from crossopt.rational import Rat
from crossopt.simplex import Vertex


def bodies(k):
    """(implicit, explicit): the planar-gap instance's file body as the
    generator writes it, and with the reference tables in its place."""
    inst, _ = gen_planar_mincut_gap(k)
    tables = LatticeInstance(
        table_lattice.path_lattice(k), inst.costs, inst.constraints, inst.variant
    )
    return inst.to_json(), tables.to_json()


def decoded(k):
    """(implicit, explicit) lattices decoded from the two bodies."""
    return tuple(
        decode_instance(parse_json(canonical_json(body), "planar-gap file")).lat
        for body in bodies(k)
    )


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_tables_pass_full_validation(k):
    reference = table_lattice.path_lattice(k)  # raises on any failed axiom
    assert (reference.ground_n, reference.size) == (2 * k * k, k**k)
    implicit, explicit = decoded(k)
    assert type(implicit) is PathLattice and type(explicit) is LatticeOracle
    assert (implicit.ground_n, implicit.size) == (2 * k * k, k**k)
    assert implicit.rho == explicit.rho and implicit.rank == explicit.rank


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_answers_equal_its_tables(k):
    implicit, explicit = decoded(k)
    members = range(implicit.size)
    for query in ("leq", "comparable", "meet_of", "join_of"):
        got, want = getattr(implicit, query), getattr(explicit, query)
        for a in members:
            assert [got(a, b) for b in members] == [want(a, b) for b in members]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_agrees_with_the_table_oracle(k):
    implicit, explicit = decoded(k)
    assert implicit.monotonicity_witness() == explicit.monotonicity_witness()
    assert implicit.inclusion_witness() == explicit.inclusion_witness()
    rng = random.Random(k)
    ground = implicit.ground_n
    full = (1 << ground) - 1
    masks = [0, full] + [
        rng.getrandbits(ground) & rng.getrandbits(ground) for _ in range(300)
    ]
    masks += [full & ~(1 << e) for e in range(ground)]
    for layer in range(k):  # one whole layer meets every path
        masks.append(((1 << 2 * k) - 1) << 2 * k * layer)
    verdicts = [implicit.covers(mask) for mask in masks]
    assert verdicts == [explicit.covers(mask) for mask in masks]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_separates_like_the_table_oracle(k):
    implicit, explicit = decoded(k)
    edges = range(implicit.ground_n)
    rng = random.Random(100 + k)
    points = [{e: Rat(1, 2 * k) for e in edges}]
    for _ in range(20):
        points.append(
            {e: Rat(1, 2 * k) + Rat(rng.randint(-2, 2), 8 * k) for e in edges}
        )
        points.append({e: Rat(rng.randint(0, 4), 4) for e in edges})
    fmasks = [0, 1, rng.getrandbits(implicit.ground_n)]
    results = []
    for values in points:
        point = Vertex.of_values(values)
        for fmask in fmasks:
            got = separate_lattice(point, fmask, implicit)
            assert got == separate_lattice(point, fmask, explicit)
            results.append(got.feasible)
    assert results[0] and not all(results)


def report_without_digest(path):
    body = json.loads(path.read_text())
    assert len(body.pop("instance_digest")) == 64
    return body


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_lattice_reports_like_the_table_file(k, tmp_path, capsys):
    """solve-lattice --verify refuses both files alike, as a path
    lattice's images do not grow up the order, and verify gives the same
    reports on both, apart from the instance digest, for no element, one
    whole layer (it meets every path) and every element."""
    layer = list(range(2 * k))
    solutions = [[], layer, list(range(2 * k * k))]
    for i, ids in enumerate(solutions):
        (tmp_path / f"solution{i}.json").write_text(json.dumps({"ids": ids}))
    runs = []
    for name, body in zip(("implicit", "explicit"), bodies(k)):
        inst = tmp_path / f"{name}.json"
        inst.write_text(canonical_json(body))
        report = tmp_path / f"{name}.solve.json"
        code = main(["solve-lattice", "--in", str(inst), "--verify",
                     "--report", str(report)])
        run = [code, capsys.readouterr().err, report.exists()]
        for i in range(len(solutions)):
            report = tmp_path / f"{name}.verify{i}.json"
            solution = tmp_path / f"solution{i}.json"
            code = main(["verify", "--in", str(inst), "--solution", str(solution),
                         "--report", str(report)])
            run += [code, report_without_digest(report)]
        runs.append(run)
    implicit, explicit = runs
    refusal = (
        "error: lattice violates the image-growth property at members (0, 1); "
        "the rounding guarantees do not apply\n"
    )
    assert implicit[:3] == [2, refusal, False]
    assert implicit[3::2] == [1, 1, 1]
    assert implicit == explicit
