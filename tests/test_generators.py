import hashlib

import pytest

import table_lattice
from brute_mcst import _brute_tree_opt
from gadget_trees import tree_to_subset, yes_case_tree
from crossopt import brute, oracles
from crossopt.brute import (
    TREE_COUNT_GUARD,
    enumerate_spanning_trees,
    kirchhoff_count,
    min_max_violation_over_trees,
)
from crossopt.errors import InstanceError, SizeGuardError
from crossopt.generators import (
    brute_discrepancy,
    gadget_graph,
    gen_edge_cover_tight,
    gen_mcst_gap,
    gen_planar_mincut_gap,
    hadamard_sets,
    reduce_uniform_crossing_to_mcst,
    tree_polytope_membership_certificate,
)
from crossopt.graphs import iter_bits
from crossopt.instances import (
    LatticeInstance,
    canonical_json,
    decode_instance,
    parse_json,
)
from crossopt.lpengine import separate_lattice
from crossopt.oracles import LatticeOracle
from crossopt.rational import Rat
from crossopt.simplex import Vertex


# -- hadamard family ------------------------------------------------------------


def test_hadamard_sets_structure():
    sets = hadamard_sets(4)
    assert sets[0] == 0b1111  # all-plus row
    assert sorted(s.bit_count() for s in sets[1:]) == [2, 2, 2]
    with pytest.raises(InstanceError):
        hadamard_sets(6)


def test_discrepancy_brute_force_both_orders():
    sets = hadamard_sets(4)
    rho, witness = brute_discrepancy(sets, 4)
    rho_rev, _ = brute_discrepancy(sets, 4, reverse=True)
    assert rho == rho_rev
    worst = max(abs(2 * (witness & s).bit_count() - s.bit_count()) for s in sets)
    assert worst == rho


# -- spanning tree gap -----------------------------------------------------------


def test_mcst_gap_e4_certificates():
    inst, rep = gen_mcst_gap(4)
    assert rep.lp_feasible and rep.claim_ok
    assert rep.integral_min_violation >= Rat(rep.details["discrepancy"], 2) - 1
    # the fractional point is the exact average of all spanning trees
    point = {e.id: Rat(3, 4) for e in inst.graph.edges}
    assert tree_polytope_membership_certificate(inst.graph, point)
    # per-tree load identity |T & U_j| = |S_j| + |X & S_j|
    sets = hadamard_sets(4)
    for tree in enumerate_spanning_trees(inst.graph):
        x = tree_to_subset(4, tree)
        for j, s in enumerate(sets):
            u_mask, _ = inst.bounds[2 * j]
            assert (tree & u_mask).bit_count() == s.bit_count() + (x & s).bit_count()


def test_mcst_gap_e8_runs_and_certifies(mcst_gap_e8):
    inst, rep = mcst_gap_e8
    assert rep.lp_feasible and rep.claim_ok
    assert rep.details["method"] == "tree-exhaustive"


def test_mcst_gap_e16_subset_certificate(mcst_gap_e16):
    inst, rep = mcst_gap_e16
    assert rep.details["method"] == "gadget-subset-exhaustive"
    assert rep.details["discrepancy"] == 2
    assert rep.integral_min_violation == 1 and rep.claimed_bound == 0
    assert rep.lp_feasible and rep.claim_ok
    assert rep.witness is None


def test_mcst_gap_rejects_other_sizes():
    with pytest.raises(SizeGuardError):
        gen_mcst_gap(5)


def test_gap_instance_has_no_feasible_tree():
    inst, rep = gen_mcst_gap(4)
    result = _brute_tree_opt(inst.graph, list(inst.bounds), TREE_COUNT_GUARD)
    if rep.integral_min_violation > 0:
        assert result.optimum is None


# -- planar min-cut gap ------------------------------------------------------------


def test_planar_gap_k2_full_certificates():
    inst, rep = gen_planar_mincut_gap(2)
    assert rep.lp_feasible
    assert rep.integral_min_violation == 1 == rep.claimed_bound
    assert rep.claim_ok
    # the fractional point satisfies every member with equality
    point = {e: Rat(1, 4) for e in range(8)}
    assert separate_lattice(Vertex.of_values(point), 0, inst.lat).feasible
    for j in range(inst.lat.size):
        load = sum(point[e] for e in iter_bits(inst.lat.rho[j]))
        assert load == Rat(inst.lat.rank[j])
    # the witness hitting set genuinely hits every path
    witness = rep.witness
    assert all(witness & inst.lat.rho[j] for j in range(inst.lat.size))


def test_planar_gap_k3_certifies():
    inst, rep = gen_planar_mincut_gap(3)
    assert rep.claim_ok and rep.integral_min_violation == 2
    assert rep.details["method"] == "subset-exhaustive"


def test_planar_gap_k4_layer_factored():
    inst, rep = gen_planar_mincut_gap(4)
    assert rep.claim_ok and rep.integral_min_violation == 3
    assert rep.details["method"] == "layer-factored-exhaustive"


def test_planar_gap_guard():
    with pytest.raises(SizeGuardError):
        gen_planar_mincut_gap(5)


# -- edge cover tight example ---------------------------------------------------------


def test_edge_cover_structure():
    inst = gen_edge_cover_tight(1)
    assert inst.delta == 1
    assert inst.constraints[0].elems | inst.constraints[1].elems == 0b1111
    assert inst.constraints[0].elems & inst.constraints[1].elems == 0
    with pytest.raises(SizeGuardError):
        gen_edge_cover_tight(4)


# -- reduction gadget -------------------------------------------------------------------


def test_gadget_tree_bijection_small():
    for e in (2, 3):
        graph = gadget_graph(e)
        trees = enumerate_spanning_trees(graph)
        assert len(trees) == 4**e == kirchhoff_count(graph)
        seen = {}
        for tree in trees:
            x = tree_to_subset(e, tree)
            seen.setdefault(x, 0)
            seen[x] += 1
        assert sorted(seen) == list(range(1 << e))
        assert all(count == 2**e for count in seen.values())


def test_reduction_yes_case_meets_special_bound_exactly():
    e, t = 3, 2
    basis = 0b101
    inst = reduce_uniform_crossing_to_mcst(e, t, [(0b011, 1)])
    tree = yes_case_tree(e, basis)
    assert inst.graph.is_spanning_tree(tree)
    special_mask, special_bound = inst.bounds[-1]
    assert (tree & special_mask).bit_count() == 2 * e - t == special_bound
    u_mask, u_bound = inst.bounds[0]
    assert Rat((tree & u_mask).bit_count()) <= u_bound


def test_reduction_dichotomy_e3_t2():
    e, t = 3, 2
    # bound |I & {0,1}| <= 1 on the base sets
    inst = reduce_uniform_crossing_to_mcst(e, t, [(0b011, 1)])
    trees = enumerate_spanning_trees(inst.graph)
    feasible = [
        tree
        for tree in trees
        if all(
            Rat((tree & emask).bit_count()) <= bound for emask, bound in inst.bounds
        )
    ]
    # feasible trees exist exactly for bases respecting the bound
    bases = {tree_to_subset(e, tree) for tree in feasible}
    expected = {
        x
        for x in range(1 << e)
        if x.bit_count() == t and (x & 0b011).bit_count() <= 1
    }
    assert bases == expected
    # every feasible tree meets the special bound with equality
    special_mask, special_bound = inst.bounds[-1]
    for tree in feasible:
        assert Rat((tree & special_mask).bit_count()) == special_bound


def test_reduction_no_case_violates():
    # bound 0 on every pair: no basis of size 2 fits, so every tree
    # violates either a pair bound or the special bound
    e, t = 3, 2
    pairs = [(0b011, 0), (0b101, 0), (0b110, 0)]
    inst = reduce_uniform_crossing_to_mcst(e, t, pairs)
    viol, witness = min_max_violation_over_trees(
        inst.graph, list(inst.bounds)
    )
    assert viol >= 1


def test_reduction_validates_inputs():
    with pytest.raises(InstanceError):
        reduce_uniform_crossing_to_mcst(2, 3, [])
    with pytest.raises(InstanceError):
        reduce_uniform_crossing_to_mcst(2, 1, [(0b100, 1)])


# -- byte-identical generator output ------------------------------------------------

# sha256 of the instance file and of the report file that
# `crossopt gen <kind> --out --report` writes, for each generator run of
# the benchmark's gap mix, recorded before the exhaustive scans moved to
# integers and tables.  The planar-gap instance files have since named
# their lattice by k alone (a product-of-chains body); the files that
# held its tables are pinned in TABLE_DIGESTS.
GAP_DIGESTS = {
    ("mcst-gap", 4): (
        "593ed009181bad7923ff0d2399615f4d20cb1bdb27be3d50374f319d8e814826",
        "2ae1c8900cfeba7bbfa0da998c37c0d0245f68b09a58a14cfba21693662f74f4",
    ),
    ("mcst-gap", 8): (
        "7378910fe862ad397744559339bd3e29f7c72d98ee230407c98bcf42247ed3e0",
        "d63267f580191890147d33c0d985fb1cb857f9aed70408dfa784aa9a8b294efb",
    ),
    ("mcst-gap", 16): (
        "4dbea07a4e0614b284b7ed4f17b375825589636495472a9a3d279b29e548807f",
        "bd60221a1a05482713ac8136c244da05d8bcb76bba546ea018945b886e52d5bb",
    ),
    ("planar-gap", 2): (
        "62c90b0f9d7ff7992b1ec3dce4768ab2714ee4c2598e762e8a87a24e78223ab9",
        "62f5bb0b1e3f3b42dd52cf4887b969db83a1dc5d10131df6ec7b9470d9814842",
    ),
    ("planar-gap", 3): (
        "bb198b0417a6b29d0ae370dff021f934ec4cd71b6e7ad94a8cb90329c6838b67",
        "8f70bd2b86cb89040c6f7473eff844dcb1987b12e8c0f7509785d3cdd78cedbc",
    ),
    ("planar-gap", 4): (
        "2a1ed2e16dd8977f4852823e44ba4c94b6ba817481834bc9db2b45e47a9e7e48",
        "3c898334d8547bfd1cc7f20a48df4109b9352b9f5434581b924412e4aeec12ab",
    ),
}


# sha256 of the planar-gap instance file with its lattice written as
# explicit leq/meet/join tables, as the generator wrote it before the
# product-of-chains body: the tables are tests/table_lattice.py's
TABLE_DIGESTS = {
    2: "867bfe6729f2531e3847f1c72b4418d3537ecf1ad94662161bb1a9cc01ac51c8",
    3: "ce6bb3d8430ab1002b0a32479cbf76a4f7959a29b07d4ac9ef2e7462254111a4",
    4: "bd91a04c78daa618f32620b4695571ce1743cf4567bbf15ca6a0c5a39a9393a6",
}


@pytest.mark.parametrize("kind, size", sorted(GAP_DIGESTS))
def test_gap_outputs_are_pinned(kind, size, request):
    if (kind, size) == ("mcst-gap", 8):
        inst, rep = request.getfixturevalue("mcst_gap_e8")
    elif (kind, size) == ("mcst-gap", 16):
        inst, rep = request.getfixturevalue("mcst_gap_e16")
    elif kind == "mcst-gap":
        inst, rep = gen_mcst_gap(size)
    else:
        inst, rep = gen_planar_mincut_gap(size)
    # what dump_instance and the CLI's report writer put in the files
    written = (canonical_json(inst.to_json()), canonical_json(rep.to_json()))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in written)
    assert digests == GAP_DIGESTS[kind, size]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lattice_rows_are_written_as_they_are(k):
    """The generator writes the product-of-chains body, and an explicit
    lattice is written with its rows as they are: the reference tables'
    list rows, the rows of the LatticeOracle decoded from that file and
    those rows as tuples all give the pinned table file, which differs
    from the generator's file only in its lattice object."""
    inst, _ = gen_planar_mincut_gap(k)
    implicit = inst.to_json()
    assert implicit["lattice"] == {"product_of_chains": {"k": k}}
    reference = table_lattice.path_lattice(k)
    body = LatticeInstance(reference, inst.costs, inst.constraints, inst.variant)
    text = canonical_json(body.to_json())
    lat = decode_instance(parse_json(text, "planar-gap table file")).lat
    tupled = LatticeOracle(
        lat.ground_n,
        lat.rho,
        lat.rank,
        lat.above,
        tuple(map(tuple, lat.meet)),
        tuple(map(tuple, lat.join)),
    )
    assert type(lat.meet[0]) is list and type(reference.meet[0]) is list
    for lattice in (reference, lat, tupled):
        body = LatticeInstance(lattice, inst.costs, inst.constraints, inst.variant)
        written = body.to_json()
        digest = hashlib.sha256(canonical_json(written).encode()).hexdigest()
        assert digest == TABLE_DIGESTS[k]
        assert {key: v for key, v in written.items() if key != "lattice"} == {
            key: v for key, v in implicit.items() if key != "lattice"
        }


@pytest.mark.parametrize("k", [2, 3, 4])
def test_planar_gap_builds_no_lattice_oracle(k, monkeypatch):
    """The generator's lattice is implicit (oracles.PathLattice): with
    LatticeOracle unusable, its outputs are still the pinned ones."""

    def refuse(*args, **kwargs):
        raise AssertionError("gen_planar_mincut_gap built a LatticeOracle")

    monkeypatch.setattr(oracles.LatticeOracle, "__init__", refuse)
    inst, rep = gen_planar_mincut_gap(k)
    written = (canonical_json(inst.to_json()), canonical_json(rep.to_json()))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in written)
    assert digests == GAP_DIGESTS["planar-gap", k]


@pytest.mark.parametrize("e", [4, 8])
def test_mcst_gap_lists_no_whole_graph_trees(e, monkeypatch):
    """The gap's tree scan folds the gadgets' blocks and never lists the
    4^e trees of the whole graph: with enumerate_spanning_trees unusable,
    its outputs are still the pinned ones."""

    def refuse(*args, **kwargs):
        raise AssertionError("gen_mcst_gap listed every spanning tree")

    monkeypatch.setattr(brute, "enumerate_spanning_trees", refuse)
    inst, rep = gen_mcst_gap(e)
    written = (canonical_json(inst.to_json()), canonical_json(rep.to_json()))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in written)
    assert digests == GAP_DIGESTS["mcst-gap", e]
