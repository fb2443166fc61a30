import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import table_lattice
from conftest import triangle_graphic_matroid
from incremental_laminar import incremental_forest
from crossopt.errors import InstanceError, InternalCheckError
from crossopt.graphs import Edge, Graph, mask_of
from crossopt.instances import (
    GENERAL,
    INCLUSION,
    GeneralMcstInstance,
    McstInstance,
    canonical_json,
    decode_instance,
    from_matroid,
    instance_digest,
)
from crossopt.laminar import LaminarForest
from crossopt.oracles import (
    ContraPolymatroidPair,
    CrossingConstraint,
    LatticeOracle,
    MatroidOracle,
    _local_exchange_violation,
    matroid_to_lattice,
)
from crossopt.randgen import random_laminar_sets
from crossopt.rational import Rat, render_rat


# -- graphs --------------------------------------------------------------------


def test_graph_rejects_self_loops_and_duplicate_ids():
    with pytest.raises(InstanceError):
        Graph.from_pairs(2, [(0, 0)])
    from crossopt.graphs import Edge

    with pytest.raises(InstanceError):
        Graph(2, [Edge(0, 0, 1, Rat(1)), Edge(0, 1, 0, Rat(1))])


def test_parallel_edges_are_allowed(four_cycle):
    g = Graph.from_pairs(2, [(0, 1), (0, 1)], [1, 2])
    assert g.delta_mask(0b01) == 0b11
    assert four_cycle.induced_mask(0b0111) == 0b0011


def test_delta_induced_touching(triangle):
    s = 0b011  # vertices 0,1
    assert triangle.delta_mask(s) == 0b110  # edges (1,2) and (0,2)
    assert triangle.induced_mask(s) == 0b001
    assert triangle.cut(s)[1] == 0b111
    assert triangle.is_spanning_tree(0b011)
    assert not triangle.is_spanning_tree(0b111)


@st.composite
def multigraphs(draw):
    """Graphs on up to 8 vertices with parallel edges and sparse ids."""
    n = draw(st.integers(1, 8))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = [(u, v) for u, v in draw(st.lists(ends, max_size=16)) if u != v]
    pairs += pairs[: draw(st.integers(0, len(pairs)))]  # parallel copies
    ids = draw(
        st.lists(
            st.integers(0, 40), min_size=len(pairs), max_size=len(pairs), unique=True
        )
    )
    return Graph(n, [Edge(i, u, v, Rat(0)) for i, (u, v) in zip(ids, pairs)])


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_incidence_masks_match_per_edge_definitions(graph, data):
    vmask = data.draw(st.integers(0, graph.full_vmask))
    within = data.draw(st.one_of(st.none(), st.integers(0, (1 << 41) - 1)))

    def per_edge(keep):
        out = sum(
            1 << e.id
            for e in graph.edges
            if keep((vmask >> e.u) & 1, (vmask >> e.v) & 1)
        )
        return out if within is None else out & within

    assert graph.delta_mask(vmask, within) == per_edge(lambda a, b: a != b)
    touching = graph.cut(vmask)[1]
    assert per_edge(lambda a, b: a or b) == (
        touching if within is None else touching & within
    )
    assert graph.induced_mask(vmask, within) == per_edge(lambda a, b: a and b)


# -- laminar forests ------------------------------------------------------------


def chain_forest():
    return LaminarForest.from_sets(
        [(0b1111, Rat(3)), (0b0011, Rat(2)), (0b0001, Rat(1))]
    )


def test_levels():
    f = chain_forest()
    assert f.level(0) == 0
    assert f.level(1) == 1
    assert f.level(2) == 2


def test_level_of_dead_node_rejected():
    f = chain_forest()
    f.nodes[2].alive = False
    f.nodes[1].children.remove(2)
    with pytest.raises(InstanceError):
        f.level(2)


def flat_forest(k):
    return LaminarForest.from_sets([(1 << i, Rat(1)) for i in range(k)])


def test_crossing_family_rejected():
    with pytest.raises(InstanceError):
        LaminarForest.from_sets([(0b0011, Rat(1)), (0b0110, Rat(1))])
    with pytest.raises(InstanceError):
        LaminarForest.from_sets([(0b01, Rat(1)), (0b01, Rat(1))])


def forest_shape(forest):
    return (
        [(nd.id, nd.vset, nd.bound, nd.parent, nd.children) for nd in forest.nodes],
        forest.roots,
    )


def test_from_sets_matches_incremental_builder():
    # shuffled so that supersets come after their subsets as often as
    # before them, and children reach a parent in every order
    rng = random.Random(3602)
    for _ in range(2000):
        n = rng.randint(2, 9)
        masks = random_laminar_sets(rng, n, 2 * n - 1)
        rng.shuffle(masks)
        family = [(m, Rat(rng.randint(0, 3))) for m in masks]
        assert forest_shape(LaminarForest.from_sets(family)) == forest_shape(
            incremental_forest(family)
        )


def test_drop_children_splices_in_place():
    f = LaminarForest.from_sets(
        [
            (0b111111, Rat(5)),
            (0b000011, Rat(2)),
            (0b001100, Rat(2)),
            (0b000001, Rat(1)),
            (0b000100, Rat(1)),
        ]
    )
    # root 0 has children [1, 2]; 1 has child 3; 2 has child 4
    dropped = f.drop_children_of([0])
    assert sorted(dropped) == [1, 2]
    assert f.nodes[0].children == [3, 4]
    assert f.nodes[3].parent == 0 and f.nodes[4].parent == 0
    f.check_invariants()


def test_merge_leaves_position_and_bound():
    f = flat_forest(3)
    new_id = f.merge_leaf_pair(0, 2)
    assert f.roots == [new_id, 1]
    node = f.node(new_id)
    assert node.vset == 0b101 and node.bound == Rat(2)
    f.check_invariants()


def test_merge_requires_sibling_leaves():
    f = chain_forest()
    with pytest.raises(InternalCheckError):
        f.merge_leaf_pair(0, 2)


def test_randomized_mutation_churn_keeps_invariants():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 8)
        sets = []
        vs = list(range(n))
        rng.shuffle(vs)

        def split(part):
            if len(part) >= 1 and rng.random() < 0.8:
                sets.append((mask_of(part), Rat(rng.randint(0, 3))))
            if len(part) > 1:
                cut = rng.randrange(1, len(part))
                split(part[:cut])
                split(part[cut:])

        split(vs)
        if not sets:
            continue
        f = LaminarForest.from_sets(sets)
        for _ in range(6):
            alive = f.alive_ids()
            if not alive:
                break
            action = rng.choice(["drop", "merge", "remove"])
            if action == "drop":
                nonleaves = [i for i in alive if f.node(i).children]
                if nonleaves:
                    f.drop_children_of([rng.choice(nonleaves)])
            elif action == "merge":
                by_parent = {}
                for i in alive:
                    if f.node(i).is_leaf():
                        by_parent.setdefault(f.parent_key(i), []).append(i)
                pools = [v for v in by_parent.values() if len(v) >= 2]
                if pools:
                    pool = rng.choice(pools)
                    f.merge_leaf_pair(pool[0], pool[1])
            else:
                leaves = [i for i in alive if f.node(i).is_leaf()]
                if leaves:
                    f.remove_leaf(rng.choice(leaves))
            f.check_invariants()


# -- oracles ---------------------------------------------------------------------


def test_matroid_validation_rejects_bad_tables():
    with pytest.raises(InstanceError):
        MatroidOracle(2, (1, 1, 1, 2))  # rank(empty) != 0
    with pytest.raises(InstanceError):
        MatroidOracle(2, (0, 1, 1, 3))  # singleton jump
    with pytest.raises(InstanceError):
        MatroidOracle(2, (0, 1, 1, 1, 0, 0, 0, 0))  # wrong table size
    # non-submodular: r({1}) + r({2}) < r({1,2}) + r({})
    with pytest.raises(InstanceError):
        MatroidOracle(3, (0, 1, 1, 2, 1, 2, 2, 4))


def test_supermodular_pair_validation():
    ok = ContraPolymatroidPair(2, (0, 0, 0, 1), (0, 1, 0, 1))
    assert ok.requirement(0b11) == 1
    with pytest.raises(InstanceError):
        ContraPolymatroidPair(2, (0, 1, 1, 1), (0, 0, 0, 0))  # submodular, not super


def test_supermodular_violation_names_the_first_witness():
    # |S|^2 with r(E) lowered to 6 breaks the exchange condition at
    # S = {0}, {1} and {2}; the scan names the first, as the pair's
    # validation does
    square = tuple(s.bit_count() ** 2 for s in range(8))
    table = square[:7] + (6,)
    assert _local_exchange_violation(square, 3, -1) is None
    assert _local_exchange_violation(table, 3, -1) == (0b1, 1, 2)
    message = r"^r1 supermodularity violated at S=0x1, e=1, f=2$"
    with pytest.raises(InstanceError, match=message):
        ContraPolymatroidPair(3, table, (0,) * 8)


def _exchange_differences(table, n):
    """t(S+e) + t(S+f) - t(S+e+f) - t(S) for every S and e < f outside S."""
    return [
        table[s | 1 << e] + table[s | 1 << f] - table[s | 1 << e | 1 << f] - table[s]
        for s in range(1 << n)
        for e in range(n)
        for f in range(e + 1, n)
        if not (s >> e) & 1 and not (s >> f) & 1
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_residual_keeps_every_local_exchange_difference(data):
    # |S & F| is modular, so t(S) - |S & F| has the exchange differences
    # of t: the residual of a table that passed decoding cannot fail the
    # supermodularity check, and the solver does not repeat it
    n = data.draw(st.integers(0, 6))
    table = data.draw(st.lists(st.integers(-50, 50), min_size=1 << n, max_size=1 << n))
    fmask = data.draw(st.integers(0, (1 << n) - 1))
    residual = [t - (s & fmask).bit_count() for s, t in enumerate(table)]
    assert _exchange_differences(residual, n) == _exchange_differences(table, n)
    witness = _local_exchange_violation(table, n, -1)
    assert _local_exchange_violation(residual, n, -1) == witness


def test_matroid_to_lattice_examples():
    free1 = MatroidOracle(1, (0, 1))
    lat = matroid_to_lattice(free1)
    assert lat.rank[0b1] == 1

    u23 = MatroidOracle(3, tuple(min(s.bit_count(), 2) for s in range(8)))
    assert matroid_to_lattice(u23).rank[0b111] == 2

    tri = matroid_to_lattice(triangle_graphic_matroid())
    assert tri.rank[0b011] == 1  # rank(E) - rank({third edge}) = 2 - 1

    # the table-built reference gives the same ranks
    for matroid in (free1, u23, triangle_graphic_matroid()):
        new = matroid_to_lattice(matroid)
        assert new.rank == table_lattice.matroid_to_lattice(matroid).rank


@pytest.mark.parametrize("mask", [0b100, -1])
def test_lattice_image_outside_ground_set_is_refused(mask):
    with pytest.raises(InstanceError, match="member 1 rho"):
        LatticeOracle.from_leq(
            2,
            rho=[0b01, mask],
            rank=[0, 0],
            leq=[[1, 1], [0, 1]],
            meet=[[0, 0], [0, 1]],
            join=[[0, 1], [1, 1]],
        )


@pytest.mark.parametrize(
    "above, message",
    [
        ([0b11], "lattice above table must have 2 rows, one per member"),
        ([0b11, 0b110], "lattice above[1] is 6, not a bitmask of members below 2"),
        ([0b11, -2], "lattice above[1] is -2, not a bitmask of members below 2"),
        ([0b11, True], "lattice above[1] is True, not a bitmask of members below 2"),
    ],
)
def test_lattice_above_rows_are_checked(above, message):
    with pytest.raises(InstanceError) as exc:
        LatticeOracle(1, [0, 1], [0, 0], above, [[0, 0], [0, 1]], [[0, 1], [1, 1]])
    assert str(exc.value) == message
    lat = LatticeOracle(1, [0, 1], [0, 0], [0b11, 0b10], [[0, 0], [0, 1]], [[0, 1], [1, 1]])
    assert lat.below == [0b01, 0b11]


def test_lattice_axiom_failures_carry_witnesses():
    # consecutive property violated: bottom {0}, mid {1}, top {0,1}
    with pytest.raises(InstanceError, match="consecutive"):
        LatticeOracle.from_leq(
            2,
            rho=[0b01, 0b10, 0b11],
            rank=[0, 0, 1],
            leq=[[1, 1, 1], [0, 1, 1], [0, 0, 1]],
            meet=[[0, 0, 0], [0, 1, 1], [0, 1, 2]],
            join=[[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        )
    with pytest.raises(InstanceError, match="supermodularity"):
        LatticeOracle.from_leq(
            2,
            rho=[0b00, 0b01, 0b10, 0b11],
            rank=[0, 1, 1, 1],  # 1 + 1 > 0 + 1
            leq=[
                [1, 1, 1, 1],
                [0, 1, 0, 1],
                [0, 0, 1, 1],
                [0, 0, 0, 1],
            ],
            meet=[[0] * 4, [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
            join=[[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
        )


def test_crossing_constraint_bounds_ordered():
    with pytest.raises(InstanceError):
        CrossingConstraint(0b1, Rat(2), Rat(1))


def test_max_frequency():
    from crossopt.oracles import max_frequency

    cons = [
        CrossingConstraint(0b011, None, Rat(1)),
        CrossingConstraint(0b010, None, Rat(1)),
    ]
    assert max_frequency(cons, 2) == 2


# -- instances and serialization ---------------------------------------------------


def test_family_size_limit():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)], [1, 1])
    too_many = tuple((1 << (i % 3), Rat(1)) for i in range(6))
    with pytest.raises(InstanceError):
        McstInstance(g, too_many)


def test_mcst_bounds_must_be_integral():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)], [1, 1])
    with pytest.raises(InstanceError):
        McstInstance(g, ((0b001, Rat(1, 2)),))


def test_inclusion_variant_demands_upper_only():
    tri = triangle_graphic_matroid()
    with pytest.raises(InstanceError):
        from_matroid(
            tri, [1, 1, 1], (CrossingConstraint(0b011, Rat(1), Rat(2)),), INCLUSION
        )


def _round_trip(instance):
    body = instance.to_json()
    clone = decode_instance(body)
    assert clone.to_json() == body
    assert canonical_json(body) == canonical_json(clone.to_json())
    return clone


def test_round_trip_mcst(tree_instance):
    clone = _round_trip(tree_instance)
    assert clone.family == tree_instance.family
    assert instance_digest(clone) == instance_digest(tree_instance)


def test_round_trip_general_mcst():
    g = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 1)], [1, 2, 3])
    inst = GeneralMcstInstance(g, ((0b011, Rat(2)), (0b100, Rat(1))))
    clone = _round_trip(inst)
    assert clone.bounds == inst.bounds


def test_round_trip_intersection(edge_cover_4cycle):
    clone = _round_trip(edge_cover_4cycle)
    assert clone.pair.r1 == edge_cover_4cycle.pair.r1
    assert clone.delta == 1


def test_round_trip_lattice_matroid_and_explicit():
    tri = triangle_graphic_matroid()
    inst = from_matroid(
        tri, [1, 2, 3], (CrossingConstraint(0b011, Rat(0), Rat(1)),), GENERAL
    )
    clone = _round_trip(inst)
    assert clone.lat.matroid.rank == inst.lat.matroid.rank

    from crossopt.generators import gen_planar_mincut_gap

    planar, _ = gen_planar_mincut_gap(2)
    clone2 = _round_trip(planar)
    assert clone2.lat.rho == planar.lat.rho


def test_cost_of_prices_a_mask_for_every_solver_kind(
    tree_instance, edge_cover_4cycle
):
    lattice = from_matroid(
        triangle_graphic_matroid(), [1, 2, Rat(5, 2)], (), GENERAL
    )
    for inst in (tree_instance, edge_cover_4cycle, lattice):
        # the report renders the empty solution's cost as "0/1"
        assert render_rat(inst.cost_of(0)) == "0/1"
    assert tree_instance.cost_of(0b101) == 12
    assert edge_cover_4cycle.cost_of(0b1011) == 3
    assert lattice.cost_of(0b110) == Rat(9, 2)


def test_decode_rejects_bad_schema():
    with pytest.raises(InstanceError):
        decode_instance({"schema": 99, "type": "mcst"})
    with pytest.raises(InstanceError):
        decode_instance({"schema": 1, "type": "nonsense"})
