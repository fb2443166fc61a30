"""Acceptance suite: one test per shipped guarantee, exact arithmetic
throughout, with a PASS/FAIL line per criterion (run with -s to see
them on success).

All tolerances are zero: every inequality is checked over exact
rationals.  The corpora are seeded and fixed, including the scanned
seeds that force constraint-drop rounds so the drop machinery is
covered, not just the fix/delete path.
"""

import random
import time

import pytest

from crossopt.brute import brute_subset_opt
from crossopt.errors import InternalCheckError, NoStepApplies
from crossopt.generators import gen_edge_cover_tight, gen_mcst_gap, gen_planar_mincut_gap
from crossopt.instances import INCLUSION
from crossopt.intersection import run_intersection, verify_intersection
from crossopt.lattice import bound_feasible_predicate, run_lattice, verify_lattice
from crossopt.lpengine import (
    ResidualIntersectionLp,
    ResidualMcstLp,
    coordinate_ranges,
    full_separation_clean,
    solve_to_extreme_point,
)
from crossopt.mcst import drop_round_limit, run_mcst, verify_guarantee
from crossopt.randgen import (
    CorpusConfig,
    mcst_corpus,
    random_intersection_instance,
    random_lattice_instance,
)
from crossopt.rational import Rat
from crossopt.simplex import STATS, verify_vertex_certificate
from crossopt.brute import enumerate_spanning_trees
from crossopt.generators import (
    reduce_uniform_crossing_to_mcst,
    tree_to_subset,
    yes_case_tree,
)

MCST_CORPUS_SIZE = 200
INTERSECTION_CORPUS_SIZE = 100
LATTICE_CORPUS_SIZE = 100
INCLUSION_CORPUS_SIZE = 60


def announce(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def mcst_results():
    corpus = mcst_corpus(CorpusConfig(count=MCST_CORPUS_SIZE))
    results = []
    internal_failures = 0
    started = time.perf_counter()
    for inst in corpus:
        try:
            tree, trace = run_mcst(inst)
        except (InternalCheckError, NoStepApplies):
            internal_failures += 1
            continue
        results.append((inst, tree, trace, verify_guarantee(inst, tree, trace)))
    elapsed = time.perf_counter() - started
    return results, internal_failures, elapsed


def test_criterion_1_laminar_guarantee(mcst_results):
    results, _, elapsed = mcst_results
    ok = len(results) == MCST_CORPUS_SIZE
    failures = []
    for inst, tree, trace, report in results:
        if not report.ok:
            failures.extend(report.failures)
            ok = False
        if inst.graph.cost_of(tree) > trace.initial_lp_objective():
            failures.append("cost above LP optimum")
            ok = False
    drops = sum(1 for _, _, _, rep in results if rep.t_rounds > 0)
    ok = ok and elapsed < 300 and drops > 0
    announce(
        "criterion-1 laminar-mcst guarantee",
        ok,
        f"({len(results)} runs, {drops} with drop rounds, {elapsed:.1f}s; "
        f"failures={failures[:3]})",
    )


def test_criterion_2_step_exhaustiveness(mcst_results):
    results, internal_failures, _ = mcst_results
    announce(
        "criterion-2 no internal invariant failures",
        internal_failures == 0 and len(results) == MCST_CORPUS_SIZE,
        f"(exit-code-3 class events: {internal_failures})",
    )


def test_criterion_3_drop_round_counts(mcst_results):
    results, _, _ = mcst_results
    ok = True
    for inst, _, _, report in results:
        sizes = report.family_sizes
        for t in range(report.t_rounds):
            if 8 * (sizes[t] - sizes[t + 1]) < sizes[t]:
                ok = False
        if report.t_rounds > drop_round_limit(inst.graph.n):
            ok = False
    max_t = max((r.t_rounds for _, _, _, r in results), default=0)
    announce("criterion-3 drop-round bounds", ok, f"(max T observed: {max_t})")


def test_criterion_4_intersection(mcst_results):
    rng = random.Random(404)
    ok = True
    detail = ""
    for i in range(INTERSECTION_CORPUS_SIZE):
        inst = random_intersection_instance(rng, max_elems=10, max_delta=3)
        sol, events, opt = run_intersection(inst)
        report = verify_intersection(inst, sol, opt)
        if not report.ok:
            ok = False
            detail = f"instance {i}: {report.failures}"
            break

    tight = gen_edge_cover_tight(1)
    state = ResidualIntersectionLp(
        tight.pair,
        tight.costs,
        0b1111,
        0,
        tuple((i, c.elems, c.upper) for i, c in enumerate(tight.constraints)),
    )
    point = solve_to_extreme_point(state)
    pinned = coordinate_ranges(state, point.objective, tight.costs)
    unique_half = all(lo == hi == Rat(1, 2) for lo, hi in pinned)
    sol, _, opt = run_intersection(tight)
    clause = all(
        (sol & c.elems).bit_count() == 2 * c.upper + tight.delta - 1
        for c in tight.constraints
    )
    ok = ok and unique_half and clause and verify_intersection(tight, sol, opt).ok
    announce(
        "criterion-4 covering intersection",
        ok,
        f"({INTERSECTION_CORPUS_SIZE} runs; tight example pinned-half={unique_half}, "
        f"degree clause tight={clause}) {detail}",
    )


def test_criterion_5_lattice():
    rng = random.Random(505)
    ok = True
    detail = ""
    for i in range(LATTICE_CORPUS_SIZE):
        inst = random_lattice_instance(rng, max_ground=8, max_delta=2)
        sol, events, opt = run_lattice(inst)
        _, brute = brute_subset_opt(
            inst.n, bound_feasible_predicate(inst), inst.costs
        )
        report = verify_lattice(inst, sol, brute)
        if not report.ok:
            ok = False
            detail = f"general instance {i}: {report.failures}"
            break

    exact_delta_one = 0
    for i in range(INCLUSION_CORPUS_SIZE):
        max_delta = 1 if i % 2 == 0 else 2
        inst = random_lattice_instance(
            rng, max_ground=8, max_delta=max_delta, variant=INCLUSION
        )
        sol, events, opt = run_lattice(inst)
        _, brute = brute_subset_opt(
            inst.n, bound_feasible_predicate(inst), inst.costs
        )
        report = verify_lattice(inst, sol, brute)
        if not report.ok:
            ok = False
            detail = f"inclusion instance {i}: {report.failures}"
            break
        if inst.delta == 1:
            exact_delta_one += 1
            for con in inst.constraints:
                if Rat((sol & con.elems).bit_count()) > con.upper:
                    ok = False
                    detail = f"inclusion delta=1 instance {i} exceeded a bound"
    ok = ok and exact_delta_one > 0
    announce(
        "criterion-5 lattice covering",
        ok,
        f"({LATTICE_CORPUS_SIZE} general + {INCLUSION_CORPUS_SIZE} inclusion runs, "
        f"{exact_delta_one} with frequency 1 met bounds exactly) {detail}",
    )


def test_criterion_6_planar_gap():
    started = time.perf_counter()
    ok = True
    for k in (2, 3):
        inst, rep = gen_planar_mincut_gap(k)
        ok = ok and rep.lp_feasible and rep.claim_ok
        ok = ok and rep.integral_min_violation >= k - 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    announce("criterion-6 planar min-cut gap", ok, f"({elapsed:.1f}s for k=2,3)")


def test_criterion_7_mcst_gap(mcst_gap_e8):
    ok = True
    rhos = {}
    for e, (inst, rep) in ((4, gen_mcst_gap(4)), (8, mcst_gap_e8)):
        rhos[e] = rep.details["discrepancy"]
        ok = ok and rep.lp_feasible and rep.claim_ok
        ok = ok and rep.integral_min_violation >= Rat(rhos[e], 2) - 1
    announce(
        "criterion-7 spanning-tree gap", ok, f"(measured discrepancies: {rhos})"
    )


def test_criterion_8_reduction_gadget():
    e, t = 3, 2
    ok = True
    families = [
        [(0b011, 1)],
        [(0b011, 1), (0b110, 1)],
        [(0b111, 2)],
        [(0b001, 0)],
        [],
    ]
    graph_trees = None
    for bounds in families:
        inst = reduce_uniform_crossing_to_mcst(e, t, bounds)
        if graph_trees is None:
            graph_trees = enumerate_spanning_trees(inst.graph)
        for tree in graph_trees:
            tree_to_subset(e, tree)  # raises unless exactly 3 edges per gadget
        special_mask, special_bound = inst.bounds[-1]
        feasible_bases = [
            x
            for x in range(1 << e)
            if x.bit_count() == t
            and all(
                (x & c).bit_count() <= b for c, b in bounds
            )
        ]
        for basis in feasible_bases:
            tree = yes_case_tree(e, basis)
            ok = ok and inst.graph.is_spanning_tree(tree)
            ok = ok and Rat((tree & special_mask).bit_count()) == special_bound
            for (c_mask, b), (emask, bound) in zip(bounds, inst.bounds):
                ok = ok and Rat((tree & emask).bit_count()) <= bound
    announce(
        "criterion-8 reduction gadget",
        ok,
        f"({len(families)} bound families, {len(graph_trees)} trees each)",
    )


def test_criterion_9_certificates_and_separation(mcst_results):
    # every returned vertex was certificate-verified at solve time, the
    # vertices reused after fix/delete steps as well as the solved ones
    counters_ok = (
        STATS["certificates"] >= STATS["solves"] + STATS["reused"]
        and STATS["solves"] > 0
        and STATS["reused"] > 0
    )

    # independent post-hoc re-check on fresh solves across families
    rng = random.Random(909)
    clean = True
    for _ in range(5):
        inst = random_intersection_instance(rng, max_elems=8)
        state = ResidualIntersectionLp(
            inst.pair,
            inst.costs,
            (1 << inst.n) - 1,
            0,
            tuple((i, c.elems, c.upper) for i, c in enumerate(inst.constraints)),
        )
        point = solve_to_extreme_point(state)
        verify_vertex_certificate(point.lp, point.solution)
        clean = clean and full_separation_clean(
            state, point.x_by_id
        )
    results, _, _ = mcst_results
    for inst, tree, trace, report in results[:5]:
        state = ResidualMcstLp(
            inst.graph,
            inst.graph.all_edges_mask,
            0,
            tuple((i, m, b) for i, (m, b) in enumerate(inst.family)),
        )
        point = solve_to_extreme_point(state)
        verify_vertex_certificate(point.lp, point.solution)
        clean = clean and full_separation_clean(state, point.x_by_id)
    announce(
        "criterion-9 vertex certificates and clean separation",
        counters_ok and clean,
        f"(solves={STATS['solves']}, reused={STATS['reused']}, "
        f"certified={STATS['certificates']})",
    )
