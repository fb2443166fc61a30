"""Seeded workloads of the crossopt benchmark.

Each workload turns a seed into a list of operations.  An operation is
the argument list of one ``crossopt`` command, run in-process through
``crossopt.cli.main``; set-up writes every instance file the operations
read, so the program receives only generated files.

Seed 0 draws from the acceptance suite's own seeded streams (MCST
seed 2010 after the drop-round seeds, intersection seed 404, lattice
seed 505); seed s shifts every family seed by s.  The corpora keep the
acceptance distributions but fix how many instances of each size they
hold (see ``stratified``).  HELD_OUT_SEED is kept out of all tuning, so
a claimed gain can be re-checked on unseen inputs.
"""

import os
import random
from dataclasses import dataclass
from math import comb, floor

from crossopt import randgen
from crossopt.instances import GENERAL, INCLUSION, dump_instance

ACCEPTANCE_SEEDS = {"mcst": 2010, "intersection": 404, "lattice": 505}
HELD_OUT_SEED = 7919

# Instance sizes the acceptance distributions draw uniformly: vertices
# for MCST, ground-set elements for intersection and lattice.
MCST_SIZES = range(randgen.CorpusConfig.n_min, randgen.CorpusConfig.n_max + 1)
INTERSECTION_SIZES = range(4, 11)
LATTICE_SIZES = range(4, 9)
# Per size: 14 drop-round instances plus 6 x 31 draws make the
# acceptance suite's 200 MCST instances; each size's 31 are split further
# by edge count (see mcst_quotas).  7 x 10 intersection and
# 5 x (7 + 14) lattice instances (every third lattice draw in the
# inclusion variant) keep the acceptance suite's 100 : 160 ratio
# roughly, and put the largest lattices (12% of the operations) clear of
# the 90th percentile's boundary.
MCST_PER_SIZE = 31
INTERSECTION_PER_SIZE = 10
LATTICE_PER_SIZE = {INCLUSION: 7, GENERAL: 14}
# One pass of gap-certify: the certified gap generators at every size
# they support, each repeated as often as given.  Their times lie far
# apart (2 ms to 7 s), so a percentile that falls between two kinds of
# operation jumps between their times, and one that falls on a kind
# with a single sample per pass is that sample's noise.  The repeats
# put each percentile amid many samples of one kind, whatever the
# number of passes: of the 80 operations, ranked by time, the median
# falls on the middle of the 54 mcst-gap e=4 runs (13 faster below
# them), and the 90th percentile on the middle of the 10 planar-gap k=4
# runs (3 slower above them).
GAP_MIX = (
    (("planar-gap", "--k", 2), 13),
    (("mcst-gap", "--e", 4), 54),
    (("planar-gap", "--k", 4), 10),
    (("planar-gap", "--k", 3), 1),
    (("mcst-gap", "--e", 16), 1),
    (("mcst-gap", "--e", 8), 1),
)


@dataclass(frozen=True)
class Op:
    argv: tuple
    report: str  # path of the canonical report the command writes
    trace: str = None  # path of the MCST event trace, when one is written


def family_seeds(seed):
    return {family: base + seed for family, base in ACCEPTANCE_SEEDS.items()}


def spread(groups):
    """Merge lists, each spread evenly over the result: the j-th of m
    items goes to position (j + 1/2) / m; ties keep the groups' order."""
    placed = sorted(
        ((j + 0.5) / len(group), k, j) for k, group in enumerate(groups) for j in range(len(group))
    )
    return [groups[k][j] for _, k, j in placed]


def stratified(draw, quotas):
    """Quota sample of a seeded distribution.

    ``draw(i)`` returns (stratum, instance) for the i-th draw.  Draws
    continue until every stratum holds its quota; later draws of a full
    stratum are dropped.  The result spreads each stratum evenly over
    its length, so every prefix of it has nearly the quota mix.

    Operation cost grows steeply with instance size (2^n subsets), so an
    unstratified corpus lets the share of large instances, and with it
    every timing, swing with the seed.
    """
    buckets = {key: [] for key in quotas}
    i = 0
    while any(len(buckets[key]) < quota for key, quota in quotas.items()):
        if i > 100 * sum(quotas.values()):
            short = [key for key, quota in quotas.items() if len(buckets[key]) < quota]
            raise RuntimeError(f"the distribution no longer yields strata {short}")
        key, instance = draw(i)
        i += 1
        if key in buckets and len(buckets[key]) < quotas[key]:
            buckets[key].append(instance)
    return spread(list(buckets.values()))


def apportion(total, shares):
    """Split ``total`` by ``shares`` (summing to 1) into whole numbers,
    largest remainders first."""
    exact = {key: total * share for key, share in shares.items()}
    counts = {key: floor(value) for key, value in exact.items()}
    by_remainder = sorted(exact, key=lambda key: counts[key] - exact[key])
    for key in by_remainder[: total - sum(counts.values())]:
        counts[key] += 1
    return counts


def mcst_quotas(per_size):
    """Quota per (vertices n, edges beyond a spanning tree e).

    After the vertex count, the edge count moves an MCST operation's time
    most (about 2x from e = 2 to e = 6 at equal n), so the corpus holds
    each e in proportion to its chance under random_mcst_instance:
    randint(2, 6) extra vertex pairs, each dropped when it is a self-loop
    (chance 1/n).  Edge counts too rare to get one instance are left out.
    """
    quotas = {}
    for n in MCST_SIZES:
        keep = (n - 1) / n
        shares = {
            e: sum(comb(x, e) * keep**e * (1 - keep) ** (x - e) for x in range(max(e, 2), 7)) / 5
            for e in range(7)
        }
        for e, quota in apportion(per_size, shares).items():
            if quota:
                quotas[n, e] = quota
    return quotas


def mcst_ops(instances, in_dir, out_dir):
    ops = []
    for i, instance in enumerate(instances):
        path = os.path.join(in_dir, f"mcst-{i:03d}.json")
        dump_instance(instance, path)
        report = os.path.join(out_dir, f"mcst-{i:03d}.report.json")
        trace = os.path.join(out_dir, f"mcst-{i:03d}.trace.jsonl")
        argv = ("solve-mcst", "--in", path, "--verify", "--trace", trace, "--report", report)
        ops.append(Op(argv, report, trace))
    return ops


def _mcst_corpus(seed, in_dir, out_dir, per_size=MCST_PER_SIZE):
    """The drop-round seeds first, as in randgen.mcst_corpus, then the
    corpus draws stratified by vertex and edge count."""
    drop_rounds = randgen.mcst_corpus(randgen.CorpusConfig(count=len(randgen.MCST_DROP_SEEDS)))
    rng = random.Random(family_seeds(seed)["mcst"])

    def draw(_):
        instance = randgen.random_mcst_instance(rng)
        graph = instance.graph
        return (graph.n, len(graph.edges) - (graph.n - 1)), instance

    rest = stratified(draw, mcst_quotas(per_size))
    return mcst_ops(drop_rounds + rest, in_dir, out_dir)


def _covering_corpus(seed, in_dir, out_dir, per_size=INTERSECTION_PER_SIZE, lattice_per_size=None):
    """Intersection and lattice instances, interleaved evenly."""
    lattice_per_size = lattice_per_size or LATTICE_PER_SIZE
    seeds = family_seeds(seed)
    inter_rng = random.Random(seeds["intersection"])
    lattice_rng = random.Random(seeds["lattice"])

    def draw_intersection(_):
        instance = randgen.random_intersection_instance(inter_rng)
        return instance.n, instance

    def draw_lattice(i):
        variant = INCLUSION if i % 3 == 0 else GENERAL
        instance = randgen.random_lattice_instance(lattice_rng, variant=variant)
        return (instance.n, variant), instance

    families = (
        ("intersection", stratified(draw_intersection, {n: per_size for n in INTERSECTION_SIZES})),
        (
            "lattice",
            stratified(
                draw_lattice,
                {(n, v): quota for n in LATTICE_SIZES for v, quota in lattice_per_size.items()},
            ),
        ),
    )
    labelled = [[(kind, i, instance) for i, instance in enumerate(corpus)] for kind, corpus in families]
    ops = []
    for kind, i, instance in spread(labelled):
        path = os.path.join(in_dir, f"{kind}-{i:03d}.json")
        dump_instance(instance, path)
        report = os.path.join(out_dir, f"{kind}-{i:03d}.report.json")
        argv = (f"solve-{kind}", "--in", path, "--verify", "--report", report)
        ops.append(Op(argv, report))
    return ops


def _gap_ops(seed, in_dir, out_dir):
    """The generators are deterministic, so the seed is ignored.  The
    repeats of each kind are spread evenly over the pass."""
    ops = []
    for kind, flag, size in spread([[op] * repeats for op, repeats in GAP_MIX]):
        stem = os.path.join(out_dir, f"{kind}-{size}")
        argv = ("gen", kind, flag, str(size), "--out", f"{stem}.json", "--report", f"{stem}.report.json")
        ops.append(Op(argv, f"{stem}.report.json"))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, in_dir, out_dir) -> [Op]
    whole_passes: bool  # stop the timed phase only at the end of a pass
    boundaries: tuple  # layer spans every pass must record
    setup_boundaries: tuple  # layer spans set-up must record


WORKLOADS = {
    "mcst-corpus": Workload(
        "mcst-corpus",
        _mcst_corpus,
        False,
        (
            "simplex.solve",
            "simplex.certify",
            "lpengine.extreme_point",
            "lpengine.sep_tree",
            "mcst.run",
            "mcst.classify",
            "mcst.verify",
            "instances.decode",
        ),
        ("randgen.mcst",),
    ),
    "covering-corpus": Workload(
        "covering-corpus",
        _covering_corpus,
        False,
        (
            "simplex.solve",
            "simplex.certify",
            "lpengine.extreme_point",
            "lpengine.sep_cover",
            "lpengine.sep_lattice",
            "intersection.run",
            "intersection.verify",
            "lattice.run",
            "lattice.verify",
            "instances.decode",
            "oracles.matroid_to_lattice",
            "brute.subset_opt",
        ),
        ("randgen.intersection", "randgen.lattice"),
    ),
    # Operation times span three orders of magnitude (2 ms to 7 s), so
    # the timed phase ends only after whole passes; a partial pass would
    # weight the throughput by wherever the clock ran out.
    "gap-certify": Workload(
        "gap-certify",
        _gap_ops,
        True,
        (
            "generators.mcst_gap",
            "generators.planar_gap",
            "generators.discrepancy",
            "brute.min_max_violation",
            "brute.tree_enum",
            "brute.kirchhoff",
        ),
        (),
    ),
}
