"""Command-line interface.

Exit codes: 0 success (all requested checks pass), 1 a guarantee check
failed, 2 usage or instance error, 3 internal invariant failure (the
class of errors that would falsify a structural counting argument; a
distinct code so CI can tell solver bugs from bad inputs).

Reports are canonical JSON (sorted keys); identical invocations on
identical inputs produce byte-identical reports.  Rationals appear as
"p/q" strings with a non-authoritative decimal alongside.  Timing is
opt-in (--timing) because it would break report determinism.
"""

import argparse
import functools
import os
import random
import sys
import time
from dataclasses import replace

from .brute import SUBSET_GUARD, brute_subset_opt
from .errors import InstanceError, InternalCheckError
from .generators import (
    gen_edge_cover_tight,
    gen_mcst_gap,
    gen_planar_mincut_gap,
    reduce_uniform_crossing_to_mcst,
)
from .graphs import iter_bits
from .instances import (
    GENERAL,
    INCLUSION,
    IntersectionInstance,
    LatticeInstance,
    McstInstance,
    _id_mask,
    canonical_json,
    check_writable,
    dump_instance,
    instance_digest,
    load_instance,
    parse_json,
    read_json,
    write_text,
)
from .intersection import IntersectionState, run_intersection, verify_intersection
from .lattice import bound_feasible_predicate, run_lattice, verify_lattice
from .mcst import McstState, run_mcst, verify_guarantee
from .randgen import (
    random_intersection_instance,
    random_lattice_instance,
    random_mcst_instance,
)
from .rational import as_float, render_rat
from .relax import RunTrace, initial_optimum

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# selftest starts at most this many worker processes at once
MAX_JOBS = os.cpu_count() or 1


def _rat_field(value):
    return {"rational": render_rat(value), "approx": as_float(value)}


def _load(path):
    """Load an instance from a file, or from stdin when path is '-'."""
    if path == "-":
        from .instances import decode_instance

        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:
            raise InstanceError(f"invalid JSON on stdin: {exc}") from exc
        return decode_instance(parse_json(text, "invalid JSON on stdin"))
    return load_instance(path)


def _emit(report, path):
    text = canonical_json(report)
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def _write_solution(mask, kind, path):
    body = {"schema": 1, "type": "solution", "kind": kind, "ids": sorted(iter_bits(mask))}
    write_text(path, canonical_json(body))


def _maybe_timing(report, started, args):
    if getattr(args, "timing", False):
        report["timing_seconds"] = round(time.perf_counter() - started, 3)


# command -> (instance type, its description, solution kind)
SOLVERS = {
    "solve-mcst": (McstInstance, "a laminar mcst instance", "edges"),
    "solve-intersection": (IntersectionInstance, "an intersection instance", "elements"),
    "solve-lattice": (LatticeInstance, "a lattice instance", "elements"),
}


def _run(instance):
    """Solve instance; returns (mask, trace, LP optimum), the trace
    None unless the instance is a spanning tree's.  run_* are looked up
    in this module when called."""
    if isinstance(instance, McstInstance):
        tree, trace = run_mcst(instance)
        return tree, trace, trace.initial_lp_objective()
    if isinstance(instance, IntersectionInstance):
        sol, _, opt = run_intersection(instance)
    else:
        sol, _, opt = run_lattice(instance)
    return sol, None, opt


def _verify(instance, mask, trace, lp_optimum):
    """The CheckReport of mask: a spanning tree against its trace, an
    intersection solution against lp_optimum, and a lattice solution
    with the cost check against the brute-force optimum when the ground
    set is within SUBSET_GUARD.  verify_* and brute_subset_opt are
    looked up in this module when called."""
    if isinstance(instance, McstInstance):
        return verify_guarantee(instance, mask, trace)
    if isinstance(instance, IntersectionInstance):
        return verify_intersection(instance, mask, lp_optimum)
    brute = None
    if instance.n <= SUBSET_GUARD:
        _, brute = brute_subset_opt(
            instance.n, bound_feasible_predicate(instance), instance.costs
        )
    return verify_lattice(instance, mask, brute)


def cmd_solve(args):
    started = time.perf_counter()
    check_writable(args.report, args.solution, getattr(args, "trace", None))
    instance = _load(args.infile)
    expected, description, kind = SOLVERS[args.command]
    if not isinstance(instance, expected):
        raise InstanceError(f"{args.command} expects {description}")
    fields = {}
    if isinstance(instance, LatticeInstance):
        if args.variant and args.variant != instance.variant:
            instance = replace(instance, variant=args.variant)
        fields["variant"] = instance.variant
    mask, trace, lp_optimum = _run(instance)
    if trace is not None:
        fields = {"drop_rounds": trace.drop_round_count(), "trace": args.trace}
        if args.trace:
            trace.to_jsonl(args.trace)
    report = {
        "schema": 1,
        "algorithm": args.command.removeprefix("solve-"),
        "instance_digest": instance_digest(instance),
        "solution": sorted(iter_bits(mask)),
        "cost": _rat_field(instance.cost_of(mask)),
        "lp_optimum": _rat_field(lp_optimum),
        **fields,
    }
    outcome = EXIT_OK
    if args.verify:
        result = _verify(instance, mask, trace, lp_optimum)
        report["checks"] = result.to_json()["checks"]
        report["outcome"] = "ok" if result.ok else "check-failed"
        if not result.ok:
            outcome = EXIT_CHECK_FAILED
    else:
        report["outcome"] = "ok"
    if args.solution:
        _write_solution(mask, kind, args.solution)
    _maybe_timing(report, started, args)
    _emit(report, args.report)
    return outcome


# the flags each generator reads, with their defaults
GEN_FLAGS = {
    "mcst-gap": {"e": 4},
    "planar-gap": {"k": 2},
    "edge-cover": {"n": 1},
    "reduction": {"e": 4, "t": 2, "bounds": None},
    "random-mcst": {"seed": 0},
    "random-intersection": {"seed": 0},
    "random-lattice": {"seed": 0},
}


def cmd_gen(args):
    kind = args.kind
    if args.report and kind not in ("mcst-gap", "planar-gap"):
        raise InstanceError(
            f"gen {kind} writes no report; --report is for mcst-gap and planar-gap"
        )
    reads = GEN_FLAGS[kind]
    opts = dict(reads)
    for flag in ("e", "k", "n", "t", "bounds", "seed"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in reads:
            raise InstanceError(
                f"gen {kind} does not read --{flag}; it reads "
                + ", ".join(f"--{name}" for name in reads)
            )
        opts[flag] = value
    check_writable(args.out, args.report)
    report_body = None
    if kind == "mcst-gap":
        instance, gap = gen_mcst_gap(opts["e"])
        report_body = gap.to_json()
    elif kind == "planar-gap":
        instance, gap = gen_planar_mincut_gap(opts["k"])
        report_body = gap.to_json()
    elif kind == "edge-cover":
        instance = gen_edge_cover_tight(opts["n"])
    elif kind == "reduction":
        e = opts["e"]
        bounds = _reduction_bounds(opts["bounds"], e) if opts["bounds"] else []
        instance = reduce_uniform_crossing_to_mcst(e, opts["t"], bounds)
    elif kind == "random-mcst":
        instance = random_mcst_instance(random.Random(opts["seed"]))
    elif kind == "random-intersection":
        instance = random_intersection_instance(random.Random(opts["seed"]))
    elif kind == "random-lattice":
        instance = random_lattice_instance(random.Random(opts["seed"]))
    else:  # pragma: no cover - argparse restricts choices
        raise InstanceError(f"unknown generator {kind}")
    if args.out:
        dump_instance(instance, args.out)
    else:
        sys.stdout.write(canonical_json(instance.to_json()))
    if args.report:
        _emit(report_body, args.report)
    if report_body is not None and not report_body.get("claim_ok", True):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _reduction_bounds(text, e):
    """The --bounds of `gen reduction`: a JSON list of [[element ids],
    bound] pairs, each id an int in range(e) and each bound an int."""
    specs = parse_json(text, "--bounds is not valid JSON")
    if not isinstance(specs, list):
        raise InstanceError(
            f"--bounds must be a list of [[elements], bound] pairs, got {specs!r}"
        )
    bounds = []
    for i, spec in enumerate(specs):
        if not (isinstance(spec, list) and len(spec) == 2):
            raise InstanceError(
                f"--bounds entry {i} must be a pair [[elements], bound], got {spec!r}"
            )
        elems, bound = spec
        if type(bound) is not int:
            raise InstanceError(
                f"--bounds entry {i} bound must be an integer, got {bound!r}"
            )
        what = f"--bounds entry {i} must list elements 0..{e - 1}"
        bounds.append((_id_mask(elems, range(e), what), bound))
    return bounds


def _load_solution(path, instance):
    """The mask of a solution file's ids, each an id of the instance:
    an edge id for a spanning tree instance, else an element 0..n-1."""
    body = read_json(path)
    if not isinstance(body, dict) or "ids" not in body:
        raise InstanceError(f"solution {path} must be a JSON object with an ids list")
    if isinstance(instance, (IntersectionInstance, LatticeInstance)):
        valid = range(instance.n)
        what = f"solution ids must list elements 0..{instance.n - 1}"
    else:
        valid = instance.graph.by_id
        what = "solution ids must list edge ids of the instance"
    return _id_mask(body["ids"], valid, what)


def cmd_verify(args):
    check_writable(args.report)
    instance = _load(args.infile)
    mask = _load_solution(args.solution, instance)
    trace = lp_optimum = None
    if isinstance(instance, McstInstance):
        if not args.trace:
            raise InstanceError("verifying an mcst run needs --trace")
        trace = RunTrace.from_jsonl(args.trace)
    elif isinstance(instance, IntersectionInstance):
        # the LP optimum that run_intersection reports, without the rounding
        lp_optimum = initial_optimum(IntersectionState(instance))
    elif not isinstance(instance, LatticeInstance):
        raise InstanceError("general-mcst instances are verified by generators")
    result = _verify(instance, mask, trace, lp_optimum)
    if trace is not None:
        # check (d) compares the cost with the trace's lp_initial, so that
        # must be the LP optimum that run_mcst reports
        opt = initial_optimum(McstState(instance))
        claimed = trace.initial_lp_objective()
        if claimed != opt:
            raise InternalCheckError(
                f"trace lp_initial {render_rat(claimed)} is not the initial LP "
                f"optimum {render_rat(opt)} of the instance"
            )
    body = result.to_json()
    body["schema"] = 1
    body["instance_digest"] = instance_digest(instance)
    _emit(body, args.report)
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def _selftest_one(task):
    kind, seed = task
    rng = random.Random(seed)
    if kind == "mcst":
        instance = random_mcst_instance(rng, n_min=5, n_max=8)
    elif kind == "intersection":
        instance = random_intersection_instance(rng, max_elems=8)
    else:
        instance = random_lattice_instance(rng, max_ground=6)
    return _verify(instance, *_run(instance)).ok


def cmd_selftest(args):
    if args.runs < 0:
        raise InstanceError(f"--runs must be at least 0, got {args.runs}")
    if not 1 <= args.jobs <= MAX_JOBS:
        raise InstanceError(
            f"--jobs must be between 1 and {MAX_JOBS} (the CPU count), got {args.jobs}"
        )
    tasks = [("mcst", 100 + i) for i in range(args.runs)]
    tasks += [("intersection", 200 + i) for i in range(args.runs)]
    tasks += [("lattice", 300 + i) for i in range(args.runs)]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_selftest_one, tasks))
    else:
        results = [_selftest_one(t) for t in tasks]
    corpus_ok = all(results)

    ec = gen_edge_cover_tight(1)
    sol, trace, opt = _run(ec)
    tight_ok = (
        _verify(ec, sol, trace, opt).ok
        and (sol & ec.constraints[0].elems).bit_count() == 2
    )
    _, gap1 = gen_planar_mincut_gap(2)
    _, gap2 = gen_mcst_gap(4)
    ok = corpus_ok and tight_ok and gap1.claim_ok and gap2.claim_ok
    for name, good in (
        ("random-corpus", corpus_ok),
        ("edge-cover-tight", tight_ok),
        ("planar-gap-k2", gap1.claim_ok),
        ("mcst-gap-e4", gap2.claim_ok),
    ):
        print(f"{'PASS' if good else 'FAIL'} {name}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def build_parser():
    """The argument parser; built once per process, since parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="crossopt",
        description="Exact iterative-relaxation solvers for degree-constrained "
        "spanning trees, covering intersections, and lattice polyhedra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--report")
        p.add_argument("--solution")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--timing", action="store_true")

    p = sub.add_parser("solve-mcst", help="laminar degree-bounded spanning tree")
    add_common(p)
    p.add_argument("--trace", help="write the event trace (JSON lines)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-intersection", help="two-function covering")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("solve-lattice", help="lattice covering with bounds")
    add_common(p)
    p.add_argument("--variant", choices=[GENERAL, INCLUSION])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="instance generators")
    p.add_argument("kind", choices=list(GEN_FLAGS))
    # a flag the kind does not read is refused; GEN_FLAGS holds the defaults
    p.add_argument("--e", type=int, help="mcst-gap and reduction (default 4)")
    p.add_argument("--k", type=int, help="planar-gap (default 2)")
    p.add_argument("--n", type=int, help="edge-cover (default 1)")
    p.add_argument("--t", type=int, help="reduction (default 2)")
    p.add_argument("--bounds", help="JSON [[elements...], bound] pairs for reduction")
    p.add_argument("--seed", type=int, help="random generators only (default 0)")
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="re-verify a solution file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--trace")
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="built-in acceptance spot checks")
    p.add_argument("--runs", type=int, default=6, help="per-family corpus size")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
