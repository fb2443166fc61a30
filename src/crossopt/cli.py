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
import json
import os
import random
import sys
import time
from dataclasses import dataclass, replace

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
    IntersectionInstance,
    LatticeInstance,
    McstInstance,
    _id_mask,
    canonical_json,
    check_writable,
    dump_instance,
    instance_digest,
    load_instance,
    read_json,
    write_text,
)
from .intersection import IntersectionState, run_intersection, verify_intersection
from .lattice import bound_feasible_predicate, run_lattice, verify_lattice
from .mcst import run_mcst, verify_guarantee
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
            return decode_instance(json.load(sys.stdin))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InstanceError(f"invalid JSON on stdin: {exc}") from exc
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


@dataclass(frozen=True)
class Solved:
    instance: object  # the instance as solved, after any --variant
    mask: int
    cost: object
    lp_optimum: object
    verify: object  # () -> a report with .ok and .to_json()
    fields: dict  # report fields of this solver only


def _solve_mcst(instance, args):
    tree, trace = run_mcst(instance)
    if args.trace:
        trace.to_jsonl(args.trace)
    return Solved(
        instance,
        tree,
        instance.graph.cost_of(tree),
        trace.initial_lp_objective(),
        lambda: verify_guarantee(instance, tree, trace),
        {"drop_rounds": trace.drop_round_count(), "trace": args.trace},
    )


def _solve_intersection(instance, args):
    sol, _, opt = run_intersection(instance)
    return Solved(
        instance,
        sol,
        sum((instance.costs[e] for e in iter_bits(sol)), 0),
        opt,
        lambda: verify_intersection(instance, sol, opt),
        {},
    )


def _solve_lattice(instance, args):
    if args.variant and args.variant != instance.variant:
        instance = replace(instance, variant=args.variant)
    sol, _, opt = run_lattice(instance)
    return Solved(
        instance,
        sol,
        sum((instance.costs[e] for e in iter_bits(sol)), 0),
        opt,
        lambda: _verify_lattice(instance, sol),
        {"variant": instance.variant},
    )


def _verify_lattice(instance, mask):
    """verify_lattice of mask, with the cost check against the
    brute-force optimum when the ground set is within SUBSET_GUARD."""
    brute = None
    if instance.n <= SUBSET_GUARD:
        _, brute = brute_subset_opt(
            instance.n, bound_feasible_predicate(instance), instance.costs
        )
    return verify_lattice(instance, mask, brute)


# command -> (instance type, its description, solution kind, solver);
# the solvers look run_* and verify_* up in this module when called
SOLVERS = {
    "solve-mcst": (McstInstance, "a laminar mcst instance", "edges", _solve_mcst),
    "solve-intersection": (
        IntersectionInstance,
        "an intersection instance",
        "elements",
        _solve_intersection,
    ),
    "solve-lattice": (LatticeInstance, "a lattice instance", "elements", _solve_lattice),
}


def cmd_solve(args):
    started = time.perf_counter()
    check_writable(args.report, args.solution, getattr(args, "trace", None))
    instance = _load(args.infile)
    expected, description, kind, solve = SOLVERS[args.command]
    if not isinstance(instance, expected):
        raise InstanceError(f"{args.command} expects {description}")
    solved = solve(instance, args)
    report = {
        "schema": 1,
        "algorithm": args.command.removeprefix("solve-"),
        "instance_digest": instance_digest(solved.instance),
        "solution": sorted(iter_bits(solved.mask)),
        "cost": _rat_field(solved.cost),
        "lp_optimum": _rat_field(solved.lp_optimum),
        **solved.fields,
    }
    outcome = EXIT_OK
    if args.verify:
        result = solved.verify()
        report["checks"] = result.to_json()["checks"]
        report["outcome"] = "ok" if result.ok else "check-failed"
        if not result.ok:
            outcome = EXIT_CHECK_FAILED
    else:
        report["outcome"] = "ok"
    if args.solution:
        _write_solution(solved.mask, kind, args.solution)
    _maybe_timing(report, started, args)
    _emit(report, args.report)
    return outcome


def cmd_gen(args):
    kind = args.kind
    if args.report and kind not in ("mcst-gap", "planar-gap"):
        raise InstanceError(
            f"gen {kind} writes no report; --report is for mcst-gap and planar-gap"
        )
    check_writable(args.out, args.report)
    report_body = None
    if kind == "mcst-gap":
        instance, gap = gen_mcst_gap(args.e)
        report_body = gap.to_json()
    elif kind == "planar-gap":
        instance, gap = gen_planar_mincut_gap(args.k)
        report_body = gap.to_json()
    elif kind == "edge-cover":
        instance = gen_edge_cover_tight(args.n)
    elif kind == "reduction":
        bounds = _reduction_bounds(args.bounds, args.e) if args.bounds else []
        instance = reduce_uniform_crossing_to_mcst(args.e, args.t, bounds)
    elif kind == "random-mcst":
        instance = random_mcst_instance(random.Random(args.seed))
    elif kind == "random-intersection":
        instance = random_intersection_instance(random.Random(args.seed))
    elif kind == "random-lattice":
        instance = random_lattice_instance(random.Random(args.seed))
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
    try:
        specs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"--bounds is not valid JSON: {exc}") from exc
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
    if isinstance(instance, McstInstance):
        if not args.trace:
            raise InstanceError("verifying an mcst run needs --trace")
        trace = RunTrace.from_jsonl(args.trace)
        result = verify_guarantee(instance, mask, trace)
        body = result.to_json()
    elif isinstance(instance, IntersectionInstance):
        # the LP optimum that run_intersection reports, without the rounding
        opt = initial_optimum(IntersectionState(instance))
        result = verify_intersection(instance, mask, opt)
        body = result.to_json()
    elif isinstance(instance, LatticeInstance):
        result = _verify_lattice(instance, mask)
        body = result.to_json()
    else:
        raise InstanceError("general-mcst instances are verified by generators")
    body["schema"] = 1
    body["instance_digest"] = instance_digest(instance)
    _emit(body, args.report)
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def _selftest_one(task):
    kind, seed = task
    rng = random.Random(seed)
    if kind == "mcst":
        instance = random_mcst_instance(rng, n_min=5, n_max=8)
        tree, trace = run_mcst(instance)
        return verify_guarantee(instance, tree, trace).ok
    if kind == "intersection":
        instance = random_intersection_instance(rng, max_elems=8)
        sol, _, opt = run_intersection(instance)
        return verify_intersection(instance, sol, opt).ok
    instance = random_lattice_instance(rng, max_ground=6)
    sol, _, _ = run_lattice(instance)
    return _verify_lattice(instance, sol).ok


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
    sol, _, opt = run_intersection(ec)
    tight_ok = (
        verify_intersection(ec, sol, opt).ok
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
    p.add_argument("--variant", choices=["general", "inclusion"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="instance generators")
    p.add_argument(
        "kind",
        choices=[
            "mcst-gap",
            "planar-gap",
            "edge-cover",
            "reduction",
            "random-mcst",
            "random-intersection",
            "random-lattice",
        ],
    )
    p.add_argument("--e", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--bounds", help="JSON [[elements...], bound] pairs for reduction")
    p.add_argument("--seed", type=int, default=0, help="random generators only")
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
