#!/usr/bin/env python3
"""crossopt benchmark driver.

    python3 perfbench/run.py --workload mcst-corpus --seed 0 --seconds 20 --trace 0

Run from the repository root.  One process, one client, closed loop:
each operation is one in-process ``crossopt.cli.main(argv)`` call on an
instance file written during set-up, started only after the previous
one returned.  An operation succeeds only on exit code 0, so every
success carries passing guarantee checks or a held gap claim.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
pass, then the number of whole traced passes nearest to --seconds, and
prints the per-layer split per pass; the result digests of both must
match.  The last line of standard output is the result object; the
line before it records the environment, the digest and the failures by
exit code, and the same record is written under .perfbench-work/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench-work"
SETUP_REPEATS = 3
HOST_LEAD_S = 0.5  # host sampling before and after each timed stretch

sys.path.insert(0, SRC)
try:
    from crossopt import cli, rational
except ImportError as exc:
    print(f"perfbench: cannot import crossopt from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

import hostspeed  # noqa: E402  (needs crossopt on the path first)
import tracing  # noqa: E402
import workloads  # noqa: E402


COLD_IMPORTS = 5
# Times the import, then the host's speed right after it (hostspeed is
# imported only then, so its own imports do not shorten crossopt's).
COLD_IMPORT = """
import sys, time
start = time.perf_counter()
import crossopt.cli
seconds = time.perf_counter() - start
import hostspeed
host = hostspeed.HostSpeed()
for _ in range(10):
    host.sample()
print(seconds, host.factor())
"""


def cold_import():
    """(seconds, seconds at nominal host speed) a fresh interpreter takes
    to import the CLI, as every `crossopt` command does; the median over
    COLD_IMPORTS interpreters.  Part of set-up, so import-time work shows."""
    runs = []
    for _ in range(COLD_IMPORTS):
        proc = subprocess.run(
            [sys.executable, "-c", COLD_IMPORT],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE))),
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        seconds, factor = map(float, proc.stdout.split())
        runs.append((seconds, seconds / factor))
    return statistics.median(r for r, _ in runs), statistics.median(s for _, s in runs)


def set_up(workload, seed, work_dir):
    """Build the inputs SETUP_REPEATS times; returns the ops and, per
    repeat, (seconds, seconds at nominal host speed)."""
    in_dir = os.path.join(work_dir, "in")
    out_dir = os.path.join(work_dir, "out")
    runs = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(in_dir)
        os.makedirs(out_dir)
        import_seconds, import_scaled = cold_import()
        host = hostspeed.HostSpeed()
        with host.sampling():
            time.sleep(HOST_LEAD_S)
            spent = host.spent
            start = time.perf_counter()
            ops = workload.build(seed, in_dir, out_dir)
            end = time.perf_counter()
            build_seconds = end - start - (host.spent - spent)
            time.sleep(HOST_LEAD_S)
        runs.append(
            (
                import_seconds + build_seconds,
                import_scaled + build_seconds / host.factor(start, end),
            )
        )
    return ops, runs


def call(argv, tracer):
    try:
        if tracer is None:
            return cli.main(list(argv))
        return tracer.span(tracing.OP_SPAN, cli.main, (list(argv),))
    except Exception:  # a crash is a failed operation; keep measuring
        traceback.print_exc()
        return "exception"


def report_digest(ops):
    """sha256 over the canonical reports, timing_seconds excluded."""
    h = hashlib.sha256()
    for op in ops:
        with open(op.report, "r", encoding="utf-8") as fh:
            body = json.load(fh)
        body.pop("timing_seconds", None)
        h.update(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class Phase:
    latencies: list
    intervals: list  # (start, end) of each operation
    codes: Counter
    digests: list  # one per whole pass
    host: hostspeed.HostSpeed

    def scaled(self):
        """Operation times at nominal host speed."""
        return [
            lat / self.host.factor(start, end)
            for lat, (start, end) in zip(self.latencies, self.intervals)
        ]


def timed_phase(ops, seconds, whole_passes, tracer=None, max_passes=None):
    """Closed loop over the ops, sampling host speed throughout.

    Runs at least one whole pass.  With ``whole_passes`` it stops at the
    end of the pass that brings operation time nearest to ``seconds``;
    otherwise after the first operation that reaches ``seconds``."""
    phase = Phase([], [], Counter(), [], hostspeed.HostSpeed())
    busy = 0.0
    i = 0
    with phase.host.sampling():
        time.sleep(HOST_LEAD_S)  # host samples before the first operation
        while True:
            op = ops[i % len(ops)]
            if tracer is not None:
                tracer.op = i
            spent = phase.host.spent
            start = time.perf_counter()
            code = call(op.argv, tracer)
            end = time.perf_counter()
            elapsed = end - start - (phase.host.spent - spent)
            phase.latencies.append(elapsed)
            phase.intervals.append((start, end))
            phase.codes[code] += 1
            busy += elapsed
            i += 1
            if i % len(ops) == 0:
                phase.digests.append(report_digest(ops))
                if len(phase.digests) == max_passes:
                    break
            passes = len(phase.digests)
            if whole_passes:
                # one more pass would overshoot by more than this one falls short
                done = i % len(ops) == 0 and busy * (1 + 0.5 / passes) >= seconds
            else:
                done = passes > 0 and busy >= seconds
            if done:
                break
        time.sleep(HOST_LEAD_S)  # and after the last
    return phase


def nearest_rank(values, q):
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without walking above it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {
        "python": platform.python_version(),
        "have_gmpy2": rational.HAVE_GMPY2,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def failures(codes):
    return sum(n for code, n in codes.items() if code != 0)


def end_to_end(phase, setup_runs):
    """Every end-to-end metric, at nominal host speed and unscaled."""

    def timings(latencies, setup_seconds):
        return {
            "certified_per_s": phase.codes.get(0, 0) / sum(latencies),
            "op_p50_ms": nearest_rank(latencies, 50) * 1000,
            "op_p90_ms": nearest_rank(latencies, 90) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_seconds),
        }

    raw = timings(phase.latencies, [seconds for seconds, _ in setup_runs])
    scaled = timings(phase.scaled(), [scaled for _, scaled in setup_runs])
    units = {"certified_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    return {name: (value, units[name]) for name, value in scaled.items()}, raw


def _per_pass(total, passes):
    return total // passes if total % passes == 0 else total / passes


def mcst_trace_counts(ops):
    """Steps by kind and reusable solves, read from the --trace files."""
    counts = Counter()
    for op in ops:
        if op.trace is None:
            continue
        with open(op.trace, "r", encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        for ev in events:
            counts[ev["ev"]] += 1
        reusable, _ = tracing.reusable_solves(
            [ev["x"] for ev in events if ev["ev"] == "solve"]
        )
        counts["reusable"] += reusable
    return counts


def layer_metrics(tracer, traced, untraced, setup_runs, ops):
    """Per-layer metrics per traced pass, times at nominal host speed."""
    spans = tracer.spans
    run = tracing.totals(spans, lambda op: op != tracing.SETUP_OP)
    setup = tracing.totals(spans, lambda op: op == tracing.SETUP_OP)
    passes = len(traced.digests)
    factor = traced.host.factor()
    setup_factor = statistics.median(seconds / scaled for seconds, scaled in setup_runs)

    def count(total):
        return (_per_pass(total, passes), "count")

    def secs(total):
        return (total / passes / factor, "s")

    def setup_secs(name):
        return (setup[name].busy / SETUP_REPEATS / setup_factor, "s")

    def frac(part, base):
        return (part / base if base else 0.0, "ratio")

    steps = mcst_trace_counts(ops)
    lattice_reusable = lattice_solves = 0
    for result in tracer.results["lattice.run"]:
        reusable, solves = tracing.reusable_solves(
            [ev["x"] for ev in result[1] if ev["ev"] == "solve"]
        )
        lattice_reusable += reusable
        lattice_solves += solves
    lattice_reusable = _per_pass(lattice_reusable, passes)
    lattice_solves = _per_pass(lattice_solves, passes)
    cut_solves = tracing.child_calls(spans, "lpengine.extreme_point", "simplex.solve")
    extreme_points = run["lpengine.extreme_point"].calls
    metrics = {
        "cli.ops": count(run[tracing.OP_SPAN].calls),
        "cli.self_s": secs(run[tracing.OP_SPAN].self_time),
        "simplex.solves": count(run["simplex.solve"].calls),
        "simplex.busy_s": secs(run["simplex.solve"].busy),
        "simplex.certify_s": secs(run["simplex.certify"].busy),
        "lpengine.extreme_points": count(extreme_points),
        "lpengine.cut_rounds": count(cut_solves - extreme_points),
        "lpengine.self_s": secs(run["lpengine.extreme_point"].self_time),
    }
    for key, span, unit in (
        ("sep_tree", "lpengine.sep_tree", "subsets"),
        ("sep_cover", "lpengine.sep_cover", "subsets"),
        ("sep_lattice", "lpengine.sep_lattice", "members"),
    ):
        metrics[f"lpengine.{key}.calls"] = count(run[span].calls)
        metrics[f"lpengine.{key}.busy_s"] = secs(run[span].busy)
        metrics[f"lpengine.{key}.{unit}"] = count(run[span].work)
    metrics.update(
        {
            # the --trace files hold one pass: each pass rewrites them
            "mcst.solves": (steps["solve"], "count"),
            "mcst.reusable_solves": (steps["reusable"], "count"),
            "mcst.reusable_solve_frac": frac(steps["reusable"], steps["solve"]),
            "mcst.steps.fix": (steps["fix"], "count"),
            "mcst.steps.delete": (steps["delete"], "count"),
            "mcst.steps.drop_children": (steps["drop_children"], "count"),
            "mcst.steps.merge_leaves": (steps["merge_leaves"], "count"),
            "mcst.run_s": secs(run["mcst.run"].busy),
            "mcst.classify_s": secs(run["mcst.classify"].busy),
            "mcst.verify_s": secs(run["mcst.verify"].busy),
            "intersection.run_s": secs(run["intersection.run"].busy),
            "intersection.verify_s": secs(run["intersection.verify"].busy),
            "lattice.run_s": secs(run["lattice.run"].busy),
            "lattice.verify_s": secs(run["lattice.verify"].busy),
            "lattice.solves": (lattice_solves, "count"),
            "lattice.reusable_solves": (lattice_reusable, "count"),
            "lattice.reusable_solve_frac": frac(lattice_reusable, lattice_solves),
            "instances.decode_s": secs(run["instances.decode"].busy),
            "oracles.matroid_to_lattice_s": secs(run["oracles.matroid_to_lattice"].busy),
            "brute.subset_opt.calls": count(run["brute.subset_opt"].calls),
            "brute.subset_opt.busy_s": secs(run["brute.subset_opt"].busy),
            "brute.min_max_violation_s": secs(run["brute.min_max_violation"].busy),
            "brute.tree_enum_s": secs(run["brute.tree_enum"].busy),
            "brute.kirchhoff_s": secs(run["brute.kirchhoff"].busy),
            "generators.mcst_gap_s": secs(run["generators.mcst_gap"].busy),
            "generators.planar_gap_s": secs(run["generators.planar_gap"].busy),
            "generators.discrepancy_s": secs(run["generators.discrepancy"].busy),
            "randgen.mcst_s": setup_secs("randgen.mcst"),
            "randgen.intersection_s": setup_secs("randgen.intersection"),
            "randgen.lattice_s": setup_secs("randgen.lattice"),
            "trace.overhead_s": (sum(traced.scaled()) / passes - sum(untraced.scaled()), "s"),
        }
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(WORK, workload.name)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "family_seeds": workloads.family_seeds(args.seed),
        "held_out_seed": workloads.HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(),
    }

    if args.trace == 0:
        ops, setup_runs = set_up(workload, args.seed, work_dir)
        phase = timed_phase(ops, args.seconds, workload.whole_passes)
        metrics, raw = end_to_end(phase, setup_runs)
        record["unscaled"] = raw
        digests = phase.digests
    else:
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            ops, setup_runs = set_up(workload, args.seed, work_dir)
        untraced = timed_phase(ops, 0, True, max_passes=1)
        with tracing.patched(tracer) as replaced:
            phase = timed_phase(ops, args.seconds, True, tracer=tracer)
        metrics = layer_metrics(tracer, phase, untraced, setup_runs, ops)
        record["replaced"] = len(replaced)
        record["boundaries_not_fired"] = [
            span
            for span in workload.boundaries + workload.setup_boundaries
            if not any(rec[0] == span for rec in tracer.spans)
        ]
        tracer.write(os.path.join(work_dir, f"spans-seed{args.seed}.jsonl"))
        phase.latencies = untraced.latencies + phase.latencies
        phase.intervals = untraced.intervals + phase.intervals
        phase.codes.update(untraced.codes)
        digests = untraced.digests + phase.digests

    failed = failures(phase.codes)
    record.update(
        {
            "digest": digests[0] if len(set(digests)) == 1 else digests,
            "samples": len(phase.latencies),
            "passes": len(phase.digests),
            "ops_per_pass": len(ops),
            "exit_codes": {str(code): n for code, n in sorted(phase.codes.items(), key=str)},
            "failed_frac": failed / len(phase.latencies),
            "host_factor": phase.host.factor(),
            "host_samples": len(phase.host.samples),
            "setup_runs": [{"seconds": sec, "scaled": scaled} for sec, scaled in setup_runs],
        }
    )
    correct = failed == 0 and len(set(digests)) == 1
    result = {
        "correct": correct,
        "attempted": len(phase.latencies),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    with open(
        os.path.join(work_dir, f"result-seed{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(dict(record, result=result), fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
