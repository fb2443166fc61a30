"""Layer spans for the traced benchmark run.

The benchmark observes crossopt from outside the package: for the
traced run it replaces each public function at a layer boundary with a
wrapper that records a span, in every crossopt module that holds the
function (the defining module and every module that imported it by
name), and restores the originals afterwards.  Leaf helpers in
``graphs``, ``laminar`` and ``rational`` are left alone; they sit in hot
inner loops, where a wrapper would distort the numbers it measures.

A span is [name, start, end, parent span index, operation id, work],
kept in memory and written out when the run ends.  Self time is a
span's duration minus the time its child spans cover.
"""

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

SETUP_OP = "setup"
OP_SPAN = "cli.op"


def _tree_subsets(x_by_id, graph, fmask):
    return (1 << graph.n) - 1


def _cover_subsets(x_by_id, fmask, pair):
    return 2 * ((1 << pair.n) - 1)  # both requirement tables


def _lattice_members(x_by_id, fmask, lat):
    return lat.size


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    attr: str
    work: object = None  # (*args) -> units of work done by the call
    keep_result: bool = False


BOUNDARIES = (
    Boundary("simplex.solve", "crossopt.simplex", "simplex_solve"),
    Boundary("simplex.certify", "crossopt.simplex", "verify_vertex_certificate"),
    Boundary("lpengine.extreme_point", "crossopt.lpengine", "solve_to_extreme_point"),
    Boundary("lpengine.sep_tree", "crossopt.lpengine", "separate_spanning_tree", _tree_subsets),
    Boundary("lpengine.sep_cover", "crossopt.lpengine", "separate_contra_polymatroid", _cover_subsets),
    Boundary("lpengine.sep_lattice", "crossopt.lpengine", "separate_lattice", _lattice_members),
    Boundary("mcst.run", "crossopt.mcst", "run_mcst"),
    Boundary("mcst.classify", "crossopt.mcst", "classify_good"),
    Boundary("mcst.verify", "crossopt.mcst", "verify_guarantee"),
    Boundary("intersection.run", "crossopt.intersection", "run_intersection"),
    Boundary("intersection.verify", "crossopt.intersection", "verify_intersection"),
    Boundary("lattice.run", "crossopt.lattice", "run_lattice", keep_result=True),
    Boundary("lattice.verify", "crossopt.lattice", "verify_lattice"),
    Boundary("instances.decode", "crossopt.instances", "decode_instance"),
    Boundary("oracles.matroid_to_lattice", "crossopt.oracles", "matroid_to_lattice"),
    Boundary("brute.subset_opt", "crossopt.brute", "brute_subset_opt"),
    Boundary("brute.min_max_violation", "crossopt.brute", "min_max_violation_over_trees"),
    Boundary("brute.tree_enum", "crossopt.brute", "enumerate_spanning_trees"),
    Boundary("brute.kirchhoff", "crossopt.brute", "kirchhoff_count"),
    Boundary("generators.mcst_gap", "crossopt.generators", "gen_mcst_gap"),
    Boundary("generators.planar_gap", "crossopt.generators", "gen_planar_mincut_gap"),
    Boundary("generators.discrepancy", "crossopt.generators", "brute_discrepancy"),
    Boundary("randgen.mcst", "crossopt.randgen", "random_mcst_instance"),
    Boundary("randgen.intersection", "crossopt.randgen", "random_intersection_instance"),
    Boundary("randgen.lattice", "crossopt.randgen", "random_lattice_instance"),
)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = SETUP_OP
        self.results = defaultdict(list)  # span name -> kept return values

    def span(self, name, fn, args, kwargs=None, work=None, keep_result=False):
        """Call fn(*args, **kwargs) inside a span named ``name``."""
        kwargs = kwargs or {}
        rec = [name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
        if work is not None:
            rec[5] = work(*args, **kwargs)
        if keep_result:
            self.results[name].append(result)
        return result

    def wrap(self, boundary, fn):
        def traced(*args, **kwargs):
            return self.span(
                boundary.span, fn, args, kwargs, boundary.work, boundary.keep_result
            )

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


@contextmanager
def patched(tracer):
    """Route every boundary call through the tracer; yields the list of
    (module name, attribute) pairs that were replaced."""
    for b in BOUNDARIES:
        importlib.import_module(b.module)
    importlib.import_module("crossopt.cli")
    modules = [
        (name, mod)
        for name, mod in sorted(sys.modules.items())
        if name == "crossopt" or name.startswith("crossopt.")
    ]
    undo = []
    try:
        for b in BOUNDARIES:
            # a boundary the program no longer has records no spans;
            # the run reports it among the boundaries that did not fire
            original = getattr(sys.modules[b.module], b.attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(b, original)
            for name, mod in modules:
                if getattr(mod, b.attr, None) is original:
                    setattr(mod, b.attr, wrapper)
                    undo.append((name, mod, b.attr, original))
        yield [(name, attr) for name, _, attr, _ in undo]
    finally:
        for _, mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


@dataclass
class LayerTotals:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    work: int = 0


def totals(spans, include):
    """Per span name: calls, busy (inclusive) time, self time and work,
    over the spans whose operation id passes ``include``."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    out = defaultdict(LayerTotals)
    for idx, rec in enumerate(spans):
        if include(rec[4]):
            t = out[rec[0]]
            t.calls += 1
            t.busy += rec[2] - rec[1]
            t.self_time += rec[2] - rec[1] - child_time[idx]
            t.work += rec[5]
    return out


def child_calls(spans, parent, child):
    """Number of ``child`` spans opened directly inside a ``parent`` span."""
    return sum(
        1 for rec in spans if rec[0] == child and rec[3] >= 0 and spans[rec[3]][0] == parent
    )


def reusable_solves(solve_points):
    """(reusable, total) over one run's successive LP vertices, each a
    {variable: value} dict.  A solve is reusable when its vertex equals
    the previous vertex restricted to the variables still undecided."""
    reusable = 0
    for prev, cur in zip(solve_points, solve_points[1:]):
        if all(var in prev and prev[var] == val for var, val in cur.items()):
            reusable += 1
    return reusable, len(solve_points)
