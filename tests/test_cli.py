import hashlib
import io
import json
import sys

import pytest

import table_lattice
from crossopt.brute import SUBSET_GUARD, enumerate_spanning_trees
from crossopt import brute, cli, generators
from crossopt.cli import MAX_JOBS, main
from crossopt.graphs import iter_bits
from crossopt.instances import canonical_json, dump_instance, write_text
from crossopt.randgen import (
    CorpusConfig,
    mcst_corpus,
    random_lattice_instance,
    random_mcst_instance,
)
import random


def run_cli(*argv):
    return main(list(argv))


def test_gen_solve_verify_pipeline(tmp_path):
    inst = tmp_path / "ec.json"
    report = tmp_path / "report.json"
    assert run_cli("gen", "edge-cover", "--n", "1", "--out", str(inst)) == 0
    assert (
        run_cli(
            "solve-intersection",
            "--in",
            str(inst),
            "--verify",
            "--report",
            str(report),
        )
        == 0
    )
    body = json.loads(report.read_text())
    assert body["outcome"] == "ok"
    assert body["lp_optimum"]["rational"] == "2/1"
    # the degree clause is met with equality in the tight example
    bound_checks = [c for c in body["checks"] if c["name"].startswith("bound")]
    assert all(c["achieved"] == "2" for c in bound_checks)


def test_missing_file_is_usage_error(tmp_path):
    assert run_cli("solve-mcst", "--in", str(tmp_path / "absent.json")) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 2
    capsys.readouterr()


def test_reports_are_byte_identical(tmp_path):
    inst = tmp_path / "inst.json"
    dump_instance(random_mcst_instance(random.Random(3)), inst)
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert run_cli("solve-mcst", "--in", str(inst), "--verify", "--report", str(r1)) == 0
    assert run_cli("solve-mcst", "--in", str(inst), "--verify", "--report", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_solve_mcst_trace_and_verify_subcommand(tmp_path):
    inst_path = tmp_path / "inst.json"
    dump_instance(random_mcst_instance(random.Random(5)), inst_path)
    trace = tmp_path / "trace.jsonl"
    solution = tmp_path / "sol.json"
    assert (
        run_cli(
            "solve-mcst",
            "--in",
            str(inst_path),
            "--trace",
            str(trace),
            "--solution",
            str(solution),
            "--verify",
        )
        == 0
    )
    assert (
        run_cli(
            "verify",
            "--in",
            str(inst_path),
            "--solution",
            str(solution),
            "--trace",
            str(trace),
        )
        == 0
    )
    # verifying an mcst run without the trace is a usage error
    assert (
        run_cli("verify", "--in", str(inst_path), "--solution", str(solution)) == 2
    )


def _solved_mcst(tmp_path, seed=76):
    """(instance, solution, trace) paths of a solved drop-round instance,
    by default the first of the corpus."""
    inst = tmp_path / "inst.json"
    solution = tmp_path / "sol.json"
    trace = tmp_path / "trace.jsonl"
    dump_instance(random_mcst_instance(random.Random(seed)), inst)
    argv = ("--in", str(inst), "--solution", str(solution), "--trace", str(trace))
    assert run_cli("solve-mcst", *argv) == 0
    return inst, solution, trace


def _verify_trace(inst, solution, trace):
    return run_cli(
        "verify", "--in", str(inst), "--solution", str(solution), "--trace", str(trace)
    )


def test_verify_refuses_a_tampered_step_event(tmp_path, capsys):
    inst, solution, trace = _solved_mcst(tmp_path)
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    fix = next(ev for ev in events if ev["ev"] == "fix")
    fix["ev"] = "delete"  # the fixed edge leaves the replayed tree
    trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    assert _verify_trace(inst, solution, trace) == 3
    assert "does not replay to its recorded end" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("tree", [0]), ("tree", []), ("forest", {}), ("forest", {"nodes": []})],
)
def test_verify_refuses_a_well_formed_but_tampered_footer(
    field, value, tmp_path, capsys
):
    inst, solution, trace = _solved_mcst(tmp_path)
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    _set("end", field, value)(events)
    trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    assert _verify_trace(inst, solution, trace) == 3
    assert "does not replay to its recorded end" in capsys.readouterr().err


def test_verify_refuses_a_drop_event_after_the_end(tmp_path, capsys):
    inst, solution, trace = _solved_mcst(tmp_path)
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"ev": "drop_children", "parents": [], "dropped": []}))
        fh.write("\n")
    assert _verify_trace(inst, solution, trace) == 3
    assert "snapshot count disagrees" in capsys.readouterr().err


def test_verify_refuses_a_tree_other_than_the_traced_one(tmp_path, capsys):
    inst, solution, trace = _solved_mcst(tmp_path)
    tree = json.loads(solution.read_text())["ids"]
    instance = mcst_corpus(CorpusConfig(count=1))[0]
    other = next(
        t
        for t in enumerate_spanning_trees(instance.graph)
        if sorted(iter_bits(t)) != tree
    )
    solution.write_text(json.dumps({"ids": sorted(iter_bits(other))}))
    assert _verify_trace(inst, solution, trace) == 2
    assert "tree does not match the trace" in capsys.readouterr().err


def _set(kind, field, value, at=0):
    """Edit: field of the at-th kind event set to value."""

    def edit(events):
        ev = [ev for ev in events if ev["ev"] == kind][at]
        ev[field] = value

    return edit


def _set_change(slot, value):
    """Edit: slot of the first tighten change set to value."""

    def edit(events):
        ev = next(ev for ev in events if ev["ev"] == "tighten" and ev["changes"])
        ev["changes"][0][slot] = value

    return edit


def _replace_drop(event):
    """Edit: the drop_children event replaced by event."""

    def edit(events):
        at = next(i for i, ev in enumerate(events) if ev["ev"] == "drop_children")
        events[at] = event

    return edit


def _drop_ev(events):
    del events[4]["ev"]


def _drop_begin(events):
    del events[0]


def _drop_alpha(events):
    del events[0]["alpha"]


def _insert(event, at):
    """Edit: event inserted as trace event at + 1."""

    def edit(events):
        events.insert(at, event)

    return edit


# malformed trace of the seed-76 run (38 events: tighten 3 has two
# changes, fix 4 is the first fix, drop_children 25 the only drop round)
# -> the message; each used to end in a traceback with exit 1
BAD_TRACES = {
    "missing-file": (None, "cannot read trace"),
    "truncated-line": ("truncate", "line 38 is not valid JSON"),
    "no-ev": (_drop_ev, 'line 5 must be an event object with an "ev" field'),
    "changes-int": (
        _set("tighten", "changes", 7),
        "trace event 3 (tighten) changes must be a list of 3-item lists, got 7",
    ),
    "changes-node-999": (
        _set_change(0, 999),
        "trace event 3 (tighten) changes[0] must name a node 0..8, got 999",
    ),
    "changes-node-x": (
        _set_change(0, "x"),
        "trace event 3 (tighten) changes[0] must name a node 0..8, got 'x'",
    ),
    "changes-rational-abc": (
        _set_change(2, "abc"),
        "trace event 3 (tighten) changes[0] must be a rational string",
    ),
    "fix-edge-999": (
        _set("fix", "edge", 999),
        "trace event 4 (fix) edge must be an edge id of the instance, got 999",
    ),
    "fix-edge-minus-one": (
        _set("fix", "edge", -1),
        "trace event 4 (fix) edge must be an edge id of the instance, got -1",
    ),
    "fix-edge-a": (
        _set("fix", "edge", "a"),
        "trace event 4 (fix) edge must be an edge id of the instance, got 'a'",
    ),
    "drop-parity-2": (
        _set("drop_children", "parity", 2),
        "trace event 25 (drop_children) parity must be 0 or 1, got 2",
    ),
    "drop-unknown-parent": (
        _set("drop_children", "parents", [0, 999]),
        "trace event 25 (drop_children) parents[1] must name a node 0..8, got 999",
    ),
    "merge-unknown-node": (
        _replace_drop({"ev": "merge_leaves", "merges": [[-1, 999, 0, 9]], "removed": []}),
        "trace event 25 (merge_leaves) merges[0] must name a node 0..8, got 999",
    ),
    "remove-unknown-node": (
        _replace_drop({"ev": "merge_leaves", "merges": [], "removed": [[-1, 9]]}),
        "trace event 25 (merge_leaves) removed[0] must name a node 0..8, got 9",
    ),
    "end-lp-initial-x": (
        _set("end", "lp_initial", "x"),
        "trace event 38 (end) lp_initial must be a rational string",
    ),
    # a footer tree or forest of the wrong type used to read as a replay
    # mismatch (exit 3)
    "end-tree-int": (
        _set("end", "tree", 5),
        "trace event 38 (end) tree must be a list of edge ids of the instance, got 5",
    ),
    "end-tree-str": (
        _set("end", "tree", "x"),
        "trace event 38 (end) tree must be a list of edge ids of the instance, "
        "got 'x'",
    ),
    "end-tree-null": (
        _set("end", "tree", None),
        "trace event 38 (end) tree must be a list of edge ids of the instance, "
        "got None",
    ),
    "end-tree-edge-999": (
        _set("end", "tree", [0, 999]),
        "trace event 38 (end) tree must be a list of edge ids of the instance, "
        "got [0, 999]",
    ),
    "end-forest-int": (
        _set("end", "forest", 1),
        "trace event 38 (end) forest must be an object, got 1",
    ),
    "end-forest-list": (
        _set("end", "forest", []),
        "trace event 38 (end) forest must be an object, got []",
    ),
    # the begin header of another run, or none, and events no mcst run
    # writes, used to be skipped by replay and verified with exit 0
    "begin-digest": (
        _set("begin", "instance_digest", "0" * 64),
        "trace event 1 (begin) instance_digest must be '",
    ),
    "begin-kind": (
        _set("begin", "kind", "lattice-trace"),
        "trace event 1 (begin) kind must be 'mcst-trace', got 'lattice-trace'",
    ),
    "begin-schema": (
        _set("begin", "schema", 2),
        "trace event 1 (begin) schema must be 1, got 2",
    ),
    "begin-alpha": (
        _set("begin", "alpha", 12),
        "trace event 1 (begin) alpha must be 24, got 12",
    ),
    "begin-no-alpha": (_drop_alpha, "trace event 1 (begin) has no field 'alpha'"),
    "no-begin": (_drop_begin, "trace event 1 must be the begin event, got 'solve'"),
    "unknown-kind": (
        _insert({"ev": "bogus"}, 4),
        "trace event 5 (bogus) ev must be one of solve, tighten, fix, delete, "
        "drop_children, merge_leaves, end after the begin event, got 'bogus'",
    ),
    "second-begin": (
        _insert({"ev": "begin"}, 4),
        "trace event 5 (begin) ev must be one of solve,",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACES))
def test_malformed_trace_is_usage_error(case, tmp_path, capsys):
    edit, named = BAD_TRACES[case]
    inst, solution, trace = _solved_mcst(tmp_path)
    lines = trace.read_text().splitlines()
    assert len(lines) == 38
    if edit is None:
        trace.unlink()
    elif edit == "truncate":
        trace.write_text("\n".join(lines[:-1] + [lines[-1][:40]]) + "\n")
    else:
        events = [json.loads(line) for line in lines]
        edit(events)
        trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    assert _verify_trace(inst, solution, trace) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def _forged_seed3_trace(tmp_path, lp_initial):
    """(instance, solution, trace) paths: the seed-3 instance, whose
    initial LP optimum is 16, and a hand-written trace that fixes the
    spanning tree {1, 2, 4, 5, 6} of cost 31 and claims lp_initial."""
    from crossopt.instances import instance_digest
    from crossopt.mcst import McstState, _forest_json

    instance = random_mcst_instance(random.Random(3))
    tree = [1, 2, 4, 5, 6]
    state = McstState(instance)
    for e in tree:
        state.fix_edge(e)
    events = [
        {
            "ev": "begin",
            "schema": 1,
            "instance_digest": instance_digest(instance),
            "kind": "mcst-trace",
            "alpha": 24,
        },
        *({"ev": "fix", "edge": e} for e in tree),
        {
            "ev": "end",
            "lp_initial": lp_initial,
            "tree": tree,
            "forest": _forest_json(state.forest),
        },
    ]
    inst, solution, trace = (tmp_path / f for f in ("i.json", "s.json", "t.jsonl"))
    dump_instance(instance, inst)
    solution.write_text(json.dumps({"ids": tree}))
    trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    return inst, solution, trace


def test_verify_refuses_a_forged_lp_initial(tmp_path, capsys):
    # check (d) read the footer's claim, so the forged trace verified
    # with exit 0; with the true optimum the tree fails the cost check
    assert _verify_trace(*_forged_seed3_trace(tmp_path, "16/1")) == 1
    capsys.readouterr()
    assert _verify_trace(*_forged_seed3_trace(tmp_path, "1000000/1")) == 3
    assert (
        "trace lp_initial 1000000/1 is not the initial LP optimum 16/1"
        in capsys.readouterr().err
    )
    # the same refusal for a footer edited in a run's own trace
    inst, solution, trace = _solved_mcst(tmp_path)
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    _set("end", "lp_initial", "1/2")(events)
    trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    assert _verify_trace(inst, solution, trace) == 3
    err = capsys.readouterr().err
    assert "trace lp_initial 1/2 is not the initial LP optimum" in err


def _tighten_dead_node(events):
    """Edit: the tighten after the drop round names node 1, dropped
    there."""
    at = next(i for i, ev in enumerate(events) if ev["ev"] == "drop_children")
    ev = next(ev for ev in events[at:] if ev["ev"] == "tighten" and ev["changes"])
    ev["changes"][0][0] = 1


def _set_parent_key(name, at, value):
    """Edit: the parent key of entry at of the merge_leaves event's list
    name ("merges" or "removed") set to value."""

    def edit(events):
        ev = next(ev for ev in events if ev["ev"] == "merge_leaves")
        ev[name][at][0] = value

    return edit


# case -> (seed, edit, message): well-formed events that the seed's run
# did not make; replay must refuse each where it happens (exit 3), not
# at a later mismatch.  The seed-76 run has one drop round, the seed-266
# run two, and the seed-2828 and seed-3003 runs merge leaves at event 31
REPLAY_MISMATCHES = {
    "tighten-raises-bound": (
        76,
        _set_change(2, "54/1"),
        "replay mismatch: trace event 3 (tighten) changes[0] moves node 1's "
        "bound from 5/1 to 54/1",
    ),
    "tighten-negative-bound": (
        76,
        _set_change(2, "-1/1"),
        "replay mismatch: trace event 3 (tighten) changes[0] moves node 1's "
        "bound from 5/1 to -1/1",
    ),
    "tighten-dead-node": (
        76,
        _tighten_dead_node,
        "replay mismatch: trace event 27 (tighten) changes[0] tightens node 1, "
        "which is dead",
    ),
    "fix-decided-edge": (
        76,
        _set("fix", "edge", 5, at=1),
        "replay mismatch: trace event 7 (fix) edge 5 is already decided",
    ),
    # the parity and the parent keys used to be read by nothing, so
    # these replayed and verified with exit 0
    "drop-parity-flipped": (
        76,
        _set("drop_children", "parity", 1),
        "replay mismatch: trace event 25 (drop_children) parents[0] node 0 is "
        "not an alive node at a level of parity 1",
    ),
    "second-drop-parity-flipped": (
        266,
        _set("drop_children", "parity", 1, at=1),
        "replay mismatch: trace event 22 (drop_children) parents[0] node 2 is "
        "not an alive node at a level of parity 1",
    ),
    "merge-other-parent": (
        2828,
        _set_parent_key("merges", 0, 8),
        "replay mismatch: trace event 31 (merge_leaves) merges[0] names parent "
        "key 8 for node 2, whose parent key is 0",
    ),
    "last-merge-other-parent": (
        3003,
        _set_parent_key("merges", 2, 1),
        "replay mismatch: trace event 31 (merge_leaves) merges[2] names parent "
        "key 1 for node 10, whose parent key is 8",
    ),
    "remove-other-parent": (
        2828,
        _set_parent_key("removed", 0, 0),
        "replay mismatch: trace event 31 (merge_leaves) removed[0] names parent "
        "key 0 for node 10, whose parent key is -1",
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_MISMATCHES))
def test_verify_refuses_an_event_the_run_did_not_make(case, tmp_path, capsys):
    seed, edit, named = REPLAY_MISMATCHES[case]
    inst, solution, trace = _solved_mcst(tmp_path, seed)
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    edit(events)
    trace.write_text("".join(json.dumps(ev) + "\n" for ev in events))
    assert _verify_trace(inst, solution, trace) == 3
    assert named in capsys.readouterr().err


def test_solve_lattice_variant_flag(tmp_path):
    inst_path = tmp_path / "lat.json"
    dump_instance(
        random_lattice_instance(random.Random(8), variant="inclusion"), inst_path
    )
    assert run_cli("solve-lattice", "--in", str(inst_path), "--verify") == 0
    assert (
        run_cli(
            "solve-lattice",
            "--in",
            str(inst_path),
            "--variant",
            "general",
            "--verify",
        )
        == 0
    )


def test_gen_gap_reports(tmp_path):
    out = tmp_path / "gap.json"
    rep = tmp_path / "gapreport.json"
    assert (
        run_cli(
            "gen", "planar-gap", "--k", "2", "--out", str(out), "--report", str(rep)
        )
        == 0
    )
    body = json.loads(rep.read_text())
    assert body["claim_ok"] is True
    assert body["integral_min_violation"] == 1

    inst_body = json.loads(out.read_text())
    assert inst_body["schema"] == 1 and inst_body["type"] == "lattice"


def _mcst_instance(tmp_path):
    inst = tmp_path / "inst.json"
    dump_instance(random_mcst_instance(random.Random(5)), inst)
    return inst


# an output flag -> the command that writes it, before --flag path
OUTPUT_FLAGS = {
    "--out": ("gen", "edge-cover", "--n", "1"),
    "--report": ("solve-mcst", "--verify"),
    "--trace": ("solve-mcst",),
    "--solution": ("solve-mcst",),
}


def refused_before_work(flag, target, tmp_path, capsys, monkeypatch):
    """Run the command of flag with flag pointing at target and every
    other output of a solve command at a writable path: it must exit 2
    naming target before it generates or solves, and write nothing."""
    calls = []
    for name in ("run_mcst", "gen_edge_cover_tight"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    command = OUTPUT_FLAGS[flag]
    others = []
    if command[0] != "gen":
        command += ("--in", str(_mcst_instance(tmp_path)))
        for other in ("--report", "--trace", "--solution"):
            if other != flag:
                others.append(tmp_path / f"other{other}")
                command += (other, str(others[-1]))
    assert run_cli(*command, flag, str(target)) == 2
    err = capsys.readouterr().err
    assert f"cannot write {target}" in err and "Traceback" not in err
    assert calls == [] and not any(path.exists() for path in others)


@pytest.mark.parametrize("flag", sorted(OUTPUT_FLAGS))
def test_unwritable_output_path_is_usage_error(flag, tmp_path, capsys, monkeypatch):
    target = tmp_path / "absent" / "out.json"
    refused_before_work(flag, target, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("flag", sorted(OUTPUT_FLAGS))
def test_directory_output_path_is_usage_error(flag, tmp_path, capsys, monkeypatch):
    target = tmp_path / "a directory"
    target.mkdir()
    refused_before_work(flag, target, tmp_path, capsys, monkeypatch)


def test_verify_refuses_an_unwritable_report_before_loading(tmp_path, capsys):
    target = tmp_path / "absent" / "report.json"
    missing = tmp_path / "missing.json"
    argv = ("--in", str(missing), "--solution", str(missing), "--report", str(target))
    assert run_cli("verify", *argv) == 2
    assert f"cannot write {target}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--report", "--trace", "--solution"])
def test_output_to_dev_null_succeeds(flag, tmp_path):
    inst = _mcst_instance(tmp_path)
    assert run_cli("solve-mcst", "--in", str(inst), "--verify", flag, "/dev/null") == 0


def test_rewriting_a_longer_file_leaves_exactly_the_new_text(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, "a much longer first text\n" * 4)
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"
    write_text(path, "")
    assert path.read_bytes() == b""


def test_trace_and_report_on_one_path_leave_the_report(tmp_path):
    inst = _mcst_instance(tmp_path)
    both = tmp_path / "both.json"
    argv = ("--in", str(inst), "--verify", "--trace", str(both), "--report", str(both))
    assert run_cli("solve-mcst", *argv) == 0
    report = json.loads(both.read_text())
    assert report["trace"] == str(both)
    assert both.read_text() == canonical_json(report)


@pytest.mark.parametrize(
    "kind",
    ["edge-cover", "reduction", "random-mcst", "random-intersection", "random-lattice"],
)
def test_gen_report_without_a_report_is_usage_error(kind, tmp_path, capsys):
    out, rep = tmp_path / "inst.json", tmp_path / "report.json"
    assert run_cli("gen", kind, "--out", str(out), "--report", str(rep)) == 2
    err = capsys.readouterr().err
    assert "mcst-gap" in err and "planar-gap" in err and "Traceback" not in err
    assert not out.exists() and not rep.exists()


# a flag that the kind's generator never reads; each used to be ignored
# with exit 0 (`gen random-mcst --n 25` wrote the `--n 0` instance)
UNREAD_GEN_FLAGS = [
    ("random-mcst", "--n", "25"),
    ("random-intersection", "--e", "3"),
    ("random-lattice", "--k", "3"),
    ("random-lattice", "--t", "3"),
    ("mcst-gap", "--seed", "1"),
    ("planar-gap", "--seed", "1"),
    ("edge-cover", "--seed", "1"),
    ("reduction", "--seed", "1"),
    ("mcst-gap", "--k", "3"),
    ("planar-gap", "--e", "8"),
    ("edge-cover", "--t", "2"),
    ("reduction", "--n", "1"),
    ("reduction", "--k", "2"),
    ("random-mcst", "--bounds", "[]"),
]


@pytest.mark.parametrize("kind, flag, value", UNREAD_GEN_FLAGS)
def test_gen_refuses_a_flag_its_generator_does_not_read(
    kind, flag, value, tmp_path, capsys
):
    out = tmp_path / "inst.json"
    assert run_cli("gen", kind, flag, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"gen {kind} does not read {flag}" in err and "Traceback" not in err
    assert not out.exists()


# sha256 of what `gen KIND` writes with every flag defaulted, and the
# flags that spell those defaults out
GEN_DEFAULTS = {
    "mcst-gap": (
        "593ed009181bad7923ff0d2399615f4d20cb1bdb27be3d50374f319d8e814826",
        ("--e", "4"),
    ),
    # the product-of-chains body, GAP_DIGESTS["planar-gap", 2]'s file
    "planar-gap": (
        "62c90b0f9d7ff7992b1ec3dce4768ab2714ee4c2598e762e8a87a24e78223ab9",
        ("--k", "2"),
    ),
    "edge-cover": (
        "846c0b8cdad0bbf768231d633afa8c176de2d59065001e570b691b45420321d2",
        ("--n", "1"),
    ),
    "reduction": (
        "eefe0f79f9f1ebed978133d24b4af0cd7e1e1dab72aada53f53141b43b6121aa",
        ("--e", "4", "--t", "2"),
    ),
    "random-mcst": (
        "3ed14d96090438ffe362f4314075e6603ffc26e42b25cbbb0a2be15408c5ee1e",
        ("--seed", "0"),
    ),
    "random-intersection": (
        "6aca72a9e021b860dbbe81ad9b11604ac1b46c67bbf44aeb533984cd5f86fcdb",
        ("--seed", "0"),
    ),
    "random-lattice": (
        "cf193058e325f405ce84ccf157875b3c5709ffa565950e0ceacdce912ee16bcb",
        ("--seed", "0"),
    ),
}


@pytest.mark.parametrize("kind", sorted(GEN_DEFAULTS))
def test_gen_defaults_write_the_pinned_bytes(kind, capsys):
    digest, spelled_out = GEN_DEFAULTS[kind]
    assert run_cli("gen", kind) == 0
    written = capsys.readouterr().out
    assert hashlib.sha256(written.encode()).hexdigest() == digest
    assert run_cli("gen", kind, *spelled_out) == 0
    assert capsys.readouterr().out == written


def test_verify_lattice_beyond_the_brute_guard(tmp_path):
    # the k=3 path lattice has 18 elements, past brute.SUBSET_GUARD: the
    # cost check is skipped, as in solve-lattice --verify, and taking
    # every element breaks the bounds
    inst = tmp_path / "gap.json"
    assert run_cli("gen", "planar-gap", "--k", "3", "--out", str(inst)) == 0
    n = json.loads(inst.read_text())["ground"]
    assert n > SUBSET_GUARD
    solution = tmp_path / "all.json"
    solution.write_text(json.dumps({"ids": list(range(n))}))
    report = tmp_path / "report.json"
    argv = ("verify", "--in", str(inst), "--solution", str(solution))
    assert run_cli(*argv, "--report", str(report)) == 1
    body = json.loads(report.read_text())
    names = [c["name"] for c in body["checks"]]
    assert "cost" not in names
    assert any(name.startswith("bound") for name in body["failures"])


def test_gen_reduction_with_bounds(tmp_path):
    out = tmp_path / "red.json"
    assert (
        run_cli(
            "gen",
            "reduction",
            "--e",
            "3",
            "--t",
            "2",
            "--bounds",
            "[[[0,1],1]]",
            "--out",
            str(out),
        )
        == 0
    )
    body = json.loads(out.read_text())
    assert body["type"] == "general-mcst"
    assert len(body["bounds"]) == 2  # the input bound plus the special bound


def test_selftest_quick():
    assert run_cli("selftest", "--runs", "2") == 0


def test_pipe_through_stdin(tmp_path, monkeypatch, capsys):
    import io
    import sys as _sys

    from crossopt.instances import canonical_json
    from crossopt.generators import gen_edge_cover_tight

    body = canonical_json(gen_edge_cover_tight(1).to_json())
    monkeypatch.setattr(_sys, "stdin", io.StringIO(body))
    assert run_cli("solve-intersection", "--in", "-", "--verify") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "ok"


def test_non_utf8_input_is_usage_error(tmp_path, monkeypatch, capsys):
    import io
    import sys as _sys

    path = tmp_path / "inst.json"
    path.write_bytes(b'\xff{"schema": 1}')
    assert run_cli("solve-mcst", "--in", str(path)) == 2
    assert "invalid JSON in" in capsys.readouterr().err
    stdin = io.TextIOWrapper(io.BytesIO(b'\xff{"schema": 1}'), encoding="utf-8")
    monkeypatch.setattr(_sys, "stdin", stdin)
    assert run_cli("solve-mcst", "--in", "-") == 2
    assert "invalid JSON on stdin" in capsys.readouterr().err


def test_internal_invariant_maps_to_exit_3(tmp_path, monkeypatch):
    from crossopt import cli as cli_module
    from crossopt.errors import InternalCheckError

    inst = tmp_path / "inst.json"
    dump_instance(random_mcst_instance(random.Random(3)), inst)

    def boom(instance):
        raise InternalCheckError("synthetic")

    monkeypatch.setattr(cli_module, "run_mcst", boom)
    assert run_cli("solve-mcst", "--in", str(inst)) == 3


def _reverse_reads_one_more(scan):
    """scan, except that its reverse call's value is one larger."""

    def patched(*args, reverse=False):
        value, witness = scan(*args, reverse=reverse)
        return (value + 1 if reverse else value), witness

    return patched


# (module, name, patch, gen arguments, message): each patch breaks one
# cross-check a gap generator makes before it writes anything
GAP_CROSS_CHECKS = [
    (generators, "brute_discrepancy", _reverse_reads_one_more,
     ("mcst-gap", "--e", "4"), "discrepancy re-enumeration disagreed"),
    (generators, "min_max_violation_over_trees", _reverse_reads_one_more,
     ("mcst-gap", "--e", "4"), "violation re-enumeration disagreed"),
    (generators, "_min_violation_via_subsets", lambda scan: lambda *a: scan(*a) + 1,
     ("mcst-gap", "--e", "4"),
     "tree-level and gadget-subset violation search disagree"),
    (brute, "kirchhoff_count", lambda count: lambda graph: count(graph) + 1,
     ("mcst-gap", "--e", "4"), "enumeration disagrees with Kirchhoff count"),
    (brute, "_blocks", lambda blocks: lambda graph: blocks(graph)[1:],
     ("mcst-gap", "--e", "4"), "blocks do not cover the graph"),
    (generators, "_min_hitting_violation_exhaustive", _reverse_reads_one_more,
     ("planar-gap", "--k", "2"), "hitting-set re-enumeration disagreed"),
]


@pytest.mark.parametrize(
    "module, name, patch, gen_args, message",
    GAP_CROSS_CHECKS,
    ids=[case[-1] for case in GAP_CROSS_CHECKS],
)
def test_gap_cross_check_failures_exit_3(
    module, name, patch, gen_args, message, tmp_path, monkeypatch, capsys
):
    """A generator whose two scans disagree has hit a broken invariant,
    not bad input: exit 3 with the message, and no instance written."""
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    out = tmp_path / "gap.json"
    assert run_cli("gen", *gen_args, "--out", str(out)) == 3
    assert capsys.readouterr().err == f"internal invariant failure: {message}\n"
    assert not out.exists()


def test_timing_field_is_opt_in(tmp_path):
    inst = tmp_path / "inst.json"
    dump_instance(random_mcst_instance(random.Random(3)), inst)
    plain = tmp_path / "p.json"
    timed = tmp_path / "t.json"
    run_cli("solve-mcst", "--in", str(inst), "--report", str(plain))
    run_cli("solve-mcst", "--in", str(inst), "--timing", "--report", str(timed))
    assert "timing_seconds" not in json.loads(plain.read_text())
    assert "timing_seconds" in json.loads(timed.read_text())


def _bad_rank_cases():
    """(solve command, instance body, container, field name, key): one
    rank entry, container[key], of each kind of rank table."""
    from crossopt.generators import gen_edge_cover_tight
    from crossopt.instances import LatticeInstance

    # with its full-set rank raised by 0.5 this instance passes every
    # table check and used to run into an internal error (exit 3)
    matroid_inst = random_lattice_instance(random.Random(10))
    tables_inst = LatticeInstance(
        table_lattice.matroid_to_lattice(matroid_inst.lat.matroid),
        matroid_inst.costs,
        matroid_inst.constraints,
        matroid_inst.variant,
    )
    body = matroid_inst.to_json()
    yield "solve-lattice", body, body["matroid_rank"], "matroid_rank", -1
    body = tables_inst.to_json()
    members = body["lattice"]["members"]
    top = max(range(len(members)), key=lambda i: members[i]["rank"])
    yield "solve-lattice", body, members[top], "lattice member rank", "rank"
    for field in ("r1", "r2"):
        body = gen_edge_cover_tight(1).to_json()
        yield "solve-intersection", body, body[field], field, -1


BAD_RANKS = {
    "raised-by-half": lambda v: v + 0.5,
    "float": float,
    "string": str,
    "true": lambda v: True,
}


@pytest.mark.parametrize("kind", sorted(BAD_RANKS))
def test_non_integer_rank_entry_is_usage_error(kind, tmp_path, capsys):
    for command, body, table, field, key in _bad_rank_cases():
        table[key] = BAD_RANKS[kind](table[key])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        assert run_cli(command, "--in", str(path), "--verify") == 2, field
        err = capsys.readouterr().err
        assert field in err and "must be an integer" in err
        assert "Traceback" not in err


# case -> (solver, corruption of a valid instance body, error line):
# one integer entry changed, so the table stays well-typed but breaks an
# axiom.  The r1 table is gen_edge_cover_tight(1)'s, the matroid the
# rank min(|S|, 7) on 8 elements of random_lattice_instance(seed 10).
AXIOM_VIOLATIONS = {
    "r1-supermodularity": (
        "intersection",
        lambda body: body["r1"].__setitem__(0b1111, 1),
        "r1 supermodularity violated at S=0x3, e=2, f=3",
    ),
    "matroid-submodularity": (
        "lattice",
        lambda body: body["matroid_rank"].__setitem__(0b11, 1),
        "matroid submodularity violated at S=0x1, e=1, f=2",
    ),
    "matroid-monotonicity": (
        "lattice",
        lambda body: body["matroid_rank"].__setitem__(0b1111, 6),
        "monotonicity violated at S=0xf + element 4",
    ),
}


@pytest.mark.parametrize("case", sorted(AXIOM_VIOLATIONS))
def test_rank_table_axiom_violation_is_usage_error(case, tmp_path, capsys):
    from crossopt.generators import gen_edge_cover_tight

    kind, corrupt, message = AXIOM_VIOLATIONS[case]
    if kind == "intersection":
        body = gen_edge_cover_tight(1).to_json()
    else:
        body = random_lattice_instance(random.Random(10)).to_json()
    corrupt(body)
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(body))
    solution = tmp_path / "sol.json"
    solution.write_text('{"ids": [0]}')
    assert run_cli(f"solve-{kind}", "--in", str(inst), "--verify") == 2
    assert run_cli("verify", "--in", str(inst), "--solution", str(solution)) == 2
    assert capsys.readouterr().err == f"error: {message}\n" * 2


def _explicit_lattice_body():
    """A lattice instance of at most 32 members, written with its
    leq/meet/join tables (no matroid rank table), so decoding builds
    LatticeOracle from them."""
    from crossopt.instances import LatticeInstance

    inst = random_lattice_instance(random.Random(10), max_ground=5)
    return LatticeInstance(
        table_lattice.matroid_to_lattice(inst.lat.matroid),
        inst.costs,
        inst.constraints,
        inst.variant,
    ).to_json()


def _set_both(table, value):
    table[0][1] = table[1][0] = value


# case -> (what the error must name, corruption of the "lattice" object);
# the -1 and true meet entries used to be read as the last member and
# as member 1, the others crashed with a traceback
BAD_TABLES = {
    "meet-row-short": ("lattice meet row 2", lambda t: t["meet"][2].pop()),
    "join-row-missing": ("lattice join table", lambda t: t["join"].pop()),
    "leq-row-short": ("lattice leq row 0", lambda t: t["leq"][0].pop()),
    "leq-entry-2": ("lattice leq[3][1]", lambda t: t["leq"][3].__setitem__(1, 2)),
    "meet-entry-99": ("lattice meet[0][1]", lambda t: _set_both(t["meet"], 99)),
    "meet-entry-float": ("lattice meet[0][1]", lambda t: _set_both(t["meet"], 1.0)),
    "meet-entry-negative": ("lattice meet[0][1]", lambda t: _set_both(t["meet"], -1)),
    "meet-entry-true": ("lattice meet[0][1]", lambda t: _set_both(t["meet"], True)),
    "join-entry-99": ("lattice join[0][1]", lambda t: _set_both(t["join"], 99)),
    "rho-element-99": (
        "lattice member 1 rho",
        lambda t: t["members"][1]["rho"].append(99),
    ),
    "rho-element-negative": (
        "lattice member 1 rho",
        lambda t: t["members"][1]["rho"].append(-1),
    ),
    # these two raised TypeError
    "members-number": (
        "members must be a list of objects, got 3", lambda t: t.update(members=3)
    ),
    "member-number": (
        "members[0] must be an object, got 3",
        lambda t: t["members"].__setitem__(0, 3),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_malformed_lattice_table_is_usage_error(case, tmp_path, capsys):
    named, corrupt = BAD_TABLES[case]
    body = _explicit_lattice_body()
    corrupt(body["lattice"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert run_cli("solve-lattice", "--in", str(path), "--verify") == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "solve-lattice"])
def test_written_planar_gap_file_is_validated_on_read(command, tmp_path, capsys):
    """A gap file that holds its lattice as explicit tables, as the
    generator wrote it before the product-of-chains body, is checked in
    full when read: a meet pair moved to another valid member is refused
    with the check and pair."""
    from crossopt.generators import gen_planar_mincut_gap
    from crossopt.instances import LatticeInstance

    gap, _ = gen_planar_mincut_gap(2)
    body = LatticeInstance(
        table_lattice.path_lattice(2), gap.costs, gap.constraints, gap.variant
    ).to_json()
    meet = body["lattice"]["meet"]
    assert meet[1][2] == meet[2][1] == 0
    meet[1][2] = meet[2][1] = 1  # (0,1) is not below (1,0)
    inst = tmp_path / "planar.json"
    inst.write_text(json.dumps(body))
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"ids": list(range(body["ground"]))}))
    argv = ["--in", str(inst)]
    if command == "verify":
        argv += ["--solution", str(solution)]
    assert run_cli(command, *argv) == 2
    err = capsys.readouterr().err
    assert "meet not below both at (1,2)" in err
    assert "Traceback" not in err


def _set_k(value):
    return lambda body: body["lattice"]["product_of_chains"].__setitem__("k", value)


K_RANGE = "lattice product_of_chains k must be an integer 2..4, got"

# case -> (what the error must name, corruption of the `gen planar-gap
# --k 2` body)
BAD_CHAINS = {
    "k-true": (f"{K_RANGE} True", _set_k(True)),
    "k-string": (f"{K_RANGE} '4'", _set_k("4")),
    "k-float": (f"{K_RANGE} 4.0", _set_k(4.0)),
    "k-1": (f"{K_RANGE} 1", _set_k(1)),
    "k-5": (f"{K_RANGE} 5", _set_k(5)),
    "k-null": (f"{K_RANGE} None", _set_k(None)),
    "k-missing": (
        "missing instance field 'k'",
        lambda body: body["lattice"]["product_of_chains"].pop("k"),
    ),
    "chains-number": (
        "lattice product_of_chains must be an object, got 2",
        lambda body: body["lattice"].update(product_of_chains=2),
    ),
    "chains-list": (
        "lattice product_of_chains must be an object, got [2]",
        lambda body: body["lattice"].update(product_of_chains=[2]),
    ),
    "with-meet-table": (
        "lattice holds both product_of_chains and explicit meet",
        lambda body: body["lattice"].update(meet=[[0]]),
    ),
    "with-members": (
        "lattice holds both product_of_chains and explicit members",
        lambda body: body["lattice"].update(members=[]),
    ),
    "ground-above": (
        "ground must be 2k^2 = 8 for a product of 2 chains, got 9",
        lambda body: body.update(ground=9),
    ),
    "ground-below": (
        "ground must be 2k^2 = 8 for a product of 2 chains, got 7",
        lambda body: body.update(ground=7),
    ),
    "ground-of-another-k": (
        "ground must be 2k^2 = 18 for a product of 3 chains, got 8",
        _set_k(3),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CHAINS))
def test_malformed_product_of_chains_is_usage_error(case, tmp_path, capsys):
    named, corrupt = BAD_CHAINS[case]
    inst = tmp_path / "planar.json"
    assert run_cli("gen", "planar-gap", "--k", "2", "--out", str(inst)) == 0
    body = json.loads(inst.read_text())
    corrupt(body)
    inst.write_text(json.dumps(body))
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"ids": [0]}))
    assert run_cli("solve-lattice", "--in", str(inst), "--verify") == 2
    assert run_cli("verify", "--in", str(inst), "--solution", str(solution)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named}\n" * 2
    assert "Traceback" not in err


def test_unknown_product_of_chains_keys_are_ignored(tmp_path):
    plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
    assert run_cli("gen", "planar-gap", "--k", "3", "--out", str(plain)) == 0
    body = json.loads(plain.read_text())
    assert body["lattice"] == {"product_of_chains": {"k": 3}}
    body["lattice"]["product_of_chains"]["order"] = "not a field"
    extra.write_text(json.dumps(body))
    solution = tmp_path / "sol.json"
    solution.write_text(json.dumps({"ids": list(range(6))}))
    reports = []
    for inst in (plain, extra):
        report = tmp_path / f"{inst.stem}-report.json"
        argv = ["--in", str(inst), "--solution", str(solution), "--report", str(report)]
        assert run_cli("verify", *argv) == 1
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["instance_digest"]


def _id_list_cases():
    """list name -> (solve command, instance body, the id list in it, text
    the error must contain)."""
    from crossopt.generators import gen_edge_cover_tight
    from crossopt.graphs import Graph
    from crossopt.instances import GeneralMcstInstance
    from crossopt.rational import Rat

    body = random_mcst_instance(random.Random(3)).to_json()
    ids = body["family"][0]["vertices"]
    yield "mcst-family-vertices", (
        "solve-mcst", body, ids, "family set out of vertex range"
    )
    graph = Graph.from_pairs(3, [(0, 1), (1, 2)])
    body = GeneralMcstInstance(graph, ((0b11, Rat(1)),)).to_json()
    ids = body["bounds"][0]["edges"]
    yield "general-mcst-bound-edges", (
        "solve-mcst", body, ids, "bound 0 must list edge ids"
    )
    body = gen_edge_cover_tight(1).to_json()
    ids = body["bounds"][0]["elements"]
    yield "intersection-bound-elements", (
        "solve-intersection", body, ids, "bound 0 elements"
    )
    body = random_lattice_instance(random.Random(10), max_ground=5).to_json()
    ids = body["bounds"][0]["elements"]
    yield "lattice-bound-elements", ("solve-lattice", body, ids, "bound 0 elements")


ID_LISTS = (
    "mcst-family-vertices",
    "general-mcst-bound-edges",
    "intersection-bound-elements",
    "lattice-bound-elements",
)
# -1, 1.5 and "0" used to crash in graphs.mask_of; true was read as id 1
BAD_IDS = {"minus-one": -1, "one-and-a-half": 1.5, "true": True, "string-zero": "0"}


@pytest.mark.parametrize("bad", sorted(BAD_IDS))
@pytest.mark.parametrize("case", ID_LISTS)
def test_bad_id_in_instance_list_is_usage_error(case, bad, tmp_path, capsys):
    command, body, ids, named = dict(_id_list_cases())[case]
    ids.append(BAD_IDS[bad])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert run_cli(command, "--in", str(path), "--verify") == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


# field, value -> the message: -1 as an id used to raise "negative shift
# count" and the floats a TypeError, each a traceback with exit 1
BAD_EDGE_FIELDS = {
    ("id", -1): "edge 0 id must be a non-negative integer, got -1",
    ("id", 1.5): "edge 0 id must be a non-negative integer, got 1.5",
    ("u", 0.5): "edge 0 u must be a non-negative integer, got 0.5",
}


@pytest.mark.parametrize("field, value", sorted(BAD_EDGE_FIELDS))
def test_bad_edge_field_is_usage_error(field, value, tmp_path, capsys):
    body = random_mcst_instance(random.Random(3)).to_json()
    body["edges"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert run_cli("solve-mcst", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert BAD_EDGE_FIELDS[field, value] in err
    assert "Traceback" not in err


# solution body -> the message; each used to end in a traceback (a
# negative shift count, a TypeError, IndexError or KeyError, a
# JSONDecodeError, UnicodeDecodeError or FileNotFoundError), and true
# was read as id 1
BAD_SOLUTIONS = {
    "minus-one": ('{"ids": [-1]}', "must list elements 0..3, got [-1]"),
    "one-and-a-half": ('{"ids": [1.5]}', "solution ids must list elements 0..3"),
    "string": ('{"ids": "ab"}', "solution ids must list elements 0..3, got 'ab'"),
    "out-of-range": ('{"ids": [99]}', "solution ids must list elements 0..3"),
    "true": ('{"ids": [true]}', "must list elements 0..3, got [True]"),
    "no-ids": ('{"schema": 1}', "must be a JSON object with an ids list"),
    "top-level-list": ("[0, 1]", "must be a JSON object with an ids list"),
    "invalid-json": ('{"ids": [0', "invalid JSON in"),
    "not-utf8": ('\udcff{"ids": [0]}', "invalid JSON in"),
    "missing-file": (None, "cannot read"),
}


@pytest.mark.parametrize("case", sorted(BAD_SOLUTIONS))
def test_bad_solution_file_is_usage_error(case, tmp_path, capsys):
    text, named = BAD_SOLUTIONS[case]
    inst = tmp_path / "inst.json"
    dump_instance(random_lattice_instance(random.Random(3), max_ground=5), inst)
    solution = tmp_path / "sol.json"
    if text is not None:
        solution.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert run_cli("verify", "--in", str(inst), "--solution", str(solution)) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


# --bounds -> the message: bad JSON and -1 used to end in a traceback,
# and 0.5 was written as the bound 3/2
BAD_REDUCTION_BOUNDS = {
    "bad-json": ("{bad", "--bounds is not valid JSON"),
    "not-a-list": ('{"0": 1}', "--bounds must be a list of [[elements], bound]"),
    "not-a-pair": ("[[[0]]]", "--bounds entry 0 must be a pair"),
    "minus-one": ("[[[-1], 1]]", "entry 0 must list elements 0..2, got [-1]"),
    "out-of-range": ("[[[0], 1], [[3], 1]]", "--bounds entry 1 must list elements 0..2"),
    "true-element": ("[[[true], 1]]", "--bounds entry 0 must list elements 0..2"),
    "half-bound": ("[[[0], 0.5]]", "entry 0 bound must be an integer, got 0.5"),
    "true-bound": ("[[[0], true]]", "--bounds entry 0 bound must be an integer"),
}


@pytest.mark.parametrize("case", sorted(BAD_REDUCTION_BOUNDS))
def test_bad_reduction_bounds_are_usage_error(case, tmp_path, capsys):
    bounds, named = BAD_REDUCTION_BOUNDS[case]
    out = tmp_path / "red.json"
    argv = ("gen", "reduction", "--e", "3", "--t", "2", "--bounds", bounds)
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


# one digit past Python's int conversion limit: on every JSON read such
# a literal used to end in a ValueError traceback with exit 1
DIGIT_LIMIT = sys.get_int_max_str_digits()
HUGE = "9" * (DIGIT_LIMIT + 1)


def _huge_instance(tmp_path, monkeypatch):
    path = tmp_path / "inst.json"
    path.write_text('{"schema": 1, "type": "mcst", "n": %s}' % HUGE)
    return ("solve-mcst", "--in", str(path)), f"invalid JSON in {path}"


def _huge_stdin(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"schema": %s}' % HUGE))
    return ("solve-mcst", "--in", "-"), "invalid JSON on stdin"


def _huge_solution(tmp_path, monkeypatch):
    inst, solution = tmp_path / "inst.json", tmp_path / "sol.json"
    dump_instance(random_lattice_instance(random.Random(3), max_ground=5), inst)
    solution.write_text('{"ids": [%s]}' % HUGE)
    argv = ("verify", "--in", str(inst), "--solution", str(solution))
    return argv, f"invalid JSON in {solution}"


def _huge_trace_line(tmp_path, monkeypatch):
    inst, solution, trace = _solved_mcst(tmp_path)
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write('{"ev": "fix", "edge": %s}\n' % HUGE)
    argv = ("verify", "--in", str(inst), "--solution", str(solution))
    return (*argv, "--trace", str(trace)), "line 39 is not valid JSON"


def _huge_bounds(tmp_path, monkeypatch):
    argv = ("gen", "reduction", "--e", "3", "--t", "2", "--bounds", f"[[[0], {HUGE}]]")
    return argv, "--bounds is not valid JSON"


def _huge_rational(tmp_path, monkeypatch):
    body = random_mcst_instance(random.Random(3)).to_json()
    body["edges"][0]["cost"] = f"{HUGE}/1"
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(body))
    return ("solve-mcst", "--in", str(path)), "edge 0 cost has a numerator or denominator"


OVERSIZED_LITERALS = {
    "instance-file": _huge_instance,
    "stdin": _huge_stdin,
    "solution-file": _huge_solution,
    "trace-line": _huge_trace_line,
    "reduction-bounds": _huge_bounds,
    "rational-string": _huge_rational,
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_LITERALS))
def test_oversized_integer_literal_is_usage_error(case, tmp_path, monkeypatch, capsys):
    argv, named = OVERSIZED_LITERALS[case](tmp_path, monkeypatch)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert f"more than {DIGIT_LIMIT} digits, Python's int conversion limit" in err
    assert "Traceback" not in err


# nested past Python's recursion limit: json.loads used to end in a
# RecursionError traceback with exit 1
DEEP = "[" * 200_000


def _deep_instance(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(DEEP)
    return ("solve-mcst", "--in", str(path)), f"invalid JSON in {path}"


def _deep_trace_line(tmp_path):
    inst, solution, trace = _solved_mcst(tmp_path)
    with open(trace, "a", encoding="utf-8") as fh:
        fh.write(DEEP + "\n")
    argv = ("verify", "--in", str(inst), "--solution", str(solution))
    return (*argv, "--trace", str(trace)), "line 39 is not valid JSON"


@pytest.mark.parametrize(
    "make", [_deep_instance, _deep_trace_line], ids=["instance-file", "trace-line"]
)
def test_deeply_nested_json_is_usage_error(make, tmp_path, capsys):
    argv, named = make(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "nest too deeply for Python's recursion limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "e, t, named",
    [
        (-1, -3, "ground size must be at least 1, got -1"),
        (0, 0, "ground size must be at least 1, got 0"),
        (3, -1, "rank must be between 0 and the ground size 3, got -1"),
        (2, 3, "rank must be between 0 and the ground size 2, got 3"),
        # 4e edge ids past ID_LIMIT: the instance used to be written
        # and then refused on read
        (16385, 1, "ground size must be at most 16384, got 16385"),
    ],
)
def test_bad_reduction_size_is_usage_error(e, t, named, capsys):
    # --e -1 used to end in "negative shift count" with a traceback
    assert run_cli("gen", "reduction", "--e", str(e), "--t", str(t)) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--runs", -1, "--runs must be at least 0, got -1"),
        ("--jobs", 0, "--jobs must be between 1 and"),
        ("--jobs", -3, "--jobs must be between 1 and"),
        ("--jobs", MAX_JOBS + 1, f"must be between 1 and {MAX_JOBS} (the CPU count)"),
    ],
    ids=["runs-negative", "jobs-zero", "jobs-negative", "jobs-above-cpu-count"],
)
def test_selftest_size_guards(flag, value, named, monkeypatch, capsys):
    import concurrent.futures

    from crossopt import cli

    def no_work(*args, **kwargs):
        raise AssertionError("selftest started work it should have refused")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(cli, "_selftest_one", no_work)
    assert run_cli("selftest", flag, str(value)) == 2
    assert named in capsys.readouterr().err


# instances with an empty ground set: there is no LP to solve, so the
# initial optimum is 0; solve-intersection and verify used to crash on
# an optimum of None and exit 1
EMPTY_GROUND = {
    "intersection": {
        "schema": 1, "type": "intersection", "ground": 0,
        "r1": [0], "r2": [0], "cost": [], "bounds": [],
    },
    "lattice": {
        "schema": 1, "type": "lattice", "variant": "general", "ground": 0,
        "matroid_rank": [0], "cost": [], "bounds": [],
    },
}


@pytest.mark.parametrize("kind", sorted(EMPTY_GROUND))
def test_empty_ground_set_solves_and_verifies(kind, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(EMPTY_GROUND[kind]))
    report = tmp_path / "report.json"
    solution = tmp_path / "sol.json"
    argv = ["--in", str(inst), "--report", str(report), "--solution", str(solution)]
    assert run_cli(f"solve-{kind}", *argv, "--verify") == 0
    body = json.loads(report.read_text())
    assert body["outcome"] == "ok" and body["solution"] == []
    assert body["lp_optimum"]["rational"] == "0/1"
    checks = body["checks"]
    assert "None" not in [c["achieved"] for c in checks]
    verified = tmp_path / "verified.json"
    argv = ["--in", str(inst), "--solution", str(solution)]
    assert run_cli("verify", *argv, "--report", str(verified)) == 0
    body = json.loads(verified.read_text())
    assert body["ok"] and body["checks"] == checks
    assert "Traceback" not in capsys.readouterr().err


def test_verify_refuses_an_infeasible_intersection_lp(tmp_path, capsys):
    # r1({0}) = 2 cannot be covered by x_0 <= 1: verify reads the LP
    # optimum from the first LP alone, and an empty one is bad input
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "schema": 1, "type": "intersection", "ground": 1,
        "r1": [0, 2], "r2": [0, 0], "cost": ["1"], "bounds": [],
    }))
    solution = tmp_path / "sol.json"
    solution.write_text('{"ids": [0]}')
    assert run_cli("solve-intersection", "--in", str(inst)) == 2
    assert run_cli("verify", "--in", str(inst), "--solution", str(solution)) == 2
    err = capsys.readouterr().err
    assert err.count("instance LP is infeasible") == 2
    assert "Traceback" not in err


# n >= 2 and no edges: relax solves no LP, and the tree check used to
# run before the "no edges" check, so both exited 3.  n = 0 used to be
# refused as "laminar family has 0 sets, limit is -1".
NO_EDGES = {
    "empty-list": (3, [], "graph has no edges"),
    "empty-object": (3, {}, "edges must be a list of objects, got {}"),
    "no-vertices": (0, [], "graph has no vertices"),
}


@pytest.mark.parametrize("case", sorted(NO_EDGES))
def test_mcst_without_edges_is_usage_error(case, tmp_path, capsys):
    n, edges, named = NO_EDGES[case]
    body = {"schema": 1, "type": "mcst", "n": n, "edges": edges, "family": []}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(body))
    assert run_cli("solve-mcst", "--in", str(inst), "--verify") == 2
    err = capsys.readouterr().err
    assert named in err and "laminar family" not in err
    assert "Traceback" not in err


def _body(kind):
    """(the solve command, a valid instance body of the given type)."""
    from crossopt.generators import gen_edge_cover_tight
    from crossopt.graphs import Graph
    from crossopt.instances import GeneralMcstInstance
    from crossopt.rational import Rat

    if kind == "mcst":
        return "solve-mcst", random_mcst_instance(random.Random(3)).to_json()
    if kind == "general-mcst":
        graph = Graph.from_pairs(3, [(0, 1), (1, 2)])
        return "solve-mcst", GeneralMcstInstance(graph, ((0b11, Rat(1)),)).to_json()
    if kind == "intersection":
        return "solve-intersection", gen_edge_cover_tight(1).to_json()
    if kind == "lattice-tables":
        return "solve-lattice", _explicit_lattice_body()
    lattice = random_lattice_instance(random.Random(10), max_ground=5)
    return "solve-lattice", lattice.to_json()


# (body type, field) -> (the entry holding the field, its key there, the
# name the error gives it); each bad value used to raise AttributeError,
# TypeError, ValueError or ZeroDivisionError in parse_rat, a traceback
# with exit 1
RAT_FIELDS = {
    ("mcst", "cost"): (lambda body: body["edges"][0], "cost", "edge 0 cost"),
    ("mcst", "bound"): (lambda body: body["family"][0], "bound", "family set 0 bound"),
    ("general-mcst", "cost"): (lambda body: body["edges"][0], "cost", "edge 0 cost"),
    ("general-mcst", "bound"): (lambda body: body["bounds"][0], "bound", "bound 0 bound"),
    ("intersection", "cost"): (lambda body: body["cost"], 0, "cost[0]"),
    ("intersection", "upper"): (lambda body: body["bounds"][0], "upper", "bound 0 upper"),
    ("lattice", "cost"): (lambda body: body["cost"], 0, "cost[0]"),
    ("lattice", "upper"): (lambda body: body["bounds"][0], "upper", "bound 0 upper"),
    ("lattice", "lower"): (lambda body: body["bounds"][0], "lower", "bound 0 lower"),
}
BAD_RATS = {"int": 3, "null": None, "word": "abc", "zero-denominator": "1/0"}
# a null lower bound is an absent one, so that body stays valid
RAT_CASES = [
    (kind, field, bad)
    for kind, field in sorted(RAT_FIELDS)
    for bad in sorted(BAD_RATS)
    if (field, bad) != ("lower", "null")
]


@pytest.mark.parametrize("kind, field, bad", RAT_CASES)
def test_bad_rational_field_is_usage_error(kind, field, bad, tmp_path, capsys):
    command, body = _body(kind)
    entry, key, named = RAT_FIELDS[kind, field]
    entry(body)[key] = BAD_RATS[bad]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(body))
    assert run_cli(command, "--in", str(inst)) == 2
    err = capsys.readouterr().err
    assert f'{named} must be a rational string "p/q", got {BAD_RATS[bad]!r}' in err
    assert "Traceback" not in err


def _listed(entries):
    entries[0] = list(entries[0].values())


# case -> (corrupt the mcst body, the message); "3" and 3.0 as n used to
# raise TypeError and true was read as n = 1; a family that is no list,
# or an entry that is a list, raised TypeError
BAD_MCST_SHAPES = {
    "n-string": (
        lambda body: body.update(n="3"), "n must be a non-negative integer, got '3'"
    ),
    "n-float": (
        lambda body: body.update(n=3.0), "n must be a non-negative integer, got 3.0"
    ),
    "n-true": (
        lambda body: body.update(n=True), "n must be a non-negative integer, got True"
    ),
    "family-number": (
        lambda body: body.update(family=3), "family must be a list of objects, got 3"
    ),
    "family-object": (
        lambda body: body.update(family={}), "family must be a list of objects, got {}"
    ),
    "edge-list": (
        lambda body: _listed(body["edges"]), "edges[0] must be an object, got ["
    ),
    "family-entry-list": (
        lambda body: _listed(body["family"]), "family[0] must be an object, got ["
    ),
    # ids are bit positions: 2**70 raised OverflowError building a mask,
    # 2**40 MemoryError, and n = 2**70 OverflowError in Graph
    "edge-id-2-70": (
        lambda body: body["edges"][0].update(id=2**70),
        f"edge 0 id must be below 65536, got {2**70}",
    ),
    "edge-id-2-40": (
        lambda body: body["edges"][0].update(id=2**40),
        f"edge 0 id must be below 65536, got {2**40}",
    ),
    "n-2-70": (
        lambda body: body.update(n=2**70), f"n must be at most 65536, got {2**70}"
    ),
}
# the same for intersection and lattice bodies, where each raised TypeError
COVERING_SHAPES = {
    "ground-string": (
        lambda body: body.update(ground="3"),
        "ground must be a non-negative integer, got '3'",
    ),
    "bounds-number": (
        lambda body: body.update(bounds=[3]), "bounds[0] must be an object, got 3"
    ),
    "cost-null": (
        lambda body: body.update(cost=None),
        "cost must be a list of rational strings, got None",
    ),
}
# case -> (body type, corruption, message)
BAD_SHAPES = {case: ("mcst", *v) for case, v in BAD_MCST_SHAPES.items()}
BAD_SHAPES.update(
    (f"{kind}-{case}", (kind, *v))
    for kind in ("intersection", "lattice")
    for case, v in COVERING_SHAPES.items()
)
# lattice validation used to build lists of one entry per ground
# element, so this ground ended in MemoryError (a list that long fails
# its size check, so the old code allocated nothing either)
BAD_SHAPES["lattice-tables-ground-huge"] = (
    "lattice-tables",
    lambda body: body.update(ground=2**62),
    "cost vector length mismatch",
)
# this raised TypeError
BAD_SHAPES["lattice-tables-number"] = (
    "lattice-tables",
    lambda body: body.update(lattice=3),
    "lattice must be an object, got 3",
)


def test_unknown_instance_keys_are_ignored(tmp_path):
    command, body = _body("mcst")
    plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
    plain.write_text(json.dumps(body))
    body["comment"] = "not a field"
    body["edges"][0]["colour"] = "red"
    extra.write_text(json.dumps(body))
    reports = []
    for inst in (plain, extra):
        report = tmp_path / f"{inst.stem}-report.json"
        argv = ["--in", str(inst), "--verify", "--report", str(report)]
        assert run_cli(command, *argv) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["instance_digest"]


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_bad_mcst_shape_is_usage_error(case, tmp_path, capsys):
    kind, corrupt, named = BAD_SHAPES[case]
    command, body = _body(kind)
    corrupt(body)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(body))
    assert run_cli(command, "--in", str(inst)) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
