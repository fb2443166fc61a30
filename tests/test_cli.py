import json

import pytest

import table_lattice
from crossopt.cli import MAX_JOBS, main
from crossopt.instances import dump_instance
from crossopt.randgen import random_lattice_instance, random_mcst_instance
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


@pytest.mark.parametrize(
    "e, t, named",
    [
        (-1, -3, "ground size must be at least 1, got -1"),
        (0, 0, "ground size must be at least 1, got 0"),
        (3, -1, "rank must be between 0 and the ground size 3, got -1"),
        (2, 3, "rank must be between 0 and the ground size 2, got 3"),
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
