"""Solver output pinned byte for byte.

Each case solves a small seeded instance through the command line and
hashes the files it writes: the canonical report, the solution file and,
for solve-mcst, the event trace.  The expected digests were recorded
from an earlier build, so any change to a report or an MCST trace shows
up here; a change that means to alter them must update the digests.
"""

import hashlib
import random

import pytest

from crossopt.cli import main
from crossopt.generators import gen_edge_cover_tight
from crossopt.instances import INCLUSION, dump_instance
from crossopt.randgen import (
    CorpusConfig,
    mcst_corpus,
    random_intersection_instance,
    random_lattice_instance,
)


def _mcst(i):
    # the corpus leads with drop-round seeds, so these runs drop and merge
    return mcst_corpus(CorpusConfig(count=3))[i]


CASES = {
    "mcst-0": (_mcst, 0, ("solve-mcst",)),
    "mcst-1": (_mcst, 1, ("solve-mcst",)),
    "mcst-2": (_mcst, 2, ("solve-mcst",)),
    "intersection-201": (
        lambda s: random_intersection_instance(random.Random(s), max_elems=8),
        201,
        ("solve-intersection",),
    ),
    "intersection-202": (
        lambda s: random_intersection_instance(random.Random(s), max_elems=8),
        202,
        ("solve-intersection",),
    ),
    "edge-cover-1": (gen_edge_cover_tight, 1, ("solve-intersection",)),
    "lattice-general-301": (
        lambda s: random_lattice_instance(random.Random(s), max_ground=6),
        301,
        ("solve-lattice",),
    ),
    "lattice-general-302": (
        lambda s: random_lattice_instance(random.Random(s), max_ground=6),
        302,
        ("solve-lattice",),
    ),
    "lattice-inclusion-303": (
        lambda s: random_lattice_instance(
            random.Random(s), max_ground=6, variant=INCLUSION
        ),
        303,
        ("solve-lattice",),
    ),
    "lattice-inclusion-as-general-303": (
        lambda s: random_lattice_instance(
            random.Random(s), max_ground=6, variant=INCLUSION
        ),
        303,
        ("solve-lattice", "--variant", "general"),
    ),
}

EXPECTED = {
    "mcst-0": "dc8697ebdb0206f75c5bd6ca24c17206158829a8abc3e1bf66a535447ab87f8d",
    "mcst-1": "137631a9e2b3d5f073f9f08dda62cdd96af96c99ccfb1f36bd67b3ebe3bdace5",
    "mcst-2": "3cd4de7c1612f01406598371f75718e22f4d06a7e720234024350417fc9db5fa",
    "intersection-201": "c017a4f8d5c20005d0000d67a5959e398e36acd12f22f919aa74a302bdde9098",
    "intersection-202": "d7bb4667dfb4ddd609bc4f58e8ed0e783f5e91233c1dd9701d5bf95e1ee5ea98",
    "edge-cover-1": "90bbb324cb52274195af5bf401383ad5bbc3ebb934dd42005f997d105e342ea4",
    "lattice-general-301": "4361ddf4017d2dafd9b17873a2478688aa042b7f5ae9f5c534ed1910693fd049",
    "lattice-general-302": "8425187c65e64b6b4cd1ba466727496e6bf3327e6cd1630d01a37dc51ea12e7a",
    "lattice-inclusion-303": "900ce74dfa4ce74b6991ac2fb5ecde5e9abc81fddd0c4ab687d5dfa72403d75d",
    "lattice-inclusion-as-general-303": "793a25cba57a63b757c975f8aa45dd28d81faa5f8b6af99831f267c4a70ad7d3",
}


def output_digest(case, tmp_path):
    make, arg, command = CASES[case]
    inst = tmp_path / "inst.json"
    dump_instance(make(arg), inst)
    outputs = {
        "report": tmp_path / "report.json",
        "solution": tmp_path / "solution.json",
    }
    argv = [*command, "--in", str(inst), "--verify"]
    argv += ["--report", str(outputs["report"]), "--solution", str(outputs["solution"])]
    if command[0] == "solve-mcst":
        outputs["trace"] = tmp_path / "trace.jsonl"
        argv += ["--trace", "trace.jsonl"]
    assert main(argv) == 0
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name].read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_recorded_digest(case, tmp_path, monkeypatch):
    # the report names the trace path, so write it by a fixed relative name
    monkeypatch.chdir(tmp_path)
    assert output_digest(case, tmp_path) == EXPECTED[case]
