"""Solver output pinned byte for byte.

Each case solves a small seeded instance through the command line and
hashes the files it writes: the canonical report, the solution file and,
for solve-mcst, the event trace.  Every case also hashes the report of
``crossopt verify`` on the solution written (and, for MCST, on the trace
written).  The expected digests were recorded
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


# the report of `crossopt verify` on the solution each solve writes
VERIFY_EXPECTED = {
    "mcst-0": "7bcfd2234a57db921a7ad560c9a5e318c6c8eac175f5408bd790e62a4eb83427",
    "mcst-1": "076f2fa9775fce336f4b47b625d8ded0a9c8a27b591d55b17afe67d674e3da96",
    "mcst-2": "b9fef2990987a90d6ab07588035674e70f30a17ba3ae4dfe3c4384a04a9d5ca2",
    "edge-cover-1": "249d9ec18bb1e312a3b24621bec818fbfbd8bd46c062c1909a3823891d9fa8e5",
    "intersection-201": "5afed2b5a388de89973c86bb9e29210569cf05887249d10b93673ea0f2459248",
    "intersection-202": "e9a9e7548e4fb4d9e85663a7016966512aef85423423ae1e2e6653c5e692238a",
    "lattice-general-301": "5ba9f6f026a2e62f1402706f5652863f443b4520370e88581a4d6d1384f8b0d0",
    "lattice-general-302": "caeda20a7aae8cdf013f41bdf20d77ff140c38f8699324b06378b073c4218087",
    "lattice-inclusion-303": "0c7bb7283715c9d8b75584af1dc987cdd2cdf7494fafc0e21590819328e2727d",
    "lattice-inclusion-as-general-303": "0c7bb7283715c9d8b75584af1dc987cdd2cdf7494fafc0e21590819328e2727d",
}


def verify_digest(case, tmp_path):
    make, arg, command = CASES[case]
    inst = tmp_path / "inst.json"
    solution = tmp_path / "solution.json"
    report = tmp_path / "verify.json"
    dump_instance(make(arg), inst)
    solve = [*command, "--in", str(inst), "--solution", str(solution)]
    argv = ["verify", "--in", str(inst), "--solution", str(solution)]
    if command[0] == "solve-mcst":
        trace = str(tmp_path / "trace.jsonl")
        solve += ["--trace", trace]
        argv += ["--trace", trace]
    assert main(solve) == 0
    assert main([*argv, "--report", str(report)]) == 0
    return hashlib.sha256(report.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(VERIFY_EXPECTED))
def test_verify_report_bytes_match_recorded_digest(case, tmp_path):
    assert verify_digest(case, tmp_path) == VERIFY_EXPECTED[case]
