"""Every layer boundary the benchmark wraps still exists.

perfbench/tracing.py wraps the functions in its BOUNDARIES list for the
traced run, and a boundary the package no longer has just records no
spans.  This test reads that list (perfbench/ itself is not changed or
run here) so that renaming or removing such a function fails the test
suite instead of silently emptying a benchmark metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BOUNDARIES


BOUNDARIES = boundaries()


def test_boundaries_are_listed():
    assert len(BOUNDARIES) >= 20
    assert len({b.span for b in BOUNDARIES}) == len(BOUNDARIES)


@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.span)
def test_boundary_exists(boundary):
    module = importlib.import_module(boundary.module)
    assert callable(getattr(module, boundary.attr, None)), (
        f"{boundary.module}.{boundary.attr}, wrapped as {boundary.span}, is gone"
    )
