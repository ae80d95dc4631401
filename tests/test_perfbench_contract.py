"""The benchmark's wrappers still find every name they look up.

perfbench/tracing.py and perfbench/workloads.py replace package functions
where their callers look them up: module attributes such as
`cluster.attach_forest_root` and `predict.run_chunked`, and kNN kernel table
entries such as `knn._KERNELS["fast"]`. A refactor that renames or drops one
of those names breaks the benchmark; this test makes it break tier-1 first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# tracing.install's span wrappers plus its two run_chunked dispatch wrappers
TRACED = 26


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


@pytest.fixture()
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapper_installs_and_restores(perfbench):
    tracing, workloads = perfbench
    tracer = tracing.Tracer()
    capture = workloads.GraphCapture()
    try:
        tracing.install(tracer)
        capture.install()
        installed = list(tracer._restore)
        assert len(installed) == TRACED
        assert sorted(capture._originals) == sorted(capture.NAMES)
        for owner, attr, original in installed:
            assert _get(owner, attr) is not original, attr
    finally:
        capture.restore()
        tracer.restore()
    for owner, attr, original in installed:
        assert _get(owner, attr) is original, attr
