import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from riskcluster import parallel


class _RecordingPool:
    """ThreadPoolExecutor stand-in: records max_workers, runs tasks inline."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def _grant_cpus(monkeypatch, cpus):
    """Let the process run on cpus CPUs; None: no affinity, no core count."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        # the host has more CPUs than the process may use
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)


@pytest.mark.parametrize("threads, n, chunk, cpus, workers", [
    (1000, 30, 10, 8, 3),      # clamped to the chunk count
    (1000, 1000, 10, 4, 4),    # clamped to the cores
    (2, 1000, 10, 8, 2),       # the request fits: kept
    (1000, 1000, 10, None, None),  # unknown core count: serial, no pool
    (8, 5, 10, 8, None),       # one chunk: serial, no pool
])
def test_run_chunked_clamps_workers(monkeypatch, threads, n, chunk, cpus,
                                    workers):
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _RecordingPool)
    _grant_cpus(monkeypatch, cpus)
    seen = []
    parallel.run_chunked(lambda a, b: seen.append((a, b)), n, threads, chunk)
    assert _RecordingPool.created == ([] if workers is None else [workers])
    assert seen == parallel.chunk_ranges(n, chunk)


@pytest.mark.parametrize("threads", [2.9, 2.0, True, False, "3"])
def test_resolve_threads_refuses_non_integers(threads):
    with pytest.raises(ValueError, match="integer"):
        parallel.resolve_threads(threads)


@pytest.mark.parametrize("threads", [3, np.int64(3), np.int32(3)])
def test_resolve_threads_takes_integers(threads):
    got = parallel.resolve_threads(threads)
    assert got == 3 and type(got) is int


def test_one_granted_cpu_runs_inline_with_the_same_results(monkeypatch):
    def run():
        out = np.zeros(1000)
        seen = set()

        def fill(a, b):
            seen.add(threading.get_ident())
            out[a:b] = np.sqrt(np.arange(a, b))

        parallel.run_chunked(fill, out.size, 8, 10)
        return out, seen

    _grant_cpus(monkeypatch, 4)
    pooled, _ = run()
    _grant_cpus(monkeypatch, 1)
    inline, seen = run()
    assert seen == {threading.get_ident()}
    assert np.array_equal(inline, pooled)


def test_default_thread_count_is_the_granted_cpus(monkeypatch):
    monkeypatch.delenv("RC_THREADS", raising=False)
    _grant_cpus(monkeypatch, 3)
    assert parallel.resolve_threads() == 3
