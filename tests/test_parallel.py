import os
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
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
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
