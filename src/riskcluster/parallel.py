"""Worker-count resolution and deterministic data-parallel helpers.

Every task writes into its own disjoint output slice. Chunks may depend on the
worker count only where each row's result is independent of the rows batched
with it, as in every kNN search; a batch-sensitive kernel, such as a Gram
product (sqdist_fast), would need fixed chunks. Either way results are
identical whether a job runs on 1 thread or 16.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from .model import is_integer


def resolve_threads(threads=None):
    """Explicit argument, else RC_THREADS, else available cores.

    An explicit count must be an integer, numpy's included: a bool, float
    or str is refused, not truncated.
    """
    if threads is None:
        env = os.environ.get("RC_THREADS")
        if env is not None and env.strip():
            try:
                threads = int(env)
            except ValueError:
                raise ValueError(f"RC_THREADS is not an integer: {env!r}")
        else:
            threads = os.cpu_count() or 1
    elif not is_integer(threads):
        raise ValueError(f"thread count must be an integer, got {threads!r}")
    threads = int(threads)
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return threads


def chunk_ranges(n, chunk):
    """Fixed [start, stop) partition of range(n); independent of threads."""
    if n <= 0:
        return []
    chunk = max(1, int(chunk))
    return [(s, min(s + chunk, n)) for s in range(0, n, chunk)]


def run_chunked(fn, n, threads, chunk):
    """Run fn(start, stop) over fixed chunks, possibly on a thread pool.

    The pool never has more workers than chunks or cores, whatever threads
    asks for. fn must only write to state owned by its own slice.
    """
    ranges = chunk_ranges(n, chunk)
    workers = min(threads, len(ranges), os.cpu_count() or 1)
    if workers <= 1:
        for start, stop in ranges:
            fn(start, stop)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, start, stop) for start, stop in ranges]
        for fut in futures:
            fut.result()
