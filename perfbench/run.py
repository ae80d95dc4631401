"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ivf_blobs --seed 1 --seconds 30 --trace 0

Run from the root of a riskcluster checkout; the package is imported from
its `src/`, the exact-mode oracle from `tests/oracle.py`. Each op runs back
to back in this one process (a closed loop with one client) with
riskcluster on 2 threads and BLAS pinned to 1.

--trace 0 times ops untraced and reports the end-to-end metrics listed in
BENCHMARK.json. --trace 1 alternates untraced rounds of ops with rounds
under the span wrappers (perfbench/tracing.py, never imported otherwise,
installed for each traced round and restored after it) and reports the
per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Lines before it list every figure by name and unit; the full
record (provenance, per-op times and digests, spans) goes to perfbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 11


class HostClock:
    """Scales wall times to a reference host speed.

    A fixed pass, no riskcluster code, is timed before and after each timed
    stretch: numpy work on one thread (a sort, a matmul and a sum) and
    interpreter work (a JSON round trip and a sort over small dicts), the
    two kinds of work riskcluster does. The stretch's wall time is scaled by
    REF_S over the mean of the pass times before and after it. On a shared
    VM the host's speed wanders by 20% or more within minutes and the pass
    slows with it; the scaled time keeps what the program itself changes.
    REF_S is about one pass on a 2-core Xeon VM, so scaled times read close
    to wall times there.
    """

    REF_S = 0.012

    def __init__(self, np):
        rng = np.random.Generator(np.random.PCG64(0))
        self.np = np
        self.a = rng.random(500_000)
        self.b = rng.random((200, 200))
        self.rows = [{"id": i, "name": f"s{i}", "w": i * 0.5,
                      "tags": [i % 7, i % 11]} for i in range(2000)]
        self.last = self.pass_s()

    def pass_s(self):
        """The median of three passes, so one preempted pass does not count."""
        return statistics.median(self._once() for _ in range(3))

    def _once(self):
        t0 = time.perf_counter()
        self.np.sort(self.a)
        self.b @ self.b
        (self.a * self.a).sum()
        sorted(-r["w"] for r in json.loads(json.dumps(self.rows)))
        return time.perf_counter() - t0

    def start(self):
        """Time a pass just before a stretch that is not an op."""
        self.last = self.pass_s()

    def scale(self, elapsed):
        """Scale a stretch that ended now and began after the last pass."""
        before, self.last = self.last, self.pass_s()
        return elapsed * self.REF_S / ((before + self.last) / 2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1, help=(
        "workload seed (default 1); seed 1009 is held out of tuning, for "
        "confirming a claimed gain"))
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout's own git repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(np, seed, threads):
    import hashlib
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "riskcluster").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "riskcluster_threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run_ops(wl, seconds, seed, capture, clock, tracer=None):
    """Ops back to back until `seconds` pass, ending on a whole round.

    With a tracer, rounds alternate untraced and traced, and the run ends
    on a whole pair of them, so both kinds see the same host speed. Peak
    RSS is read after the first op.
    """
    from workloads import knn_recall
    if tracer is not None:
        import tracing
    times = {False: ([], []), True: ([], [])}
    outs, errors, recalls = [], [], []
    unit = wl.round_size * (1 if tracer is None else 2)
    clock.start()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % unit or time.perf_counter() < deadline:
        traced = tracer is not None and i // wl.round_size % 2 == 1
        if traced and i % wl.round_size == 0:
            tracing.install(tracer)
        # one recall per distinct input: the first round of the run
        capture.armed = i < wl.round_size
        if traced:
            root = tracer.start_op(i)
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:
            out = None
            errors.append((i, traceback.format_exc(limit=3)))
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end_op(root)
            if (i + 1) % wl.round_size == 0:
                tracer.restore()
        elapsed_scaled = clock.scale(elapsed)
        if i == 0:
            # later ops add only allocator growth that varies run to run
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        # a failed op keeps its place, so rounds stay aligned
        times[traced][0].append(elapsed if out is not None else None)
        times[traced][1].append(elapsed_scaled if out is not None else None)
        outs.append(out)
        points, graph = capture.take()
        if graph is not None:
            recalls.append(knn_recall(points, graph, seed))
        i += 1
    return times, outs, errors, recalls, peak_rss_mb


def round_means(times, size):
    """Mean op time of each whole round (every input once) without a failure.

    Inputs of one workload can differ in cost; the median over round means
    is steady where a median over a mix of cheap and dear ops is not.
    """
    rounds = [times[k:k + size] for k in range(0, len(times), size)]
    return [statistics.fmean(r) for r in rounds
            if len(r) == size and None not in r]


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    missing = [p for p in ("src/riskcluster/__init__.py", "tests/oracle.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a riskcluster checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import numpy
    t0 = time.perf_counter()
    import riskcluster
    from workloads import THREADS, WORKLOADS
    import_s = time.perf_counter() - t0
    # run_experiment has no thread argument; it reads RC_THREADS
    os.environ["RC_THREADS"] = str(THREADS)
    if Path(riskcluster.__file__).resolve().parent != ROOT / "src" / \
            "riskcluster":
        print(f"riskcluster imported from {riskcluster.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, spec, numpy, import_s, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(name, seed, workdir):
    """One set-up as a fresh process makes it: import riskcluster and the
    workloads (module code runs again), then make the inputs.

    numpy stays imported: its import is mostly loading BLAS, whose time
    swings with the host's memory load. Returns (workload, seconds).
    """
    for mod in [m for m in sys.modules
                if m.split(".")[0] in ("riskcluster", "workloads")]:
        del sys.modules[mod]
    gc.collect()
    t0 = time.perf_counter()
    import riskcluster  # noqa: F401
    from workloads import WORKLOADS
    wl = WORKLOADS[name]()
    wl.setup(seed, workdir)
    return wl, time.perf_counter() - t0


def _run(args, spec, np, import_s, tag, workdir):
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "loadavg_start": os.getloadavg(),
              "first_import_s": import_s}
    clock = HostClock(np)
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        clock.start()
        wl, elapsed = set_up(args.workload, args.seed, workdir)
        setup_times.append(elapsed)
        setup_scaled.append(clock.scale(elapsed))
    record["setup_repeats_s"] = setup_times
    record["setup_repeats_scaled_s"] = setup_scaled
    # the modules of the last set-up are the ones timed from here on
    from workloads import THREADS, GraphCapture, digest
    record["provenance"] = provenance(np, args.seed, THREADS)

    capture = GraphCapture()
    capture.install()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    try:
        by_kind, outs, errors, recalls, peak_rss_mb = run_ops(
            wl, args.seconds, args.seed, capture, clock, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        capture.restore()
    times, scaled = by_kind[False]

    layers = spans = None
    if args.trace:
        spans = tracer.spans
        layers = tracing.layer_metrics(spans)
        layers["trace.overhead_frac"] = (
            statistics.median(round_means(by_kind[True][1], wl.round_size))
            / statistics.median(round_means(scaled, wl.round_size)) - 1.0)
        record["traced_op_s"], record["traced_op_scaled_s"] = by_kind[True]
    record["loadavg_end"] = os.getloadavg()

    # output checks, outside the timed loop and outside setup_s
    failed = {i for i, _ in errors}
    digests = []
    by_input = {}
    for i, out in enumerate(outs):
        if out is None:
            digests.append(None)
            continue
        digests.append(digest(out[0], out[1]))
        problem = wl.check(i, out)
        if by_input.setdefault(i % wl.round_size, digests[-1]) != digests[-1]:
            problem = "output differs from an earlier op on the same input"
        if problem is not None:
            failed.add(i)
            errors.append((i, problem))
    if any(out is None for out in outs[:wl.round_size]) \
            or len(recalls) < wl.round_size \
            or not round_means(scaled, wl.round_size):
        for i, err in errors:
            print(f"op {i} failed: {err}", file=sys.stderr)
        return 1
    quality = {"failed_frac": len(failed) / len(outs), **wl.quality(outs)}

    e2e = {
        "op_s.p50": statistics.median(round_means(times, wl.round_size)),
        "op_scaled_s.p50": statistics.median(
            round_means(scaled, wl.round_size)),
        "setup_s": statistics.median(setup_scaled),
        "setup_wall_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "knn_recall": statistics.fmean(recalls),
    }
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in listed}

    op_count = sum(t is not None for t in times)
    record.update(op_s=times, op_scaled_s=scaled, op_count=op_count,
                  digests=digests,
                  errors=errors, quality=quality, end_to_end=e2e,
                  layers=layers)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(OUT / f"{tag}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_dict()) + "\n")

    for i, err in errors:
        print(f"op {i} failed: {err}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        # the unlisted ones are wall times: op_s.p50 and setup_wall_s
        print(f"{name} {value:.6g} {units.get(name, 's')}")
    print(f"op_count {op_count} count")
    for name, value in quality.items():
        print(f"{name} {value:.6g} frac")
    if layers is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in layers.items():
            print(f"{name} {value:.6g} {units.get(name, _unit(name))}")
    print(json.dumps({"correct": not failed, "attempted": len(outs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".share", "_frac", ".ratio", ".efficiency")):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
