"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --seeds 1-3 --trace 1 --workloads fraud_inductive

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for every figure of the run records (end-to-end metrics and output
quality with --trace 0, every per-layer figure with --trace 1) its median,
quartiles and spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. Each end-to-end
spread, set-up time's included, is compared with a third of the metric's
bound in BENCHMARK.json. --out writes all of it, with the output digests,
as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seeds": args.seeds, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs, figures = [], []
        digests = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            tag = f"{workload}-seed{seed}-trace{args.trace}"
            record = json.loads((ROOT / "perfbench" / "out" /
                                 f"{tag}.json").read_text())
            digests[seed] = sorted({d for d in record["digests"] if d})
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: output check failed",
                      file=sys.stderr)
            runs.append(result)
            figures.append(record["layers"] if args.trace else
                           {**record["end_to_end"], **record["quality"]})
        rows = {}
        print(f"{workload}  ({len(runs)} runs, "
              f"{sum(r['attempted'] for r in runs)} ops)")
        for name in figures[0]:
            row = summarize([f[name] for f in figures])
            rows[name] = row
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = row["spread"] < bound / 3
                steady &= ok
                verdict = "ok" if ok else f"SPREAD > {bound / 3:.3f}"
            print(f"  {name:40s} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} {verdict}")
        report["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "digests": digests,
            "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
