"""Command-line interface.

One executable, seven subcommands: cluster, predict, gen, ari, experiment,
explain, sankey. Every run prints a reproducibility header (version,
command, seed, parameters) to stdout. Output files are byte-identical for
identical command and seed: JSON is written with sorted keys, and timing
measurements stay on stdout unless --emit-timings opts them into the file.
Input files are read by model, from bytes, so that every fault names its line.

Exit codes: 0 success, 2 bad flags, 3 I/O failure, 4 contract violation.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict

import numpy as np

from . import __version__
from .cluster import ClusterParams, cluster_points
from .datagen import SyntheticSpec, generate
from .explain import ExplainConfig, fit_rules, render_rule, rules_to_json
from .metrics import adjusted_rand_index
from .model import (
    MAGIC, ClusterAssignment, config_of, load_points, load_table,
    load_transactions, read_json, save_points, text_lines)
from .pipeline import ExperimentSpec, run_experiment
from .predict import InductiveModel, assign_new_points


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _csv_cell(text):
    """text as an RFC 4180 cell, quoted if it has a comma, quote, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt(value):
    return np.format_float_positional(value, unique=True, trim="0")


def _print_header(command, seed, params):
    print(f"riskcluster {__version__}")
    print(f"command: {command}")
    print(f"seed: {seed}")
    print("params: " + json.dumps(params, sort_keys=True))


def _detect_format(path, fmt):
    if fmt != "auto":
        return fmt
    if path.endswith(".csv"):
        return "csv"
    with open(path, "rb") as fh:
        return "binary" if fh.read(4) == MAGIC else "csv"


def _label(value, where, shown):
    """value as an int if it is an integral int or float that fits in int64;
    else ValueError "<where>: ..." that shows shown."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{where}: non-integral label {shown!r}")
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{where}: label {shown!r} must fit in a signed"
                         " 64-bit integer")
    return int(value)


def _load_label_column(path):
    labels = []
    for lineno, cell in text_lines(path):
        try:
            value = int(cell)  # exact where a float would round
        except ValueError:
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric label {cell!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: non-finite label {cell!r}")
        labels.append(_label(value, f"line {lineno}", cell))
    if not labels:
        raise ValueError(f"no labels in {path}")
    return np.asarray(labels, dtype=np.int64)


def _integral_labels(labels, what):
    """labels as int64 if it is a JSON list of labels _label takes."""
    if not isinstance(labels, list):
        raise ValueError(f"{what} lacks a labels list")
    return np.array([_label(label, f"labels[{i}]", label)
                     for i, label in enumerate(labels)], dtype=np.int64)


def _strengths(values):
    """values as float64 if it is a JSON list of numbers and nulls; else
    ValueError. ClusterAssignment rejects the nulls, which read as NaN, and
    the numbers outside [0, 1]."""
    if not isinstance(values, list) or not all(
            v is None or type(v) in (int, float) for v in values):
        raise ValueError("model file strengths must be a list of numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError("strengths must lie in [0, 1]") from None


def _points_sha256(points):
    """sha256 of a PointSet's values as little-endian float64 bytes."""
    data = np.ascontiguousarray(points.data, dtype="<f8")
    return hashlib.sha256(data.tobytes()).hexdigest()


def cmd_cluster(args):
    fmt = _detect_format(args.input, args.format)
    points = load_points(args.input, fmt=fmt, header=args.header)
    params = ClusterParams(
        min_cluster_size=args.min_cluster_size,
        min_samples=args.min_samples,
        k=args.k,
        mode=args.mode,
        nlist=args.nlist,
        nprobe=args.nprobe,
        seed=args.seed,
        allow_single_cluster=args.allow_single_cluster,
        kernel=args.kernel,
        ivf_train_sample=args.train_sample,
    )
    resolved = params.resolve(points.n)
    _print_header("cluster", args.seed, resolved)
    result = cluster_points(points, params, threads=args.threads)
    for stage, secs in result.timings.items():
        print(f"timing {stage} {secs:.6f}s")
    print(f"clusters: {result.num_clusters}  noise: {result.noise_count}")
    # predict resolves a relative input path against the model file's
    # directory
    path = args.input
    if not os.path.isabs(path):
        path = os.path.relpath(path, os.path.dirname(args.out) or ".")
    out = {
        "command": "cluster",
        "version": __version__,
        "input": {"path": path, "format": fmt, "header": args.header,
                  "sha256": _points_sha256(points)},
        "params": result.params,
        "n": points.n,
        "dim": points.dim,
        "num_clusters": result.num_clusters,
        "noise_count": result.noise_count,
        "labels": [int(v) for v in result.labels],
        "strengths": [float(v) for v in result.strengths],
    }
    if args.emit_timings:
        out["timings"] = {k: float(v) for k, v in result.timings.items()}
    _write_json(args.out, out)
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args):
    model_obj = read_json(args.model)
    if not isinstance(model_obj, dict):
        raise ValueError("model file must be an object")
    for key in ("input", "labels", "strengths"):
        if key not in model_obj:
            raise ValueError(f"model file lacks {key!r}")
    params = model_obj.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("model file params must be an object")
    src = model_obj["input"]
    if not isinstance(src, dict) or not {"path", "format"} <= src.keys():
        raise ValueError("model file input needs 'path' and 'format'")
    path = src["path"]
    if not isinstance(path, str):
        raise ValueError("model file input path must be a string")
    path = os.path.join(os.path.dirname(args.model), path)
    train = load_points(
        path, fmt=src["format"], header=src.get("header", False))
    # a model file written before the hash was kept is checked by its
    # n and dim alone
    for key, have in (("n", train.n), ("dim", train.dim)):
        if key in model_obj and model_obj[key] != have:
            raise ValueError(
                f"training points {path} have {key} {have}, the model file"
                f" {model_obj[key]!r}")
    if "sha256" in src and src["sha256"] != _points_sha256(train):
        raise ValueError(
            f"training points {path} do not match the model file's sha256")
    assignment = ClusterAssignment(
        labels=_integral_labels(model_obj["labels"], "model file"),
        strengths=_strengths(model_obj["strengths"]))
    fmt = _detect_format(args.queries, args.format)
    queries = load_points(args.queries, fmt=fmt, header=args.header)
    _print_header("predict", params.get("seed", 0), {
        "k_assign": args.k_assign,
        "model": args.model,
        "queries": args.queries,
    })
    model = InductiveModel(
        train_points=train, train_labels=assignment,
        k_assign=args.k_assign)
    predicted = assign_new_points(model, queries, threads=args.threads)
    out = {
        "command": "predict",
        "version": __version__,
        "model": args.model,
        "k_assign": args.k_assign,
        "n_queries": queries.n,
        "labels": [int(v) for v in predicted.labels],
        "strengths": [float(v) for v in predicted.strengths],
    }
    _write_json(args.out, out)
    print(f"wrote {args.out}")
    return 0


def cmd_gen(args):
    spec = SyntheticSpec(
        shape=args.shape, n=args.n, noise=args.noise, seed=args.seed,
        dim=args.dim, centers=args.centers, std=args.std,
        factor=args.factor)
    prefix = args.out_prefix or f"{args.shape}_{args.n}_{args.seed}"
    params = {"shape": spec.shape, "n": spec.n, "noise": spec.noise,
              "dim": spec.dim, "centers": spec.centers, "std": spec.std,
              "factor": spec.factor}
    _print_header("gen", args.seed, params)
    points, labels = generate(spec)
    points_path = f"{prefix}.points.csv"
    labels_path = f"{prefix}.labels.csv"
    manifest_path = f"{prefix}.manifest.json"
    save_points(points_path, points, fmt="csv")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")
    _write_json(manifest_path, {**params, "seed": spec.seed})
    for path in (points_path, labels_path, manifest_path):
        print(f"wrote {path}")
    return 0


def cmd_ari(args):
    a = _load_label_column(args.a)
    b = _load_label_column(args.b)
    _print_header("ari", 0, {"a": args.a, "b": args.b})
    value = adjusted_rand_index(a, b)
    print(_fmt(value))
    return 0


def cmd_experiment(args):
    # config_of, not from_json, which would decode a JSON string value again
    spec = config_of(ExperimentSpec, read_json(args.config), "experiment")
    records = load_transactions(args.data)
    _print_header("experiment", spec.seed, {
        "config": args.config, "data": args.data, "mode": spec.mode,
        "feature_set": spec.feature_set,
    })
    report, artifacts = run_experiment(spec, records)
    prefix = args.out_prefix
    report_path = f"{prefix}.report.json"
    clusters_path = f"{prefix}.clusters.json"
    labels_path = f"{prefix}.labels.csv"
    _write_json(report_path, {
        "command": "experiment",
        "version": __version__,
        "mode": artifacts["mode"],
        "report": artifacts["report"],
        "windows": [
            {k: w[k] for k in (
                "train_snapshots", "test_snapshot", "n_train", "n_test",
                "report")}
            for w in artifacts["windows"]],
    })
    _write_json(clusters_path, {
        "windows": [
            {k: w[k] for k in (
                "train_snapshots", "test_snapshot", "risky_clusters",
                "cluster_stats")}
            for w in artifacts["windows"]],
    })
    with open(labels_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,window,label,strength,predicted_fraud\n")
        for widx, w in enumerate(artifacts["windows"]):
            for rid, lab, s, pred in zip(
                    w["test_ids"], w["test_labels"], w["test_strengths"],
                    w["predicted_fraud"]):
                fh.write(f"{_csv_cell(rid)},{widx},{lab},{_fmt(s)},"
                         f"{int(pred)}\n")
    print(report.to_text())
    for path in (report_path, clusters_path, labels_path):
        print(f"wrote {path}")
    return 0


def cmd_explain(args):
    names, x = load_table(args.features, header=True)
    y = _load_label_column(args.target)
    if y.shape[0] != x.shape[0]:
        raise ValueError("target length does not match feature rows")
    config = ExplainConfig()
    if args.config:
        config = config_of(
            ExplainConfig, read_json(args.config), "explain config")
    _print_header("explain", args.seed, asdict(config))
    rules = fit_rules(x, names, y, config, seed=args.seed)
    for rule in rules:
        print(f"rule: {render_rule(rule)}"
              f"  (precision={rule.precision:.3f}"
              f" recall={rule.recall:.3f} support={rule.support})")
    _write_json(args.out, {
        "command": "explain",
        "version": __version__,
        "rules": rules_to_json(rules),
    })
    print(f"wrote {args.out}")
    return 0


def cmd_sankey(args):
    batch = load_transactions(args.data)
    labels_obj = read_json(args.labels)
    labels = _integral_labels(
        labels_obj.get("labels") if isinstance(labels_obj, dict) else None,
        "labels file")
    if len(labels) != len(batch):
        raise ValueError(
            f"labels length {len(labels)} does not match"
            f" {len(batch)} records")
    _print_header("sankey", 0, {
        "cluster": args.cluster, "data": args.data, "labels": args.labels})
    member = labels == args.cluster
    rows = batch.event_rows()
    # events j and j + 1 of one session of the cluster
    j = np.flatnonzero((rows[:-1] == rows[1:]) & member[rows[:-1]])
    flows = Counter(zip(batch.pages[j].tolist(), batch.pages[j + 1].tolist()))
    links = [
        {"source": a, "target": b, "value": flows[(a, b)]}
        for a, b in sorted(flows)]
    _write_json(args.out, {"cluster": args.cluster, "links": links})
    print(f"wrote {args.out}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="riskcluster",
        description="Density-based clustering with a fraud-detection"
                    " harness.")
    parser.add_argument(
        "--version", action="version", version=f"riskcluster {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cluster", help="cluster a points file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "binary", "auto"),
                   default="auto")
    p.add_argument("--header", action="store_true",
                   help="skip a CSV header row")
    p.add_argument("--min-cluster-size", type=int, required=True)
    p.add_argument("--min-samples", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mode", choices=("exact", "ivf"), default="exact")
    p.add_argument("--nlist", type=int, default=None)
    p.add_argument("--nprobe", type=int, default=None)
    p.add_argument("--train-sample", type=int, default=None)
    p.add_argument("--kernel", choices=("exact", "fast"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--allow-single-cluster", action="store_true")
    p.add_argument("--emit-timings", action="store_true",
                   help="include wall-clock timings in the output file"
                        " (breaks byte-identical reruns)")
    p.add_argument("--out", default="labels.json")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("predict", help="assign new points to clusters")
    p.add_argument("--model", required=True,
                   help="labels.json from a cluster run")
    p.add_argument("--queries", required=True)
    p.add_argument("--format", choices=("csv", "binary", "auto"),
                   default="auto")
    p.add_argument("--header", action="store_true")
    p.add_argument("--k-assign", type=int, default=5)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default="predictions.json")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--shape", required=True,
                   choices=("blobs", "moons", "circles", "anisotropic",
                            "varied_variance", "uniform_noise"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--centers", type=int, default=3)
    p.add_argument("--std", type=float, default=1.0)
    p.add_argument("--factor", type=float, default=0.5)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ari", help="adjusted Rand index of two labelings")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_ari)

    p = sub.add_parser("experiment", help="run a fraud experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-prefix", default="experiment")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("explain", help="mine rules for a binary target")
    p.add_argument("--features", required=True,
                   help="CSV with a header row of feature names")
    p.add_argument("--target", required=True,
                   help="CSV with one 0/1 label per line")
    p.add_argument("--config", default=None,
                   help="JSON file of ExplainConfig overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="rules.json")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("sankey", help="page-transition flows of a cluster")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True,
                   help="JSON file with a labels list aligned to the data")
    p.add_argument("--cluster", type=int, required=True)
    p.add_argument("--out", default="flow.json")
    p.set_defaults(func=cmd_sankey)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
