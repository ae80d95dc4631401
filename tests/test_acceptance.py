"""Release acceptance gate: ten criteria, one test and one verdict line each.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line per
criterion. Every test states its tolerance inline and measures its own
runtime budget where one applies. The checks deliberately overlap the unit
suites; this file exists so a release can be judged from a single run.

Criterion 10 is marked xfail(strict=True) and is EXPECTED to fail: the noise
monotonicity invariant it requires is false for excess-of-mass cluster
selection (raising min_cluster_size can reduce the noise count when
selection falls back to a coarser ancestor). tests/test_properties.py pins a
concrete counterexample. The failure is reported honestly rather than
papered over with a weaker assertion.
"""

import json
import math
import time

import numpy as np
import pytest

import test_properties
from manifest import benchmark_manifest, spec_from_manifest
from oracle import dense_mutual_reachability, prim_canonical, reference_cluster

from riskcluster.cli import main
from riskcluster.cluster import ClusterParams, cluster_points
from riskcluster.datagen import SyntheticSpec, fraud_stream, generate
from riskcluster.explain import fit_rules
from riskcluster.knn import brute_force_knn
from riskcluster.metrics import adjusted_rand_index, fraud_metrics
from riskcluster.model import PointSet, save_transactions
from riskcluster.mst import kruskal_forest, sorted_edge_order
from riskcluster.pipeline import ExperimentSpec, run_experiment
from riskcluster.reach import core_distances, mutual_reach_edges

SHAPES = ("blobs", "moons", "circles", "anisotropic", "varied_variance",
          "uniform_noise")


def test_criterion_01_full_knn_matches_dense_reference():
    # 20 datasets spanning all 6 shapes, n <= 2000: with k = n - 1 the
    # kNN pipeline must agree with the dense-matrix reference at ARI = 1.0
    # on every dataset, all inside a 60 s budget.
    datasets = [(shape, n) for n in (300, 700, 1200) for shape in SHAPES]
    datasets += [("moons", 2000), ("blobs", 2000)]
    assert len(datasets) == 20
    t0 = time.perf_counter()
    for i, (shape, n) in enumerate(datasets):
        pts, _ = generate(SyntheticSpec(shape=shape, n=n, seed=i))
        mine = cluster_points(pts, ClusterParams(
            min_cluster_size=15, min_samples=10, k=n - 1))
        want_labels, _ = reference_cluster(
            pts.data, min_samples=10, min_cluster_size=15)
        ari = adjusted_rand_index(mine.labels, want_labels)
        assert ari == 1.0, f"{shape} n={n} seed={i}: ARI {ari} != 1.0"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_02_ivf_fidelity_on_benchmark_manifest():
    # over the bundled 22-dataset manifest, the IVF pipeline's agreement
    # with ground truth may differ from the exact pipeline's by at most
    # 0.05 ARI in the median
    deltas = []
    for entry in benchmark_manifest():
        pts, truth = generate(spec_from_manifest(entry))
        kw = dict(min_cluster_size=entry["min_cluster_size"],
                  min_samples=entry["min_samples"])
        exact = cluster_points(pts, ClusterParams(mode="exact", **kw))
        ivf = cluster_points(pts, ClusterParams(mode="ivf", **kw))
        deltas.append(abs(adjusted_rand_index(ivf.labels, truth)
                          - adjusted_rand_index(exact.labels, truth)))
    assert len(deltas) == 22
    assert float(np.median(deltas)) <= 0.05


def test_criterion_03_desk_scale_performance():
    # engineering targets on commodity hardware: 100k x 16 IVF clustering
    # under 60 s (budget stated for 8 cores; this runs single-threaded and
    # must pass anyway) and a 10M-edge canonical sort under 2 s
    pts, _ = generate(SyntheticSpec(
        shape="blobs", n=100_000, dim=16, centers=64, seed=0))
    params = ClusterParams(
        min_cluster_size=50, min_samples=16, mode="ivf", nlist=1024,
        nprobe=12, ivf_train_sample=25_600, ivf_max_iter=10)
    t0 = time.perf_counter()
    result = cluster_points(pts, params, threads=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"100k ivf clustering took {elapsed:.1f}s"
    assert result.num_clusters >= 2

    m = 10_000_000
    rng = np.random.Generator(np.random.PCG64(3))
    u = rng.integers(0, 100_000, size=m)
    v = u + 1 + rng.integers(0, 1000, size=m)
    w = rng.random(size=m)
    t0 = time.perf_counter()
    order = sorted_edge_order(u, v, w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"10M edge sort took {elapsed:.2f}s"
    assert order.shape == (m,)


def test_criterion_04_kruskal_total_weight_equals_dense_prim():
    # 100 random instances, n <= 1000: Kruskal on the full kNN graph
    # (k = n - 1) and Prim on the dense mutual reachability matrix must
    # report exactly the same total weight, no tolerance
    rng = np.random.Generator(np.random.PCG64(4))
    for trial in range(100):
        n = int(rng.integers(20, 1001))
        dim = int(rng.integers(2, 9))
        data = rng.normal(size=(n, dim))
        if trial % 4 == 0:
            # coarse grid snapping manufactures ties and duplicate points
            data = np.round(data, 1)
        pts = PointSet(data)
        ms = int(rng.integers(1, 17))
        knn = brute_force_knn(pts, n - 1)
        core = core_distances(knn, ms)
        forest = kruskal_forest(mutual_reach_edges(knn, core), n)
        mine = math.fsum(forest.w.tolist())
        want = math.fsum(
            w for _, _, w in prim_canonical(
                dense_mutual_reachability(pts.data, ms)))
        assert mine == want, f"trial {trial}: {mine!r} != {want!r}"


def test_criterion_05_ari_unit_suite():
    rng = np.random.Generator(np.random.PCG64(5))
    labels = rng.integers(0, 7, size=400)
    assert adjusted_rand_index(labels, labels) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5
    a = rng.integers(0, 10, size=10_000)
    b = rng.integers(0, 10, size=10_000)
    assert abs(adjusted_rand_index(a, b)) <= 0.05


def test_criterion_06_return_rate_identities():
    cases = (
        (6214.81, 260.56, 23.85),
        (3335.53, 1492.32, 2.24),
        (11895.58, 505.72, 23.52),
    )
    for loss, hurt, want in cases:
        # one caught fraud worth `loss`, one false alarm worth `hurt`
        report = fraud_metrics(
            [True, True], [True, False], [loss, hurt])
        assert report.loss_saved == loss
        assert report.profit_hurt == hurt
        assert abs(report.return_rate - want) <= 0.01


def test_criterion_07_planted_fraud_end_to_end():
    records, truth = fraud_stream(seed=5)
    spec = ExperimentSpec(
        mode="inductive",
        snapshot_ms=truth["snapshot_ms"],
        train_snapshots=tuple(truth["snapshots"][:-1]),
        test_snapshot=truth["snapshots"][-1],
        clustering={"min_cluster_size": 50, "min_samples": 10},
        feature_set="embedding")
    report, artifacts = run_experiment(spec, records)
    window = artifacts["windows"][0]
    assert len(window["risky_clusters"]) == 1

    # the flagged membership must be exactly the planted cluster
    planted = truth["planted_ids"]
    flagged = {rid for rid, pred in zip(
        window["test_ids"], window["predicted_fraud"]) if pred}
    planted_in_test = {rid for rid in window["test_ids"] if rid in planted}
    assert flagged == planted_in_test

    assert report.precision >= 0.8
    by_id = {r.id: r for r in records}
    planted_fraud = [rid for rid in planted_in_test
                     if by_id[rid].risk_seed == "confirmed_fraud"]
    assert planted_fraud
    caught = sum(1 for rid in planted_fraud if rid in flagged)
    assert caught / len(planted_fraud) >= 0.8


def test_criterion_08_rule_recovery_on_planted_conjunction():
    rng = np.random.Generator(np.random.PCG64(42))
    n = 5000
    x = np.column_stack([
        rng.uniform(0.0, 20.0, size=n),
        rng.uniform(0.0, 4.0, size=n),
        rng.uniform(-5.0, 5.0, size=n),
        rng.uniform(0.0, 100.0, size=n),
    ])
    y = (x[:, 0] > 10.0) & (x[:, 1] <= 2.0)
    rules = fit_rules(x, ("f1", "f2", "f3", "f4"), y, seed=7)
    assert rules
    top = rules[0]
    assert top.precision >= 0.95
    bounds = {(name, op): threshold for name, op, threshold in top.predicates}
    assert 9.0 <= bounds[("f1", ">")] <= 11.0
    assert 1.8 <= bounds[("f2", "<=")] <= 2.2


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_09_cli_byte_identical_across_seeds_and_threads(
        tmp_path, capsys, monkeypatch):
    # every subcommand runs three times: twice at 1 thread, once at 8.
    # All produced files must be byte-identical across the three runs.
    # Thread count comes from --threads where the subcommand has the flag
    # and from RC_THREADS otherwise. stdout is compared too, except for
    # `cluster`, which prints wall-clock stage timings by design.
    shared = tmp_path / "shared"
    shared.mkdir()
    monkeypatch.chdir(shared)
    code, _, err = _cli(
        capsys, "gen", "--shape", "blobs", "--n", "500", "--seed", "7",
        "--out-prefix", "train")
    assert code == 0, err
    records, truth = fraud_stream(seed=5)
    save_transactions(str(shared / "stream.ndjson"), records)
    (shared / "config.json").write_text(json.dumps({
        "mode": "inductive",
        "snapshot_ms": truth["snapshot_ms"],
        "train_snapshots": truth["snapshots"][:-1],
        "test_snapshot": truth["snapshots"][-1],
        "clustering": {"min_cluster_size": 50, "min_samples": 10},
        "feature_set": "embedding",
    }))
    (shared / "zeros.json").write_text(
        json.dumps({"labels": [0] * len(records)}))
    rng = np.random.Generator(np.random.PCG64(42))
    feats = np.column_stack([
        rng.uniform(0.0, 20.0, size=600),
        rng.uniform(0.0, 4.0, size=600),
    ])
    target = (feats[:, 0] > 10.0) & (feats[:, 1] <= 2.0)
    with open(shared / "feats.csv", "w", encoding="utf-8") as fh:
        fh.write("f1,f2\n")
        for row in feats:
            fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
    (shared / "target.csv").write_text(
        "".join(f"{int(v)}\n" for v in target))

    points = str(shared / "train.points.csv")
    labels_csv = str(shared / "train.labels.csv")
    commands = {
        "cluster": lambda t: (
            "cluster", "--input", points, "--min-cluster-size", "15",
            "--min-samples", "5", "--mode", "ivf", "--nlist", "8",
            "--nprobe", "4", "--seed", "42", "--threads", t,
            "--out", "labels.json"),
        "predict": lambda t: (
            "predict", "--model", str(shared / "model.json"),
            "--queries", points, "--threads", t, "--out", "pred.json"),
        "gen": lambda t: (
            "gen", "--shape", "moons", "--n", "300", "--seed", "3",
            "--out-prefix", "m"),
        "ari": lambda t: ("ari", "--a", labels_csv, "--b", labels_csv),
        "experiment": lambda t: (
            "experiment", "--config", str(shared / "config.json"),
            "--data", str(shared / "stream.ndjson"), "--out-prefix", "exp"),
        "explain": lambda t: (
            "explain", "--features", str(shared / "feats.csv"),
            "--target", str(shared / "target.csv"), "--seed", "7",
            "--out", "rules.json"),
        "sankey": lambda t: (
            "sankey", "--data", str(shared / "stream.ndjson"),
            "--labels", str(shared / "zeros.json"), "--cluster", "0",
            "--out", "flow.json"),
    }

    # the predict model is one frozen cluster output reused by all runs
    code, _, err = _cli(capsys, *commands["cluster"]("1"))
    assert code == 0, err
    (shared / "model.json").write_bytes((shared / "labels.json").read_bytes())

    for name, argv_of in commands.items():
        outcomes = []
        for tag, threads in (("one", "1"), ("two", "1"), ("eight", "8")):
            workdir = tmp_path / f"{name}_{tag}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            monkeypatch.setenv("RC_THREADS", threads)
            code, out, err = _cli(capsys, *argv_of(threads))
            assert code == 0, f"{name}: {err}"
            files = sorted(p.name for p in workdir.iterdir())
            blobs = tuple((workdir / f).read_bytes() for f in files)
            stdout = None if name == "cluster" else out
            outcomes.append((stdout, tuple(files), blobs))
        assert outcomes[0] == outcomes[1] == outcomes[2], name


@pytest.mark.xfail(
    strict=True,
    reason="the noise monotonicity invariant is false: excess-of-mass"
           " selection can absorb former noise when min_cluster_size"
           " rises (pinned counterexample in test_properties); the other"
           " four property families pass at 1000 cases each")
def test_criterion_10_property_suites():
    test_properties.test_union_find_matches_naive_partition()
    test_properties.test_condensation_bookkeeping()
    test_properties.test_condense_survives_deep_chain()
    test_properties.test_dedup_pairwise_overlap_bounded()
    test_properties.test_noise_count_monotone_in_min_cluster_size()
