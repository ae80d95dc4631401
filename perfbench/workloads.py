"""The benchmark's three workloads: inputs, one op, and its output check.

Inputs depend only on the workload seed. Ops call riskcluster through its
module attributes (`riskcluster.cluster.cluster_points`, ...) so that the
tracer's wrappers, installed on those attributes, see every call.

Sizes are scaled down from the paper's desk-scale claim so that one run of
a few seconds holds enough ops for a steady median on a 2-core machine.
"""

import hashlib

import numpy as np

import riskcluster.cluster
import riskcluster.model
import riskcluster.pipeline
from riskcluster.cluster import ClusterParams
from riskcluster.datagen import SHAPES, SyntheticSpec, fraud_stream, generate
from riskcluster.metrics import adjusted_rand_index

THREADS = 2
RECALL_QUERIES = 1000


def digest(labels, strengths):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(labels, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(strengths, dtype="<f8").tobytes())
    return h.hexdigest()


class GraphCapture:
    """Keeps the (points, kNN graph) of the next search cluster_points runs.

    Installed on the names cluster.py calls, in traced and untraced runs
    alike; a call costs one extra Python frame per op.
    """

    # name -> position of the searched PointSet among the arguments
    NAMES = {"ivf_search": 1, "brute_force_knn": 0}

    def __init__(self):
        self.armed = False
        self.points = self.graph = None
        self._originals = {}

    def install(self):
        for name, pos in self.NAMES.items():
            original = getattr(riskcluster.cluster, name)
            self._originals[name] = original
            setattr(riskcluster.cluster, name,
                    self._capturing(original, pos))

    def _capturing(self, original, pos):
        def search(*args, **kwargs):
            graph = original(*args, **kwargs)
            if self.armed:
                self.points, self.graph = args[pos], graph
                self.armed = False
            return graph
        return search

    def take(self):
        points, graph = self.points, self.graph
        self.points = self.graph = None
        return points, graph

    def restore(self):
        for name, original in self._originals.items():
            setattr(riskcluster.cluster, name, original)


def knn_recall(points, graph, seed):
    """Recall@k of a kNN graph on a seeded sample of queries.

    A returned neighbor counts when its true distance is within the k-th
    true distance (ties at the boundary all count), so exact graphs read
    1.0 whatever their tie order.
    """
    x = np.asarray(points.data, dtype=np.float64)
    n = x.shape[0]
    k = graph.k
    rng = np.random.Generator(np.random.PCG64(seed))
    queries = np.sort(rng.choice(n, size=min(RECALL_QUERIES, n),
                                 replace=False))
    hits = 0
    for start in range(0, queries.size, 25):
        q = queries[start:start + 25]
        d2 = np.zeros((q.size, n))
        for d in range(x.shape[1]):
            d2 += (x[q, d, None] - x[None, :, d]) ** 2
        d2[np.arange(q.size), q] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        got = np.take_along_axis(d2, graph.neighbor_ids[q], axis=1)
        hits += int((got <= kth[:, None] * (1 + 1e-9)).sum())
    return hits / (queries.size * k)


def _mean_ari(outs, data):
    """Mean ARI against the generator's truth over the first round."""
    return float(np.mean([adjusted_rand_index(out[0], truth)
                          for out, (_, truth) in zip(outs, data)]))


class IvfBlobs:
    name = "ivf_blobs"
    round_size = 3
    n, dim, centers = 12_800, 16, 64
    params = ClusterParams(
        min_cluster_size=50, min_samples=16, mode="ivf", nlist=256,
        nprobe=3, ivf_train_sample=6_400, ivf_max_iter=10)

    def setup(self, seed, workdir):
        # several blob layouts per run, so one layout's cell balance does
        # not set the run's median
        self.data = [generate(SyntheticSpec(
            shape="blobs", n=self.n, dim=self.dim, centers=self.centers,
            seed=seed * 16 + j)) for j in range(self.round_size)]

    def op(self, i):
        points, _ = self.data[i % self.round_size]
        r = riskcluster.cluster.cluster_points(
            points, self.params, threads=THREADS)
        return r.labels, r.strengths

    def check(self, i, out):
        labels, strengths = out
        n = self.n
        if labels.shape != (n,) or strengths.shape != (n,):
            return "labels or strengths have the wrong shape"
        nclusters = int(labels.max()) + 1
        if nclusters < 2:
            return f"{nclusters} clusters, expected at least 2"
        if labels.min() < -1 or np.unique(labels[labels >= 0]).size \
                != nclusters:
            return "labels are not -1 plus 0..nclusters-1"
        if not (np.isfinite(strengths).all() and strengths.min() >= 0
                and strengths.max() <= 1):
            return "strengths outside [0, 1]"
        if (strengths[labels == -1] != 0).any() \
                or (strengths[labels >= 0] <= 0).any():
            return "strengths disagree with noise labels"
        return None

    def quality(self, outs):
        return {"ari": _mean_ari(outs, self.data)}


class ExactFullGraph:
    name = "exact_full_graph"
    round_size = len(SHAPES)
    n = 1_500
    min_samples, min_cluster_size = 10, 15

    def setup(self, seed, workdir):
        self.data = [generate(SyntheticSpec(shape=s, n=self.n, seed=seed))
                     for s in SHAPES]
        self.params = ClusterParams(
            min_cluster_size=self.min_cluster_size,
            min_samples=self.min_samples, k=self.n - 1, kernel="exact")
        self._reference = {}

    def op(self, i):
        points, _ = self.data[i % len(SHAPES)]
        r = riskcluster.cluster.cluster_points(
            points, self.params, threads=THREADS)
        return r.labels, r.strengths

    def reference(self, j):
        if j not in self._reference:
            from oracle import reference_cluster
            self._reference[j], _ = reference_cluster(
                self.data[j][0].data, self.min_samples,
                self.min_cluster_size)
        return self._reference[j]

    def check(self, i, out):
        j = i % len(SHAPES)
        ari = adjusted_rand_index(out[0], self.reference(j))
        if ari != 1.0:
            return f"{SHAPES[j]}: ARI {ari} against the dense oracle"
        return None

    def quality(self, outs):
        return {"ari": _mean_ari(outs, self.data)}


class FraudInductive:
    name = "fraud_inductive"
    round_size = 1
    stream = dict(legit_blobs=8, legit_per_blob=200,
                  planted_per_snapshot=100, n_snapshots=3)
    clustering = {"min_cluster_size": 50, "min_samples": 10}

    def setup(self, seed, workdir):
        records, truth = fraud_stream(seed=seed, **self.stream)
        self.path = workdir / "stream.ndjson"
        riskcluster.model.save_transactions(self.path, records)
        snaps = truth["snapshots"]
        self.spec = riskcluster.pipeline.ExperimentSpec(
            mode="inductive", train_snapshots=tuple(snaps[:-1]),
            test_snapshot=snaps[-1], clustering=self.clustering)

    def op(self, i):
        records = riskcluster.model.load_transactions(self.path)
        report, artifacts = riskcluster.pipeline.run_experiment(
            self.spec, records)
        (window,) = artifacts["windows"]
        return (np.array(window["test_labels"], dtype=np.int64),
                np.array(window["test_strengths"], dtype=np.float64),
                report, artifacts)

    def check(self, i, out):
        labels, _, report, artifacts = out
        keys = ("true_positives", "false_positives", "false_negatives",
                "true_negatives")
        summed = dict.fromkeys(keys, 0)
        for w in artifacts["windows"]:
            wr = w["report"]
            if sum(wr[k] for k in keys) != w["n_test"]:
                return "window counts do not add up to n_test"
            if len(w["test_labels"]) != w["n_test"]:
                return "window labels not aligned with n_test"
            flagged = sum(w["predicted_fraud"])
            if flagged != wr["true_positives"] + wr["false_positives"]:
                return "window flags disagree with its positives"
            for k in keys:
                summed[k] += wr[k]
        if any(summed[k] != getattr(report, k) for k in keys):
            return "window counts disagree with the aggregate report"
        return None

    def quality(self, outs):
        report = outs[0][2]
        return {"precision": report.precision, "recall": report.recall}


WORKLOADS = {w.name: w for w in (IvfBlobs, ExactFullGraph, FraudInductive)}
