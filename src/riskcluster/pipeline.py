"""Fraud application layer.

Click-stream sessions become fixed-order handcrafted feature vectors,
cluster assignments become risky-cluster flags, and the experiment runners
wire clustering, risky-cluster selection, and scoring into the inductive
and transductive evaluation protocols.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterParams, cluster_points
from .metrics import fraud_metrics
from .model import ClusterAssignment, PointSet, reject_unknown_keys
from .predict import InductiveModel, assign_new_points

PAGE_TYPES = ("view", "search", "cart", "checkout", "account", "other")

# session feature columns: unknown page types count as "other", the variance
# is the population variance, the duration equals the total dwell (events
# carry no gaps), the ratio is 0 without views, and search_count repeats
# count_search under the conventional reporting name
SESSION_FEATURE_NAMES = (
    "count_view",
    "count_search",
    "count_cart",
    "count_checkout",
    "count_account",
    "count_other",
    "total_events",
    "distinct_page_types",
    "total_dwell_ms",
    "mean_dwell_ms",
    "max_dwell_ms",
    "min_dwell_ms",
    "dwell_variance",
    "session_duration_ms",
    "checkout_to_view_ratio",
    "search_count",
)


_PAGE_CODES = {page: code for code, page in enumerate(PAGE_TYPES)}


def _session_block(sessions):
    """Session feature rows, SESSION_FEATURE_NAMES order, float64.

    One columnar pass over every session's events. Counts come from one
    bincount over (row, page code). Dwell statistics come from one (m, L)
    block per distinct session length L, reduced along its rows: numpy
    reduces each row as it reduces a 1-d array of L values, so each value
    keeps the bits of the per-session numpy reduction. Integer dwell totals
    are truncated with np.trunc, not cast: a cast to int64 overflows once a
    total passes 2**63.
    """
    lengths = np.array([len(s.events) for s in sessions], dtype=np.int64)
    other = _PAGE_CODES["other"]
    codes = np.array(
        [_PAGE_CODES.get(p, other) for s in sessions for p, _ in s.events],
        dtype=np.int64)
    dwell = np.array(
        [d for s in sessions for _, d in s.events], dtype=np.float64)
    n, npages = lengths.size, len(PAGE_TYPES)
    rows = np.repeat(np.arange(n), lengths)
    counts = np.bincount(
        rows * npages + codes, minlength=n * npages).reshape(n, npages)
    starts = np.cumsum(lengths) - lengths
    total, mean, hi, lo, var = np.empty((5, n), dtype=np.float64)
    order = np.argsort(lengths, kind="stable")
    sizes, first = np.unique(lengths[order], return_index=True)
    for size, sel in zip(sizes, np.split(order, first[1:])):
        block = dwell[starts[sel, None] + np.arange(size)]
        total[sel] = block.sum(axis=1)
        mean[sel] = block.mean(axis=1)
        hi[sel] = block.max(axis=1)
        lo[sel] = block.min(axis=1)
        var[sel] = block.var(axis=1)
    if np.isinf(total).any():
        raise OverflowError("total dwell_ms overflows float64")
    total = np.trunc(total)
    count = dict(zip(PAGE_TYPES, counts.T))
    views = count["view"]
    columns = {
        **{"count_" + page: count[page] for page in PAGE_TYPES},
        "total_events": lengths,
        "distinct_page_types": np.count_nonzero(counts, axis=1),
        "total_dwell_ms": total,
        "mean_dwell_ms": mean,
        "max_dwell_ms": hi,
        "min_dwell_ms": lo,
        "dwell_variance": var,
        "session_duration_ms": total,
        "checkout_to_view_ratio": np.divide(
            count["checkout"], views, out=np.zeros(n), where=views > 0),
        "search_count": count["search"],
    }
    return np.column_stack([columns[name] for name in SESSION_FEATURE_NAMES])


FEATURE_SETS = ("embedding", "session", "hybrid")


def build_feature_matrix(records, feature_set="hybrid"):
    """Aligned (matrix, column_names) for a transaction batch.

    Embedding columns are the records' opaque numeric features, ordered by
    sorted key name and required to be uniform across the batch. Session
    columns carry a session_ prefix and are built for the whole batch in
    one columnar pass (see _session_block). Hybrid concatenates embedding
    then session columns. Every session row is bit for bit the row a
    one-record batch gives, and the matrix equals the one a per-record loop
    builds.

    Checks run in this order: empty batch, no embedding keys, the first
    record whose keys differ from the batch, then the first record without
    a session.
    """
    if feature_set not in FEATURE_SETS:
        raise ValueError(f"unknown feature_set {feature_set!r}")
    if not records:
        raise ValueError("no records to featurize")
    blocks = []
    names = []
    if feature_set in ("embedding", "hybrid"):
        keys = sorted(records[0].features.keys())
        if not keys:
            raise ValueError("records carry no embedding features")
        keyset = set(keys)
        for rec in records:
            if rec.features.keys() != keyset:
                raise ValueError(
                    f"record {rec.id}: feature keys differ from batch")
        blocks.append(np.array(
            [[rec.features[k] for k in keys] for rec in records],
            dtype=np.float64))
        names.extend(keys)
    if feature_set in ("session", "hybrid"):
        for rec in records:
            if rec.session is None:
                raise ValueError(f"record {rec.id}: no session to featurize")
        blocks.append(_session_block([rec.session for rec in records]))
        names.extend("session_" + n for n in SESSION_FEATURE_NAMES)
    return np.concatenate(blocks, axis=1), tuple(names)


@dataclass(frozen=True)
class RiskyClusterConfig:
    min_cluster_size_for_flag: int = 20
    min_fraud_density: float = 0.5
    min_mean_strength: float = 0.1

    def __post_init__(self):
        if self.min_cluster_size_for_flag < 1:
            raise ValueError("min_cluster_size_for_flag must be >= 1")
        for name in ("min_fraud_density", "min_mean_strength"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def select_risky_clusters(assignment, records, config):
    """Flag clusters by size, fraud density, and mean strength.

    fraud_density counts confirmed_fraud plus declined seeds over cluster
    size. Noise (-1) is never flagged. Returns (risky ids, per-cluster
    stats) with stats for every real cluster, flagged or not.
    """
    if assignment.n != len(records):
        raise ValueError("assignment not aligned with records")
    labels = assignment.labels
    stats = {}
    risky = set()
    for cid in np.unique(labels):
        cid = int(cid)
        if cid < 0:
            continue
        mask = labels == cid
        size = int(mask.sum())
        seeds = [records[i].risk_seed for i in np.flatnonzero(mask)]
        confirmed = sum(1 for s in seeds if s == "confirmed_fraud")
        declined = sum(1 for s in seeds if s == "declined")
        density = (confirmed + declined) / size
        mean_strength = float(assignment.strengths[mask].mean())
        flagged = (
            size >= config.min_cluster_size_for_flag
            and density >= config.min_fraud_density
            and mean_strength >= config.min_mean_strength)
        stats[cid] = {
            "size": size,
            "confirmed_fraud": confirmed,
            "declined": declined,
            "fraud_density": density,
            "mean_strength": mean_strength,
            "flagged": flagged,
        }
        if flagged:
            risky.add(cid)
    return risky, stats


@dataclass(frozen=True)
class SamplingSpec:
    """Stratified train-set downsampling for the transductive mode.

    Strata are risk_seed labels; quotas follow stratum proportions by
    largest remainder. Within a stratum, points are drawn without
    replacement with exponential time-decay weights (newer transactions
    more likely; half_life_ms=None means uniform).
    """

    max_train: int | None = None
    half_life_ms: float | None = None

    def __post_init__(self):
        if self.max_train is not None and self.max_train < 1:
            raise ValueError("max_train must be >= 1")
        if self.half_life_ms is not None and self.half_life_ms <= 0:
            raise ValueError("half_life_ms must be positive")


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    snapshot_ms: int = 3_600_000
    train_snapshots: tuple = ()
    test_snapshot: int = 0
    windows: tuple | None = None
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    clustering: dict = field(default_factory=dict)
    risky: RiskyClusterConfig = field(default_factory=RiskyClusterConfig)
    feature_set: str = "hybrid"
    k_assign: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("inductive", "transductive"):
            raise ValueError(f"unknown experiment mode {self.mode!r}")
        if self.snapshot_ms < 1:
            raise ValueError("snapshot_ms must be >= 1")
        if self.feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature_set {self.feature_set!r}")
        if not isinstance(self.clustering, dict):
            raise ValueError("clustering must be an object")
        reject_unknown_keys(ClusterParams, self.clustering, "clustering")
        object.__setattr__(
            self, "train_snapshots",
            tuple(int(s) for s in self.train_snapshots))
        if self.windows is not None:
            object.__setattr__(
                self, "windows",
                tuple((tuple(int(s) for s in tr), int(te))
                      for tr, te in self.windows))
        for train, test in self.iter_windows():
            if not train:
                raise ValueError("window has no train snapshots")
            if max(train) >= test:
                raise ValueError(
                    "train window must strictly precede test snapshot")
        if "min_cluster_size" not in self.clustering:
            raise ValueError("clustering needs min_cluster_size")

    def iter_windows(self):
        if self.windows is not None:
            return list(self.windows)
        return [(self.train_snapshots, int(self.test_snapshot))]

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text) if isinstance(text, str) else dict(text)
        if not isinstance(obj, dict):
            raise ValueError("experiment config must be an object")
        reject_unknown_keys(cls, obj, "experiment")
        if "mode" not in obj:
            raise ValueError("experiment needs mode")
        for key, sub in (("sampling", SamplingSpec),
                         ("risky", RiskyClusterConfig)):
            if key in obj and not isinstance(obj[key], sub):
                if not isinstance(obj[key], dict):
                    raise ValueError(f"{key} must be an object")
                reject_unknown_keys(sub, obj[key], key)
                obj[key] = sub(**obj[key])
        return cls(**obj)


def snapshot_of(timestamp, snapshot_ms):
    return int(timestamp) // int(snapshot_ms)


def _group_by_snapshot(records, snapshot_ms):
    groups = {}
    for idx, rec in enumerate(records):
        groups.setdefault(snapshot_of(rec.timestamp, snapshot_ms), []).append(idx)
    return groups


def _stratified_sample(records, indices, sampling, rng):
    """Downsample indices preserving risk_seed proportions with recency bias."""
    if sampling.max_train is None or len(indices) <= sampling.max_train:
        return list(indices)
    by_seed = {}
    for idx in indices:
        by_seed.setdefault(records[idx].risk_seed, []).append(idx)
    total = len(indices)
    strata = sorted(by_seed.keys())
    # largest-remainder quotas so Σ quota == max_train exactly
    raw = [sampling.max_train * len(by_seed[s]) / total for s in strata]
    quotas = [math.floor(q) for q in raw]
    short = sampling.max_train - sum(quotas)
    order = sorted(
        range(len(strata)), key=lambda i: (-(raw[i] - quotas[i]), strata[i]))
    for i in order[:short]:
        quotas[i] += 1
    newest = max(records[idx].timestamp for idx in indices)
    picked = []
    for s, quota in zip(strata, quotas):
        pool = by_seed[s]
        quota = min(quota, len(pool))
        if quota == 0:
            continue
        if sampling.half_life_ms is None:
            probs = None
        else:
            ages = np.array(
                [newest - records[idx].timestamp for idx in pool],
                dtype=np.float64)
            weights = np.exp2(-ages / sampling.half_life_ms)
            probs = weights / weights.sum()
        chosen = rng.choice(len(pool), size=quota, replace=False, p=probs)
        picked.extend(pool[int(c)] for c in chosen)
    return sorted(picked)


def _indices_for(groups, snapshots, what):
    indices = []
    for snap in snapshots:
        indices.extend(groups.get(int(snap), ()))
    if not indices:
        raise ValueError(f"{what} window matched no records")
    return sorted(indices)


def run_experiment(spec, records):
    """Run one experiment over a transaction stream.

    Inductive mode clusters the train window, flags risky clusters, and
    scores test points through nearest-neighbor assignment. Transductive
    mode reclusters sampled-train plus test jointly per window and flags
    using train-member statistics only. Returns (FraudReport, artifacts);
    the report aggregates all windows, artifacts carry per-window detail.
    """
    if not records:
        raise ValueError("no records")
    features, feature_names = build_feature_matrix(records, spec.feature_set)
    groups = _group_by_snapshot(records, spec.snapshot_ms)
    params = ClusterParams(**spec.clustering)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    all_pred = []
    all_act = []
    all_amt = []
    windows_out = []
    for train_snaps, test_snap in spec.iter_windows():
        train_idx = _indices_for(groups, train_snaps, "train")
        test_idx = _indices_for(groups, [test_snap], "test")
        overlap = set(train_idx) & set(test_idx)
        if overlap:
            raise ValueError("train and test windows share records")
        test_records = [records[i] for i in test_idx]
        if spec.mode == "inductive":
            train_records = [records[i] for i in train_idx]
            train_points = PointSet(features[train_idx])
            result = cluster_points(train_points, params)
            risky, stats = select_risky_clusters(
                result.assignment, train_records, spec.risky)
            model = InductiveModel(
                train_points=train_points,
                train_labels=result.assignment,
                k_assign=spec.k_assign)
            test_assign = assign_new_points(
                model, PointSet(features[test_idx]))
        else:
            sampled = _stratified_sample(
                records, train_idx, spec.sampling, rng)
            train_records = [records[i] for i in sampled]
            joint_idx = sampled + test_idx
            joint_points = PointSet(features[joint_idx])
            result = cluster_points(joint_points, params)
            n_train = len(sampled)
            train_assign = ClusterAssignment(
                labels=result.labels[:n_train],
                strengths=result.strengths[:n_train])
            risky, stats = select_risky_clusters(
                train_assign, train_records, spec.risky)
            test_assign = ClusterAssignment(
                labels=result.labels[n_train:],
                strengths=result.strengths[n_train:])
        risky_arr = np.array(sorted(risky), dtype=np.int64)
        predicted = np.isin(test_assign.labels, risky_arr)
        actual = np.array(
            [r.risk_seed == "confirmed_fraud" for r in test_records])
        amounts = np.array([r.amount for r in test_records])
        all_pred.append(predicted)
        all_act.append(actual)
        all_amt.append(amounts)
        window_report = fraud_metrics(predicted, actual, amounts)
        windows_out.append({
            "train_snapshots": [int(s) for s in train_snaps],
            "test_snapshot": int(test_snap),
            "n_train": len(train_records),
            "n_test": len(test_records),
            "risky_clusters": [int(c) for c in sorted(risky)],
            "cluster_stats": {str(k): v for k, v in stats.items()},
            "test_ids": [r.id for r in test_records],
            "test_labels": [int(v) for v in test_assign.labels],
            "test_strengths": [float(v) for v in test_assign.strengths],
            "predicted_fraud": [bool(v) for v in predicted],
            "report": window_report.to_dict(),
        })
    report = fraud_metrics(
        np.concatenate(all_pred),
        np.concatenate(all_act),
        np.concatenate(all_amt))
    artifacts = {
        "mode": spec.mode,
        "feature_names": list(feature_names),
        "windows": windows_out,
        "report": report.to_dict(),
    }
    return report, artifacts
