"""Fraud application layer.

Click-stream sessions become fixed-order handcrafted feature vectors,
cluster assignments become risky-cluster flags, and the experiment runners
wire clustering, risky-cluster selection, and scoring into the inductive
and transductive evaluation protocols. Every stage reads the columns of one
TransactionBatch: run_experiment turns a sequence of records into a batch
once, and no stage walks the records one by one.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterParams, cluster_points
from .metrics import fraud_metrics
from .model import (
    PAGE_TYPES, RISK_SEEDS, ClusterAssignment, PointSet, TransactionBatch,
    config_of, is_integer, reject_non_numbers)
from .predict import InductiveModel, assign_new_points

_CONFIRMED, _DECLINED = (
    RISK_SEEDS.index("confirmed_fraud"), RISK_SEEDS.index("declined"))

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


def _session_block(batch):
    """Session feature rows of a batch, SESSION_FEATURE_NAMES order, float64.

    One columnar pass over the batch's flat events. Counts come from one
    bincount over (row, page code). Dwell statistics come from one (m, L)
    block per distinct session length L, reduced along its rows: numpy
    reduces each row as it reduces a 1-d array of L values, so each value
    keeps the bits of the per-session numpy reduction. Dwells are summed
    in float64: an int64 sum overflows once a total passes 2**63.
    """
    lengths = np.diff(batch.event_offsets)
    dwell = np.asarray(batch.dwells, dtype=np.float64)
    n, npages = lengths.size, len(PAGE_TYPES)
    counts = np.bincount(
        batch.event_rows() * npages + batch.page_codes,
        minlength=n * npages).reshape(n, npages)
    starts = batch.event_offsets[:-1]
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
    """Aligned (matrix, column_names) for a transaction batch, or a sequence
    of records.

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
    batch = TransactionBatch.of(records)
    blocks = []
    names = []
    if feature_set in ("embedding", "hybrid"):
        offsets = batch.feature_offsets
        width = offsets[1] - offsets[0]
        if width == 0:
            raise ValueError("records carry no embedding features")
        # the cells of the rows as wide as the first, in name order
        wide = np.flatnonzero(np.diff(offsets) == width)
        cells = offsets[wide, None] + np.arange(width)
        columns = batch.feature_columns[cells]
        order = np.argsort(columns, axis=1)
        keys = np.take_along_axis(columns, order, 1)
        differ = np.ones(len(batch), dtype=bool)
        differ[wide] = (keys != keys[0]).any(axis=1)
        if differ.any():
            raise ValueError(f"record {batch.ids[np.argmax(differ)]}:"
                             " feature keys differ from batch")
        blocks.append(np.take_along_axis(
            batch.feature_values[cells], order, 1))
        names.extend(batch.feature_names[c] for c in keys[0].tolist())
    if feature_set in ("session", "hybrid"):
        bare = np.diff(batch.event_offsets) == 0
        if bare.any():
            raise ValueError(
                f"record {batch.ids[np.argmax(bare)]}: no session to featurize")
        blocks.append(_session_block(batch))
        names.extend("session_" + n for n in SESSION_FEATURE_NAMES)
    return np.concatenate(blocks, axis=1), tuple(names)


@dataclass(frozen=True)
class RiskyClusterConfig:
    min_cluster_size_for_flag: int = 20
    min_fraud_density: float = 0.5
    min_mean_strength: float = 0.1

    def __post_init__(self):
        reject_non_numbers(
            self, integers=("min_cluster_size_for_flag",),
            reals=("min_fraud_density", "min_mean_strength"))
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
    seeds = TransactionBatch.of(records).seeds
    if assignment.n != seeds.size:
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
        count = np.bincount(seeds[mask], minlength=len(RISK_SEEDS))
        confirmed, declined = int(count[_CONFIRMED]), int(count[_DECLINED])
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
        reject_non_numbers(
            self, integers=("max_train",), reals=("half_life_ms",))
        if self.max_train is not None and self.max_train < 1:
            raise ValueError("max_train must be >= 1")
        if self.half_life_ms is not None and self.half_life_ms <= 0:
            raise ValueError("half_life_ms must be positive")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment; construction normalizes its windows and sections."""

    mode: str
    snapshot_ms: int = 3_600_000
    train_snapshots: tuple = ()
    test_snapshot: int = 0
    windows: tuple | None = None
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    clustering: ClusterParams = field(default_factory=dict)
    risky: RiskyClusterConfig = field(default_factory=RiskyClusterConfig)
    feature_set: str = "hybrid"
    k_assign: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("inductive", "transductive"):
            raise ValueError(f"unknown experiment mode {self.mode!r}")
        reject_non_numbers(self, integers=("snapshot_ms", "k_assign", "seed"))
        if self.snapshot_ms < 1:
            raise ValueError("snapshot_ms must be >= 1")
        if self.snapshot_ms >= 2**63:
            raise ValueError("snapshot_ms must fit in a signed 64-bit integer")
        if self.k_assign < 1:
            raise ValueError("k_assign must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.feature_set not in FEATURE_SETS:
            raise ValueError(f"unknown feature_set {self.feature_set!r}")
        try:
            pair = _window(self.train_snapshots, self.test_snapshot)
        except TypeError:
            raise ValueError(
                "train_snapshots must be a list of snapshot numbers"
                " and test_snapshot a number") from None
        try:
            windows = (pair,) if self.windows is None else tuple(
                _window(*w) for w in self.windows)
        except TypeError:
            raise ValueError(
                "windows must be a list of [train_snapshots, test_snapshot]"
                " pairs") from None
        if self.windows is not None and pair != ((), 0):
            raise ValueError("give windows or train_snapshots and"
                             " test_snapshot, not both")
        if not windows:
            raise ValueError("windows must not be empty")
        for train, test in windows:
            if not train:
                raise ValueError("window has no train snapshots")
            if len(set(train)) < len(train):
                raise ValueError("window repeats a train snapshot")
            if max(train) >= test:
                raise ValueError(
                    "train window must strictly precede test snapshot")
        normal = {name: config_of(cls, getattr(self, name), name)
                  for name, cls in (("sampling", SamplingSpec),
                                    ("clustering", ClusterParams),
                                    ("risky", RiskyClusterConfig))
                  if not isinstance(getattr(self, name), cls)}
        normal.update(
            train_snapshots=pair[0], test_snapshot=pair[1], windows=windows)
        for name, value in normal.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text) if isinstance(text, str) else text
        return config_of(cls, obj, "experiment")


def _window(train, test):
    """A window as (tuple of int, int); TypeError unless all are integers."""
    train = tuple(train)
    if not all(map(is_integer, (*train, test))):
        raise TypeError("snapshot numbers must be integers")
    return tuple(map(int, train)), int(test)


def _group_by_snapshot(batch, snapshot_ms):
    """Row indices of a batch by snapshot number, in row order."""
    keys, inverse = np.unique(
        batch.timestamps // snapshot_ms, return_inverse=True)
    rows = np.argsort(inverse, kind="stable")
    return dict(zip(keys.tolist(), np.split(
        rows, np.cumsum(np.bincount(inverse))[:-1])))


def _stratified_sample(records, indices, sampling, rng):
    """Downsample indices preserving risk_seed proportions with recency bias."""
    if sampling.max_train is None or len(indices) <= sampling.max_train:
        return list(indices)
    batch = TransactionBatch.of(records)
    indices = np.asarray(indices)
    seeds = batch.seeds[indices]
    # codes sort as the seed names do
    strata = np.unique(seeds).tolist()
    pools = [indices[seeds == s] for s in strata]
    # largest-remainder quotas so Σ quota == max_train exactly
    raw = [sampling.max_train * len(pool) / indices.size for pool in pools]
    quotas = [math.floor(q) for q in raw]
    short = sampling.max_train - sum(quotas)
    order = sorted(
        range(len(strata)), key=lambda i: (-(raw[i] - quotas[i]), strata[i]))
    for i in order[:short]:
        quotas[i] += 1
    picked = []
    for pool, quota in zip(pools, quotas):
        quota = min(quota, len(pool))
        if quota == 0:
            continue
        if sampling.half_life_ms is None:
            probs = None
        else:
            # ages from the stratum's own newest record, whose weight is 1;
            # the floor keeps every weight positive where exp2 underflows
            stamps = batch.timestamps[pool]
            ages = (stamps.max() - stamps).astype(np.float64)
            weights = np.maximum(np.exp2(-ages / sampling.half_life_ms),
                                 np.finfo(np.float64).tiny)
            probs = weights / weights.sum()
        chosen = rng.choice(len(pool), size=quota, replace=False, p=probs)
        picked.append(pool[chosen])
    return np.sort(np.concatenate(picked)).tolist()


def _indices_for(groups, snapshots, what):
    indices = [groups[s] for s in snapshots if s in groups]
    if not indices:
        raise ValueError(f"{what} window matched no records")
    return np.sort(np.concatenate(indices))


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
    batch = TransactionBatch.of(records)
    features, feature_names = build_feature_matrix(batch, spec.feature_set)
    groups = _group_by_snapshot(batch, spec.snapshot_ms)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    all_pred = []
    all_act = []
    all_amt = []
    windows_out = []
    for train_snaps, test_snap in spec.windows:
        train_idx = _indices_for(groups, train_snaps, "train")
        test_idx = _indices_for(groups, [test_snap], "test")
        if np.isin(test_idx, train_idx).any():
            raise ValueError("train and test windows share records")
        if spec.mode == "inductive":
            n_train = len(train_idx)
            train_points = PointSet(features[train_idx])
            result = cluster_points(train_points, spec.clustering)
            risky, stats = select_risky_clusters(
                result.assignment, batch.take(train_idx), spec.risky)
            model = InductiveModel(
                train_points=train_points,
                train_labels=result.assignment,
                k_assign=spec.k_assign)
            test_assign = assign_new_points(
                model, PointSet(features[test_idx]))
        else:
            sampled = _stratified_sample(
                batch, train_idx, spec.sampling, rng)
            joint_points = PointSet(
                features[np.concatenate([sampled, test_idx])])
            result = cluster_points(joint_points, spec.clustering)
            n_train = len(sampled)
            train_assign = ClusterAssignment(
                labels=result.labels[:n_train],
                strengths=result.strengths[:n_train])
            risky, stats = select_risky_clusters(
                train_assign, batch.take(sampled), spec.risky)
            test_assign = ClusterAssignment(
                labels=result.labels[n_train:],
                strengths=result.strengths[n_train:])
        risky_arr = np.array(sorted(risky), dtype=np.int64)
        predicted = np.isin(test_assign.labels, risky_arr)
        actual = batch.seeds[test_idx] == _CONFIRMED
        amounts = batch.amounts[test_idx]
        all_pred.append(predicted)
        all_act.append(actual)
        all_amt.append(amounts)
        window_report = fraud_metrics(predicted, actual, amounts)
        windows_out.append({
            "train_snapshots": list(train_snaps),
            "test_snapshot": test_snap,
            "n_train": n_train,
            "n_test": len(test_idx),
            "risky_clusters": [int(c) for c in sorted(risky)],
            "cluster_stats": {str(k): v for k, v in stats.items()},
            "test_ids": batch.ids[test_idx].tolist(),
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
