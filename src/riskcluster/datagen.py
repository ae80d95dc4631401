"""Synthetic dataset generators and fraud-pipeline fixtures.

All randomness flows through numpy's PCG64 so fixtures are stable across
platforms. Shape formulas follow the usual sklearn conventions (two
interleaved half-moons, concentric circles with a radius factor, isotropic
Gaussian blobs, an anisotropic linear map, per-center variances).
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    ClickSession, PointSet, TransactionRecord, reject_non_numbers)

SHAPES = ("blobs", "moons", "circles", "anisotropic", "varied_variance",
          "uniform_noise")

# fixed linear map for the anisotropic shape
_ANISO = np.array([[0.6, -0.6], [-0.4, 0.8]])


@dataclass(frozen=True)
class SyntheticSpec:
    shape: str
    n: int
    noise: float = 0.05
    seed: int = 0
    dim: int = 2
    centers: int = 3
    std: float = 1.0
    center_box: tuple = (-10.0, 10.0)
    factor: float = 0.5
    varied_std: tuple = (1.0, 2.5, 0.5)

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        reject_non_numbers(self, integers=("n", "seed", "dim", "centers"),
                           reals=("noise", "std", "factor"))
        for name in ("n", "dim", "centers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("noise", "std", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.shape in ("moons", "circles", "anisotropic") and self.dim != 2:
            raise ValueError(f"{self.shape} is inherently 2-d")


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _split_counts(n, parts):
    counts = np.full(parts, n // parts, dtype=np.int64)
    counts[: n % parts] += 1
    return counts


def _make_blobs(rng, n, centers, dim, stds, box):
    locs = rng.uniform(box[0], box[1], size=(centers, dim))
    counts = _split_counts(n, centers)
    points = []
    labels = []
    for c in range(centers):
        pts = locs[c] + rng.normal(0.0, stds[c], size=(int(counts[c]), dim))
        points.append(pts)
        labels.append(np.full(int(counts[c]), c, dtype=np.int64))
    return np.concatenate(points), np.concatenate(labels)


def generate(spec):
    """Points and ground-truth labels for a SyntheticSpec."""
    rng = _rng(spec.seed)
    n = spec.n
    if spec.shape == "blobs":
        x, y = _make_blobs(
            rng, n, spec.centers, spec.dim,
            [spec.std] * spec.centers, spec.center_box)
    elif spec.shape == "varied_variance":
        centers = len(spec.varied_std)
        x, y = _make_blobs(
            rng, n, centers, spec.dim, list(spec.varied_std),
            spec.center_box)
    elif spec.shape == "anisotropic":
        x, y = _make_blobs(
            rng, n, spec.centers, 2, [spec.std] * spec.centers,
            spec.center_box)
        x = x @ _ANISO
    elif spec.shape == "moons":
        n_out = n // 2
        n_in = n - n_out
        t_out = np.linspace(0.0, np.pi, n_out)
        t_in = np.linspace(0.0, np.pi, n_in)
        x = np.concatenate([
            np.column_stack([np.cos(t_out), np.sin(t_out)]),
            np.column_stack([1.0 - np.cos(t_in), 1.0 - np.sin(t_in) - 0.5]),
        ])
        y = np.concatenate([
            np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
        if spec.noise > 0:
            x = x + rng.normal(0.0, spec.noise, size=x.shape)
    elif spec.shape == "circles":
        n_out = n // 2
        n_in = n - n_out
        t_out = np.linspace(0.0, 2 * np.pi, n_out, endpoint=False)
        t_in = np.linspace(0.0, 2 * np.pi, n_in, endpoint=False)
        x = np.concatenate([
            np.column_stack([np.cos(t_out), np.sin(t_out)]),
            spec.factor * np.column_stack([np.cos(t_in), np.sin(t_in)]),
        ])
        y = np.concatenate([
            np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)])
        if spec.noise > 0:
            x = x + rng.normal(0.0, spec.noise, size=x.shape)
    else:  # uniform_noise
        x = rng.uniform(
            spec.center_box[0], spec.center_box[1], size=(n, spec.dim))
        y = np.zeros(n, dtype=np.int64)
    return PointSet(x.astype(np.float32)), y


_PLANTED_PAGES = ("view", "checkout", "checkout", "cart", "checkout")
_LEGIT_PAGES = ("view", "view", "search", "view", "cart")


def _session(rng, pages):
    count = int(rng.integers(3, 8))
    events = []
    for _ in range(count):
        page = pages[int(rng.integers(len(pages)))]
        dwell = int(rng.integers(200, 5000))
        events.append((page, dwell))
    return ClickSession(tuple(events))


def fraud_stream(
    seed=0,
    n_snapshots=3,
    planted_per_snapshot=150,
    legit_blobs=3,
    legit_per_blob=400,
    dim=12,
    background_fraud_per_blob=4,
    train_fraud_rate=0.80,
    test_fraud_rate=0.85,
    snapshot_ms=3_600_000,
    start_ts=1_700_000_000_000,
):
    """Transaction stream with one far-separated fraud-seeded cluster.

    Every snapshot holds `legit_blobs` background blobs plus one planted
    blob. Planted transactions are seeded confirmed_fraud at exactly
    train_fraud_rate in all but the last snapshot and test_fraud_rate in the
    last one (counts are exact, not sampled). Background blobs carry a few
    confirmed frauds each so recall is not trivially 1.

    Returns (records, truth) where truth maps record id -> blob index with
    the planted blob last, plus the planted id set.
    """
    rng = _rng(seed)
    # align to snapshot boundaries so ts // snapshot_ms is exact per snapshot
    start_ts = (start_ts // snapshot_ms) * snapshot_ms
    centers = np.zeros((legit_blobs + 1, dim))
    for b in range(legit_blobs):
        centers[b, b % dim] = 40.0 * (1 + b // dim)
    centers[legit_blobs, :2] = -60.0
    planted_blob = legit_blobs
    records = []
    blob_of = {}
    planted_ids = set()
    counter = 0
    for snap in range(n_snapshots):
        is_test = snap == n_snapshots - 1
        rate = test_fraud_rate if is_test else train_fraud_rate
        rows = []
        for b in range(legit_blobs):
            seeds = np.array(["legit"] * legit_per_blob, dtype=object)
            seeds[:background_fraud_per_blob] = "confirmed_fraud"
            rng.shuffle(seeds)
            for s in seeds:
                rows.append((b, str(s)))
        n_fraud = round(planted_per_snapshot * rate)
        seeds = np.array(["legit"] * planted_per_snapshot, dtype=object)
        seeds[:n_fraud] = "confirmed_fraud"
        rng.shuffle(seeds)
        for s in seeds:
            rows.append((planted_blob, str(s)))
        order = rng.permutation(len(rows))
        ts_lo = start_ts + snap * snapshot_ms
        stamps = np.sort(rng.integers(ts_lo, ts_lo + snapshot_ms, len(rows)))
        for slot, ridx in enumerate(order):
            blob, risk = rows[int(ridx)]
            coords = centers[blob] + rng.normal(0.0, 1.5, size=dim)
            features = {f"f{d}": float(coords[d]) for d in range(dim)}
            pages = (_PLANTED_PAGES if blob == planted_blob
                     else _LEGIT_PAGES)
            rec = TransactionRecord(
                id=f"t{counter:06d}",
                timestamp=int(stamps[slot]),
                amount=round(float(rng.uniform(10.0, 500.0)), 2),
                risk_seed=risk,
                features=features,
                session=_session(rng, pages),
            )
            counter += 1
            records.append(rec)
            blob_of[rec.id] = blob
            if blob == planted_blob:
                planted_ids.add(rec.id)
    first_snapshot = start_ts // snapshot_ms
    truth = {
        "blob_of": blob_of,
        "planted_ids": planted_ids,
        "planted_blob": planted_blob,
        "snapshot_ms": snapshot_ms,
        "n_snapshots": n_snapshots,
        "snapshots": list(range(first_snapshot, first_snapshot + n_snapshots)),
    }
    return records, truth
