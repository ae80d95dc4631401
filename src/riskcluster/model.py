"""Shared domain types and dataset ingestion.

Points live in a single contiguous float32 row-major matrix; every distance
accumulation downstream runs in float64. Transactions arrive as
newline-delimited JSON, one object per line.
"""

import csv
import io
import json
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

MAGIC = b"RCPT"

RISK_SEEDS = ("confirmed_fraud", "declined", "legit", "unknown")


@dataclass(frozen=True)
class PointSet:
    """Dense n x dim float32 matrix."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError("point data must be a 2-d matrix")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("point matrix needs n >= 1 and dim >= 1")
        if not np.isfinite(arr).all():
            raise ValueError("point matrix contains non-finite values")
        object.__setattr__(self, "data", arr)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class ClickSession:
    """Ordered (page_type, dwell_ms) events for one session."""

    events: tuple

    def __post_init__(self):
        events = tuple((str(p), int(d)) for p, d in self.events)
        if not events:
            raise ValueError("session has no events")
        for _, dwell in events:
            if dwell < 0:
                raise ValueError("dwell_ms must be nonnegative")
        object.__setattr__(self, "events", events)


@dataclass(frozen=True)
class TransactionRecord:
    id: str
    timestamp: int
    amount: float
    risk_seed: str = "unknown"
    features: dict = field(default_factory=dict)
    session: ClickSession | None = None

    def __post_init__(self):
        if self.timestamp <= 0:
            raise ValueError("timestamp must be positive epoch milliseconds")
        if self.amount < 0:
            raise ValueError("amount must be nonnegative")
        if self.risk_seed not in RISK_SEEDS:
            raise ValueError(f"unknown risk_seed {self.risk_seed!r}")
        for name, value in self.features.items():
            if not isinstance(value, (int, float)) or not _finite(value):
                raise ValueError(f"feature {name!r} is not a finite number")


def _finite(value):
    """math.isfinite, but False for an int too large for a float64."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ClusterAssignment:
    """Per-point labels (-1 = noise) and membership strengths in [0, 1]."""

    labels: np.ndarray
    strengths: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        strengths = np.asarray(self.strengths, dtype=np.float64)
        if labels.shape != strengths.shape or labels.ndim != 1:
            raise ValueError("labels and strengths must be aligned 1-d arrays")
        if labels.size and labels.min() < -1:
            raise ValueError("labels below -1 are not allowed")
        if strengths.size:
            if strengths.min() < 0.0 or strengths.max() > 1.0:
                raise ValueError("strengths must lie in [0, 1]")
            if np.any(strengths[labels == -1] != 0.0):
                raise ValueError("noise points must have strength 0")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "strengths", strengths)

    @property
    def n(self):
        return self.labels.shape[0]

    @property
    def num_clusters(self):
        if self.labels.size == 0:
            return 0
        top = int(self.labels.max())
        return top + 1 if top >= 0 else 0


def reject_unknown_keys(cls, obj, what):
    """ValueError naming the keys of a config mapping cls has no field for,
    or saying that obj is no mapping at all."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")


def _parse_csv_points(text, header):
    reader = csv.reader(io.StringIO(text))
    rows = []
    width = None
    for lineno, row in enumerate(reader, start=1):
        if header and lineno == 1:
            continue
        if not row:
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(
                f"line {lineno}: ragged row, expected {width} columns,"
                f" got {len(row)}")
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric cell") from None
    if not rows:
        raise ValueError("no data rows in points file")
    return np.asarray(rows, dtype=np.float64).astype(np.float32)


def load_points(path, fmt="csv", header=False):
    """Read a PointSet from CSV or the RCPT binary format."""
    if fmt == "csv":
        with open(path, "r", encoding="utf-8") as fh:
            return PointSet(_parse_csv_points(fh.read(), header))
    if fmt != "binary":
        raise ValueError(f"unknown points format {fmt!r}")
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise ValueError("bad magic, not an RCPT points file")
        n, dim = struct.unpack("<II", head[4:12])
        payload = fh.read()
    expected = n * dim * 4
    if len(payload) != expected:
        raise ValueError(
            f"truncated points file: expected {expected} payload bytes,"
            f" got {len(payload)}")
    data = np.frombuffer(payload, dtype="<f4").reshape(n, dim)
    return PointSet(data.copy())


def save_points(path, points, fmt="csv"):
    """Write a PointSet; CSV uses shortest round-trip decimal strings."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for row in points.data:
                fh.write(",".join(
                    np.format_float_positional(v, unique=True, trim="0")
                    for v in row))
                fh.write("\n")
        return
    if fmt != "binary":
        raise ValueError(f"unknown points format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", points.n, points.dim))
        fh.write(np.ascontiguousarray(points.data, dtype="<f4").tobytes())


def _session_from_json(obj):
    if obj is None:
        return None
    events = obj.get("events") if isinstance(obj, dict) else obj
    if events is None:
        raise ValueError("session object lacks events")
    parsed = []
    for ev in events:
        if isinstance(ev, dict):
            parsed.append((ev["page_type"], ev["dwell_ms"]))
        else:
            page, dwell = ev
            parsed.append((page, dwell))
    return ClickSession(tuple(parsed))


def load_transactions(path):
    """Read newline-delimited JSON transactions, preserving file order."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                record = TransactionRecord(
                    id=str(obj["id"]),
                    timestamp=int(obj["timestamp"]),
                    amount=float(obj["amount"]),
                    risk_seed=obj.get("risk_seed", "unknown"),
                    features=dict(obj.get("features", {})),
                    session=_session_from_json(obj.get("session")),
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            records.append(record)
    return records


def save_transactions(path, records):
    """Write transactions as newline-delimited JSON (inverse of load)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "id": rec.id,
                "timestamp": rec.timestamp,
                "amount": rec.amount,
                "risk_seed": rec.risk_seed,
                "features": rec.features,
            }
            if rec.session is not None:
                obj["session"] = {
                    "events": [[p, d] for p, d in rec.session.events]}
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")
