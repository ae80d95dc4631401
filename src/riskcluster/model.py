"""Shared domain types and dataset ingestion.

Points live in a single contiguous float32 row-major matrix; every distance
accumulation downstream runs in float64. Transactions arrive as
newline-delimited JSON, one object per line, and load into one
TransactionBatch: a column per field, decoded and checked once. A
TransactionRecord is the per-record form: what code builds a transaction
from, and the view that indexing a batch returns.
"""

import csv
import io
import json
import math
import numbers
import re
import struct
from collections.abc import Mapping, Sequence
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

MAGIC = b"RCPT"

# sorted, so risk seed codes order as the names do
RISK_SEEDS = ("confirmed_fraud", "declined", "legit", "unknown")
PAGE_TYPES = ("view", "search", "cart", "checkout", "account", "other")
_SEED_CODES = {seed: code for code, seed in enumerate(RISK_SEEDS)}
_PAGE_CODES = {page: code for code, page in enumerate(PAGE_TYPES)}
_INT64_END = 2**63
_CHUNK_LINES = 256
# two objects side by side on one line
_ADJACENT = re.compile(r"}[ \t]*,[ \t]*{")


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
            if dwell >= _INT64_END:
                raise ValueError(
                    "dwell_ms must fit in a signed 64-bit integer")
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
            if not isinstance(name, str):
                raise ValueError(f"feature name {name!r} is not a string")
            if not isinstance(value, (int, float)) or not _finite(value):
                raise ValueError(f"feature {name!r} is not a finite number")
        # the limits of the batch's column dtypes come last, so a record
        # that also breaks another check reports that one
        if self.timestamp >= _INT64_END:
            raise ValueError("timestamp must fit in a signed 64-bit integer")
        if not _finite(self.amount):
            raise ValueError("amount must be a finite number")


def _finite(value):
    """math.isfinite, but False for an int too large for a float64."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True, eq=False)
class TransactionBatch(Sequence):
    """Transactions as columns; indexing and iteration give TransactionRecord
    views of the rows.

    Row i has ids[i] (str, in an object array), timestamps[i] (int64 epoch
    ms), amounts[i] (float64) and seeds[i] (int8 index into RISK_SEEDS).
    Its features are cells feature_offsets[i] to feature_offsets[i + 1] of
    feature_columns (indices into feature_names, the sorted names of every
    key in the batch) and feature_values (float64), in the row's own key
    order. Its session is events event_offsets[i] to event_offsets[i + 1]
    of pages (names), page_codes (indices into PAGE_TYPES, unknown names as
    "other") and dwells (int64); an empty range means no session.
    """

    ids: np.ndarray
    timestamps: np.ndarray
    amounts: np.ndarray
    seeds: np.ndarray
    feature_names: tuple
    feature_columns: np.ndarray
    feature_values: np.ndarray
    feature_offsets: np.ndarray
    pages: np.ndarray
    page_codes: np.ndarray
    dwells: np.ndarray
    event_offsets: np.ndarray

    @classmethod
    def of(cls, records):
        """records itself if it is a batch, else the batch of a sequence of
        TransactionRecord."""
        if isinstance(records, cls):
            return records
        rows = list(map(_row_of, records))
        return _batch_of_rows(*(zip(*rows) if rows else [()] * 6))[0]

    def __len__(self):
        return self.timestamps.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]
        f, g = self.feature_offsets[i], self.feature_offsets[i + 1]
        e, h = self.event_offsets[i], self.event_offsets[i + 1]
        return TransactionRecord(
            id=self.ids[i],
            timestamp=int(self.timestamps[i]),
            amount=float(self.amounts[i]),
            risk_seed=RISK_SEEDS[self.seeds[i]],
            features={
                self.feature_names[c]: v for c, v in zip(
                    self.feature_columns[f:g].tolist(),
                    self.feature_values[f:g].tolist())},
            session=ClickSession(tuple(zip(
                self.pages[e:h], self.dwells[e:h]))) if h > e else None)

    def take(self, rows):
        """The batch of the given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.intp)
        feature_offsets, cells = _ranges(self.feature_offsets, rows)
        event_offsets, events = _ranges(self.event_offsets, rows)
        return TransactionBatch(
            ids=self.ids[rows], timestamps=self.timestamps[rows],
            amounts=self.amounts[rows], seeds=self.seeds[rows],
            feature_names=self.feature_names,
            feature_columns=self.feature_columns[cells],
            feature_values=self.feature_values[cells],
            feature_offsets=feature_offsets, pages=self.pages[events],
            page_codes=self.page_codes[events], dwells=self.dwells[events],
            event_offsets=event_offsets)

    def event_rows(self):
        """The row of each event."""
        return _rows_of(self.event_offsets)


def _row_of(rec):
    """A record's values in the column order of _batch_of_rows."""
    return (rec.id, rec.timestamp, rec.amount, rec.risk_seed, rec.features,
            () if rec.session is None else rec.session.events)


def _offsets(lengths):
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _rows_of(offsets):
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _ranges(offsets, rows):
    """The offsets of the given rows' ranges packed in row order, and the
    flat positions those ranges cover."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    packed = _offsets(lengths)
    return packed, np.repeat(starts - packed[:-1], lengths) \
        + np.arange(packed[-1])


def _concat(parts):
    """One batch of the rows of the parts, in order."""
    if len(parts) == 1:
        return parts[0]
    names = sorted(set().union(*(p.feature_names for p in parts)))
    column = {name: j for j, name in enumerate(names)}
    columns = [np.array([column[name] for name in p.feature_names],
                        dtype=np.int64)[p.feature_columns] for p in parts]
    return TransactionBatch(
        **{key: np.concatenate([getattr(p, key) for p in parts]) for key in (
            "ids", "timestamps", "amounts", "seeds", "feature_values",
            "pages", "page_codes", "dwells")},
        feature_names=tuple(names), feature_columns=np.concatenate(columns),
        **{key: _offsets(np.concatenate([np.diff(getattr(p, key))
                                         for p in parts]))
           for key in ("feature_offsets", "event_offsets")})


def _batch_of_rows(ids, timestamps, amounts, seeds, features, events):
    """The batch of per-row values of the plain kinds, and the mask of the
    rows that a TransactionRecord check rejects. A timestamp or dwell past
    int64 or a number past float64, which the checks reject too, raises
    OverflowError.

    Rows hold a str id, an int timestamp, a number amount, a str seed, a
    dict of number features and a sequence of (str page, int dwell) events,
    () for no session.
    """
    n = len(ids)
    ts = np.array(timestamps, dtype=np.int64)
    amount = np.array(amounts, dtype=np.float64)
    seed = np.fromiter(map(_SEED_CODES.get, seeds, repeat(-1)), np.int8, n)
    keys = list(chain.from_iterable(features))
    names = sorted(set(keys))
    column = {name: j for j, name in enumerate(names)}.__getitem__
    # when every row lists every key in one order, one row maps them all
    first = keys[:len(names)]
    columns = np.tile(np.fromiter(map(column, first), np.int64), n) \
        if keys == first * n \
        else np.fromiter(map(column, keys), np.int64, len(keys))
    values = np.array(list(chain.from_iterable(map(dict.values, features))),
                      dtype=np.float64)
    flat = list(chain.from_iterable(events))
    pages = list(map(itemgetter(0), flat))
    dwell = np.array(list(map(itemgetter(1), flat)), dtype=np.int64)
    batch = TransactionBatch(
        ids=np.array(ids, dtype=object), timestamps=ts, amounts=amount,
        seeds=seed, feature_names=tuple(names), feature_columns=columns,
        feature_values=values,
        feature_offsets=_offsets(np.fromiter(map(len, features), np.int64, n)),
        pages=np.array(pages, dtype=object),
        page_codes=np.fromiter(
            map(_PAGE_CODES.get, pages, repeat(_PAGE_CODES["other"])),
            np.int64, len(pages)),
        dwells=dwell,
        event_offsets=_offsets(np.fromiter(map(len, events), np.int64, n)))
    bad = (ts <= 0) | (amount < 0) | ~np.isfinite(amount) | (seed < 0)
    bad[_rows_of(batch.feature_offsets)[~np.isfinite(values)]] = True
    bad[batch.event_rows()[dwell < 0]] = True
    return batch, bad


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
            if not (strengths.min() >= 0.0 and strengths.max() <= 1.0):
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


def config_of(cls, obj, what):
    """cls(**obj) for a config mapping obj; ValueError if obj is no mapping,
    has a key cls has no field for, or lacks a field without a default."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} must be an object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    for f in fields(cls):
        if f.name not in obj and f.default is f.default_factory is MISSING:
            raise ValueError(f"{what} needs {f.name}")
    return cls(**obj)


def is_integer(value):
    """Whether value is an integer, a numpy one included; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def reject_non_numbers(obj, integers=(), reals=()):
    """ValueError naming the first of the given fields of a config object
    that holds no integer (integers) or no finite real number (reals). A
    bool is neither, and a field whose default is None may hold None."""
    optional = {f.name for f in fields(obj) if f.default is None}
    for name in chain(integers, reals):
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        if name in integers:
            ok, what = is_integer(value), "an integer"
        else:
            ok = isinstance(value, numbers.Real) and _finite(value)
            what = "a finite number"
        if isinstance(value, bool) or not ok:
            raise ValueError(f"{name} must be {what}")


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


def _coerce(obj, lineno):
    """The TransactionRecord of one decoded line, or ValueError "line N: ..."
    for the first value that breaks the record contract."""
    try:
        return TransactionRecord(
            id=str(obj["id"]),
            timestamp=int(obj["timestamp"]),
            amount=float(obj["amount"]),
            risk_seed=obj.get("risk_seed", "unknown"),
            features=dict(obj.get("features", {})),
            session=_session_from_json(obj.get("session")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def _line_chunks(fh):
    """[(line number, stripped line)] of the nonblank lines of a file, up to
    _CHUNK_LINES lines at a time. A read error comes out after the list of
    the lines before it."""
    chunk = []
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                chunk.append((lineno, line))
            if lineno % _CHUNK_LINES == 0:
                yield chunk
                chunk = []
    except ValueError:
        yield chunk
        raise
    yield chunk


def _joined_objects(lines):
    """The objects of a chunk of lines from one decode of "[" + ",".join(
    lines) + "]", or None where that cannot stand for the lines one by one.

    It is taken only when the array holds exactly one dict per line and no
    line holds "}", a comma and "{" with only spaces or tabs between them.
    Sound: a text-mode line holds no "\\r" or "\\n", so when no line has
    that pattern, every top-level separator of the array is an inserted
    comma, and each value spans exactly its own line. A value split over
    lines joins fewer values than lines, and two values on one line need
    the pattern, with any whitespace between them on that line.
    """
    if _ADJACENT.search("\n".join(lines)):
        return None
    try:
        objs = json.loads("[" + ",".join(lines) + "]")
    except (ValueError, RecursionError):
        return None
    if len(objs) != len(lines) or not all(type(o) is dict for o in objs):
        return None
    return objs


def _decoded_chunks(fh):
    """(objects, line numbers) of the nonblank lines of a file, a chunk of
    _line_chunks at a time, each decoded at once where _joined_objects can
    and line by line otherwise. At the first line that cannot be read or
    holds no JSON object, the chunk of the lines before it comes out, and
    then that line's ValueError is raised."""
    for chunk in _line_chunks(fh):
        linenos = [lineno for lineno, _ in chunk]
        objs = _joined_objects([line for _, line in chunk])
        if objs is None:
            objs = []
            try:
                for lineno, line in chunk:
                    try:
                        obj = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(f"line {lineno}: {exc}") from None
                    if type(obj) is not dict:
                        # raises: only objects have fields
                        _coerce(obj, lineno)
                    objs.append(obj)
            except ValueError:
                yield objs, linenos[:len(objs)]
                raise
        yield objs, linenos


# the plain kinds of the id, timestamp, amount, risk_seed, features and
# session columns; () stands for no session
_PLAIN = ({str}, {int}, {int, float}, {str}, {dict}, {list, tuple})


def _kinds(values):
    return set(map(type, values))


def _plain(columns):
    """Whether every value of a chunk's columns is of its plain kind, with
    number feature values and nonempty event lists of [str, int] pairs."""
    if [] in columns[5] or not all(
            _kinds(column) <= kinds for column, kinds in zip(columns, _PLAIN)):
        return False
    values = chain.from_iterable(map(dict.values, columns[4]))
    flat = list(chain.from_iterable(columns[5]))
    return (_kinds(values) <= {int, float, bool} and _kinds(flat) <= {list}
            and set(map(len, flat)) <= {2}
            and _kinds(map(itemgetter(0), flat)) <= {str}
            and _kinds(map(itemgetter(1), flat)) <= {int})


def _rows_to_batch(objs, linenos):
    """The batch of a chunk of decoded objects, or the ValueError "line N:
    ..." of the first one that breaks the record contract.

    A chunk whose values are all of their plain kinds and pass the column
    checks is its columns as they are; any other chunk is built row by row
    through the record constructor.
    """
    columns = [list(map(dict.get, objs, repeat(key), repeat(default)))
               for key, default in (
                   ("id", None), ("timestamp", None), ("amount", None),
                   ("risk_seed", "unknown"), ("features", {}),
                   ("session", None))]
    # a session's event list, () for no session; a session of another kind,
    # or one without events, stays for the record constructor to judge
    columns[5] = [() if s is None else s.get("events") if type(s) is dict
                  else s for s in columns[5]]
    plain = _plain(columns)
    if plain:
        with suppress(OverflowError):
            batch, bad = _batch_of_rows(*columns)
            if not bad.any():
                return batch
    batch = TransactionBatch.of(map(_coerce, objs, linenos))
    if plain:
        raise AssertionError(
            f"the chunk from line {linenos[0]} passed the record checks but"
            " failed the column checks")
    return batch


def load_transactions(path):
    """Read newline-delimited JSON transactions into a TransactionBatch,
    preserving file order.

    Lines are decoded and checked a column at a time, in chunks of
    _CHUNK_LINES lines, so that only one chunk of decoded JSON is held at
    once. A chunk that holds a value of no plain kind goes through the
    TransactionRecord constructor row by row. The first bad line in file
    order raises ValueError "line N: ...", with the message its
    TransactionRecord constructor gives.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _concat([_rows_to_batch(objs, linenos)
                        for objs, linenos in _decoded_chunks(fh)])


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
