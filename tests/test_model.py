import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcluster import model
from riskcluster.model import (
    ClickSession, ClusterAssignment, PointSet, TransactionBatch,
    TransactionRecord, load_points, load_transactions, save_points,
    save_transactions)


class TestPointSet:
    def test_contiguous_float32(self):
        ps = PointSet(np.arange(6, dtype=np.float64).reshape(3, 2))
        assert ps.data.dtype == np.float32
        assert ps.data.flags["C_CONTIGUOUS"]
        assert (ps.n, ps.dim) == (3, 2)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-d"):
            PointSet(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            PointSet(np.array([[1.0, np.nan]]))


class TestClickSession:
    def test_normalizes_events(self):
        s = ClickSession([("view", 100.0), ("cart", 50)])
        assert s.events == (("view", 100), ("cart", 50))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no events"):
            ClickSession(())

    def test_rejects_negative_dwell(self):
        with pytest.raises(ValueError, match="dwell"):
            ClickSession((("view", -1),))


class TestTransactionRecord:
    def test_defaults(self):
        r = TransactionRecord(id="t1", timestamp=5, amount=1.0)
        assert r.risk_seed == "unknown"
        assert r.features == {}
        assert r.session is None

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="risk_seed"):
            TransactionRecord(id="t", timestamp=1, amount=0, risk_seed="bad")

    def test_rejects_nonfinite_feature(self):
        with pytest.raises(ValueError, match="finite"):
            TransactionRecord(
                id="t", timestamp=1, amount=0,
                features={"x": float("nan")})

    def test_rejects_int_feature_beyond_float64(self):
        with pytest.raises(
                ValueError, match="feature 'x' is not a finite number"):
            TransactionRecord(
                id="t", timestamp=1, amount=0, features={"x": 10**400})

    def test_rejects_nonpositive_timestamp(self):
        with pytest.raises(ValueError, match="timestamp"):
            TransactionRecord(id="t", timestamp=0, amount=0)


class TestClusterAssignment:
    def test_noise_strength_must_be_zero(self):
        with pytest.raises(ValueError, match="noise"):
            ClusterAssignment(
                labels=np.array([-1, 0]), strengths=np.array([0.5, 1.0]))

    @pytest.mark.parametrize("strength", [1.5, np.nan])
    def test_strengths_bounded(self, strength):
        with pytest.raises(ValueError, match="strengths"):
            ClusterAssignment(
                labels=np.array([0, 0]), strengths=np.array([strength, 0.5]))

    def test_num_clusters(self):
        a = ClusterAssignment(
            labels=np.array([-1, 0, 2]),
            strengths=np.array([0.0, 1.0, 0.5]))
        assert a.num_clusters == 3
        assert a.n == 3


class TestPointsIO:
    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(0))
        ps = PointSet(rng.normal(size=(50, 7)).astype(np.float32))
        path = tmp_path / "p.csv"
        save_points(path, ps, fmt="csv")
        back = load_points(path, fmt="csv")
        assert np.array_equal(ps.data, back.data)

    def test_binary_roundtrip_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        ps = PointSet(rng.normal(size=(33, 3)).astype(np.float32))
        path = tmp_path / "p.bin"
        save_points(path, ps, fmt="binary")
        back = load_points(path, fmt="binary")
        assert np.array_equal(ps.data, back.data)

    def test_csv_header_skip(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        ps = load_points(path, fmt="csv", header=True)
        assert ps.n == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_points(path, fmt="csv")

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_points(path, fmt="csv")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_points(path, fmt="binary")

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "t.bin"
        ps = PointSet(np.zeros((4, 4), dtype=np.float32))
        save_points(path, ps, fmt="binary")
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_points(path, fmt="binary")


class TestTransactionIO:
    def test_roundtrip(self, tmp_path):
        recs = [
            TransactionRecord(
                id="a", timestamp=10, amount=5.5, risk_seed="legit",
                features={"f0": 1.25},
                session=ClickSession((("view", 10), ("checkout", 20)))),
            TransactionRecord(id="b", timestamp=20, amount=0.0),
        ]
        path = tmp_path / "t.ndjson"
        save_transactions(path, recs)
        back = load_transactions(path)
        assert list(back) == recs

    def test_bad_line_numbered(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"id":"a","timestamp":1,"amount":2}\n'
            '{"id":"b","timestamp":1}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_transactions(path)

    def test_int_feature_beyond_float64_line_numbered(self, tmp_path):
        path = tmp_path / "big.ndjson"
        path.write_text(
            '{"id":"a","timestamp":1,"amount":2}\n'
            '{"id":"b","timestamp":1,"amount":2,"features":{"x":1'
            + "0" * 400 + '}}\n')
        with pytest.raises(
                ValueError, match="^line 2: feature 'x' is not a finite"):
            load_transactions(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.ndjson"
        path.write_text('{"id":"a","timestamp":1,"amount":2}\n\n')
        assert len(load_transactions(path)) == 1

    @pytest.mark.parametrize("fields, message", [
        ('"timestamp": 1, "amount": 1' + "0" * 400,
         "int too large to convert to float"),
        ('"timestamp": 1, "amount": NaN', "amount must be a finite number"),
        ('"timestamp": 1, "amount": -Infinity', "amount must be nonnegative"),
        ('"timestamp": 100000000000000000000000, "amount": 1',
         "timestamp must fit in a signed 64-bit integer"),
        ('"timestamp": 9223372036854775808, "amount": NaN,'
         ' "risk_seed": "bad"', "unknown risk_seed 'bad'"),
    ])
    def test_values_past_the_columns_line_numbered(
            self, tmp_path, fields, message):
        path = tmp_path / "edge.ndjson"
        path.write_text('{"id":"a","timestamp":1,"amount":2}\n'
                        '{"id": "b", ' + fields + '}\n')
        with pytest.raises(ValueError, match=f"^line 2: {message}$"):
            load_transactions(path)

    def test_first_bad_line_in_file_order(self, tmp_path):
        # a column check on line 2 comes before a decode error on line 5
        path = tmp_path / "mixed.ndjson"
        path.write_text(
            '{"id":"a","timestamp":1,"amount":2}\n'
            '{"id":"b","timestamp":1,"amount":2,"risk_seed":"bad"}\n'
            '{"id":"c","timestamp":1,"amount":"3"}\n\n'
            '{"id":"d",\n')
        for chunk in (1, 2, 1024):
            with mock.patch.object(model, "_CHUNK_LINES", chunk):
                with pytest.raises(
                        ValueError, match="^line 2: unknown risk_seed 'bad'$"):
                    load_transactions(path)


    def test_joined_decode_cannot_hide_a_split_line(self, tmp_path):
        # joined, the first two lines are one value and the third two, so
        # the array holds one dict per line; the load still names line 2
        path = tmp_path / "split.ndjson"
        path.write_text(
            '{"id":"a","timestamp":1,"amount":2}\n'
            '{"a": [[{"b": 1}\n'
            '{"c": 2}]]}\n'
            '{"x": 1}, {"y": 2}\n')
        lines = path.read_text().splitlines()
        assert len(json.loads("[" + ",".join(lines) + "]")) == len(lines)
        with pytest.raises(ValueError) as exc:
            json.loads(lines[1])
        with pytest.raises(
                ValueError, match=f"^line 2: {re.escape(str(exc.value))}$"):
            load_transactions(path)

    def test_clean_chunks_take_one_decode(self, tmp_path):
        records = [TransactionRecord(
            id=f"r{i}", timestamp=i + 1, amount=1.5, features={"f": i})
            for i in range(600)]
        path = tmp_path / "clean.ndjson"
        save_transactions(str(path), records)
        with mock.patch.object(json, "loads", wraps=json.loads) as loads:
            batch = load_transactions(path)
        # one joined decode per 256-line chunk, none line by line
        assert model._CHUNK_LINES == 256
        assert loads.call_count == 3
        assert list(batch) == records


def _session_reference(obj):
    """A decoded session value as a ClickSession, the way one line at a time
    reads it: a dict holds its events under "events", and an event is a
    [page, dwell] pair or a {"page_type", "dwell_ms"} dict."""
    if obj is None:
        return None
    events = obj.get("events") if isinstance(obj, dict) else obj
    if events is None:
        raise ValueError("session object lacks events")
    return ClickSession(tuple(
        (ev["page_type"], ev["dwell_ms"]) if isinstance(ev, dict)
        else tuple(ev) for ev in events))


def load_reference(path):
    """The records of a transactions file built one line at a time through
    the TransactionRecord constructor, or the ValueError of its first bad
    line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                records.append(TransactionRecord(
                    id=str(obj["id"]), timestamp=int(obj["timestamp"]),
                    amount=float(obj["amount"]),
                    risk_seed=obj.get("risk_seed", "unknown"),
                    features=dict(obj.get("features", {})),
                    session=_session_reference(obj.get("session"))))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return records


_PAGES = st.sampled_from(
    ["view", "search", "cart", "checkout", "account", "other", "promo", ""])
_DWELLS = st.one_of(st.integers(0, 10**6), st.integers(0, 2**63 - 1),
                    st.floats(0, 1e6), st.sampled_from([True, "17", 1e18]))
_EVENT = st.one_of(
    st.tuples(_PAGES, _DWELLS).map(list),
    st.builds(lambda p, d: {"page_type": p, "dwell_ms": d}, _PAGES, _DWELLS))
_SESSION = st.one_of(
    st.none(), st.lists(_EVENT, min_size=1, max_size=5),
    st.lists(_EVENT, min_size=1, max_size=5).map(lambda e: {"events": e}))
_FEATURE = st.one_of(st.floats(-1e6, 1e6), st.integers(-2**53, 2**53),
                     st.booleans())
# valid but unusual rows: int amounts, bool and int features, string
# timestamps and amounts, dict-form events, float dwells, unknown pages,
# rows without sessions and non-uniform feature keys
_VALID_ROW = st.fixed_dictionaries(
    {"id": st.one_of(st.text(max_size=4), st.integers(0, 99)),
     "timestamp": st.one_of(st.integers(1, 2**63 - 1),
                            st.integers(1, 10**12).map(str)),
     "amount": st.one_of(st.integers(0, 10**6), st.floats(0, 1e9),
                         st.sampled_from(["12.5", True]))},
    optional={
        "risk_seed": st.sampled_from(model.RISK_SEEDS),
        "features": st.dictionaries(
            st.sampled_from(["f0", "f1", "f2", "z"]), _FEATURE, max_size=4),
        "session": _SESSION,
    })
# faults of every check the columns and the constructor make
_BAD_ROWS = [
    {"id": "x", "timestamp": 0, "amount": 1},
    {"id": "x", "timestamp": -5, "amount": 1},
    {"id": "x", "timestamp": 2**63, "amount": 1},
    {"id": "x", "timestamp": 1, "amount": -1},
    {"id": "x", "timestamp": 1, "amount": float("nan")},
    {"id": "x", "timestamp": 1, "amount": float("inf")},
    {"id": "x", "timestamp": 1, "amount": 10**400},
    {"id": "x", "timestamp": 1, "amount": 1, "risk_seed": "bad"},
    {"id": "x", "timestamp": 1, "amount": 1, "risk_seed": 3},
    {"id": "x", "timestamp": 1, "amount": 1, "features": {"f": "1"}},
    {"id": "x", "timestamp": 1, "amount": 1, "features": {"f": float("nan")}},
    {"id": "x", "timestamp": 1, "amount": 1, "features": {"f": 10**400}},
    {"id": "x", "timestamp": 1, "amount": 1, "features": None},
    {"id": "x", "timestamp": 1, "amount": 1, "session": []},
    {"id": "x", "timestamp": 1, "amount": 1, "session": {"events": []}},
    {"id": "x", "timestamp": 1, "amount": 1, "session": {"events": None}},
    {"id": "x", "timestamp": 1, "amount": 1, "session": [["view", -1]]},
    {"id": "x", "timestamp": 1, "amount": 1, "session": [["view", 2**63]]},
    {"id": "x", "timestamp": 1, "amount": 1, "session": [["view", 1e30]]},
    {"id": "x", "timestamp": 1, "amount": 1, "session": [["view", 10**400]]},
    {"id": "x", "timestamp": 1, "amount": 1, "session": [["view"]]},
    {"id": "x", "timestamp": 1, "amount": 1, "session": [["view", "x"]]},
    {"id": "x", "timestamp": 1, "amount": 1, "session": 5},
    {"id": "x", "amount": 1},
    {"timestamp": 1, "amount": 1},
    {"id": "x", "timestamp": "soon", "amount": 1},
]
_BAD_ROW = st.sampled_from(_BAD_ROWS)
_BAD_LINES = ["{", "[1, 2]", "7", "null", '{"id": 1} 2']
_BAD_LINE = st.sampled_from(_BAD_LINES)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTransactionBatch:
    def test_views_index_like_a_list(self, tmp_path):
        recs = [TransactionRecord(
            id=f"r{i}", timestamp=i + 1, amount=float(i),
            features={"f0": i * 0.5},
            session=ClickSession((("view", i),)) if i % 2 else None)
            for i in range(5)]
        batch = TransactionBatch.of(recs)
        assert len(batch) == 5 and TransactionBatch.of(batch) is batch
        assert batch[-1] == recs[-1] and batch[1] == recs[1]
        assert list(batch[1:4]) == recs[1:4]
        assert list(batch.take([3, 0, 3])) == [recs[3], recs[0], recs[3]]
        assert list(batch) == recs
        with pytest.raises(IndexError):
            batch[5]

    def test_own_keys_per_row_take_memory_per_cell(self, tmp_path):
        # a rows x distinct-keys matrix of this stream would be 72 MB
        path = tmp_path / "sparse.ndjson"
        _write_lines(path, [json.dumps(
            {"id": f"r{i}", "timestamp": i + 1, "amount": 1,
             "features": {f"k{i:04d}": i}}) for i in range(3000)])
        tracemalloc.start()
        try:
            batch = load_transactions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert batch[2999].features == {"k2999": 2999.0}
        assert len(batch.feature_names) == 3000

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(rows=st.lists(_VALID_ROW, max_size=12),
           chunk=st.sampled_from([1, 2, 5, 1024]))
    def test_valid_rows_load_as_the_constructor_builds_them(
            self, tmp_path_factory, rows, chunk):
        path = tmp_path_factory.getbasetemp() / "valid.ndjson"
        _write_lines(path, [json.dumps(row) for row in rows])
        with mock.patch.object(model, "_CHUNK_LINES", chunk):
            batch = load_transactions(path)
        assert list(batch) == load_reference(path)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(dwells=st.lists(st.one_of(st.integers(0, 2**64), st.just(10**400)),
                           min_size=1, max_size=6),
           chunk=st.sampled_from([1, 2, 1024]))
    def test_dwells_load_as_int64_or_name_the_line(
            self, tmp_path_factory, dwells, chunk):
        path = tmp_path_factory.getbasetemp() / "dwells.ndjson"
        _write_lines(path, [json.dumps(
            {"id": "x", "timestamp": 1, "amount": 1, "session": [["view", d]]})
            for d in dwells])
        big = [lineno for lineno, d in enumerate(dwells, 1) if d >= 2**63]
        with mock.patch.object(model, "_CHUNK_LINES", chunk):
            if big:
                with pytest.raises(ValueError, match=(
                        f"^line {big[0]}: dwell_ms must fit in a signed"
                        " 64-bit integer$")):
                    load_transactions(path)
            else:
                assert load_transactions(path).dwells.dtype == np.int64

    @pytest.mark.parametrize(
        "line", [json.dumps(row) for row in _BAD_ROWS] + _BAD_LINES)
    def test_each_fault_raises_the_constructor_error(self, tmp_path, line):
        path = tmp_path / "fault.ndjson"
        _write_lines(path, ['{"id": "a", "timestamp": 1, "amount": 1}', line])
        with pytest.raises(ValueError, match="^line 2: ") as want:
            load_reference(path)
        with pytest.raises(ValueError) as got:
            load_transactions(path)
        assert str(got.value) == str(want.value)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(lines=st.lists(st.one_of(
               _VALID_ROW.map(json.dumps), _VALID_ROW.map(json.dumps),
               _BAD_ROW.map(json.dumps), _BAD_LINE, st.just("")),
               max_size=10),
           chunk=st.sampled_from([1, 2, 5, 1024]))
    def test_faults_raise_the_constructor_error_of_the_first_bad_line(
            self, tmp_path_factory, lines, chunk):
        path = tmp_path_factory.getbasetemp() / "mixed.ndjson"
        _write_lines(path, lines)
        try:
            want = load_reference(path)
        except ValueError as exc:
            want = str(exc)
        with mock.patch.object(model, "_CHUNK_LINES", chunk):
            try:
                got = list(load_transactions(path))
            except ValueError as exc:
                got = str(exc)
        assert got == want
