import numpy as np
import pytest

from riskcluster.model import (
    ClickSession, ClusterAssignment, PointSet, TransactionRecord,
    load_points, load_transactions, save_points, save_transactions)


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

    def test_strengths_bounded(self):
        with pytest.raises(ValueError, match="strengths"):
            ClusterAssignment(
                labels=np.array([0]), strengths=np.array([1.5]))

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
        assert back == recs

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
