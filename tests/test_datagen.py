import numpy as np
import pytest

from riskcluster.datagen import SHAPES, SyntheticSpec, fraud_stream, generate

from manifest import benchmark_manifest, spec_from_manifest


class TestSyntheticSpec:
    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError, match="shape"):
            SyntheticSpec(shape="spiral", n=10)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must"):
            SyntheticSpec(shape="blobs", n=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise"):
            SyntheticSpec(shape="moons", n=10, noise=-0.1)

    @pytest.mark.parametrize("shape", ("moons", "circles", "anisotropic"))
    def test_curve_shapes_require_2d(self, shape):
        with pytest.raises(ValueError, match="2-d"):
            SyntheticSpec(shape=shape, n=10, dim=3)


class TestGenerate:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_shapes_and_dtypes(self, shape):
        pts, y = generate(SyntheticSpec(shape=shape, n=57, seed=1))
        assert pts.n == 57
        assert pts.dim == 2
        assert pts.data.dtype == np.float32
        assert y.shape == (57,)
        assert y.dtype == np.int64

    def test_determinism(self):
        for shape in SHAPES:
            a, ya = generate(SyntheticSpec(shape=shape, n=64, seed=9))
            b, yb = generate(SyntheticSpec(shape=shape, n=64, seed=9))
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(ya, yb)

    def test_seed_changes_output(self):
        a, _ = generate(SyntheticSpec(shape="blobs", n=64, seed=1))
        b, _ = generate(SyntheticSpec(shape="blobs", n=64, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_blobs_dim_and_label_counts(self):
        pts, y = generate(
            SyntheticSpec(shape="blobs", n=100, seed=3, dim=7, centers=4))
        assert pts.dim == 7
        assert np.bincount(y).tolist() == [25, 25, 25, 25]

    def test_blobs_remainder_goes_to_first_centers(self):
        _, y = generate(
            SyntheticSpec(shape="blobs", n=10, seed=3, centers=3))
        assert np.bincount(y).tolist() == [4, 3, 3]

    def test_moons_two_balanced_halves(self):
        _, y = generate(SyntheticSpec(shape="moons", n=101, seed=0))
        assert np.bincount(y).tolist() == [50, 51]

    def test_circles_factor_controls_inner_radius(self):
        pts, y = generate(
            SyntheticSpec(shape="circles", n=80, seed=0, noise=0.0,
                          factor=0.25))
        r = np.linalg.norm(np.asarray(pts.data, dtype=np.float64), axis=1)
        assert np.allclose(r[y == 0], 1.0, atol=1e-6)
        assert np.allclose(r[y == 1], 0.25, atol=1e-6)

    def test_zero_noise_curves_are_exact(self):
        a, _ = generate(SyntheticSpec(shape="moons", n=40, seed=1, noise=0.0))
        b, _ = generate(SyntheticSpec(shape="moons", n=40, seed=2, noise=0.0))
        assert np.array_equal(a.data, b.data)  # no rng draw at noise 0

    def test_anisotropic_is_sheared_blobs(self):
        iso, _ = generate(
            SyntheticSpec(shape="blobs", n=60, seed=5, centers=3))
        aniso, _ = generate(
            SyntheticSpec(shape="anisotropic", n=60, seed=5, centers=3))
        shear = np.array([[0.6, -0.6], [-0.4, 0.8]], dtype=np.float64)
        want = np.asarray(iso.data, dtype=np.float64) @ shear
        assert np.allclose(np.asarray(aniso.data, np.float64), want,
                           atol=1e-5)

    def test_varied_variance_spreads(self):
        pts, y = generate(SyntheticSpec(
            shape="varied_variance", n=900, seed=6, center_box=(0.0, 0.0)))
        data = np.asarray(pts.data, dtype=np.float64)
        spreads = [data[y == c].std() for c in range(3)]
        # per-center stds (1.0, 2.5, 0.5) should be recovered roughly
        assert spreads[1] > spreads[0] > spreads[2]

    def test_uniform_noise_within_box(self):
        pts, y = generate(SyntheticSpec(
            shape="uniform_noise", n=200, seed=7, dim=3,
            center_box=(-2.0, 2.0)))
        assert pts.dim == 3
        assert float(np.abs(pts.data).max()) <= 2.0
        assert set(y.tolist()) == {0}


class TestBenchmarkManifest:
    def test_statistics_mirror_target_suite(self):
        manifest = benchmark_manifest()
        assert len(manifest) == 22
        sizes = sorted(e["spec"]["n"] for e in manifest)
        dims = sorted(e["spec"].get("dim", 2) for e in manifest)
        classes = sorted(e["classes"] for e in manifest)
        assert (sizes[0], sizes[-1]) == (101, 20000)
        assert (sizes[10] + sizes[11]) / 2 == 343
        assert (dims[0], dims[-1]) == (2, 262)
        assert (dims[10] + dims[11]) / 2 == 10
        assert (classes[0], classes[-1]) == (2, 116)
        assert (classes[10] + classes[11]) / 2 == 3

    def test_entries_generate(self):
        manifest = benchmark_manifest()
        names = set()
        for entry in manifest[:8]:
            names.add(entry["name"])
            pts, y = generate(spec_from_manifest(entry))
            assert pts.n == entry["spec"]["n"]
            assert len(np.unique(y)) == entry["classes"]
            assert entry["min_cluster_size"] >= 5
            assert entry["min_samples"] in (5, 10)
        assert len(names) == 8

    def test_param_rules(self):
        for entry in benchmark_manifest():
            n = entry["spec"]["n"]
            assert entry["min_cluster_size"] == max(
                5, n // (entry["classes"] * 12))
            assert entry["min_samples"] == (10 if n >= 300 else 5)


class TestFraudStream:
    def test_counts_and_structure(self):
        records, truth = fraud_stream(seed=5)
        # 3 snapshots x (3*400 legit-blob + 150 planted)
        assert len(records) == 3 * (3 * 400 + 150)
        assert len(truth["planted_ids"]) == 3 * 150
        assert truth["planted_blob"] == 3
        assert len(truth["snapshots"]) == 3

    def test_exact_fraud_rates(self):
        records, truth = fraud_stream(seed=5)
        ms = truth["snapshot_ms"]
        snaps = truth["snapshots"]
        by_snap = {s: [] for s in snaps}
        for rec in records:
            by_snap[rec.timestamp // ms].append(rec)
        for i, s in enumerate(snaps):
            planted = [r for r in by_snap[s] if r.id in truth["planted_ids"]]
            fraud = sum(r.risk_seed == "confirmed_fraud" for r in planted)
            assert len(planted) == 150
            want = 128 if i == len(snaps) - 1 else 120
            assert fraud == want
            background = [
                r for r in by_snap[s] if r.id not in truth["planted_ids"]]
            bg_fraud = sum(
                r.risk_seed == "confirmed_fraud" for r in background)
            assert bg_fraud == 3 * 4

    def test_snapshot_alignment(self):
        records, truth = fraud_stream(seed=1)
        ms = truth["snapshot_ms"]
        got = sorted({r.timestamp // ms for r in records})
        assert got == truth["snapshots"]

    def test_timestamps_sorted_within_snapshot(self):
        records, truth = fraud_stream(seed=2)
        ms = truth["snapshot_ms"]
        last = {}
        for rec in records:
            snap = rec.timestamp // ms
            if snap in last:
                assert rec.timestamp >= last[snap]
            last[snap] = rec.timestamp

    def test_planted_blob_far_from_legit(self):
        records, truth = fraud_stream(seed=3)
        keys = sorted(records[0].features)
        mat = np.array([[r.features[k] for k in keys] for r in records])
        planted = np.array([r.id in truth["planted_ids"] for r in records])
        d = np.linalg.norm(
            mat[planted].mean(axis=0) - mat[~planted].mean(axis=0))
        assert d > 30.0

    def test_ids_unique_and_formatted(self):
        records, _ = fraud_stream(seed=0)
        ids = [r.id for r in records]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith("t") and len(i) == 7 for i in ids)

    def test_determinism(self):
        a, _ = fraud_stream(seed=4)
        b, _ = fraud_stream(seed=4)
        assert [r.id for r in a] == [r.id for r in b]
        assert [r.timestamp for r in a] == [r.timestamp for r in b]
        assert [r.amount for r in a] == [r.amount for r in b]
        assert a[0].features == b[0].features

    def test_sessions_reflect_blob_mix(self):
        records, truth = fraud_stream(seed=6)
        planted_pages = []
        legit_pages = []
        for rec in records:
            pages = [p for p, _ in rec.session.events]
            if rec.id in truth["planted_ids"]:
                planted_pages.extend(pages)
            else:
                legit_pages.extend(pages)
        planted_rate = planted_pages.count("checkout") / len(planted_pages)
        legit_rate = legit_pages.count("checkout") / len(legit_pages)
        assert planted_rate > 0.4
        assert legit_rate < 0.1
