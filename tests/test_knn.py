import tracemalloc

import numpy as np
import pytest

from riskcluster import knn
from riskcluster.datagen import SyntheticSpec, generate
from riskcluster.knn import (
    _topk_rows, brute_force_knn, default_nlist, default_nprobe, ivf_build,
    ivf_search, kmeans_fit, sqdist_exact, sqdist_fast)
from riskcluster.model import PointSet
from riskcluster.parallel import run_chunked

from oracle import dense_knn, dense_sqdist


def _points(shape="blobs", n=200, seed=0, dim=2, **kw):
    pts, _ = generate(SyntheticSpec(shape=shape, n=n, seed=seed, dim=dim, **kw))
    return pts


class TestDistanceKernels:
    def test_exact_matches_naive(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = rng.normal(size=(17, 5))
        b = rng.normal(size=(11, 5))
        want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        got = sqdist_exact(a, b)
        assert np.allclose(got, want, rtol=1e-12)

    def test_exact_identical_points_give_exact_zero(self):
        a = np.array([[0.1, 0.2, 0.3]] * 2)
        d = sqdist_exact(a, a)
        assert np.array_equal(d, np.zeros((2, 2)))

    def test_fast_close_to_exact_and_nonnegative(self):
        rng = np.random.Generator(np.random.PCG64(1))
        a = rng.normal(size=(40, 8)) * 100
        d_exact = sqdist_exact(a, a)
        d_fast = sqdist_fast(a, a)
        assert d_fast.min() >= 0.0
        assert np.allclose(d_fast, d_exact, atol=1e-6 * d_exact.max())


class TestTiledExactKernel:
    """sqdist_exact walks row tiles; every value must keep the oracle's bits."""

    TILE = 48

    def _entries(self, rng, rows, dim):
        x = rng.normal(size=(rows, dim)) * 10.0
        special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e200, -1e200])
        mask = rng.random(size=x.shape) < 0.1
        x[mask] = rng.choice(special, size=int(mask.sum()))
        return x

    def _assert_bitwise_oracle(self, a, b):
        with np.errstate(invalid="ignore", over="ignore"):
            got = sqdist_exact(a, b)
            want = dense_sqdist(np.vstack([a, b]))[: a.shape[0], a.shape[0]:]
        assert got.shape == want.shape
        # IEEE 754 leaves the sign and payload of a NaN result open, and
        # numpy's loops for the two layouts may pick either NaN operand, so
        # NaN cells must agree as NaN and every other cell bit for bit
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(
            got.view(np.int64)[~nan], want.view(np.int64)[~nan])

    def test_tile_boundaries_and_special_values(self, monkeypatch):
        # a small tile puts row-tile edges inside every case: n = 5 ends in
        # a partial tile, n = 2*tile+3 leaves one query row per tile
        monkeypatch.setattr(knn, "_TILE_CELLS", self.TILE)
        tile = self.TILE
        rng = np.random.Generator(np.random.PCG64(41))
        for n in (0, 1, 5, tile - 1, tile, tile + 1, 2 * tile + 3):
            for dim in (1, 2, 28):
                for m in (0, 1, 7, 2 * tile + 5):
                    a = self._entries(rng, m, dim)
                    b = self._entries(rng, n, dim)
                    self._assert_bitwise_oracle(a, b)

    def test_module_tile_with_partial_last_tile(self):
        # n = 1000 gives 65 rows per tile, so 140 rows end in a 10-row tile
        rng = np.random.Generator(np.random.PCG64(43))
        for dim in (1, 2, 28):
            self._assert_bitwise_oracle(
                self._entries(rng, 140, dim), self._entries(rng, 1000, dim))

    def test_peak_memory_is_one_tile_above_output(self):
        rng = np.random.Generator(np.random.PCG64(44))
        a = rng.normal(size=(600, 28))
        b = rng.normal(size=(3400, 28))
        tracemalloc.start()
        try:
            out = sqdist_exact(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2 * 1024 * 1024

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            sqdist_exact(np.zeros((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            sqdist_exact(np.ones((3, 3)), np.zeros((2, 2)))


class TestTopkRows:
    def test_matches_per_row_lexsort(self, monkeypatch):
        # small integer values tie heavily; inf entries are capped so every
        # row keeps k finite ones unless k is the full width; a 120-cell
        # tile partitions 3 rows at a time and ends in a partial tile
        width = 40
        for tile in (knn._TILE_CELLS, 120):
            monkeypatch.setattr(knn, "_TILE_CELLS", tile)
            rng = np.random.Generator(np.random.PCG64(21))
            straddled = 0
            for k in (1, width // 2, width - 1, width):
                for trial in range(6):
                    d2 = rng.integers(0, 3 + trial, size=(50, width)).astype(
                        np.float64)
                    for row in d2:
                        n_inf = rng.integers(0, width - k + 1)
                        row[rng.permutation(width)[:n_inf]] = np.inf
                    vals, cols = _topk_rows(d2, k)
                    for r, row in enumerate(d2):
                        order = np.lexsort((np.arange(width), row))
                        want = order[:k]
                        assert cols[r].tolist() == want.tolist()
                        assert np.array_equal(vals[r], row[want])
                        # the k-th value also sits past the cut: the rows
                        # _topk_rows must repair after its partition
                        straddled += row[want[-1]] in row[order[k:]]
            assert straddled > 100

    def test_whole_row_sort_matches_per_row_lexsort(self):
        # width 1500 puts more rows in the block than one partition tile
        # holds; rows tie heavily, all-equal rows, -0.0 against 0.0 and runs
        # of inf and NaN included; k leaves out one column (a full kNN row)
        # or none
        width = 1500
        m = 3 * (knn._TILE_CELLS // width) + 5
        rng = np.random.Generator(np.random.PCG64(23))
        d2 = rng.integers(0, 6, size=(m, width)).astype(np.float64)
        d2[rng.random(d2.shape) < 0.2] = -0.0
        d2[rng.random(d2.shape) < 0.1] = np.inf
        d2[1] = 2.0
        d2[2] = np.inf
        d2[3] = rng.choice([0.0, -0.0], size=width)
        d2[4, ::7] = np.nan
        d2[5] = rng.random(width)
        col = np.arange(width)
        for k in (width - 1, width):
            vals, cols = _topk_rows(d2, k)
            assert vals.shape == cols.shape == (m, k)
            for r, row in enumerate(d2):
                want = np.lexsort((col, row))[:k]
                assert np.array_equal(cols[r], want)
                assert np.array_equal(
                    vals[r].view(np.int64), row[want].view(np.int64))

    def test_peak_memory_is_d2_plus_tiles(self):
        # the partition's index block is one tile, not one as large as d2
        rng = np.random.Generator(np.random.PCG64(45))
        tracemalloc.start()
        try:
            d2 = rng.random((600, 3400))
            _topk_rows(d2, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d2.nbytes + 4 * 1024 * 1024


class TestBruteForce:
    def test_collinear_hand_case(self):
        pts = PointSet(np.array([[0.0], [1.0], [3.0]]))
        g = brute_force_knn(pts, 1)
        assert g.neighbor_ids[:, 0].tolist() == [1, 0, 1]
        assert g.neighbor_dists[:, 0].tolist() == [1.0, 1.0, 2.0]

    def test_full_k_rows_are_permutations(self):
        pts = _points(n=60, seed=3)
        g = brute_force_knn(pts, 59)
        for i in range(60):
            assert sorted(g.neighbor_ids[i].tolist()) == sorted(
                set(range(60)) - {i})

    def test_duplicate_points_mutual_at_zero(self):
        pts = PointSet(np.array([[5.0, 5.0], [5.0, 5.0], [9.0, 9.0]]))
        g = brute_force_knn(pts, 1)
        assert g.neighbor_ids[0, 0] == 1
        assert g.neighbor_ids[1, 0] == 0
        assert g.neighbor_dists[0, 0] == 0.0

    def test_rows_ascending_and_self_free(self):
        for seed in range(5):
            pts = _points(shape="uniform_noise", n=100, seed=seed)
            g = brute_force_knn(pts, 10)
            assert np.all(np.diff(g.neighbor_dists, axis=1) >= 0)
            assert np.all(
                g.neighbor_ids != np.arange(100)[:, None])

    def test_tie_break_by_smaller_index(self):
        # three points equidistant from the query
        pts = PointSet(np.array(
            [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
        g = brute_force_knn(pts, 3)
        assert g.neighbor_ids[0].tolist() == [1, 2, 3]

    def test_k_out_of_range(self):
        pts = _points(n=10)
        with pytest.raises(ValueError):
            brute_force_knn(pts, 10)
        with pytest.raises(ValueError):
            brute_force_knn(pts, 0)

    def test_matches_oracle(self):
        pts = _points(shape="moons", n=150, seed=9)
        g = brute_force_knn(pts, 12)
        ids, dists = dense_knn(pts.data, 12)
        assert np.array_equal(g.neighbor_ids, ids)
        assert np.array_equal(g.neighbor_dists, dists)

    def test_thread_count_does_not_change_result(self):
        pts = _points(shape="varied_variance", n=300, seed=4, dim=6)
        g1 = brute_force_knn(pts, 15, threads=1)
        g4 = brute_force_knn(pts, 15, threads=4)
        assert np.array_equal(g1.neighbor_ids, g4.neighbor_ids)
        assert np.array_equal(g1.neighbor_dists, g4.neighbor_dists)


    @pytest.mark.parametrize("kernel", ["exact", "fast"])
    def test_thread_count_splits_exact_blocks_only(self, monkeypatch, kernel):
        # n = 601 fits one block, so the exact kernel splits it per thread
        # (uneven chunks for 2 and 3 threads); the graphs keep every bit
        chunks = []

        def recording(fn, n, threads, chunk):
            chunks.append(-(-n // chunk))
            return run_chunked(fn, n, threads, chunk)

        monkeypatch.setattr(knn, "run_chunked", recording)
        pts = _points(shape="blobs", n=601, seed=6, dim=5)
        graphs = [brute_force_knn(pts, k, threads=t, kernel=kernel)
                  for k in (9, 600) for t in (1, 2, 3)]
        want = [1, 2, 3] * 2 if kernel == "exact" else [1] * 6
        assert chunks[-6:] == want
        for a, b in ((0, 1), (0, 2), (3, 4), (3, 5)):
            assert np.array_equal(
                graphs[a].neighbor_ids, graphs[b].neighbor_ids)
            assert np.array_equal(graphs[a].neighbor_dists.view(np.int64),
                                  graphs[b].neighbor_dists.view(np.int64))


class TestKMeans:
    def test_fixed_point_zero_inertia(self):
        locs = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = PointSet(locs)
        res = kmeans_fit(pts, 3, max_iter=10, seed=0)
        assert res.inertia == 0.0
        assert sorted(res.assignments.tolist()) == [0, 1, 2]

    def test_two_blob_means(self):
        pts = PointSet(np.array([[0.0], [0.1], [10.0], [10.1]]))
        res = kmeans_fit(pts, 2, max_iter=20, seed=1)
        cents = np.sort(res.centroids.ravel())
        assert np.allclose(cents, [0.05, 10.05], atol=1e-6)

    def test_same_seed_bitwise_identical(self):
        pts = _points(shape="blobs", n=400, seed=5, dim=4)
        a = kmeans_fit(pts, 10, max_iter=15, seed=3)
        b = kmeans_fit(pts, 10, max_iter=15, seed=3)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_inertia_monotone_nonincreasing(self):
        for seed in range(4):
            pts = _points(shape="uniform_noise", n=300, seed=seed, dim=3)
            res = kmeans_fit(pts, 12, max_iter=30, seed=seed)
            hist = np.asarray(res.inertia_history)
            assert np.all(np.diff(hist) <= 1e-9 * max(1.0, hist[0]))

    def test_ncentroids_above_n_rejected(self):
        pts = _points(n=5)
        with pytest.raises(ValueError):
            kmeans_fit(pts, 6, max_iter=5, seed=0)

    def test_more_centroids_than_distinct_points(self):
        # duplicates force empty-cell reseeding to cope
        data = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5)
        pts = PointSet(data)
        res = kmeans_fit(pts, 4, max_iter=10, seed=0)
        assert res.centroids.shape == (4, 2)
        assert np.isfinite(res.inertia)


class TestIvf:
    def test_nlist_one_single_posting(self):
        pts = _points(n=30, seed=2)
        idx = ivf_build(pts, 1, seed=0)
        assert len(idx.postings) == 1
        assert sorted(idx.postings[0].tolist()) == list(range(30))

    def test_postings_partition_points(self):
        pts = _points(shape="uniform_noise", n=500, seed=7, dim=4)
        idx = ivf_build(pts, 13, seed=1)
        seen = np.concatenate([p for p in idx.postings])
        assert sorted(seen.tolist()) == list(range(500))

    def test_separated_blobs_one_blob_per_cell(self):
        rng = np.random.Generator(np.random.PCG64(0))
        blobs = []
        for c in range(4):
            blobs.append(rng.normal(size=(50, 2)) + 100 * c)
        pts = PointSet(np.concatenate(blobs))
        idx = ivf_build(pts, 4, seed=0)
        truth = np.repeat(np.arange(4), 50)
        for posting in idx.postings:
            assert len(set(truth[posting].tolist())) == 1

    def test_full_probe_equals_brute_force(self):
        for shape, n, dim in (("blobs", 300, 4), ("moons", 211, 2),
                              ("uniform_noise", 147, 3)):
            pts = _points(shape=shape, n=n, seed=11, dim=dim)
            nlist = 9
            idx = ivf_build(pts, nlist, seed=2)
            g_ivf = ivf_search(idx, pts, 7, nlist)
            g_bf = brute_force_knn(pts, 7)
            assert np.array_equal(g_ivf.neighbor_ids, g_bf.neighbor_ids)
            assert np.array_equal(g_ivf.neighbor_dists, g_bf.neighbor_dists)

    def test_recall_at_k(self):
        pts = _points(shape="blobs", n=10000, seed=13, dim=10, centers=5)
        idx = ivf_build(pts, 64, seed=0)
        g_ivf = ivf_search(idx, pts, 16, 8)
        g_bf = brute_force_knn(pts, 16)
        hits = 0
        for i in range(pts.n):
            hits += len(set(g_ivf.neighbor_ids[i].tolist())
                        & set(g_bf.neighbor_ids[i].tolist()))
        recall = hits / (pts.n * 16)
        assert recall >= 0.95

    def test_padding_guarantees_k_rows(self):
        # one point very far away: its home cell is nearly empty,
        # padding must extend probing until k neighbors exist
        data = np.concatenate([
            np.random.default_rng(0).normal(size=(64, 2)),
            np.array([[1e4, 1e4]]),
        ])
        pts = PointSet(data)
        idx = ivf_build(pts, 8, seed=0)
        g = ivf_search(idx, pts, 10, 1)
        assert g.neighbor_ids.shape == (65, 10)
        assert np.all(g.neighbor_ids >= 0)
        assert np.all(np.isfinite(g.neighbor_dists))

    def test_thread_count_does_not_change_result(self):
        pts = _points(shape="varied_variance", n=800, seed=17, dim=5)
        idx = ivf_build(pts, 16, seed=4)
        g1 = ivf_search(idx, pts, 9, 4, threads=1)
        g4 = ivf_search(idx, pts, 9, 4, threads=4)
        assert np.array_equal(g1.neighbor_ids, g4.neighbor_ids)
        assert np.array_equal(g1.neighbor_dists, g4.neighbor_dists)

    def test_nlist_above_n_rejected(self):
        pts = _points(n=6)
        with pytest.raises(ValueError):
            ivf_build(pts, 7, seed=0)


class TestDefaults:
    def test_default_nlist_sqrt(self):
        assert default_nlist(10000) == 100
        assert default_nlist(1) == 1

    def test_default_nprobe_fraction_with_floor(self):
        assert default_nprobe(256) == 16
        assert default_nprobe(64) == 4
        assert default_nprobe(8) == 4
