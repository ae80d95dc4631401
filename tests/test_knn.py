import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from riskcluster import knn, pipeline
from riskcluster.datagen import SyntheticSpec, fraud_stream, generate
from riskcluster.knn import (
    _topk_rows, brute_force_knn, default_nlist, default_nprobe, ivf_build,
    ivf_search, kmeans_fit, sqdist_exact, sqdist_fast)
from riskcluster.model import PointSet
from riskcluster.parallel import run_chunked
from riskcluster.pipeline import ExperimentSpec, run_experiment
from riskcluster.predict import assign_new_points

from oracle import (
    assign_nearest_reference, dense_knn, dense_sqdist, ivf_search_reference,
    lloyd_reference, nearest_exact_reference, seed_plus_plus_reference)


def _points(shape="blobs", n=200, seed=0, dim=2, **kw):
    pts, _ = generate(SyntheticSpec(shape=shape, n=n, seed=seed, dim=dim, **kw))
    return pts


@functools.lru_cache(maxsize=None)
def _ivf_blobs_input(seed, j):
    """Input j of the benchmark's ivf_blobs workload at a seed, indexed as
    it indexes them: 12.8k x 16 blobs in 256 cells."""
    pts = _points(shape="blobs", n=12_800, seed=seed * 16 + j, dim=16,
                  centers=64)
    return pts, ivf_build(pts, 256, seed=0, max_iter=10, train_sample=6_400)


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


def _lexsort_topk(d2, k):
    """Per-row np.lexsort((cols, row))[:k] and its values: the top-k oracle."""
    col = np.arange(d2.shape[1])
    cols = np.array(
        [np.lexsort((col, row))[:k] for row in d2], dtype=np.int64)
    cols = cols.reshape(d2.shape[0], k)
    return np.take_along_axis(d2, cols, axis=1), cols


def _assert_same_topk(got, want):
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))


class TestTopkRows:
    def test_matches_per_row_lexsort(self, monkeypatch):
        # small integer values tie heavily; inf entries are capped so every
        # row keeps k non-inf ones unless k is the full width; every third
        # row takes NaN entries, often more than width - k of them, so its
        # k-th value is NaN; a 120-cell tile holds 3 rows and ends in a
        # partial tile
        width = 40
        for tile in (knn._TILE_CELLS, 120):
            monkeypatch.setattr(knn, "_TILE_CELLS", tile)
            rng = np.random.Generator(np.random.PCG64(21))
            straddled = short = 0
            for k in (1, width // 2, width - 1, width):
                for trial in range(6):
                    d2 = rng.integers(0, 3 + trial, size=(50, width)).astype(
                        np.float64)
                    for row in d2:
                        n_inf = rng.integers(0, width - k + 1)
                        row[rng.permutation(width)[:n_inf]] = np.inf
                    for row in d2[::3]:
                        n_nan = rng.integers(1, width)
                        row[rng.permutation(width)[:n_nan]] = np.nan
                    want = _lexsort_topk(d2, k)
                    _assert_same_topk(_topk_rows(d2, k), want)
                    short += np.isnan(want[0][:, -1]).sum()
                    # the k-th value also sits past the cut: a partition
                    # alone could pick either tied column
                    for row, cols in zip(d2, want[1]):
                        straddled += row[cols[-1]] in np.delete(row, cols)
            assert straddled > 100
            assert short > 50

    def test_full_width_rows_match_per_row_lexsort(self):
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
        for k in (width - 1, width):
            vals, cols = _topk_rows(d2, k)
            assert vals.shape == cols.shape == (m, k)
            _assert_same_topk((vals, cols), _lexsort_topk(d2, k))

    def test_peak_memory_is_d2_plus_tiles(self):
        # the partition's copy and candidates are one tile, not a block as
        # large as d2
        rng = np.random.Generator(np.random.PCG64(45))
        tracemalloc.start()
        try:
            d2 = rng.random((600, 3400))
            _topk_rows(d2, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d2.nbytes + 4 * 1024 * 1024


def _full_path(q, b, k, own=None, excluded=None):
    """The unfiltered search: sqdist_exact, excluded entries inf, and each
    row's top k by a per-row lexsort."""
    d2 = sqdist_exact(q, b)
    if excluded is not None:
        d2[excluded] = np.inf
    if own is not None:
        r = np.flatnonzero(own >= 0)
        d2[r, own[r]] = np.inf
    return _lexsort_topk(d2, k)


def _exact_topk(q, b, k, own=None, excluded=None):
    """_exact_topk of q against all of b: a mask makes the rows one block."""
    blocks = None if excluded is None else [(0, q.shape[0], None, excluded)]
    return knn._exact_topk(q, knn._gram_base(b), k, sqdist_exact, own,
                           blocks)


class TestExactTopk:
    """_exact_topk filters by Gram value; results keep the full path's bits."""

    # _GROUPS_PER_K settings: the module's keeps one column per group at
    # n = 300 and k 5 to 7; 1, 3 and 7 give 6 to 60 columns per group, the
    # last group taking a tail column at some of those k (see
    # test_matches_full_path_bitwise)
    GROUPINGS = (None, 1, 3, 7)

    def _bases(self, rng, dim):
        n = 300
        grid = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
        f32 = np.finfo(np.float32)
        # duplicates and exact ties at the k-th value
        yield grid, 7
        # large offsets with unit spread, continuous and tied
        yield 1e8 + rng.normal(size=(n, dim)), 5
        yield 1e8 + grid, 5
        # float32 extremes, near its max and down to its subnormals
        yield rng.uniform(-1.0, 1.0, size=(n, dim)) * float(f32.max), 6
        yield rng.uniform(-1.0, 1.0, size=(n, dim)) * float(f32.tiny), 6
        yield rng.integers(-40, 40, size=(n, dim)) * float(
            f32.smallest_subnormal), 6
        # squares that underflow float64
        yield rng.normal(size=(n, dim)) * 1e-160, 6

    def _cases(self):
        """(queries, base, k, own, excluded): queries apart from the base,
        queries taken from it with self excluded, and IVF-masked blocks."""
        rng = np.random.Generator(np.random.PCG64(47))
        for dim in (1, 2, 16, 28):
            for base, k in self._bases(rng, dim):
                n = base.shape[0]
                pick = rng.permutation(n)[:70]
                queries = base[pick] + rng.integers(-1, 2, size=(70, dim)) * (
                    base.std() / 4)
                yield queries, base, k, None, None
                rows = np.sort(pick)
                yield base[rows], base, k, rows, None
                cells = rng.integers(0, 6, size=n)
                cell_mask = rng.random((70, 6)) < 0.4
                cell_mask[np.arange(70), cells[rows]] = True
                yield base[rows], base, k, rows, ~cell_mask[:, cells]

    def _assert_full_path_bits(self, case):
        _assert_same_topk(_exact_topk(*case), _full_path(*case))

    @pytest.mark.parametrize("groups_per_k", GROUPINGS)
    def test_matches_full_path_bitwise(self, monkeypatch, groups_per_k):
        cases = list(self._cases())
        assert len(cases) == 4 * 7 * 3
        if groups_per_k is not None:
            monkeypatch.setattr(knn, "_GROUPS_PER_K", groups_per_k)
            # b columns per group, and a tail when b does not divide 300
            members = [300 // (groups_per_k * k) for _, _, k, _, _ in cases]
            assert min(members) >= 2
            assert any(300 % b for b in members)
        for case in cases:
            self._assert_full_path_bits(case)

    def test_shared_operands_on_a_column_subset(self):
        # an IVF block searches candidate columns of operands built once,
        # centred on the whole set's mean rather than the block's own; the
        # bound holds for any shared centre, so the bits stay the full path's
        for q, b, k, own, excluded in list(self._cases())[::2]:
            whole = np.vstack([b[:40] * 2.0, b, -b[:7]])
            cols = np.arange(40, 40 + b.shape[0])
            vals, ids = knn._exact_topk(
                q, knn._gram_base(whole), k, sqdist_exact, own,
                [(0, q.shape[0], cols, excluded)])
            _assert_same_topk((vals, ids - 40),
                              _full_path(q, b, k, own, excluded))

    @pytest.mark.parametrize("groups_per_k", GROUPINGS)
    @pytest.mark.parametrize("batch_cells", [None, 1, 2000])
    def test_blocks_match_their_full_paths(self, monkeypatch, batch_cells,
                                           groups_per_k):
        # an IVF group: consecutive blocks of rows, each on its own
        # ascending column subset with its own mask and self columns, one
        # of them too narrow for the filter; batches of one block, of
        # several, and of the whole group, whose blocks may differ in
        # their columns per group
        if batch_cells is not None:
            monkeypatch.setattr(knn, "_BATCH_CELLS", batch_cells)
        if groups_per_k is not None:
            monkeypatch.setattr(knn, "_GROUPS_PER_K", groups_per_k)
        rng = np.random.Generator(np.random.PCG64(49))
        k = 6
        for q, b, _, own, _ in list(self._cases())[1::3]:
            n = b.shape[0]
            base = knn._gram_base(b)
            blocks, selfs, want = [], [], []
            sizes = (9, 1, 23, 4, 33)
            starts = np.cumsum((0,) + sizes)
            for i, (start, stop) in enumerate(zip(starts[:-1], starts[1:])):
                width = k + 1 if i == 3 else rng.integers(k + 2, n)
                cols = np.sort(np.union1d(
                    rng.permutation(n)[:width], own[start:stop]))
                if i == 3:
                    cols = cols[:k + 1]
                excluded = rng.random((stop - start, cols.size)) < 0.3
                excluded[:, : k + 2] = False
                mine = np.searchsorted(cols, own[start:stop])
                mine = np.where(cols[np.minimum(mine, cols.size - 1)]
                                == own[start:stop], mine, -1)
                blocks.append((start, stop, cols, excluded))
                selfs.append(mine)
                v, c = _full_path(q[start:stop], b[cols], k, mine, excluded)
                want.append((v, cols[c]))
            got = knn._exact_topk(q, base, k, sqdist_exact,
                                  np.concatenate(selfs), blocks)
            _assert_same_topk(got, tuple(np.concatenate(w) for w in
                                         zip(*want)))

    def test_small_tiles_and_flushes(self, monkeypatch):
        # a 97-cell tile makes one-row blocks of 300 columns, three to each
        # 1000-cell batch and one in the last, and survivors are refined
        # every few batches
        monkeypatch.setattr(knn, "_TILE_CELLS", 97)
        monkeypatch.setattr(knn, "_BATCH_CELLS", 1000)
        for case in list(self._cases())[::5]:
            self._assert_full_path_bits(case)

    @pytest.mark.parametrize("groups_per_k", GROUPINGS)
    def test_zero_slack_loses_columns(self, monkeypatch, groups_per_k):
        # without the slack the filter drops tied and rounded columns, so
        # the cases above must catch a bound that is too tight, with
        # groups too, though their minima can only loosen the threshold
        monkeypatch.setattr(
            knn, "_gram_slack", lambda qq, bb_max, dim: np.zeros_like(qq))
        if groups_per_k is not None:
            monkeypatch.setattr(knn, "_GROUPS_PER_K", groups_per_k)
        differ = 0
        for case in self._cases():
            differ += not np.array_equal(_exact_topk(*case)[1],
                                         _full_path(*case)[1])
        assert differ > 0

    def test_uncovered_rows_take_the_full_path(self):
        rng = np.random.Generator(np.random.PCG64(48))
        base = rng.normal(size=(200, 4))
        queries = rng.normal(size=(50, 4))
        queries[3, 1] = 1e200
        queries[7, 0] = np.inf
        # a finite norm past _HUGE, where a Gram sum could overflow
        queries[11, 2] = 1e154
        kernel_rows = []

        def kernel(q, b):
            kernel_rows.append(q.shape[0])
            return sqdist_exact(q, b)

        with np.errstate(over="ignore", invalid="ignore"):
            got = knn._exact_topk(queries, knn._gram_base(base), 5, kernel)
            want = _full_path(queries, base, 5)
            assert sum(kernel_rows) == 3
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(
                got[0].view(np.int64), want[0].view(np.int64))
            # a base row that breaks the bound sends every row; so does
            # k + 1 reaching the width
            kernel_rows.clear()
            base[10] = 1e160
            got = knn._exact_topk(
                queries[:3], knn._gram_base(base), 5, kernel)
            assert kernel_rows == [3]
            assert np.array_equal(
                got[1], _full_path(queries[:3], base, 5)[1])
            kernel_rows.clear()
            knn._exact_topk(queries[:3], knn._gram_base(base[:6]), 5, kernel)
            assert kernel_rows == [3]

    def test_rows_in_fewer_than_k_groups_keep_the_filter(self, monkeypatch):
        # 300 columns at k 5 in 10 groups of 30 (columns j, j + 10, ...):
        # row 0 may take only groups 0 and 1, 60 columns, so its k-th group
        # minimum is inf and it takes its own k-th value instead; row 1 may
        # take 4 columns in all, fewer than k, and only it goes to the
        # full path
        monkeypatch.setattr(knn, "_GROUPS_PER_K", 2)
        rng = np.random.Generator(np.random.PCG64(50))
        base = rng.normal(size=(300, 3))
        queries = rng.normal(size=(6, 3))
        excluded = np.zeros((6, 300), dtype=bool)
        excluded[0] = np.arange(300) % 10 >= 2
        excluded[1, 4:] = True
        kernel_rows = []

        def kernel(q, b):
            kernel_rows.append(q.shape[0])
            return sqdist_exact(q, b)

        got = knn._exact_topk(queries, knn._gram_base(base), 5, kernel,
                              None, [(0, 6, None, excluded)])
        assert kernel_rows == [1]
        _assert_same_topk(got, _full_path(queries, base, 5, None, excluded))
        assert (got[1][0] % 10 < 2).all()

    @staticmethod
    def _hint_cases():
        """(queries, centroids, k): centroid sets as a probe order searches
        them, with queries near some of the centroids."""
        rng = np.random.Generator(np.random.PCG64(51))
        cents = rng.normal(size=(256, 16)) * 10
        queries = cents[rng.integers(0, 256, 90)] + rng.normal(size=(90, 16))
        yield queries, cents, 3
        # integer grids: every Gram sum is exact, and distances tie
        grid = rng.integers(0, 4, size=(200, 3)).astype(np.float64)
        yield rng.integers(0, 4, size=(90, 3)).astype(np.float64), grid, 5
        # every centroid twice: exact ties at the k-th value
        twice = np.repeat(rng.normal(size=(60, 5)) * 10, 2, axis=0)
        yield twice[::3] + rng.normal(size=(40, 5)), twice, 4
        # 3e6 from the origin, each query 1 from one centroid and
        # sqrt(1 + 1e-7) from another, which the Gram values cannot order
        side = np.where(np.arange(40) % 2 == 0, 3e6, -3e6)
        x = np.column_stack([side, 10.0 * np.arange(40)])
        near = np.vstack([x + [1.0, 0.0], x - [np.sqrt(1 + 1e-7), 0.0]])
        yield x, near[rng.permutation(80)], 2

    @staticmethod
    def _gram_topk(q, b, k):
        """Each row's k columns of smallest Gram value, the tightest hint:
        its largest Gram value is the row's k-th."""
        base = knn._gram_base(b)
        f = knn._gram_rows(q, base.mean) @ base.aug
        return np.argsort(f, axis=1, kind="stable")[:, :k]

    def _hints(self, q, b, k, rng):
        """Each row's true top k, its Gram top k, k random distinct
        columns, and its k farthest columns."""
        d2 = sqdist_exact(q, b)
        yield _full_path(q, b, k)[1]
        yield self._gram_topk(q, b, k)
        yield np.argsort(rng.random(d2.shape), axis=1)[:, :k]
        yield np.argsort(-d2, axis=1, kind="stable")[:, :k]

    @pytest.mark.parametrize("groups_per_k", (None, 1))
    def test_hinted_threshold_matches_partition_bitwise(self, monkeypatch,
                                                        groups_per_k):
        # any k distinct columns per row bound its k-th Gram value, so the
        # survivors still hold its top k and the bits stay the partition
        # path's and the full path's; groups, where a block has them, still
        # select the survivors
        if groups_per_k is not None:
            monkeypatch.setattr(knn, "_GROUPS_PER_K", groups_per_k)
        rng = np.random.Generator(np.random.PCG64(52))
        hinted = 0
        for q, b, k in self._hint_cases():
            base = knn._gram_base(b)
            plain = knn._exact_topk(q, base, k, sqdist_exact)
            _assert_same_topk(plain, _full_path(q, b, k))
            for hint in self._hints(q, b, k, rng):
                _assert_same_topk(
                    knn._exact_topk(q, base, k, sqdist_exact, hint=hint),
                    plain)
                hinted += 1
        assert hinted == 4 * 4

    def test_hint_with_zero_slack_loses_columns(self, monkeypatch):
        # the Gram top k puts each threshold at the row's k-th Gram value,
        # so without the slack the tied and near-tied cases above lose
        # columns: the bitwise test can catch a bound too tight
        monkeypatch.setattr(
            knn, "_gram_slack", lambda qq, bb_max, dim: np.zeros_like(qq))
        differ = 0
        for q, b, k in self._hint_cases():
            hint = self._gram_topk(q, b, k)
            got = knn._exact_topk(q, knn._gram_base(b), k, sqdist_exact,
                                  hint=hint)
            differ += not np.array_equal(got[1], _full_path(q, b, k)[1])
        assert differ > 0

    def test_hinted_rows_keep_the_full_path_and_own_columns(self):
        # rows past _HUGE take the full path with a hint too; a row whose
        # hint holds its own column, which it may not take, takes its own
        # k-th value instead
        rng = np.random.Generator(np.random.PCG64(53))
        base = rng.normal(size=(200, 4))
        queries = base[:50].copy()
        queries[3, 1] = 1e200
        queries[11, 2] = 1e154
        own = np.arange(50)
        hint = np.argsort(rng.random((50, 200)), axis=1)[:, :5]
        hint[:25, 0] = own[:25]
        kernel_rows = []

        def kernel(q, b):
            kernel_rows.append(q.shape[0])
            return sqdist_exact(q, b)

        with np.errstate(over="ignore", invalid="ignore"):
            got = knn._exact_topk(queries, knn._gram_base(base), 5, kernel,
                                  own, hint=hint)
            want = _full_path(queries, base, 5, own)
        assert sum(kernel_rows) == 2
        _assert_same_topk(got, want)

    def test_brute_force_holds_no_block(self):
        # one 3400 x 3400 float64 block is 92 MB, and one of the 1176-row
        # chunks the unfiltered fit used 32 MB
        rng = np.random.Generator(np.random.PCG64(46))
        pts = PointSet(rng.normal(size=(3400, 28)))
        tracemalloc.start()
        try:
            brute_force_knn(pts, 10, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024


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


    def test_thread_counts_keep_bits_on_ties(self):
        # a tied integer grid away from the origin (exact in float32), where
        # the Gram filter keeps extra columns
        rng = np.random.Generator(np.random.PCG64(49))
        pts = PointSet(1e4 + rng.integers(0, 4, size=(500, 3)))
        graphs = [brute_force_knn(pts, 8, threads=t) for t in (1, 2, 3)]
        ids, dists = dense_knn(pts.data, 8)
        for g in graphs:
            assert np.array_equal(g.neighbor_ids, ids)
            assert np.array_equal(
                g.neighbor_dists.view(np.int64), dists.view(np.int64))

    def test_thread_count_splits_blocks(self, monkeypatch):
        # n = 601 fits one block, so the search splits it per thread
        # (uneven chunks for 2 and 3 threads); the graphs keep every bit
        chunks = []

        def recording(fn, n, threads, chunk):
            chunks.append(-(-n // chunk))
            return run_chunked(fn, n, threads, chunk)

        monkeypatch.setattr(knn, "run_chunked", recording)
        pts = _points(shape="blobs", n=601, seed=6, dim=5)
        graphs = [brute_force_knn(pts, k, threads=t)
                  for k in (9, 600) for t in (1, 2, 3)]
        assert chunks[-6:] == [1, 2, 3] * 2
        for a, b in ((0, 1), (0, 2), (3, 4), (3, 5)):
            assert np.array_equal(
                graphs[a].neighbor_ids, graphs[b].neighbor_ids)
            assert np.array_equal(graphs[a].neighbor_dists.view(np.int64),
                                  graphs[b].neighbor_dists.view(np.int64))

    def test_block_cap_binds_full_rows_only(self, monkeypatch):
        # under a 250-row block cap, filtered rows still split one chunk per
        # thread; full rows (k = n - 1) hold a rows x n block and stay capped
        monkeypatch.setattr(knn, "_BLOCK_CELLS", 601 * 250)
        chunks = []

        def recording(fn, n, threads, chunk):
            chunks.append(-(-n // chunk))
            return run_chunked(fn, n, threads, chunk)

        monkeypatch.setattr(knn, "run_chunked", recording)
        pts = _points(shape="blobs", n=601, seed=6, dim=5)
        for k in (9, 600):
            for t in (1, 2, 3):
                brute_force_knn(pts, k, threads=t)
        assert chunks == [1, 2, 3, 3, 3, 3]

    FRAUD_DIGESTS = {
        1: "d49f51bd9b93567e84ad3bc7a0f4daae2713a9827130a9e5543bfcc8c77602b6",
        1009:
        "29c8c36e2a95ce0b2cb0b714c129d3afe62e5f4bd1b6c8b1ab3e5a1b4b09eca0",
    }

    @pytest.mark.parametrize("seed", sorted(FRAUD_DIGESTS))
    def test_fraud_inductive_exact_search_digest(self, seed, monkeypatch):
        # the benchmark's fraud_inductive exact searches, pinned so that
        # later search changes keep the bits: the brute-force kNN graph (k
        # 10) of the train window's 3400 x 28 hybrid features, and
        # assign_new_points (k_assign 5) of the test window's 1700 rows
        # against the train window's clustering
        records, truth = fraud_stream(
            seed=seed, legit_blobs=8, legit_per_blob=200,
            planted_per_snapshot=100, n_snapshots=3)
        snaps = truth["snapshots"]
        spec = ExperimentSpec(
            mode="inductive", train_snapshots=tuple(snaps[:-1]),
            test_snapshot=snaps[-1],
            clustering={"min_cluster_size": 50, "min_samples": 10})
        seen = {}

        def assign(model, queries, threads=None):
            seen["model"], seen["queries"] = model, queries
            return assign_new_points(model, queries, threads)

        monkeypatch.setattr(pipeline, "assign_new_points", assign)
        run_experiment(spec, records)
        model = seen["model"]
        assert model.train_points.data.shape == (3400, 28)
        assert model.k_assign == 5
        h = hashlib.sha256()
        g = brute_force_knn(model.train_points, 10, threads=2)
        h.update(g.neighbor_ids.astype("<i8").tobytes())
        h.update(_bits(g.neighbor_dists).astype("<i8").tobytes())
        a = assign_new_points(model, seen["queries"], threads=2)
        h.update(a.labels.astype("<i8").tobytes())
        h.update(_bits(a.strengths).astype("<i8").tobytes())
        assert h.hexdigest() == self.FRAUD_DIGESTS[seed]


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


    @staticmethod
    def _lloyd_inputs():
        """(points, ncentroids, max_iter, reseeds): a fit far from the
        origin, a tie-heavy integer lattice, and a fit that re-seeds."""
        rng = np.random.Generator(np.random.PCG64(71))
        yield PointSet(1e6 + rng.normal(size=(700, 5)) * 40), 24, 25, False
        yield PointSet(rng.integers(0, 6, size=(900, 2))), 30, 25, False
        # four distinct points, each 40 times, for 7 centroids: seeding
        # runs out of mass, duplicate centroids lose every tie, and their
        # empty cells are re-seeded
        yield PointSet(np.repeat([[0.0, 0.0], [5.0, 5.0], [0.0, 9.0],
                                  [3.0, 1.0]], 40, axis=0)), 7, 10, True

    @pytest.mark.parametrize("batch_cells", [None, 2000])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_shared_centre_matches_reference_lloyd(self, monkeypatch,
                                                   threads, batch_cells):
        # kmeans_fit centres its points once per fit and shares them by
        # every pass; centroids, assignments and inertia keep the bits of a
        # Lloyd built from the seeding and exact-assignment references, on
        # one tile per thread and on tiles of a few rows
        if batch_cells is not None:
            monkeypatch.setattr(knn, "_BATCH_CELLS", batch_cells)
        for pts, nc, max_iter, reseeds in self._lloyd_inputs():
            got = kmeans_fit(pts, nc, max_iter=max_iter, seed=5,
                             threads=threads)
            cents, assign, inertia, history, moved = lloyd_reference(
                pts.data, nc, max_iter, 5)
            assert (moved > 0) == reseeds
            assert np.array_equal(_bits(got.centroids), _bits(cents))
            assert np.array_equal(got.assignments, assign)
            assert np.array_equal(_bits(np.array(got.inertia_history)),
                                  _bits(np.array(history)))
            assert _bits(np.array([got.inertia])) == _bits(
                np.array([inertia]))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestQuantizerSweep:
    """The quantizer decides the exact nearest centroid on every shape.

    Assignments and distances are compared bit for bit with the exact
    reference in oracle.py, and k-means++ seeds with the verbatim
    fast-kernel reference, as seeding weights are Gram values.
    """

    NS = (1, 2, 3, *range(60, 301, 7), 6401, 12865)
    DIMS = (1, 2, 5, 16, 28, 64)
    NLISTS = (1, 2, 3, 37, 256, 1024)

    def _assert_assign(self, x, centroids, threads=1):
        want = nearest_exact_reference(x, centroids)
        got = knn._assign_nearest(x, centroids, threads)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(_bits(got[1]), _bits(want[1]))

    def _assert_seeds(self, x, ncentroids, seed):
        want_rng = np.random.Generator(np.random.PCG64(seed))
        want = seed_plus_plus_reference(x, ncentroids, want_rng)
        rng = np.random.Generator(np.random.PCG64(seed))
        got = knn._seed_plus_plus(x, ncentroids, rng, knn._sqnorms(x))
        assert np.array_equal(_bits(got), _bits(want))
        # every draw took one double, as rng.choice does
        assert rng.random() == want_rng.random()
        return got

    @staticmethod
    def _fallback_rows(monkeypatch):
        """Rows that _assign_nearest hands to _exact_topk, one per call."""
        rows = []
        topk = knn._exact_topk

        def recording(queries, *args, **kwargs):
            rows.append(queries.shape[0])
            return topk(queries, *args, **kwargs)

        monkeypatch.setattr(knn, "_exact_topk", recording)
        return rows

    def test_shape_sweep(self):
        rng = np.random.Generator(np.random.PCG64(61))
        swept = 0
        for dim in self.DIMS:
            for n in self.NS:
                # PointSet data is float32
                x = (rng.normal(size=(n, dim)) * 10).astype(
                    np.float32).astype(np.float64)
                for nlist in self.NLISTS:
                    centroids = rng.normal(size=(nlist, dim)) * 10
                    self._assert_assign(x, centroids, 1 + swept % 2)
                    if nlist <= n:
                        self._assert_seeds(x, nlist, swept)
                    swept += 1
        assert swept == 40 * 6 * 6

    def test_zero_mass_seeding(self):
        # five distinct points for eight seeds: the mass runs out after the
        # fifth draw, and the lowest unchosen points fill the rest
        x = np.repeat(np.arange(10.0).reshape(5, 2), 4, axis=0)
        for seed in range(5):
            centroids = self._assert_seeds(x, 8, seed)
            assert np.unique(centroids, axis=0).shape[0] == 5
            self._assert_assign(x, centroids)

    def test_integer_ties_take_the_lower_centroid(self):
        # integer sums are exact, so (2, y) sits exactly between the
        # centroids at (0, y) and (4, y), and argmin keeps the lower index
        g = np.arange(0, 9, dtype=np.float64)
        x = np.array([(a, b) for a in g for b in g])
        centroids = np.array([(0.0, b) for b in (0.0, 4.0, 8.0)]
                             + [(4.0, b) for b in (0.0, 4.0, 8.0)])
        self._assert_assign(x, centroids)
        assign, _ = knn._assign_nearest(x, centroids)
        assert (assign[x[:, 0] == 2.0] < 3).all()
        self._assert_assign(x, centroids[::-1].copy())

    def test_near_ties_at_a_large_offset_take_the_refine(self, monkeypatch):
        # 40 points 3e6 from the filter's centre (their mean), each 1 from
        # one centroid and sqrt(1 + 1e-7) from another: the Gram slack
        # (about 0.2 here) keeps both, so every row goes to the exact refine
        rng = np.random.Generator(np.random.PCG64(62))
        side = np.where(np.arange(40) % 2 == 0, 3e6, -3e6)
        x = np.column_stack([side, 10.0 * np.arange(40)])
        near = x + [1.0, 0.0]
        far = x - [np.sqrt(1 + 1e-7), 0.0]
        flip = rng.random(40) < 0.5
        centroids = np.empty((80, 2))
        centroids[0::2] = np.where(flip[:, None], far, near)
        centroids[1::2] = np.where(flip[:, None], near, far)
        rows = self._fallback_rows(monkeypatch)
        self._assert_assign(x, centroids)
        assert rows == [40]
        assign, dmin = knn._assign_nearest(x, centroids)
        assert np.array_equal(assign, 2 * np.arange(40) + flip)
        assert (dmin == 1.0).all()

    def test_duplicate_centroids_take_the_refine(self, monkeypatch):
        # every centroid twice: exact ties, which the lower copy wins
        rng = np.random.Generator(np.random.PCG64(63))
        x = rng.normal(size=(300, 5)) * 10
        centroids = np.repeat(rng.normal(size=(37, 5)) * 10, 2, axis=0)
        rows = self._fallback_rows(monkeypatch)
        self._assert_assign(x, centroids, 2)
        assert sum(rows) == 300
        assert (knn._assign_nearest(x, centroids)[0] % 2 == 0).all()

    @pytest.mark.parametrize("seed", [*range(1, 11), 1009])
    def test_ivf_blobs_training_inputs(self, seed, monkeypatch):
        # the benchmark's ivf_blobs inputs: 12.8k x 16 blobs, a 6400-point
        # training sample, 256 cells and 10 Lloyd rounds. The fast-kernel
        # quantizer makes every decision the exact one does, so centroids
        # and assignments keep its bits; inertia is an exact sum
        for j in range(3):
            pts, _ = generate(SyntheticSpec(
                shape="blobs", n=12_800, dim=16, centers=64,
                seed=seed * 16 + j))
            idx = np.sort(np.random.Generator(np.random.PCG64(0)).choice(
                pts.n, size=6400, replace=False))
            train = PointSet(pts.data[idx])
            got = kmeans_fit(train, 256, max_iter=10, seed=0, threads=2)
            want = {}
            for name, assign in (("fast", assign_nearest_reference),
                                 ("exact", nearest_exact_reference)):
                with monkeypatch.context() as m:
                    m.setattr(knn, "_seed_plus_plus",
                              lambda x, c, rng, qq: seed_plus_plus_reference(
                                  x, c, rng))
                    # a pass also gets the fit's _FitRows, which the
                    # reference does not need
                    m.setattr(knn, "_assign_nearest",
                              lambda x, c, threads, rows=None, f=assign:
                              f(x, c))
                    want[name] = kmeans_fit(train, 256, max_iter=10, seed=0)
            assert np.array_equal(_bits(got.centroids),
                                  _bits(want["fast"].centroids))
            assert np.array_equal(got.assignments,
                                  want["fast"].assignments)
            assert got.inertia_history == want["exact"].inertia_history
            assert got.inertia == want["exact"].inertia
            self._assert_assign(
                pts.data.astype(np.float64), got.centroids, 2)


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

    def test_tied_probe_order_matches_reference(self):
        # integer grid points and centroids make every Gram sum exact, so
        # centroid distances tie exactly in any batch: (2, 2) is equally near
        # four centroids, and nprobe < nlist makes the cell id decide which
        # of them are probed. The points at (30, 30) and (31, 30) hold a cell
        # of their own, and the next one is empty, so their rows probe past
        # nprobe to find k candidates
        g = np.arange(0, 9, dtype=np.float64)
        grid = np.array([(a, b) for a in g for b in g])
        data = np.vstack([grid, grid[::5], [[30.0, 30.0], [31.0, 30.0]]])
        centroids = np.array(
            [(a, b) for a in (0.0, 4.0, 8.0) for b in (0.0, 4.0, 8.0)]
            + [(15.0, 15.0), (30.0, 30.0)])
        assign = np.argmin(dense_sqdist(np.vstack([data, centroids]))[
            : data.shape[0], data.shape[0]:], axis=1)
        index = knn.IvfIndex(
            nlist=centroids.shape[0], centroids=centroids,
            postings=tuple(np.flatnonzero(assign == c)
                           for c in range(centroids.shape[0])),
            assignments=assign)
        assert index.postings[9].size == 0
        pts = PointSet(data)
        for k, nprobe in ((1, 1), (6, 1), (6, 2), (10, 3), (25, 5)):
            ids, dists = ivf_search_reference(
                data, centroids, assign, k, nprobe)
            for threads in (1, 2):
                got = ivf_search(index, pts, k, nprobe, threads=threads)
                assert np.array_equal(got.neighbor_ids, ids)
                assert np.array_equal(
                    got.neighbor_dists.view(np.int64), dists.view(np.int64))

    @staticmethod
    def _assert_reference(data, centroids, k, nprobe):
        """ivf_search on a hand-built index equals the reference on 1 and 2
        threads; returns the reference ids."""
        assign = np.argmin(dense_sqdist(np.vstack([data, centroids]))[
            : data.shape[0], data.shape[0]:], axis=1)
        index = knn.IvfIndex(
            nlist=centroids.shape[0], centroids=centroids,
            postings=tuple(np.flatnonzero(assign == c)
                           for c in range(centroids.shape[0])),
            assignments=assign)
        ids, dists = ivf_search_reference(data, centroids, assign, k, nprobe)
        for threads in (1, 2):
            got = ivf_search(index, PointSet(data), k, nprobe,
                             threads=threads)
            assert np.array_equal(got.neighbor_ids, ids)
            assert np.array_equal(
                got.neighbor_dists.view(np.int64), dists.view(np.int64))
        return ids

    @staticmethod
    def _probe_widths(monkeypatch, nlist):
        """The widths of the _exact_topk calls against nlist centroids: the
        probe order's stages and their hints, one entry per call."""
        widths = []
        topk = knn._exact_topk

        def recording(queries, base, k, *args, **kwargs):
            if base.norms.size == nlist:
                widths.append(k)
            return topk(queries, base, k, *args, **kwargs)

        monkeypatch.setattr(knn, "_exact_topk", recording)
        return widths

    def test_rows_past_the_probe_prefix_match_reference(self, monkeypatch):
        # a far point at (100, 0) alone in its cell; toward a 9 x 9 grid
        # near the origin lie 11 more cells on a line, every other one
        # holding one point. Its k neighbors take every line point and some
        # grid points, so its row needs 13 of the 16 cells: its order is
        # taken for nprobe cells, then for all 16
        line = 12
        g = np.arange(0, 9, dtype=np.float64)
        grid = np.array([(a, b) for a in g for b in g])
        stops = np.array([(100.0 - 6 * i, 0.0) for i in range(line)])
        data = np.vstack([grid, stops[::2]])
        centroids = np.vstack([[(2.0, 2.0), (2.0, 6.0), (6.0, 2.0),
                                (6.0, 6.0)], stops])
        k = line // 2 + 2
        widths = self._probe_widths(monkeypatch, centroids.shape[0])
        for nprobe in (1, 2):
            widths.clear()
            ids = self._assert_reference(data, centroids, k, nprobe)
            # the far point's row reached the grid
            assert (ids[grid.shape[0]] < grid.shape[0]).any()
            assert set(widths) == {nprobe, 16}

    def test_tie_at_the_prefix_boundary_matches_reference(self,
                                                          monkeypatch):
        # the query at the origin holds its cell alone; two cells of one
        # point each lie at distances 10 and 20, so its first three cells
        # hold fewer than k points. The next four cells, all at distance
        # 100 and holding three points each, tie exactly where the row
        # stops: at the boundary of its first stage at nprobe 4, and at
        # the cell that completes k in its whole order at nprobe 1. The
        # lowest cell id decides which one is probed; the tied cells take
        # the lowest ids, so an order that is not by (distance, id) would
        # pick another
        singles = 2
        angles = np.arange(singles) * (2 * np.pi / singles)
        steps = np.rint(np.column_stack([np.cos(angles), np.sin(angles)])
                        * (10 * np.arange(1, singles + 1))[:, None])
        tied = np.array([[0.0, -100.0], [-100.0, 0.0], [0.0, 100.0],
                         [100.0, 0.0]])
        nlist = 4 + 1 + singles
        widths = self._probe_widths(monkeypatch, nlist)
        for nprobe in (1, 1 + singles + 1):
            for shift in range(4):
                order = np.roll(tied, shift, axis=0)
                centroids = np.vstack([order, [(0.0, 0.0)], steps])
                data = np.vstack([[(0.0, 0.0)], steps,
                                  np.repeat(order, 3, axis=0)
                                  + np.tile([[0.0, 0.0], [1.0, 0.0],
                                             [0.0, 1.0]], (4, 1))])
                widths.clear()
                ids = self._assert_reference(data, centroids, singles + 2,
                                             nprobe)
                # a row short of k at nprobe 1 takes the whole order; at
                # nprobe 4 every row stops in its first stage
                assert set(widths) == ({1, nlist} if nprobe == 1
                                       else {nprobe})
                # the query's two points past the singletons are cell 0's
                assert (ids[0] < 1 + singles + 3).all()
                assert (ids[0] >= 1 + singles).sum() == 2

    def test_near_tied_centroids_match_reference(self):
        # 40 queries at a 3e6 offset, each between two cells whose centroid
        # distances are 1 and 1 + 1e-7 (squared), the nearer one the upper
        # cell for even queries and the lower for odd ones. A Gram-identity
        # distance errs by about 1e-3 here, so only an exact order probes
        # the nearer cell, whose two points are the query's neighbors
        base = np.array([3e6 + 0.25, 3e6 + 0.75])
        queries = base + np.column_stack([20.0 * np.arange(40),
                                          np.zeros(40)])
        up, down = np.array([0.0, 1.0]), np.array([0.0, -1.0])
        far = 1.0 + 5e-8
        centroids = np.vstack([
            (q + up * (far if i % 2 else 1.0),
             q + down * (1.0 if i % 2 else far))
            for i, q in enumerate(queries)]).reshape(-1, 2)
        members = np.vstack([
            (q + 2 * up, q + 2.5 * up, q + 2 * down, q + 2.5 * down)
            for q in queries]).reshape(-1, 2)
        data = np.vstack([queries, members])
        assert np.array_equal(PointSet(data).data, data)
        ids = self._assert_reference(data, centroids, 2, 1)
        # query i's neighbors are the two points of its nearer cell
        near = 40 + 4 * np.arange(40) + 2 * (np.arange(40) % 2)
        assert np.array_equal(ids[:40], np.column_stack([near, near + 1]))

    def test_thread_count_does_not_change_result(self):
        pts = _points(shape="varied_variance", n=800, seed=17, dim=5)
        idx = ivf_build(pts, 16, seed=4)
        g1 = ivf_search(idx, pts, 9, 4, threads=1)
        g4 = ivf_search(idx, pts, 9, 4, threads=4)
        assert np.array_equal(g1.neighbor_ids, g4.neighbor_ids)
        assert np.array_equal(g1.neighbor_dists, g4.neighbor_dists)

    def test_thread_count_does_not_change_the_build(self, monkeypatch):
        # 1500 training points and 3000 points in chunks of 750 and 1500
        # rows; tiles of 64 rows split inside both, a short tile last
        pts = _points(shape="varied_variance", n=3000, seed=18, dim=5)
        builds = []
        for batch_cells in (None, 37 * 64):
            if batch_cells is not None:
                monkeypatch.setattr(knn, "_BATCH_CELLS", batch_cells)
            for threads in (1, 2):
                builds.append(ivf_build(pts, 37, seed=3, train_sample=1500,
                                        threads=threads))
        first = builds[0]
        for idx in builds[1:]:
            assert np.array_equal(_bits(idx.centroids), _bits(first.centroids))
            assert np.array_equal(idx.assignments, first.assignments)
            assert all(np.array_equal(a, b)
                       for a, b in zip(idx.postings, first.postings))

    def test_build_assigns_each_point_once_after_training(self, monkeypatch):
        # training points keep their k-means assignments, so the build
        # assigns only the other points, and a fit that stops on repeated
        # assignments makes no further pass; centroids and postings hash as
        # when every point was assigned again after the fit
        pts = _points(shape="varied_variance", n=3000, seed=18, dim=5)
        seen = []
        assign = knn._assign_nearest

        def spy(x, centroids, threads=1, rows=None):
            seen.append(x.shape[0])
            return assign(x, centroids, threads, rows)

        monkeypatch.setattr(knn, "_assign_nearest", spy)
        h = hashlib.sha256()
        # a 1000-point sample stops on repeated assignments in round 17;
        # the whole set runs out of rounds, and its last round's update
        # takes one more pass
        for train_sample, max_iter, passes in (
                (1000, 25, [1000] * 17 + [2000]), (None, 25, [3000] * 26),
                (None, 2, [3000] * 3)):
            seen.clear()
            index = ivf_build(pts, 37, seed=3, max_iter=max_iter,
                              train_sample=train_sample)
            assert seen == passes
            h.update(_bits(index.centroids).astype("<i8").tobytes())
            for p in index.postings:
                h.update(p.astype("<i8").tobytes())
        assert h.hexdigest() == (
            "2ea097879d1af3f3b6d6fe1f6efbd8c2b46e1734b81e929bcccfcdeb15f42ea3")

    def test_quantizer_holds_no_block(self):
        # 12.8k x 16 points to 256 centroids on 2 threads: one Gram block
        # per call held 25.8 MB, two threads' 2 MB tiles about 5.3 MB
        pts, index = _ivf_blobs_input(1, 0)
        x = pts.data.astype(np.float64)
        tracemalloc.start()
        try:
            knn._assign_nearest(x, index.centroids, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024

    def test_fit_holds_its_points_centred_once(self):
        # 12.8k x 16 points to 256 centroids on 2 threads: the fit holds
        # the points as float64, their rows [qc, 1, qq] and their transpose
        # (5.1 MB), and two threads' 2 MB tiles, 10.3 MB at most; one more
        # copy of the points (1.6 MB) or a Gram block (26 MB) would not fit
        pts, _ = _ivf_blobs_input(1, 0)
        tracemalloc.start()
        try:
            kmeans_fit(pts, 256, max_iter=10, seed=0, threads=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11 * 1024 * 1024

    def test_nlist_above_n_rejected(self):
        pts = _points(n=6)
        with pytest.raises(ValueError):
            ivf_build(pts, 7, seed=0)

    @pytest.mark.parametrize("n, dim", [(150, 3), (50, 3), (100, 4)])
    def test_index_of_other_points_rejected(self, n, dim):
        # the queries are the indexed points: more points would read past
        # the postings, fewer would index past the queries
        idx = ivf_build(_points(n=100, seed=3, dim=3), 4, seed=0)
        with pytest.raises(ValueError, match="index"):
            ivf_search(idx, _points(n=n, seed=4, dim=dim), 5, 2)

    # group bounds: one block per group, groups that end between the two
    # blocks of a 300-query cell, and the module's own
    GROUP_BOUNDS = (1, knn._BLOCK_QUERIES + 14, None)

    @staticmethod
    def _index_of(data, centroids):
        assign = np.argmin(dense_sqdist(np.vstack([data, centroids]))[
            : data.shape[0], data.shape[0]:], axis=1)
        return knn.IvfIndex(
            nlist=centroids.shape[0], centroids=centroids,
            postings=tuple(np.flatnonzero(assign == c)
                           for c in range(centroids.shape[0])),
            assignments=assign)

    def test_group_layouts_match_reference(self, monkeypatch):
        # integer points and centroids, so every centroid distance is exact
        # in any batch: a 20 x 15 grid makes a 300-query cell of two blocks,
        # small grids make cells of a few points, three cells hold one point
        # and one cell none; the far point at (400, 0) is alone in its cell
        # and its row orders cells past its first stage
        big = np.array([(a, b) for a in range(20) for b in range(15)],
                       dtype=np.float64)
        small = np.array([(a, b) for a in range(3) for b in range(3)],
                         dtype=np.float64)
        singles = np.array([(60.0, 60.0), (90.0, 20.0), (400.0, 0.0)])
        data = np.vstack([big, small + (40, 0), small + (0, 40),
                          small[:4] + (40, 40), singles])
        centroids = np.array([
            (10.0, 7.0), (41.0, 1.0), (1.0, 41.0), (40.5, 40.5),
            (60.0, 60.0), (90.0, 20.0), (400.0, 0.0), (250.0, 250.0)])
        index = self._index_of(data, centroids)
        sizes = [p.size for p in index.postings]
        assert sizes == [300, 9, 9, 4, 1, 1, 1, 0]
        pts = PointSet(data)
        for k, nprobe in ((4, 1), (12, 2), (30, 1)):
            ids, dists = ivf_search_reference(
                data, centroids, index.assignments, k, nprobe)
            if k == 30:
                # the far point reached past its first stage into the grid
                assert (ids[-1] < big.shape[0]).any()
            for bound in self.GROUP_BOUNDS:
                if bound is not None:
                    monkeypatch.setattr(knn, "_GROUP_QUERIES", bound)
                for threads in (1, 2, 3):
                    got = ivf_search(index, pts, k, nprobe, threads=threads)
                    assert np.array_equal(got.neighbor_ids, ids)
                    assert np.array_equal(got.neighbor_dists.view(np.int64),
                                          dists.view(np.int64))
                monkeypatch.undo()

    def test_peak_memory_is_bounded_by_the_group(self, monkeypatch):
        # 12.8k x 16 points in 256 cells read an 11.1 MB peak with groups
        # of 512 queries and 13.9 MB with groups of 2048
        pts, index = _ivf_blobs_input(1, 0)

        def peak():
            tracemalloc.start()
            try:
                ivf_search(index, pts, 16, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = 12.5 * 1024 * 1024
        assert peak() < bound
        monkeypatch.setattr(knn, "_GROUP_QUERIES", 4 * knn._GROUP_QUERIES)
        assert peak() > bound

    def test_ivf_blobs_graph_digest(self):
        # the exact kNN graphs of the benchmark's seed-1 ivf_blobs inputs
        # (k 16, nprobe 3), pinned so that later search changes keep the bits
        h = hashlib.sha256()
        for j in range(3):
            pts, index = _ivf_blobs_input(1, j)
            g = ivf_search(index, pts, 16, 3, threads=2)
            h.update(g.neighbor_ids.astype("<i8").tobytes())
            h.update(g.neighbor_dists.view(np.int64).astype("<i8").tobytes())
        assert h.hexdigest() == (
            "69ea43e69678fc0844d8ab58bb87bc87a09b3b705f3a2c15699c6c893aa72faf")


class TestThreadCounts:
    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("entry", [
        "brute_force_knn", "ivf_search", "ivf_build", "kmeans_fit"])
    def test_below_one_rejected(self, entry, threads):
        pts = _points(n=60, seed=5)
        calls = {
            "brute_force_knn": lambda: brute_force_knn(
                pts, 5, threads=threads),
            "ivf_search": lambda: ivf_search(
                ivf_build(pts, 4, seed=0), pts, 5, 2, threads=threads),
            "ivf_build": lambda: ivf_build(pts, 4, seed=0, threads=threads),
            "kmeans_fit": lambda: kmeans_fit(pts, 4, seed=0, threads=threads),
        }
        with pytest.raises(ValueError, match="thread count must be >= 1"):
            calls[entry]()


class TestDefaults:
    def test_default_nlist_sqrt(self):
        assert default_nlist(10000) == 100
        assert default_nlist(1) == 1

    def test_default_nprobe_fraction_with_floor(self):
        assert default_nprobe(256) == 16
        assert default_nprobe(64) == 4
        assert default_nprobe(8) == 4
