"""Exact and inverted-file approximate k-nearest-neighbor search.

Distances are squared euclidean internally and square-rooted at the KnnGraph
boundary. Equal distances are always resolved toward the smaller point index,
which makes every search result bitwise reproducible.

Two squared-distance kernels exist on purpose. sqdist_exact accumulates one
dimension at a time in float64, a fixed operation sequence for every pair no
matter how the caller batches rows, so independent implementations can agree
bitwise. It walks the output in row tiles that fit in L2, and inside a tile
each pair still takes (q_0 - b_0)^2 first and then adds (q_d - b_d)^2 for
d = 1, 2, ... in order, so the tiling changes no bit of any value (a NaN
result's sign is left to numpy's loops, as IEEE 754 leaves it open).
sqdist_fast uses the Gram-matrix identity, which is faster but rounds
differently depending on BLAS blocking and threads; it only feeds the
k-means++ seeding weights, which have no bitwise contract across BLAS
setups. Its elementwise tail (the norms added, twice the product
subtracted, the clamp) runs in L2-sized row tiles, each entry taking the
same operations in the same order.

The quantizer's assignments and distances are exact values: given the
centroids, each point takes its nearest by sqdist_exact value (the smaller
index on ties) and that value, the same on any BLAS and at any thread
count, through the Gram filter below with k = 1. A k-means fit centres its
points once, on their mean, and each Lloyd pass builds only the
centroids' side of the filter on that centre. Only k-means++ seeding
weights still come from Gram products.

Every search (brute-force fit, quantizer assignment, IVF probe order and
candidate blocks, inductive assignment) filters and refines through
_exact_topk, over blocks of rows that each search their own base columns
(a brute-force, assignment or probe-order block is a row range of the
whole base): a Gram block on centred data, with a proven bound on its gap
to sqdist_exact, keeps every column that can reach the top k, and only
those are scored in sqdist_exact's per-pair order, the survivors of many
blocks in one pass. On a block of 2 _GROUPS_PER_K k columns or more,
each row's threshold comes from the minima of strided column groups,
about _GROUPS_PER_K k of them, whose k-th smallest bounds the row's k-th
Gram value from above, so no pass sorts or compares the whole block. The
top k by (value, column) then has the bits that
_topk_rows(sqdist_exact(...)) gives; rows the bound cannot cover, and
blocks whose k spans the row, take that full path itself. The centred base
operands are built once per search and shared by its blocks.

Every search selects its top k by (value, column), NaN last, through one
routine, _first_k: one stable sort of candidates given in (row, column)
order. The refine step hands it the survivors, and _topk_rows, for every
k, the entries at or under each row's k-th value, or every entry of a row
whose k-th value is NaN.

An IVF query probes its cells in (centroid distance, cell id) order, the
distances being exact values that _exact_topk selects over the centroids'
_GramBase. The queries of a cell form blocks of up to _BLOCK_QUERIES, and
a search task takes a group of consecutive blocks, up to _GROUP_QUERIES
queries. The group orders the first nprobe cells of every row, each row's
threshold taken from a hint, the nprobe centroids nearest its home
centroid (one exact top nprobe over the centroids per search), so that no
row partitions its centroid distances. A row whose nprobe cells hold fewer
than k points besides itself takes its whole order. Each block filters
the points of the cells its rows probe, every row masking the cells it
does not, and the group's survivors are refined once.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import PointSet
from .parallel import resolve_threads, run_chunked

# cells per distance block: a chunk's float64 d2 block stays near 32 MB
_BLOCK_CELLS = 4_000_000
# cells per sqdist_exact, sqdist_fast tail and _topk_rows tile: 512 KB per
# float64 array, so the output tile and its one scratch tile (about 1 MB)
# stay in L2 across all dimensions, and a partition's copy stays one tile.
# It also sizes _exact_topk's refine chunks and how many survivors it holds.
# On a 2-core Xeon VM, a nearest-centroid pass through sqdist_fast (the
# quantizer's, before it turned exact) of 6400 x 16 points to 256
# centroids took 6.9 ms with tail tiles of this size or half of it, 8.2 ms
# at twice it, and 12.3 ms with the tail untiled
_TILE_CELLS = 1 << 16
# Gram values per batch of filter blocks in _exact_topk (2 MB of float64):
# one default block, or one ivf_search group of 512 queries whose blocks
# score up to 512 candidates each (ivf_blobs unions hold 56 to 651). A
# default block also keeps its group minima, which the partition copies,
# within _TILE_CELLS, so that a block without groups is a row tile: on one
# thread of a 2-core VM, the seed-1 fraud_inductive fit (3400 x 28, k 10)
# without groups took a median 89 ms in row tiles and 119 ms in blocks of
# _BATCH_CELLS (5 interleaved rounds of 15). It is also
# _assign_nearest's tile, as short numpy calls do not overlap under the
# GIL: on a 2-core VM, 25,600 x 16 points to 256 centroids ran a median
# 1.29x (0.93-1.44x, 12 rounds) as fast on two threads as on one with
# tiles of this size, and 0.98x (0.82-1.12x) with tiles of _TILE_CELLS
_BATCH_CELLS = 4 * _TILE_CELLS
# column groups per unit of k in _exact_topk's filter; a block narrower
# than 2 _GROUPS_PER_K k has one column per group, which is the filter
# without groups. On one thread of a 2-core VM, two or three columns per
# group saved nothing: 60 probe-order calls of the 100k x 16 criterion-3
# search (493 rows, 1024 centroids, k 16) took 204-226 ms with two and
# 168-184 ms with one. Wide blocks gain: the seed-1 fraud_inductive fit
# (3400 x 28, k 10) took a median 44.1 ms at 32 (10 columns per group)
# and 47.7 ms at 64 (5), 8 interleaved rounds of 15, and 8 was about 20%
# slower than 16 to 48; in another session, 48.2 ms at 64 against 65.2 ms
# without groups (5 rounds). At 64 that fit keeps 10.04 survivors per row
# (10.00 without groups), and the probe orders and candidate blocks of
# ivf_blobs and of the 100k input run without groups
_GROUPS_PER_K = 64
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
# IVF queries per block, the rows of one candidate union and one filter: a
# cell with more queries splits into several blocks
_BLOCK_QUERIES = 256
# IVF queries per group of consecutive blocks, which orders its probes and
# refines its survivors in one pass; it bounds the group's masks too
_GROUP_QUERIES = 512
# rows whose centred norms pass this take the full path: below it no Gram
# value or exact value can overflow
_HUGE = np.finfo(np.float64).max / 8


@dataclass(frozen=True)
class KnnGraph:
    """k neighbors per point: ids and euclidean distances, rows ascending."""

    k: int
    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray

    def __post_init__(self):
        if self.neighbor_ids.shape != self.neighbor_dists.shape:
            raise ValueError("neighbor ids and dists must align")
        if self.neighbor_ids.shape[1] != self.k:
            raise ValueError("neighbor matrix width must equal k")

    @property
    def n(self):
        return self.neighbor_ids.shape[0]


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    inertia_history: tuple


@dataclass(frozen=True)
class IvfIndex:
    """Coarse k-means cells over a point set; postings partition the points."""

    nlist: int
    centroids: np.ndarray
    postings: tuple
    assignments: np.ndarray

    @property
    def n(self):
        return self.assignments.shape[0]


def sqdist_exact(queries, base):
    """Squared distances, one dimension accumulated at a time in float64."""
    q = np.asarray(queries, dtype=np.float64)
    b = np.asarray(base, dtype=np.float64)
    if q.shape[1] != b.shape[1]:
        raise ValueError(
            f"query dim {q.shape[1]} != base dim {b.shape[1]}")
    m, n = q.shape[0], b.shape[0]
    out = np.zeros((m, n), dtype=np.float64)
    # each bt[d] is one contiguous row, read once per tile and dimension
    bt = np.ascontiguousarray(b.T)
    rows = max(1, _TILE_CELLS // max(n, 1))
    scratch = np.empty((min(rows, m), n), dtype=np.float64)
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        o = out[r0:r1]
        s = scratch[: r1 - r0]
        for d in range(q.shape[1]):
            np.subtract(q[r0:r1, d, None], bt[d], out=s)
            s *= s
            o += s
    return out


def _sqnorms(x):
    """Squared norm of each row, as sqdist_fast takes it."""
    return np.einsum("ij,ij->i", x, x)


def sqdist_fast(queries, base, qq=None):
    """Squared distances via the Gram identity, clamped at zero.

    qq, the queries' _sqnorms, may be passed in by a caller that holds
    them. One matmul gives the Gram block; the tail then runs in place, one
    row tile of _TILE_CELLS at a time, and each entry still takes
    (qq_i + bb_j) - 2 g_ij and the clamp, so its bits do not depend on the
    tile.
    """
    q = np.asarray(queries, dtype=np.float64)
    b = np.asarray(base, dtype=np.float64)
    if qq is None:
        qq = _sqnorms(q)
    bb = _sqnorms(b)
    d2 = q @ b.T
    rows = max(1, _TILE_CELLS // max(b.shape[0], 1))
    norms = np.empty((min(rows, q.shape[0]), b.shape[0]), dtype=np.float64)
    for r0 in range(0, q.shape[0], rows):
        t = d2[r0 : r0 + rows]
        s = np.add(qq[r0 : r0 + rows, None], bb, out=norms[: t.shape[0]])
        t *= 2.0
        np.subtract(s, t, out=t)
        np.maximum(t, 0.0, out=t)
    return d2


# searches take "exact" from here at call time, where perfbench's tracer
# wraps it; no search reads "fast", which only that tracer still wraps
_KERNELS = {"exact": sqdist_exact, "fast": sqdist_fast}


def _first_k(r, j, e, k):
    """The k smallest candidates by (value, column) of each row they name.

    Candidates come in (row, column) order with at least k per named row.
    One stable sort of complex keys orders them by (row, value), as
    lexsort((e, r)) would: equal values keep the smaller column first, and
    a NaN value, keyed (2 row + 1, 0), sorts after the rest of its row.
    Returns the named rows ascending, with their k values and columns.
    """
    nan = np.isnan(e)
    key = np.empty(r.size, dtype=np.complex128)
    key.real = 2 * r + nan
    key.imag = np.where(nan, 0.0, e)
    order = np.argsort(key, kind="stable")
    # rows stay where they are: only runs of equal rows are permuted
    starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    pick = order[starts[:, None] + np.arange(k)]
    return r[starts], e[pick], j[pick]


def _topk_rows(d2, k):
    """k smallest entries per row by (value, column), rows returned sorted.

    Equal values resolve toward the smaller column and NaN sorts last.
    Each row tile takes its k-th value with a partition and hands the
    entries at or under it to _first_k; a row whose k-th value is NaN
    (fewer than k non-NaN entries) hands over all of its columns. Every k
    up to the full width takes this path, full kNN rows included.
    """
    m, width = d2.shape
    # the partition copy, mask and candidates of one row tile are alive at
    # a time, so no index block as large as d2 is
    vals = np.empty((m, k), dtype=np.float64)
    cols = np.empty((m, k), dtype=np.int64)
    rows = max(1, _TILE_CELLS // width)
    for r0 in range(0, m, rows):
        t = d2[r0 : r0 + rows]
        kth = np.partition(t, k - 1, axis=1)[:, k - 1 : k]
        keep = t <= kth
        keep[np.isnan(kth[:, 0])] = True
        r, j = np.divmod(np.flatnonzero(keep), width)
        _, vals[r0 : r0 + rows], cols[r0 : r0 + rows] = _first_k(
            r, j, t[keep], k)
    return vals, cols


def _exclude(block, self_cols, excluded):
    """Set the excluded entries of a block to inf.

    self_cols holds each row's own column (-1 for none); excluded, a mask
    of the block's shape, marks the other entries its row may not take.
    """
    if excluded is not None:
        np.putmask(block, excluded, np.inf)
    if self_cols is not None:
        r = np.flatnonzero(self_cols >= 0)
        block[r, self_cols[r]] = np.inf


def _block_topk(queries, base, k, kernel, self_cols=None, excluded=None):
    """_topk_rows of kernel(queries, base), excluded entries inf."""
    d2 = kernel(queries, base)
    _exclude(d2, self_cols, excluded)
    return _topk_rows(d2, k)


def _gram_slack(qq, bb_max, dim):
    """Per-row bound on |Gram value - exact value|; see _exact_topk."""
    return (6 * dim + 16) * _EPS * (qq + bb_max) + dim * _TINY


# a base set with its filter operands (see _exact_topk): the float64 points,
# the centre both sides are shifted by, the (d + 2) x n rows -2 bc.T, bb and
# ones, bb (the centred rows' squared norms), and data.T made contiguous for
# the refine. A namedtuple, as a dataclass costs its import about 0.8 ms
_GramBase = namedtuple("_GramBase", "data mean aug norms bt")


def _gram_base(base, mean=None):
    """base's _GramBase, built once for every search on it.

    Both sides are centred on mean, by default the base's own.
    """
    n, dim = base.shape
    with np.errstate(over="ignore", invalid="ignore"):
        if mean is None:
            mean = base.mean(axis=0)
        bc = base - mean
        bb = _sqnorms(bc)
        aug = np.empty((dim + 2, n), dtype=np.float64)
        np.multiply(bc.T, -2.0, out=aug[:dim])
        aug[dim] = bb
        aug[dim + 1] = 1.0
    return _GramBase(data=base, mean=mean, aug=aug, norms=bb,
                     bt=np.ascontiguousarray(base.T))


def _gram_rows(queries, mean):
    """The filter's query side (see _exact_topk): the rows [qc, 1, qq].

    qc is the queries centred on mean and qq their squared norms, so that
    one matmul with the aug of a _GramBase on the same centre gives the
    Gram values f.
    """
    m, dim = queries.shape
    with np.errstate(over="ignore", invalid="ignore"):
        qa = np.empty((m, dim + 2), dtype=np.float64)
        qc = np.subtract(queries, mean, out=qa[:, :dim])
        qa[:, dim] = 1.0
        qa[:, dim + 1] = _sqnorms(qc)
    return qa


def _gram_cover(qq, base):
    """Which rows of centred squared norms qq the bound covers against base,
    and twice each row's slack. Where they overflow, rows are left
    uncovered."""
    with np.errstate(over="ignore", invalid="ignore"):
        bb_max = base.norms.max()
        covered = qq + bb_max <= _HUGE
        slack2 = 2.0 * _gram_slack(qq, bb_max, base.data.shape[1])
    return covered, slack2


def _groups(width, k):
    """A filter block's columns per group and groups (see _exact_topk)."""
    b = max(1, width // (_GROUPS_PER_K * k))
    return b, width // b


def _exact_topk(queries, base, k, kernel, self_cols=None, blocks=None,
                hint=None):
    """_block_topk's (vals, cols) bit for bit, without a queries x base block.

    base is the _GramBase of the base points, built once per search and
    shared by its calls. self_cols holds each row's own column (-1 for
    none), which the row does not take. By default every row searches the
    whole base. blocks, if given, lists (start, stop, cols, excluded) in row
    order, covering every row: query rows start:stop search only the base
    rows cols (ascending), less the entries of the mask excluded (or None),
    and their self_cols index cols. Result columns are base rows either way.
    hint, if given (with blocks None), holds k distinct base rows per query
    row, any k, from which the row's threshold is taken (see below).

    Filter: both sides are centred on the mean of the whole base (the bound
    below holds for any shared centre), one matmul gives the Gram values
    f = qq + bb - 2 qc.bc of a block, and column j survives when
    f_ij <= U_i + 2 s_i, with U_i >= F_i, the k-th smallest f_ij, and s_i a
    bound on |f_ij - e_ij| over all j, e being the exact kernel's value.
    With u = eps / 2, gamma_n = n u / (1 - n u) bounds the error of an
    n-term sum or inner product in any order, FMA included (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1). Let D be the true
    distance, Dc that of the rounded centred rows, Q_i and B_j their
    squared norms, and A, C the norms before the centring rounds:
      - Gram evaluation: the norms err by at most gamma_d (Q_i + B_j), and
        f, one (d + 2)-term inner product of [qc, 1, qq] with
        [-2 bc, bb, 1], by gamma_{d+2} (qq + bb + 2 |qc|.|bc|), so
        |f - Dc| <= (gamma_d + 2 gamma_{d+2}) (Q_i + B_j) to first order;
      - centring: each centred coordinate is off by at most u of itself, so
        each difference by u (|a| + |c|), and |Dc - D| <= 2 gamma_2 (A + C);
      - the exact kernel: a rounded difference, a rounded square and up to
        d - 1 rounded additions per pair give |e - D| <= gamma_{d+2} D, with
        D <= 2 (A + C).
    So |f - e| <= (2.5 d + 6) eps (Q_i + B_j) to first order. The slack
    s_i = (6 d + 16) eps (Q_i + max_j B_j) + d tiny is over twice that,
    which covers the second-order terms and the slack's own rounding;
    d tiny covers products and squares that underflow (each off by at most
    2^-1075). A top-k column has e_ij <= T_i, the k-th exact value, and
    T_i <= F_i + s_i, as the k columns at or under F_i have exact values at
    most F_i + s_i; so f_ij <= e_ij + s_i <= F_i + 2 s_i <= U_i + 2 s_i,
    and every top-k column survives, ties at T_i included. The threshold is
    taken one ulp up, as its addition may round down.

    U_i comes from groups: a block of width w has b = max(1, w //
    (_GROUPS_PER_K k)) and W = w // b >= k groups, group j holding the
    columns j, j + W, ..., j + (b - 1) W and the tail column b W + j if
    that is below w, and g_ij is the group's smallest f. U_i is the k-th
    smallest g_ij: the k smallest groups each hold a column at or under
    it, so U_i >= F_i. A row whose U_i is not finite (its finite columns
    fall in fewer than k groups) takes U_i = F_i, its own k-th value. Only
    a group with g_ij <= U_i + 2 s_i can hold a survivor, so only the
    members of those groups are compared. With b = 1, g is f itself.

    U_i comes from the hint instead, where one is given: U_i is the largest
    f_ij over the row's k hinted columns. They are k distinct columns at or
    under U_i, so the k-th smallest f_ij is too: U_i >= F_i, and no row
    sorts or partitions anything. The closer the hint is to the row's true
    top k, the fewer columns survive, but any k distinct columns keep the
    bits. A row whose U_i is not finite (it may not take a hinted column,
    as its own one, which is set to inf) takes U_i = F_i, as above. Groups,
    if the block has them, still select the survivors.

    The filter runs block by block (by default, row ranges over the whole
    base of up to _BATCH_CELLS Gram values and _TILE_CELLS group minima),
    each matmul, mask, group minimum and partition on the block's own rows
    and columns; the thresholds and the selection of survivors run once per
    batch of consecutive blocks, up to _BATCH_CELLS Gram values, which
    saves numpy calls where blocks are small.

    Refine: the survivors of all blocks are scored together in the
    kernel's per-pair order on the uncentred data, _TILE_CELLS // d at a
    time, and _first_k orders each row by (value, base row). Survivors are
    refined once _TILE_CELLS of them are held, and at the end.

    Rows whose norms are not finite or exceed _HUGE, or whose threshold is
    not finite, and blocks whose k spans the row (k + 1 >= width), take
    _block_topk with `kernel` instead.
    """
    m, dim = queries.shape
    n = base.norms.size
    if blocks is None:
        if k + 1 >= n:
            return _block_topk(queries, base.data, k, kernel, self_cols)
        # a block's group minima, which the partition copies, fit in a tile
        step = max(1, min(_BATCH_CELLS // n, _TILE_CELLS // _groups(n, k)[1]))
        blocks = [(r0, min(r0 + step, m), None, None)
                  for r0 in range(0, m, step)]
    # f = [qc, 1, qq] . [-2 bc, bb, 1]: one matmul, no pass over the block;
    # where it overflows, the rows take the full path, which warns itself
    qa = _gram_rows(queries, base.mean)
    covered, slack2 = _gram_cover(qa[:, dim + 1], base)
    qt = np.ascontiguousarray(queries.T)
    vals = np.empty((m, k), dtype=np.float64)
    ids = np.empty((m, k), dtype=np.int64)
    kth = np.empty(m, dtype=np.float64)
    pending = []

    def refine():
        r = np.concatenate([p[0] for p in pending])
        j = np.concatenate([p[1] for p in pending])
        pending.clear()
        e = np.empty(r.size, dtype=np.float64)
        # one gather per side; each survivor still adds its squared
        # differences one dimension at a time, in order
        step = max(1, _TILE_CELLS // dim)
        for s0 in range(0, r.size, step):
            diff = qt.take(r[s0 : s0 + step], axis=1)
            diff -= base.bt.take(j[s0 : s0 + step], axis=1)
            diff *= diff
            acc = diff[0]
            for d in range(1, dim):
                acc += diff[d]
            e[s0 : s0 + step] = acc
        # survivors come in (row, base row) order
        rows, v, c = _first_k(r, j, e, k)
        vals[rows] = v
        ids[rows] = c

    def full_path(rows, cols, own, excluded):
        data = base.data if cols is None else base.data[cols]
        v, c = _block_topk(queries[rows], data, k, kernel, own, excluded)
        vals[rows] = v
        ids[rows] = c if cols is None else cols[c]

    def filter_batch(batch):
        start, stop = batch[0][0], batch[-1][1]
        counts = [b1 - b0 for b0, b1, _, _ in batch]
        widths = [n if cols is None else cols.size for _, _, cols, _ in batch]
        members, groups = zip(*(_groups(w, k) for w in widths))
        row_width = np.repeat(widths, counts)
        # where each row of the batch starts in the flat buffers f and g
        row_at = np.cumsum(row_width) - row_width
        f = np.empty(row_at[-1] + row_width[-1], dtype=np.float64)
        grouped = max(members) > 1
        if grouped:
            row_groups = np.repeat(groups, counts)
            group_at = np.cumsum(row_groups) - row_groups
            g = np.empty(group_at[-1] + row_groups[-1], dtype=np.float64)
        else:
            group_at, g = row_at, f
        keep = np.empty(g.size, dtype=bool)
        tiles = []
        at = g_at = 0
        for (b0, b1, cols, excluded), w, b, groups_w in zip(
                batch, widths, members, groups):
            t = f[at : at + (b1 - b0) * w].reshape(b1 - b0, w)
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(qa[b0:b1], base.aug if cols is None
                          else base.aug.take(cols, axis=1), out=t)
            if excluded is not None:
                np.putmask(t, excluded, np.inf)
            gt = g[g_at : g_at + (b1 - b0) * groups_w].reshape(
                b1 - b0, groups_w)
            tiles.append((b0, b1, t, b, gt,
                          keep[g_at : g_at + gt.size].reshape(gt.shape)))
            at += t.size
            g_at += gt.size
        if self_cols is not None:
            own = self_cols[start:stop]
            r = np.flatnonzero(own >= 0)
            f[row_at[r] + own[r]] = np.inf
        for b0, b1, t, b, gt, _ in tiles:
            if grouped:
                # group j's minimum: columns j + m W, then the tail b W + j
                width = b * gt.shape[1]
                np.min(t[:, :width].reshape(b1 - b0, b, -1), axis=1, out=gt)
                tail = t.shape[1] - width
                np.minimum(gt[:, :tail], t[:, width:], out=gt[:, :tail])
            if hint is None:
                kth[b0:b1] = np.partition(gt, k - 1, axis=1)[:, k - 1]
            else:
                kth[b0:b1] = np.take_along_axis(
                    t, hint[b0:b1], axis=1).max(axis=1)
        if grouped or hint is not None:
            # a row whose finite columns fall in fewer than k groups, or
            # whose hint holds a column it may not take, takes its own
            # k-th value
            lost = np.isinf(kth[start:stop]) & covered[start:stop]
            if lost.any():
                for b0, b1, t, _, _, _ in tiles:
                    i = np.flatnonzero(lost[b0 - start : b1 - start])
                    if i.size:
                        kth[b0 + i] = np.partition(
                            t[i], k - 1, axis=1)[:, k - 1]
        thr = np.nextafter(kth[start:stop] + slack2[start:stop], np.inf)
        ok = covered[start:stop] & np.isfinite(thr)
        # NaN compares false, so rows left to the full path keep nothing
        thr[~ok] = np.nan
        for b0, b1, _, _, gt, kt in tiles:
            np.less_equal(gt, thr[b0 - start : b1 - start, None], out=kt)
        hit = np.flatnonzero(keep)
        if grouped:
            # a kept group's members j, j + W, ... below the row's width,
            # those at or under the threshold in (row, column) order
            r = np.searchsorted(group_at, hit, side="right") - 1
            cand = (hit - group_at[r])[:, None] + (
                row_groups[r, None] * np.arange(max(members) + 1))
            inside = cand < row_width[r, None]
            r = np.broadcast_to(r[:, None], cand.shape)[inside]
            hit = cand[inside] + row_at[r]
            hit = np.sort(hit[f[hit] <= thr[r]])
        r = np.searchsorted(row_at, hit, side="right") - 1
        j = hit - row_at[r]
        if batch[0][2] is not None:
            col_at = np.cumsum(widths) - widths
            j = np.concatenate([b[2] for b in batch])[
                col_at.repeat(counts)[r] + j]
        pending.append((r + start, j))
        if not ok.all():
            for b0, b1, cols, excluded in batch:
                bad = np.flatnonzero(~ok[b0 - start : b1 - start])
                if bad.size:
                    full_path(b0 + bad, cols,
                              None if self_cols is None
                              else self_cols[b0 + bad],
                              None if excluded is None else excluded[bad])
        return hit.size

    # a block the full path takes ends a batch, so a batch's rows are one
    # range
    batches = []
    cells = _BATCH_CELLS
    for block in blocks:
        start, stop, cols, excluded = block
        width = n if cols is None else cols.size
        if k + 1 >= width:
            full_path(slice(start, stop), cols,
                      None if self_cols is None else self_cols[start:stop],
                      excluded)
            cells = _BATCH_CELLS
            continue
        size = (stop - start) * width
        if cells + size > _BATCH_CELLS:
            batches.append([])
            cells = 0
        batches[-1].append(block)
        cells += size
    held = 0
    for batch in batches:
        held += filter_batch(batch)
        if held >= _TILE_CELLS:
            refine()
            held = 0
    if held:
        refine()
    return vals, ids


def _row_chunk(n, k, threads):
    """Query rows per brute_force_knn task over n points.

    Each row is computed apart from the rows batched with it, so chunks
    follow the thread count; only full rows hold a rows x n block, which
    _BLOCK_CELLS caps.
    """
    chunk = -(-n // threads)
    return min(chunk, max(1, _BLOCK_CELLS // n)) if k + 1 >= n else chunk


def brute_force_knn(points, k, threads=1):
    """Exact k nearest neighbors for every point, self excluded."""
    threads = resolve_threads(threads)
    n = points.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, n-1], got {k} for n={n}")
    exact = _KERNELS["exact"]
    base = points.data.astype(np.float64)
    search = _gram_base(base)
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)

    def work(start, stop):
        v, c = _exact_topk(base[start:stop], search, k, exact,
                           self_cols=np.arange(start, stop))
        ids[start:stop] = c
        np.sqrt(v, out=dists[start:stop])

    run_chunked(work, n, threads, _row_chunk(n, k, threads))
    return KnnGraph(k=k, neighbor_ids=ids, neighbor_dists=dists)


# a point set's side of the quantizer's filter, built once per k-means fit:
# the centre (the points' mean), the rows [qc, 1, qq] of _gram_rows on it,
# and the points' transpose, whose contiguous rows score each point's
# winning centroid one dimension at a time
_FitRows = namedtuple("_FitRows", "mean qa xt")


def _fit_rows(x, mean=None):
    """x's _FitRows, centred on mean, by default x's own.

    A k-means fit builds them once and shares them by every pass.
    """
    if mean is None:
        mean = x.mean(axis=0)
    return _FitRows(mean=mean, qa=_gram_rows(x, mean),
                    xt=np.ascontiguousarray(x.T))


def _assign_nearest(x, centroids, threads=1, rows=None):
    """Exact nearest centroid per point: its index and sqdist_exact value.

    Ties go to the smaller index, so, as with _exact_topk at k = 1, no bit
    depends on tiles, threads or BLAS. Points and centroids are centred on
    the points' mean, which the bound allows as it holds for any shared
    centre. rows, if given, is x's _FitRows: a k-means fit centres its
    points once, and each pass builds only the centroids' _GramBase.
    Without rows, each tile builds its own on the same centre, so no
    operand of x's size is held. Each thread takes one chunk of rows and
    walks it in tiles of _BATCH_CELLS Gram values, filtered as in
    _exact_topk: one matmul gives f, and a column survives when
    f_ij <= nextafter(min_j f_ij + 2 s_i). The exact nearest centroid
    always survives, so a covered row with one survivor takes it, its
    distance summed in sqdist_exact's per-dimension order. Every other row
    (ties, near-ties, rows the bound does not cover) goes through
    _exact_topk, which takes its full path when nlist <= 2.
    """
    n, dim = x.shape
    mean = x.mean(axis=0) if rows is None else rows.mean
    base = _gram_base(centroids, mean)
    exact = _KERNELS["exact"]
    assign = np.empty(n, dtype=np.int64)
    dmin = np.empty(n, dtype=np.float64)
    nlist = centroids.shape[0]
    step = max(1, _BATCH_CELLS // nlist)

    def work(start, stop):
        # one Gram tile per chunk, reused by its tiles
        f_tile = np.empty((min(step, stop - start), nlist), dtype=np.float64)
        for r0 in range(start, stop, step):
            r1 = min(r0 + step, stop)
            tile, t0 = ((rows, r0) if rows is not None
                        else (_fit_rows(x[r0:r1], mean), 0))
            qa = tile.qa[t0 : t0 + r1 - r0]
            f = f_tile[: r1 - r0]
            covered, slack2 = _gram_cover(qa[:, dim + 1], base)
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(qa, base.aug, out=f)
                a = f.argmin(axis=1)
                at = np.arange(r1 - r0)
                thr = np.nextafter(f[at, a] + slack2, np.inf)
                # a is the one survivor if the runner-up is above thr (an
                # argmin and a gather beat a min reduce); a NaN compares
                # false, so its row goes to _exact_topk
                f[at, a] = np.inf
                single = f[at, f.argmin(axis=1)] > thr
            single &= covered & np.isfinite(thr)
            i = np.flatnonzero(single)
            diff = tile.xt.take(t0 + i, axis=1)
            diff -= base.bt.take(a[i], axis=1)
            diff *= diff
            e = diff[0]
            for d in range(1, dim):
                e += diff[d]
            assign[r0 + i] = a[i]
            dmin[r0 + i] = e
            rest = np.flatnonzero(~single)
            if rest.size:
                v, c = _exact_topk(x[r0 + rest], base, 1, exact)
                assign[r0 + rest] = c[:, 0]
                dmin[r0 + rest] = v[:, 0]

    run_chunked(work, n, threads, -(-n // threads))
    return assign, dmin


def _seed_plus_plus(x, ncentroids, rng, qq):
    """k-means++ centroids; qq holds the points' _sqnorms.

    Each draw is rng.choice(n, p=d2 / d2.sum()) done with rng.choice's own
    arithmetic: the same cumulative sum, the same normalization and one
    rng.random() searched from the right, so every pick and the generator's
    state stay as rng.choice leaves them. Points are finite (a PointSet's
    are), so the mass is finite and rng.choice's checks would pass.
    """
    n = x.shape[0]
    centroids = np.empty((ncentroids, x.shape[1]), dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    chosen[first] = True
    d2 = sqdist_fast(x, centroids[0:1], qq).ravel()
    for j in range(1, ncentroids):
        total = d2.sum()
        if total <= 0.0:
            # remaining mass is zero (duplicate-heavy data): lowest unchosen
            pick = int(np.flatnonzero(~chosen)[0])
        else:
            cdf = np.divide(d2, total).cumsum()
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[j] = x[pick]
        chosen[pick] = True
        np.minimum(d2, sqdist_fast(x, centroids[j : j + 1], qq).ravel(),
                   out=d2)
    return centroids


def kmeans_fit(points, ncentroids, max_iter=25, seed=0, threads=1):
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments repeat or after max_iter update rounds. An empty
    cell is re-seeded to the point currently farthest from its own centroid
    (ties toward the lower index), which keeps inertia non-increasing.
    Assignments and distances are exact (_assign_nearest), so the result
    does not depend on threads. The points' side of each pass's filter
    (_FitRows) is built once, so a pass builds only the centroids' side. A
    fit that stops on repeated assignments returns that pass, made at its
    final centroids; one that runs out of rounds assigns once more after
    the last update.
    """
    threads = resolve_threads(threads)
    n = points.n
    if not 1 <= ncentroids <= n:
        raise ValueError(f"ncentroids must be in [1, n], got {ncentroids}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x = points.data.astype(np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _seed_plus_plus(x, ncentroids, rng, _sqnorms(x))
    rows = _fit_rows(x)
    history = []
    prev = None
    for _ in range(max_iter):
        assign, dmin = _assign_nearest(x, centroids, threads, rows)
        history.append(float(dmin.sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        counts = np.bincount(assign, minlength=ncentroids)
        sums = np.empty_like(centroids)
        for d in range(x.shape[1]):
            sums[:, d] = np.bincount(
                assign, weights=x[:, d], minlength=ncentroids)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            far = dmin.copy()
            for cell in np.flatnonzero(~nonempty):
                pick = int(np.argmax(far))
                centroids[cell] = x[pick]
                far[pick] = -np.inf
    else:
        # no break: the last round moved the centroids
        assign, dmin = _assign_nearest(x, centroids, threads, rows)
    return KMeansResult(
        centroids=centroids,
        assignments=assign,
        inertia=float(dmin.sum()),
        inertia_history=tuple(history),
    )


def default_nlist(n):
    return min(n, max(1, round(math.sqrt(n))))


def default_nprobe(nlist):
    # floor of 4: probing a single cell guts kNN recall on small indexes
    return max(4, nlist // 16)


def ivf_build(points, nlist, seed=0, max_iter=25, train_sample=None,
              threads=1):
    """Coarse quantizer: k-means cells plus a posting list per cell.

    train_sample caps how many points the quantizer trains on. Postings
    hold every point's exact nearest centroid: the training points keep
    their k-means assignments, which are that, and only the other points
    are assigned.
    """
    threads = resolve_threads(threads)
    n = points.n
    if not 1 <= nlist <= n:
        raise ValueError(f"nlist must be in [1, n], got {nlist}")
    if train_sample is not None and train_sample < nlist:
        raise ValueError("train_sample must be >= nlist")
    train = np.ones(n, dtype=bool)
    if train_sample is not None and train_sample < n:
        rng = np.random.Generator(np.random.PCG64(seed))
        train[:] = False
        train[rng.choice(n, size=train_sample, replace=False)] = True
    km = kmeans_fit(PointSet(points.data[train]), nlist, max_iter=max_iter,
                    seed=seed, threads=threads)
    assign = np.empty(n, dtype=np.int64)
    assign[train] = km.assignments
    if not train.all():
        assign[~train] = _assign_nearest(
            points.data[~train].astype(np.float64), km.centroids, threads)[0]
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=nlist)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    postings = tuple(
        order[bounds[c] : bounds[c + 1]] for c in range(nlist))
    return IvfIndex(
        nlist=nlist,
        centroids=km.centroids,
        postings=postings,
        assignments=assign,
    )


def _cells_needed(order, home, cell_sizes, k, nprobe):
    """How many cells of each row's probe order it probes, 0 if too few.

    A row probes at least nprobe cells and stops at the first count whose
    cells hold k points besides the query, which its home cell holds.
    """
    avail = np.cumsum(cell_sizes[order] - (order == home[:, None]), axis=1)
    enough = avail >= k
    enough[:, : nprobe - 1] = False
    return np.where(enough.any(axis=1), np.argmax(enough, axis=1) + 1, 0)


def ivf_search(index, points, k, nprobe, threads=1):
    """kNN graph over `points` probing the nprobe nearest cells per query.

    Queries are the indexed points themselves, so the index must have been
    built on them; self is excluded. A row whose nprobe cells hold fewer
    than k points besides itself takes its whole (centroid distance, cell
    id) order and probes on, up to the first cell that completes k. With
    nprobe = nlist the result is identical to brute_force_knn.
    """
    threads = resolve_threads(threads)
    n = points.n
    if index.n != n:
        raise ValueError(f"index holds {index.n} points, got {n}")
    if index.centroids.shape[1] != points.dim:
        raise ValueError(f"index dim {index.centroids.shape[1]} != "
                         f"point dim {points.dim}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, n-1], got {k} for n={n}")
    if not 1 <= nprobe <= index.nlist:
        raise ValueError(f"nprobe must be in [1, nlist], got {nprobe}")
    exact = _KERNELS["exact"]
    x = points.data.astype(np.float64)
    base = _gram_base(x)
    centroids = _gram_base(np.asarray(index.centroids, dtype=np.float64))
    cell_sizes = np.array([p.size for p in index.postings], dtype=np.int64)
    nlist = index.nlist
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)

    # the probe order's hint: the nprobe cells nearest each home cell's
    # centroid, which a full-width order (the full path) does not need
    near = (_exact_topk(centroids.data, centroids, nprobe, exact)[1]
            if nprobe + 1 < nlist else None)

    def search_group(blocks):
        qidx = np.concatenate(blocks)
        q = x[qidx]
        spans = np.cumsum([0] + [b.size for b in blocks])
        # cells by ascending (exact distance, cell id) per query: the first
        # nprobe of them, then the whole order for rows still short of k.
        # probed holds row * nlist + cell of every probed cell
        home = index.assignments[qidx]
        probed = []
        rows = np.arange(qidx.size)
        hint = None if near is None else near[home]
        for width in (nprobe, nlist):
            order = _exact_topk(q[rows], centroids, width, exact,
                                hint=hint)[1]
            need = _cells_needed(order, home[rows], cell_sizes, k, nprobe)
            probed.append((order + (rows * nlist)[:, None])[
                np.arange(width) < need[:, None]])
            rows = rows[need == 0]
            if not rows.size:
                break
            hint = None
        probed = np.concatenate(probed)
        # a row leaves out the cells it does not probe
        blocked = np.ones((qidx.size, nlist), dtype=bool)
        blocked.reshape(-1)[probed] = False
        filters, owns = [], []
        for b0, b1 in zip(spans[:-1], spans[1:]):
            # a block scores the points of the cells its rows probe
            cells = np.flatnonzero(~blocked[b0:b1].all(axis=0))
            cols = np.sort(np.concatenate(
                [index.postings[c] for c in cells]))
            excluded = blocked[b0:b1].take(index.assignments[cols], axis=1)
            own = np.minimum(np.searchsorted(cols, qidx[b0:b1]),
                             cols.size - 1)
            own[cols[own] != qidx[b0:b1]] = -1
            filters.append((b0, b1, cols, excluded))
            owns.append(own)
        v, c = _exact_topk(q, base, k, exact, np.concatenate(owns), filters)
        ids[qidx] = c
        dists[qidx] = np.sqrt(v)

    # queries grouped by home cell share most of their probe lists, so each
    # block scores one union candidate block and masks per query; a group
    # of consecutive blocks orders its probes and refines in one pass
    blocks = [p[s : s + _BLOCK_QUERIES] for p in index.postings
              for s in range(0, p.size, _BLOCK_QUERIES)]
    groups = []
    held = _GROUP_QUERIES
    for b in blocks:
        if held + b.size > _GROUP_QUERIES:
            groups.append([])
            held = 0
        groups[-1].append(b)
        held += b.size

    def handle_groups(gstart, gstop):
        for g in groups[gstart:gstop]:
            search_group(g)

    run_chunked(handle_groups, len(groups), threads, 1)
    return KnnGraph(k=k, neighbor_ids=ids, neighbor_dists=dists)
