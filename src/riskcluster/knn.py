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
sqdist_fast uses the Gram-matrix identity, which is faster but
rounds differently depending on BLAS blocking; it only feeds decisions with
no bitwise contract (k-means assignment, coarse cell probing, and optional
quality-equivalent searches at large scale).
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import PointSet
from .parallel import run_chunked

# cells per distance block: a chunk's float64 d2 block stays near 32 MB
_BLOCK_CELLS = 4_000_000
# cells per sqdist_exact and _topk_rows tile: 512 KB per float64 array, so
# the output tile and its one scratch tile (about 1 MB) stay in L2 across all
# dimensions, and a partition's index block stays one tile
_TILE_CELLS = 1 << 16


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


def sqdist_fast(queries, base):
    """Squared distances via the Gram identity, clamped at zero."""
    q = np.asarray(queries, dtype=np.float64)
    b = np.asarray(base, dtype=np.float64)
    qq = np.einsum("ij,ij->i", q, q)
    bb = np.einsum("ij,ij->i", b, b)
    d2 = qq[:, None] + bb[None, :] - 2.0 * (q @ b.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


_KERNELS = {"exact": sqdist_exact, "fast": sqdist_fast}


def _topk_rows(d2, k):
    """k smallest entries per row by (value, column), rows returned sorted.

    Equal values resolve toward the smaller column. When k leaves out at
    most one column (a full kNN row, whose self column is inf), whole rows
    are sorted; the sort is unstable, so only its tied positions are
    re-sorted, by (run, column). Smaller k partitions row tiles, and rows
    must then hold at least k non-inf entries.
    """
    m, width = d2.shape
    if k + 1 >= width:
        cols = np.argsort(d2, axis=1)
        # a flat take gathers faster than take_along_axis
        vals = d2.reshape(-1).take(cols + (np.arange(m) * width)[:, None])
        tie = vals[:, 1:] == vals[:, :-1]
        if np.isnan(vals[:, -1]).any():
            # NaN sorts last and equals nothing; its run is repaired too
            nan = np.isnan(vals)
            tie |= nan[:, 1:] & nan[:, :-1]
        if tie.any():
            tied = np.zeros((m, width), dtype=bool)
            tied[:, 1:] = tie
            tied[:, :-1] |= tie
            # a run starts wherever a value differs from its left neighbor
            starts = np.ones((m, width), dtype=bool)
            starts[:, 1:] = ~tie
            pos = np.flatnonzero(tied)
            run = np.cumsum(starts.ravel())[pos]
            flat = cols.reshape(-1)
            seg = flat[pos]
            flat[pos] = seg = seg[np.argsort(run * width + seg)]
            # equal values may still differ in bits (-0.0 and 0.0)
            vals.reshape(-1)[pos] = d2[pos // width, seg]
        return vals[:, :k], cols[:, :k]
    # partition row tiles and keep only the k picked columns of each, so
    # no index block as large as d2 is ever alive
    cols = np.empty((m, k), dtype=np.int64)
    rows = max(1, _TILE_CELLS // width)
    for r0 in range(0, m, rows):
        cols[r0 : r0 + rows] = np.argpartition(
            d2[r0 : r0 + rows], k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(d2, cols, axis=1)
    # a partition is value-correct but may pick arbitrary ids among entries
    # equal to the k-th smallest value; repair those rows explicitly
    edge = vals.max(axis=1)
    inside = (vals == edge[:, None]).sum(axis=1)
    total = (d2 == edge[:, None]).sum(axis=1)
    for r in np.flatnonzero(inside != total):
        row = d2[r]
        less = np.flatnonzero(row < edge[r])
        ties = np.flatnonzero(row == edge[r])[: k - less.size]
        cols[r] = np.concatenate([less, ties])
    cols.sort(axis=1)
    vals = np.take_along_axis(d2, cols, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    return (np.take_along_axis(vals, order, axis=1),
            np.take_along_axis(cols, order, axis=1))


def brute_force_knn(points, k, threads=1, kernel="exact"):
    """Exact k nearest neighbors for every point, self excluded."""
    n = points.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, n-1], got {k} for n={n}")
    sq = _KERNELS[kernel]
    base = points.data.astype(np.float64)
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    chunk = max(1, _BLOCK_CELLS // n)
    if kernel == "exact":
        # each exact row is computed apart from the rows batched with it,
        # so chunks may follow the thread count and one block still gives
        # every thread rows; fast values depend on the batch, so fast
        # chunks must stay fixed
        chunk = min(chunk, -(-n // threads))

    def work(start, stop):
        d2 = sq(base[start:stop], base)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        v, c = _topk_rows(d2, k)
        ids[start:stop] = c
        np.sqrt(v, out=dists[start:stop])

    run_chunked(work, n, threads, chunk)
    return KnnGraph(k=k, neighbor_ids=ids, neighbor_dists=dists)


def _assign_nearest(x, centroids):
    """Nearest-centroid index and squared distance per point (fast kernel)."""
    n = x.shape[0]
    assign = np.empty(n, dtype=np.int64)
    dmin = np.empty(n, dtype=np.float64)
    step = max(1, _BLOCK_CELLS // max(centroids.shape[0], 1))
    for start in range(0, n, step):
        stop = min(start + step, n)
        d2 = sqdist_fast(x[start:stop], centroids)
        assign[start:stop] = np.argmin(d2, axis=1)
        dmin[start:stop] = np.take_along_axis(
            d2, assign[start:stop, None], axis=1).ravel()
    return assign, dmin


def _seed_plus_plus(x, ncentroids, rng):
    n = x.shape[0]
    centroids = np.empty((ncentroids, x.shape[1]), dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    chosen[first] = True
    d2 = sqdist_fast(x, centroids[0:1]).ravel()
    for j in range(1, ncentroids):
        total = d2.sum()
        if total <= 0.0:
            # remaining mass is zero (duplicate-heavy data): lowest unchosen
            pick = int(np.flatnonzero(~chosen)[0])
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[pick]
        chosen[pick] = True
        np.minimum(d2, sqdist_fast(x, centroids[j : j + 1]).ravel(), out=d2)
    return centroids


def kmeans_fit(points, ncentroids, max_iter=25, seed=0):
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments repeat or after max_iter update rounds. An empty
    cell is re-seeded to the point currently farthest from its own centroid
    (ties toward the lower index), which keeps inertia non-increasing.
    """
    n = points.n
    if not 1 <= ncentroids <= n:
        raise ValueError(f"ncentroids must be in [1, n], got {ncentroids}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    x = points.data.astype(np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    centroids = _seed_plus_plus(x, ncentroids, rng)
    history = []
    prev = None
    for _ in range(max_iter):
        assign, dmin = _assign_nearest(x, centroids)
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
    assign, dmin = _assign_nearest(x, centroids)
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


def ivf_build(points, nlist, seed=0, max_iter=25, train_sample=None):
    """Coarse quantizer: k-means cells plus a posting list per cell.

    train_sample caps how many points the quantizer trains on (postings are
    always a full exact pass over every point).
    """
    n = points.n
    if not 1 <= nlist <= n:
        raise ValueError(f"nlist must be in [1, n], got {nlist}")
    if train_sample is not None and train_sample < nlist:
        raise ValueError("train_sample must be >= nlist")
    train = points
    if train_sample is not None and train_sample < n:
        rng = np.random.Generator(np.random.PCG64(seed))
        idx = np.sort(rng.choice(n, size=train_sample, replace=False))
        train = PointSet(points.data[idx])
    km = kmeans_fit(train, nlist, max_iter=max_iter, seed=seed)
    x = points.data.astype(np.float64)
    assign, _ = _assign_nearest(x, km.centroids)
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


def ivf_search(index, points, k, nprobe, threads=1, kernel="exact"):
    """kNN graph over `points` probing the nprobe nearest cells per query.

    Queries are the indexed points themselves; self is excluded. Rows short
    of k candidates probe additional cells in centroid-distance order. With
    nprobe = nlist the result is identical to brute_force_knn.
    """
    n = points.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, n-1], got {k} for n={n}")
    if not 1 <= nprobe <= index.nlist:
        raise ValueError(f"nprobe must be in [1, nlist], got {nprobe}")
    sq = _KERNELS[kernel]
    x = points.data.astype(np.float64)
    cell_sizes = np.array([p.size for p in index.postings], dtype=np.int64)
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)

    def _search_block(qidx):
        # cells by ascending (distance, cell id) per query
        probe = np.argsort(
            sqdist_fast(x[qidx], index.centroids), axis=1, kind="stable")
        home = index.assignments[qidx]
        # candidates available after c+1 probed cells, self excluded
        avail = np.cumsum(
            cell_sizes[probe] - (probe == home[:, None]), axis=1)
        cols = np.arange(index.nlist)
        enough = (avail >= k) & (cols[None, :] + 1 >= nprobe)
        need = np.argmax(enough, axis=1) + 1
        width = int(need.max())
        allowed_cells = np.zeros((qidx.size, index.nlist), dtype=bool)
        np.put_along_axis(allowed_cells, probe[:, :width],
                          cols[None, :width] < need[:, None], axis=1)
        union_cells = np.flatnonzero(allowed_cells.any(axis=0))
        cand = np.sort(np.concatenate(
            [index.postings[c] for c in union_cells]))
        d2 = sq(x[qidx], x[cand])
        allowed = allowed_cells[:, index.assignments[cand]]
        allowed &= cand[None, :] != qidx[:, None]
        d2[~allowed] = np.inf
        v, c = _topk_rows(d2, k)
        ids[qidx] = cand[c]
        dists[qidx] = np.sqrt(v)

    # queries grouped by home cell share most of their probe lists, so each
    # group scores one union candidate block and masks per-query
    def handle_group(gstart, gstop):
        for cell in range(gstart, gstop):
            queries = index.postings[cell]
            for qs in range(0, queries.size, 256):
                _search_block(queries[qs : qs + 256])

    run_chunked(handle_group, index.nlist, threads, 1)
    return KnnGraph(k=k, neighbor_ids=ids, neighbor_dists=dists)
