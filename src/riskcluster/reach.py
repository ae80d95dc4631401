"""Density transform: core distances and mutual reachability edges.

Core distance is the distance to the min_samples-th nearest OTHER point (self
never counts). Mutual reachability of a kNN pair (i, j) is
max(core_i, core_j, d_ij). Deduplication keeps the pair's copy in the row of
its smaller end u, so a graph whose two copies of a pair differ (d_ij !=
d_ji, as a hand-built graph may have) still gives one weight. A row may
hold a pair once, so the rows take one unstable sort of the distinct keys
2 * (u * n + v) + (src > dst), which puts any row-u copy first. The full
graph of exact HDBSCAN* takes the edges of short kNN lists here, and
mst.full_graph_forest computes the weights it needs beyond them in tiles
from the points and the core distances.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoreDistances:
    values: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class EdgeList:
    """Undirected weighted edges with u < v and no duplicate pairs."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if not (self.u.shape == self.v.shape == self.w.shape):
            raise ValueError("edge arrays must align")
        if self.u.size and not (self.u < self.v).all():
            raise ValueError("edges must satisfy u < v")
        # +inf is legal (synthetic forest-join edges); negatives and NaN not
        if self.w.size and not (self.w >= 0).all():
            raise ValueError("edge weights must be nonnegative")

    def __len__(self):
        return self.u.shape[0]


def core_distances(knn, min_samples):
    """min_samples-th neighbor distance per point, straight off the graph."""
    if not 1 <= min_samples <= knn.k:
        raise ValueError(
            f"min_samples must be in [1, k={knn.k}], got {min_samples}")
    return CoreDistances(values=knn.neighbor_dists[:, min_samples - 1].copy())


def mutual_reach_edges(knn, core):
    """One undirected edge per kNN pair, weighted by mutual reachability."""
    n, k = knn.neighbor_ids.shape
    if core.n != n:
        raise ValueError("core distances not aligned with the kNN graph")
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = knn.neighbor_ids.ravel().astype(np.int64)
    # keys are distinct (a row names each neighbor once), so the unstable
    # order is unique; n < 2^31 keeps them in range
    key = 2 * (np.minimum(src, dst) * n + np.maximum(src, dst))
    key += src > dst
    keep = np.argsort(key)
    pair = key[keep] >> 1
    first = np.ones(keep.size, dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    keep = keep[first]
    src, dst = src[keep], dst[keep]
    c = core.values
    # np.maximum returns its second operand on equal values, so -0.0 and
    # 0.0 make it order-sensitive: keep the kept copy's (src, dst) order
    w = np.maximum(knn.neighbor_dists.ravel()[keep],
                   np.maximum(c[src], c[dst]))
    return EdgeList(
        u=np.minimum(src, dst), v=np.maximum(src, dst), w=w)

