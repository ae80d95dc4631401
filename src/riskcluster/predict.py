"""Inductive assignment of new points to an existing clustering.

Each query takes the distance-weighted vote of its k nearest training
points. Noise-labeled training points vote too, so a query can be rejected
as noise. An exact coordinate match short-circuits to that training point's
label; vote ties go to the numerically smaller label (noise is -1, so noise
wins ties it participates in).
"""

from dataclasses import dataclass

import numpy as np

from .knn import _BLOCK_CELLS, _exact_topk, _gram_base, sqdist_exact
from .model import ClusterAssignment, reject_non_numbers
from .parallel import resolve_threads, run_chunked


@dataclass(frozen=True)
class InductiveModel:
    train_points: object
    train_labels: object
    k_assign: int = 5

    def __post_init__(self):
        reject_non_numbers(self, integers=("k_assign",))
        if self.train_labels.labels.shape[0] != self.train_points.n:
            raise ValueError("labels not aligned with training points")
        if self.k_assign < 1:
            raise ValueError("k_assign must be >= 1")


def assign_new_points(model, queries, threads=None):
    """Vote-based labels and strengths for a new PointSet."""
    threads = resolve_threads(threads)
    train = model.train_points
    if queries.dim != train.dim:
        raise ValueError(
            f"query dim {queries.dim} != train dim {train.dim}")
    k = min(model.k_assign, train.n)
    base = train.data.astype(np.float64)
    qdata = queries.data.astype(np.float64)
    train_labels = model.train_labels.labels
    nq = queries.n
    labels = np.empty(nq, dtype=np.int64)
    strengths = np.empty(nq, dtype=np.float64)
    # a vote bucket per distinct label in label order, so that argmax gives
    # ties to the smaller label; noise (-1) always has bucket 0, so that the
    # labels -1..C-1 of a clustering sum their votes over one bucket each,
    # whether or not a training point is noise
    bucket_labels = np.union1d(train_labels, -1)
    bucket = np.searchsorted(bucket_labels, train_labels)
    nbuckets = bucket_labels.size
    # a chunk's vote block is rows x nbuckets; the filtered search holds no
    # rows x n block unless k spans the row
    cells = max(nbuckets, train.n if k + 1 >= train.n else 0)
    chunk = min(-(-nq // threads), max(1, _BLOCK_CELLS // cells))
    # the filter's base operands, built once for every chunk
    search = _gram_base(base)

    def work(start, stop):
        vals, cols = _exact_topk(qdata[start:stop], search, k, sqdist_exact)
        dists = np.sqrt(vals)
        rows = np.arange(stop - start)
        # exact match: cols are (distance, id)-ordered, so column 0 is the
        # smallest-index zero-distance training point
        exact = dists[:, 0] == 0.0
        # rows ascend, so only exact-match rows hold zeros; they do not vote
        weights = 1.0 / np.where(exact[:, None], 1.0, dists)
        # one bincount adds each (row, bucket)'s weights in column order,
        # as a bincount per row would
        votes = np.bincount(
            (rows[:, None] * nbuckets + bucket[cols]).ravel(),
            weights=weights.ravel(), minlength=rows.size * nbuckets,
        ).reshape(rows.size, nbuckets)
        winner = np.argmax(votes, axis=1)
        share = votes[rows, winner] / votes.sum(axis=1)
        match = train_labels[cols[:, 0]]
        lab = np.where(exact, match, bucket_labels[winner])
        labels[start:stop] = lab
        strengths[start:stop] = np.where(
            lab == -1, 0.0, np.where(exact, 1.0, share))

    run_chunked(work, nq, threads, chunk)
    return ClusterAssignment(labels=labels, strengths=strengths)
