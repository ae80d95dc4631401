"""Single-linkage dendrogram, condensation, and stable-cluster extraction.

lambda = 1/distance is the density scale: zero-length merges are capped at
MAX_LAMBDA, synthetic infinite edges map to lambda 0. Condensation takes no
per-node walk: pointer doubling places every node in a depth-first order, so
a merge chain as deep as the dataset costs O(log depth) numpy rounds.

Each dendrogram node, points 0..n-1 and merges n..2n-2, owns one parent
slot, and a merge points both its children at itself: a component's root is
its newest merge node.
"""

from dataclasses import dataclass

import numpy as np

from .model import ClusterAssignment

MAX_LAMBDA = 1e300


@dataclass(frozen=True)
class SingleLinkageTree:
    """Merge steps of a bottom-up union; points 0..n-1, merges n..2n-2."""

    n: int
    left: np.ndarray
    right: np.ndarray
    dist: np.ndarray
    size: np.ndarray


@dataclass(frozen=True)
class CondensedTree:
    """Cluster birth records plus per-point fall-out records.

    Cluster ids start at n (the root); ids are dense and ascend in creation
    order, so a child's id is always greater than its parent's.
    """

    n: int
    min_cluster_size: int
    cluster_id: np.ndarray
    cluster_parent: np.ndarray
    cluster_birth: np.ndarray
    cluster_size: np.ndarray
    fall_cluster: np.ndarray
    fall_point: np.ndarray
    fall_lambda: np.ndarray

    @property
    def num_clusters(self):
        return self.cluster_id.shape[0]


@dataclass(frozen=True)
class StabilityScores:
    values: np.ndarray
    selected: np.ndarray


def single_linkage(edges, n):
    """One merge per edge in ascending weight order.

    A merge's children are the roots of its edge's u and v ends, found with
    path halving over the node parent slots.
    """
    m = len(edges)
    if m != n - 1:
        raise ValueError(
            f"edge set not a spanning tree: {m} edges for {n} vertices")
    w = edges.w
    if w.size > 1 and np.any(w[1:] < w[:-1]):
        raise ValueError("edges must arrive in ascending weight order")
    # an id past n - 1 would alias a merge node's slot; EdgeList keeps u < v
    if m and (edges.u.min() < 0 or edges.v.max() >= n):
        raise ValueError(f"vertex ids must lie in [0, {n})")
    parent = list(range(2 * n - 1))
    size = [1] * (2 * n - 1)
    left = [0] * m
    right = [0] * m
    for i, a, b in zip(range(m), edges.u.tolist(), edges.v.tolist()):
        # path halving: each node on the way up skips to its grandparent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            raise ValueError("edge set not a spanning tree: cycle found")
        left[i] = a
        right[i] = b
        node = n + i
        parent[a] = parent[b] = node
        size[node] = size[a] + size[b]
    return SingleLinkageTree(
        n=n, left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64), dist=w.astype(np.float64),
        size=np.array(size[n:], dtype=np.int64))


def condense_tree(slt, min_cluster_size):
    """Simplify a dendrogram to clusters of at least min_cluster_size.

    The root and every merge of at least min_cluster_size points are the
    processed nodes. At each, both qualifying children become new clusters;
    a single qualifying child continues its parent's cluster; points under
    non-qualifying children fall out at the split's lambda.

    The records come in the order of a depth-first walk that takes each
    node's right child before its left. Cluster ids ascend in that walk's
    order of splits, the left child's first. Fall records group by the
    node that sheds them, in walk order; at each node the left child's
    points come before the right child's, and within a child in the
    walk's leaf order. stability_scores sums them in this order.

    There is no walk: one pointer-doubling pass gives each node its
    right-first leaf offset, the processed nodes sort by (offset, -size)
    into walk order, and a shed child's points are the leaves at its
    offsets.
    """
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    n = slt.n
    if n == 1:
        # a lone point never splits; it leaves the root at density 0
        return CondensedTree(
            n=1, min_cluster_size=min_cluster_size,
            cluster_id=np.array([1]), cluster_parent=np.array([-1]),
            cluster_birth=np.zeros(1), cluster_size=np.array([1]),
            fall_cluster=np.array([1]), fall_point=np.array([0]),
            fall_lambda=np.zeros(1))
    kids = np.stack([slt.left, slt.right], axis=1)
    size = np.concatenate([np.ones(n, dtype=np.int64), slt.size])
    root = 2 * n - 2
    # offset: leaves of the right subtree, then those of the left
    up = np.empty(2 * n - 1, dtype=np.int64)
    up[kids] = np.arange(n, 2 * n - 1)[:, None]
    up[root] = root
    offset = np.zeros(2 * n - 1, dtype=np.int64)
    offset[slt.left] = size[slt.right]
    # pointer doubling: the root points at itself and adds nothing
    while (up != root).any():
        offset += offset[up]
        up = up[up]
    big = size >= min_cluster_size
    # the root is processed whatever its size; it is no node's child
    big[root] = True
    walk = np.flatnonzero(big[n:]) + n
    # keys are distinct: nodes sharing an offset nest, so their sizes differ
    walk = walk[np.argsort(offset[walk] * (n + 1) - size[walk])]
    pairs = kids[walk - n]
    split = big[pairs].all(axis=1)
    dist = slt.dist[walk - n]
    # Python's 1.0 / d, which gives inf past the float range unwarned
    with np.errstate(divide="ignore", over="ignore"):
        lam = 1.0 / dist
    lam[dist <= 0.0] = MAX_LAMBDA
    born = np.arange(n + 1, n + 1 + 2 * split.sum())
    # a cluster's processed nodes come in one run of the walk, from the
    # node that starts it
    start = np.full(2 * n - 1, -1, dtype=np.int64)
    start[root] = n
    start[pairs[split]] = born.reshape(-1, 2)
    cluster = start[walk]
    cluster = cluster[np.maximum.accumulate(
        np.where(cluster >= 0, np.arange(walk.size), 0))]
    shed = ~big[pairs]
    child = pairs[shed]
    count = size[child]
    first = np.cumsum(count) - count
    leaf = np.empty(n, dtype=np.int64)
    leaf[offset[:n]] = np.arange(n)
    fall_at = np.repeat(offset[child] - first, count) + np.arange(n)
    per_shed = np.repeat(np.arange(walk.size), shed.sum(axis=1))
    return CondensedTree(
        n=n,
        min_cluster_size=min_cluster_size,
        cluster_id=np.arange(n, n + 1 + born.size),
        cluster_parent=np.concatenate([[-1], np.repeat(cluster[split], 2)]),
        cluster_birth=np.concatenate([[0.0], np.repeat(lam[split], 2)]),
        cluster_size=np.concatenate([[n], size[pairs[split]].ravel()]),
        fall_cluster=np.repeat(cluster[per_shed], count),
        fall_point=leaf[fall_at],
        fall_lambda=np.repeat(lam[per_shed], count),
    )


def stability_scores(ct, allow_single_cluster=False):
    """Excess-of-mass stability and the bottom-up cluster selection.

    A cluster is selected when its stability strictly exceeds the combined
    propagated stability of its children; a selected ancestor overrides any
    selected descendant. The root competes only if allow_single_cluster.
    """
    n = ct.n
    num = ct.num_clusters
    birth = ct.cluster_birth
    stab = np.zeros(num, dtype=np.float64)
    fc = ct.fall_cluster - n
    np.add.at(stab, fc, ct.fall_lambda - birth[fc])
    child_parent = ct.cluster_parent[1:] - n
    if child_parent.size:
        np.add.at(
            stab, child_parent,
            (ct.cluster_birth[1:] - birth[child_parent])
            * ct.cluster_size[1:])
    kids = [[] for _ in range(num)]
    for c in range(1, num):
        kids[ct.cluster_parent[c] - n].append(c)
    propagated = np.zeros(num, dtype=np.float64)
    candidate = np.zeros(num, dtype=bool)
    for c in range(num - 1, -1, -1):
        subtree = sum(propagated[k] for k in kids[c])
        if c == 0 and not allow_single_cluster:
            propagated[c] = subtree
            continue
        if stab[c] > subtree:
            candidate[c] = True
            propagated[c] = stab[c]
        else:
            propagated[c] = subtree
    # a selected ancestor wins over any candidate below it
    selected = np.zeros(num, dtype=bool)
    covered = np.zeros(num, dtype=bool)
    for c in range(num):
        parent = ct.cluster_parent[c] - n
        above = covered[parent] if c > 0 else False
        selected[c] = candidate[c] and not above
        covered[c] = above or selected[c]
    return StabilityScores(values=stab, selected=selected)


def extract_clusters(ct, allow_single_cluster=False):
    """Label points by their nearest selected ancestor cluster.

    Labels are ordered by decreasing member count (ties by cluster id);
    unclaimed points are noise. Strength is fall-out lambda over the largest
    fall-out lambda under the same label (1.0 when that maximum is 0).
    """
    n = ct.n
    num = ct.num_clusters
    scores = stability_scores(ct, allow_single_cluster)
    selected = scores.selected
    owner = np.full(num, -1, dtype=np.int64)
    for c in range(num):
        if selected[c]:
            owner[c] = c
        elif c > 0:
            owner[c] = owner[ct.cluster_parent[c] - n]
    point_owner = np.full(n, -1, dtype=np.int64)
    point_lambda = np.zeros(n, dtype=np.float64)
    fo = owner[ct.fall_cluster - n]
    point_owner[ct.fall_point] = fo
    point_lambda[ct.fall_point] = np.where(fo >= 0, ct.fall_lambda, 0.0)
    labels = np.full(n, -1, dtype=np.int64)
    strengths = np.zeros(n, dtype=np.float64)
    picked = np.flatnonzero(selected)
    if picked.size:
        valid = point_owner >= 0
        member_counts = np.bincount(point_owner[valid], minlength=num)
        rank = np.lexsort((picked, -member_counts[picked]))
        label_of = np.full(num, -1, dtype=np.int64)
        label_of[picked[rank]] = np.arange(picked.size)
        labels[valid] = label_of[point_owner[valid]]
        lam_max = np.zeros(num, dtype=np.float64)
        np.maximum.at(lam_max, point_owner[valid], point_lambda[valid])
        denom = lam_max[point_owner[valid]]
        strengths[valid] = np.where(
            denom <= 0.0, 1.0, point_lambda[valid] / np.where(
                denom <= 0.0, 1.0, denom))
    return ClusterAssignment(labels=labels, strengths=strengths)
