"""Single-linkage dendrogram, condensation, and stable-cluster extraction.

lambda = 1/distance is the density scale: zero-length merges are capped at
MAX_LAMBDA, synthetic infinite edges map to lambda 0. Condensation walks the
dendrogram with an explicit stack; recursion would die on degenerate chains
(a merge chain can be as deep as the dataset).

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
    path compression over the node parent slots.
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
    left, right = [], []

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for node, a, b in zip(
            range(n, 2 * n - 1), edges.u.tolist(), edges.v.tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("edge set not a spanning tree: cycle found")
        left.append(ra)
        right.append(rb)
        parent[ra] = parent[rb] = node
        size[node] = size[ra] + size[rb]
    return SingleLinkageTree(
        n=n, left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64), dist=w.astype(np.float64),
        size=np.array(size[n:], dtype=np.int64))


def _lambda_of(distance):
    if distance == np.inf:
        return 0.0
    if distance <= 0.0:
        return MAX_LAMBDA
    return 1.0 / distance


def condense_tree(slt, min_cluster_size):
    """Simplify a dendrogram to clusters of at least min_cluster_size.

    Top-down walk with an explicit stack. At each split both qualifying
    children become new clusters; a single qualifying child continues its
    parent's cluster; points under non-qualifying children fall out at the
    split's lambda.
    """
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be >= 2")
    n = slt.n
    cl_id = [n]
    cl_parent = [-1]
    cl_birth = [0.0]
    cl_size = [n]
    f_cluster = []
    f_point = []
    f_lambda = []
    if n == 1:
        # a lone point never splits; it leaves the root at density 0
        f_cluster.append(n)
        f_point.append(0)
        f_lambda.append(0.0)
    else:
        left = slt.left.tolist()
        right = slt.right.tolist()
        dist = slt.dist.tolist()
        size = slt.size.tolist()

        def size_of(node):
            return 1 if node < n else size[node - n]

        def shed(node, cluster, lam):
            walk = [node]
            while walk:
                cur = walk.pop()
                if cur < n:
                    f_cluster.append(cluster)
                    f_point.append(cur)
                    f_lambda.append(lam)
                else:
                    walk.append(left[cur - n])
                    walk.append(right[cur - n])

        stack = [(2 * n - 2, n)]
        while stack:
            node, cluster = stack.pop()
            i = node - n
            lam = _lambda_of(dist[i])
            a, b = left[i], right[i]
            big_a = size_of(a) >= min_cluster_size
            big_b = size_of(b) >= min_cluster_size
            if big_a and big_b:
                for side in (a, b):
                    cid = n + len(cl_id)
                    cl_id.append(cid)
                    cl_parent.append(cluster)
                    cl_birth.append(lam)
                    cl_size.append(size_of(side))
                    stack.append((side, cid))
            else:
                for side, big in ((a, big_a), (b, big_b)):
                    if big:
                        stack.append((side, cluster))
                    else:
                        shed(side, cluster, lam)
    return CondensedTree(
        n=n,
        min_cluster_size=min_cluster_size,
        cluster_id=np.array(cl_id, dtype=np.int64),
        cluster_parent=np.array(cl_parent, dtype=np.int64),
        cluster_birth=np.array(cl_birth, dtype=np.float64),
        cluster_size=np.array(cl_size, dtype=np.int64),
        fall_cluster=np.array(f_cluster, dtype=np.int64),
        fall_point=np.array(f_point, dtype=np.int64),
        fall_lambda=np.array(f_lambda, dtype=np.float64),
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
