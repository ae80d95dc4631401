"""Independent dense reference implementations used to cross-check the package.

Everything in this module is written against full n x n matrices, their rows,
or a plain edge list, with the simplest control flow that could possibly work,
trading memory and speed for obviousness. The package under test never imports
anything from here; the package and this module are only allowed to agree
through their outputs.
"""

from collections import namedtuple

import numpy as np

MAX_LAMBDA = 1e300

DenseForest = namedtuple("DenseForest", "u v w component_count")


def dense_sqdist(points):
    """Full n x n squared euclidean distance matrix in float64.

    Accumulates one dimension at a time, in index order, so the floating point
    result of every pair is a fixed sequence of operations independent of how
    the caller chunks or batches its own computation.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    d2 = np.zeros((n, n), dtype=np.float64)
    for d in range(x.shape[1]):
        col = x[:, d]
        diff = col[:, None] - col[None, :]
        d2 += diff * diff
    return d2


def dense_knn(points, k):
    """Exact k nearest neighbors by full sort, ties broken by smaller index.

    Self is excluded. Returns (ids, dists) with rows ordered by (distance, id).
    Distances are euclidean (square roots of dense_sqdist values).
    """
    d2 = dense_sqdist(points)
    n = d2.shape[0]
    ids = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    col = np.arange(n)
    for i in range(n):
        order = np.lexsort((col, d2[i]))
        order = order[order != i][:k]
        ids[i] = order
        dists[i] = np.sqrt(d2[i][order])
    return ids, dists


def vote_reference(train, train_labels, queries, k):
    """Distance-weighted kNN vote, one query at a time.

    Each query's k nearest training points by (distance, index) add weight
    1/distance to the bucket of their label, noise (-1) included; the
    heaviest bucket wins, ties toward the smaller label, and the strength is
    its share of the total, 0 for noise. A query at distance 0 from a
    training point takes the label of the lowest such index, strength 1 (0
    for noise). Returns (labels, strengths).
    """
    t = np.asarray(train, dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    shifted = np.asarray(train_labels, dtype=np.int64) + 1
    nbuckets = int(shifted.max()) + 1
    col = np.arange(t.shape[0])
    labels = np.empty(q.shape[0], dtype=np.int64)
    strengths = np.empty(q.shape[0], dtype=np.float64)
    for r in range(q.shape[0]):
        d2 = np.zeros(t.shape[0], dtype=np.float64)
        for d in range(t.shape[1]):
            diff = q[r, d] - t[:, d]
            d2 += diff * diff
        row_i = np.lexsort((col, d2))[:k]
        row_d = np.sqrt(d2[row_i])
        if row_d[0] == 0.0:
            labels[r] = shifted[row_i[0]] - 1
            strengths[r] = 0.0 if labels[r] == -1 else 1.0
            continue
        votes = np.bincount(
            shifted[row_i], weights=1.0 / row_d, minlength=nbuckets)
        winner = int(np.argmax(votes))
        labels[r] = winner - 1
        strengths[r] = (
            0.0 if winner == 0 else float(votes[winner] / votes.sum()))
    return labels, strengths


def session_features_reference(events):
    """One session's 16 handcrafted features, one event at a time.

    events are (page_type, dwell_ms) pairs. Counts are per page type in the
    order view, search, cart, checkout, account, other (unknown types count
    as other); then total events, distinct page types, total dwell (the
    float64 sum truncated to an int), mean, max, min and population
    variance of dwell, total dwell again as the session duration, checkouts
    per view (0 without views) and the search count again. Every dwell
    statistic is numpy's reduction of the session's own 1-d float64 array.
    """
    counts = dict.fromkeys(
        ("view", "search", "cart", "checkout", "account", "other"), 0)
    dwells = []
    for page, dwell in events:
        counts[page if page in counts else "other"] += 1
        dwells.append(dwell)
    dw = np.asarray(dwells, dtype=np.float64)
    total_dwell = int(dw.sum())
    views = counts["view"]
    return np.array(
        [*counts.values(), len(dwells),
         sum(1 for c in counts.values() if c > 0),
         total_dwell, float(dw.mean()), int(dw.max()), int(dw.min()),
         float(dw.var()), total_dwell,
         0.0 if views == 0 else counts["checkout"] / views,
         counts["search"]],
        dtype=np.float64)


def dense_core_distances(points, min_samples):
    """Distance to the min_samples-th nearest neighbor, self excluded.

    Sorting the full row including the self entry and indexing position
    min_samples is equivalent to dropping self first: self contributes exactly
    one zero at the front.
    """
    d2 = dense_sqdist(points)
    return np.sqrt(np.sort(d2, axis=1)[:, min_samples])


def dense_mutual_reachability(points, min_samples):
    """Full matrix of max(core_i, core_j, d_ij) with zero diagonal."""
    core = dense_core_distances(points, min_samples)
    d = np.sqrt(dense_sqdist(points))
    w = np.maximum(d, np.maximum(core[:, None], core[None, :]))
    np.fill_diagonal(w, 0.0)
    return w


def mutual_reach_reference(neighbor_ids, neighbor_dists, core):
    """Mutual reachability edges of a kNN graph, deduplicated by np.unique.

    Every directed entry src -> dst of the graph is weighted
    max(d, max(core[src], core[dst])); np.unique over the undirected keys
    u * n + v keeps each pair's first entry in row-major order, which is
    the copy in row u whenever row u holds the pair. Returns (u, v, w) in
    ascending (u, v) order.
    """
    n, k = neighbor_ids.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = neighbor_ids.ravel().astype(np.int64)
    d = neighbor_dists.ravel()
    w = np.maximum(d, np.maximum(core[src], core[dst]))
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    _, first = np.unique(u * n + v, return_index=True)
    return u[first], v[first], w[first]


def prim_canonical(weights):
    """MST of a dense symmetric weight matrix by Prim's algorithm.

    Every comparison uses the full edge tuple (w, min(u, v), max(u, v)), so the
    returned tree is the unique minimum spanning tree under that total order.
    Returns a list of (u, v, w) with u < v, sorted by (w, u, v).
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if n == 0:
        return []
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = w[0].copy()
    best[0] = np.inf
    best_from = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        best_masked = np.where(in_tree, np.inf, best)
        m = best_masked.min()
        cands = np.flatnonzero(best_masked == m)
        pick = min(
            cands,
            key=lambda v: (min(best_from[v], v), max(best_from[v], v)),
        )
        u = int(best_from[pick])
        v = int(pick)
        edges.append((min(u, v), max(u, v), float(best[pick])))
        in_tree[pick] = True
        new = w[pick]
        better = (new < best) & ~in_tree
        best[better] = new[better]
        best_from[better] = pick
        tied = (new == best) & ~in_tree & ~better
        for t in np.flatnonzero(tied):
            old_edge = (min(best_from[t], t), max(best_from[t], t))
            new_edge = (min(pick, t), max(pick, t))
            if new_edge < old_edge:
                best_from[t] = pick
    edges.sort(key=lambda e: (e[2], e[0], e[1]))
    return edges


def prim_dense(points, core):
    """Exact MST of the complete mutual reachability graph, O(n) memory.

    Takes a point set (.data, .n) and core distances (.values). Each step
    expands the tree by the smallest frontier edge under the (w, u, v)
    order, computing the new vertex's distance row on the fly, one dimension
    at a time in float64 like dense_sqdist. Returns a DenseForest with edges
    sorted by (w, u, v).
    """
    n = points.n
    if core.values.shape[0] != n:
        raise ValueError("core distances not aligned with points")
    if n == 1:
        return DenseForest(
            u=np.empty(0, dtype=np.int64),
            v=np.empty(0, dtype=np.int64),
            w=np.empty(0, dtype=np.float64),
            component_count=1,
        )
    x = np.asarray(points.data, dtype=np.float64)
    c = core.values

    def reach_row(i):
        d2 = np.zeros(n, dtype=np.float64)
        for d in range(x.shape[1]):
            diff = x[i, d] - x[:, d]
            d2 += diff * diff
        row = np.sqrt(d2)
        np.maximum(row, c, out=row)
        np.maximum(row, c[i], out=row)
        row[i] = np.inf
        return row

    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = reach_row(0)
    best_from = np.zeros(n, dtype=np.int64)
    out_u = np.empty(n - 1, dtype=np.int64)
    out_v = np.empty(n - 1, dtype=np.int64)
    out_w = np.empty(n - 1, dtype=np.float64)
    for step in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        m = masked.min()
        cands = np.flatnonzero(masked == m)
        if cands.size > 1:
            eu = np.minimum(best_from[cands], cands)
            ev = np.maximum(best_from[cands], cands)
            pick = int(cands[np.lexsort((ev, eu))[0]])
        else:
            pick = int(cands[0])
        src = int(best_from[pick])
        out_u[step] = min(src, pick)
        out_v[step] = max(src, pick)
        out_w[step] = best[pick]
        in_tree[pick] = True
        row = reach_row(pick)
        row[in_tree] = np.inf
        closer = row < best
        best[closer] = row[closer]
        best_from[closer] = pick
        tied = np.flatnonzero((row == best) & ~closer & ~in_tree)
        if tied.size:
            new_u = np.minimum(pick, tied)
            new_v = np.maximum(pick, tied)
            old_u = np.minimum(best_from[tied], tied)
            old_v = np.maximum(best_from[tied], tied)
            better = (new_u < old_u) | ((new_u == old_u) & (new_v < old_v))
            best_from[tied[better]] = pick
    final = np.lexsort((out_v, out_u, out_w))
    return DenseForest(
        u=out_u[final],
        v=out_v[final],
        w=out_w[final],
        component_count=1,
    )


def kruskal_reference(u, v, w, n):
    """Kruskal's greedy spanning forest over edges in (w, u, v) order.

    A dict union-find whose roots are always the lowest vertex of their
    tree. Returns (edges, lowest): the accepted (u, v, w) tuples in the
    order they were accepted, and per vertex the lowest vertex of its tree.
    """
    parent = {}

    def find(a):
        root = a
        while parent.get(root, root) != root:
            root = parent[root]
        while a != root:
            parent[a], a = root, parent[a]
        return root

    edges = []
    for i in np.lexsort((v, u, w)):
        a, b = int(u[i]), int(v[i])
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            edges.append((a, b, float(w[i])))
    return edges, [find(x) for x in range(n)]


def single_linkage_from_edges(edges, n):
    """Union-find dendrogram from MST edges already sorted by (w, u, v).

    Returns merges as a list of (left_id, right_id, height, size) where new
    internal nodes are numbered n, n+1, ... in merge order and left_id is the
    root id of the component containing the smaller-index endpoint.
    """
    parent = list(range(2 * n - 1))
    size = [1] * (2 * n - 1)

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    merges = []
    next_id = n
    for u, v, w in edges:
        ra, rb = find(u), find(v)
        merges.append((ra, rb, w, size[ra] + size[rb]))
        parent[ra] = parent[rb] = next_id
        size[next_id] = size[ra] + size[rb]
        next_id += 1
    return merges


def _lambda_of(distance):
    if distance == np.inf:
        return 0.0
    if distance <= 0.0:
        return MAX_LAMBDA
    return 1.0 / distance


def condense_merges(merges, n, min_cluster_size):
    """Condensed tree rows (parent, child, lambda, size) from a dendrogram.

    The root cluster has id n. A split creates new clusters only when both
    sides have at least min_cluster_size points; a single surviving side
    continues its parent's cluster; points of undersized sides fall out at the
    lambda of the split that shed them.
    """
    if min_cluster_size < 2:
        raise ValueError("min_cluster_size must be at least 2")
    if n == 1:
        return [], {}
    children = {}
    sizes = {i: 1 for i in range(n)}
    for i, (a, b, w, s) in enumerate(merges):
        children[n + i] = (a, b, w)
        sizes[n + i] = s

    def leaves_iter(node):
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur < n:
                yield cur
            else:
                a, b, _ = children[cur]
                stack.append(a)
                stack.append(b)

    rows = []
    root = n + len(merges) - 1
    next_cluster = n + 1
    birth = {n: 0.0}
    stack = [(root, n)]
    while stack:
        node, cluster = stack.pop()
        a, b, w = children[node]
        lam = _lambda_of(w)
        big_a = sizes[a] >= min_cluster_size
        big_b = sizes[b] >= min_cluster_size
        if big_a and big_b:
            for side in (a, b):
                cid = next_cluster
                next_cluster += 1
                rows.append((cluster, cid, lam, sizes[side]))
                birth[cid] = lam
                if side >= n:
                    stack.append((side, cid))
                else:
                    raise AssertionError("a lone point cannot reach size 2")
        else:
            for side in (a, b):
                if sizes[side] >= min_cluster_size:
                    if side >= n:
                        stack.append((side, cluster))
                    continue
                for p in leaves_iter(side):
                    rows.append((cluster, p, lam, 1))
    return rows, birth


def stability_scores(rows, birth):
    """Sum of (lambda - birth(parent)) * size over each parent's child rows."""
    scores = {c: 0.0 for c in birth}
    for parent, _, lam, size in rows:
        scores[parent] += (lam - birth[parent]) * size
    return scores


def eom_select(rows, birth, n, allow_single_cluster=False):
    """Excess-of-mass cluster selection, bottom up.

    A cluster is selected when its own stability strictly exceeds the combined
    stability propagated from its children; selecting it deselects every
    descendant. The root only competes when allow_single_cluster is set.
    """
    scores = stability_scores(rows, birth)
    kids = {c: [] for c in birth}
    for parent, child, _, size in rows:
        if child >= n:
            kids[parent].append(child)
    selected = set()
    propagated = {}
    for c in sorted(birth, reverse=True):
        subtree = sum(propagated[k] for k in kids[c])
        if c == n and not allow_single_cluster:
            propagated[c] = subtree
            continue
        if scores[c] > subtree:
            selected.add(c)
            drop = list(kids[c])
            while drop:
                d = drop.pop()
                selected.discard(d)
                drop.extend(kids[d])
            propagated[c] = scores[c]
        else:
            propagated[c] = subtree
    return selected


def labels_from_selection(rows, selected, n):
    """Point labels and strengths given the selected condensed clusters.

    A point belongs to the nearest selected ancestor of the cluster it fell
    out of, or is noise (-1). Labels number the selected clusters by
    decreasing member count (ties by ascending cluster id). Strength is the
    point's fall-out lambda divided by the largest fall-out lambda under the
    same label, 0 for noise, and 1 when that maximum is 0.
    """
    parent_of = {}
    fall = {}
    for parent, child, lam, _ in rows:
        if child >= n:
            parent_of[child] = parent
        else:
            fall[child] = (parent, lam)
    owner = np.full(n, -1, dtype=np.int64)
    lam_point = np.zeros(n, dtype=np.float64)
    for p in range(n):
        if p not in fall:
            continue
        cluster, lam = fall[p]
        while cluster is not None and cluster not in selected:
            cluster = parent_of.get(cluster)
        if cluster is not None:
            owner[p] = cluster
            lam_point[p] = lam
    counts = {c: int((owner == c).sum()) for c in selected}
    ordered = sorted(selected, key=lambda c: (-counts[c], c))
    label_of_cluster = {c: i for i, c in enumerate(ordered)}
    labels = np.full(n, -1, dtype=np.int64)
    for p in range(n):
        if owner[p] >= 0:
            labels[p] = label_of_cluster[owner[p]]
    strengths = np.zeros(n, dtype=np.float64)
    for lab in set(labels[labels >= 0].tolist()):
        mask = labels == lab
        lam_max = lam_point[mask].max()
        if lam_max <= 0.0:
            strengths[mask] = 1.0
        else:
            strengths[mask] = lam_point[mask] / lam_max
    return labels, strengths


def reference_cluster(points, min_samples, min_cluster_size,
                      allow_single_cluster=False):
    """End-to-end reference clustering: labels and strengths for points."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if n == 1:
        return np.array([-1], dtype=np.int64), np.zeros(1, dtype=np.float64)
    w = dense_mutual_reachability(points, min(min_samples, n - 1))
    edges = prim_canonical(w)
    merges = single_linkage_from_edges(edges, n)
    rows, birth = condense_merges(merges, n, min_cluster_size)
    selected = eom_select(rows, birth, n, allow_single_cluster)
    return labels_from_selection(rows, selected, n)


def pair_counting_ari(a, b):
    """Adjusted Rand index by direct O(n^2) pair counting."""
    a = list(a)
    b = list(b)
    n = len(a)
    both = in_a = in_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            in_a += sa
            in_b += sb
            both += sa and sb
    total = n * (n - 1) // 2
    if total == 0:
        return 1.0
    expected = in_a * in_b / total
    maximum = (in_a + in_b) / 2
    if maximum == expected:
        return 1.0
    return (both - expected) / (maximum - expected)


def condensed_invariants(rows, n, min_cluster_size):
    """Structural checks on a condensed tree; returns a list of violations."""
    problems = []
    birth = {n: 0.0}
    size_at_birth = {n: n}
    for parent, child, lam, size in rows:
        if child >= n:
            birth[child] = lam
            size_at_birth[child] = size
    shed = {c: 0 for c in birth}
    seen_points = {}
    for parent, child, lam, size in rows:
        if parent not in birth:
            problems.append(f"row parent {parent} is not a known cluster")
            continue
        if lam < birth[parent] and not np.isclose(lam, birth[parent]):
            problems.append(
                f"child lambda {lam} below parent birth {birth[parent]}")
        shed[parent] += size
        if child < n:
            if size != 1:
                problems.append(f"point row for {child} has size {size}")
            if child in seen_points:
                problems.append(f"point {child} falls out twice")
            seen_points[child] = True
        elif size < min_cluster_size:
            problems.append(f"cluster {child} born below min_cluster_size")
    for c in birth:
        if shed[c] != size_at_birth[c]:
            problems.append(
                f"cluster {c} sheds {shed[c]} of {size_at_birth[c]} points")
    if len(seen_points) != n:
        problems.append(f"{len(seen_points)} of {n} points fall out")
    return problems
