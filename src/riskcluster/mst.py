"""Minimum spanning forest over mutual reachability edges.

The forest comes from a vectorized Borůvka over edge ranks: edges are sorted
into ascending (w, u, v) order and each edge's position is its rank. Ranks
are distinct, so the minimum forest is unique, and it equals edge for edge
the forest Kruskal's greedy pass or a Prim over the same order builds.

A dense edge list goes in rank-prefix blocks, as in Filter-Kruskal (Osipov,
Sanders & Singler, ALENEX 2009): while more than _PREFIX_DEGREE * n edges
remain, the block is every edge with w <= t, t the weight at that rank, so
ties at t come along and the block is a prefix of the (w, u, v) order. Only
the block is sorted and joined; then every remaining edge inside one
component is dropped unsorted. A sparser graph, as a kNN graph with small k
is, takes one block: a partition and a filter pass would only add to its
one sort.

The complete graph of exact HDBSCAN* comes as a weight matrix instead and
takes Prim's algorithm (prim_forest), which compares the same (w, u, v)
order without materializing, sorting or filtering an edge.
"""

from dataclasses import dataclass

import numpy as np

from .reach import EdgeList

# edges per vertex in a rank-prefix block
_PREFIX_DEGREE = 16


@dataclass(frozen=True)
class SpanningForest:
    """Forest edges in ascending (w, u, v) order.

    labels holds one component label per vertex, the lowest vertex of its
    component: two vertices share a label exactly when the forest connects
    them.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    component_count: int
    labels: np.ndarray

    def __len__(self):
        return self.u.shape[0]


def sorted_edge_order(u, v, w):
    """Permutation putting edges in ascending (w, u, v) order.

    One sort on w, then a repair over only the positions whose weight
    equals a neighbor's: an argsort of the packed key (u << 32) | v, then a
    stable argsort on w, so tie runs of different weights that sit side by
    side keep their weight order. Vertex ids must lie in [0, 2^31) for the
    key to pack. Edges with equal (w, u, v) may come in any order; an
    EdgeList has none.
    """
    if u.size and (min(u.min(), v.min()) < 0
                   or max(u.max(), v.max()) >= 1 << 31):
        raise ValueError("vertex ids must lie in [0, 2^31)")
    order = np.argsort(w)
    ws = w[order]
    tie = ws[1:] == ws[:-1]
    if tie.any():
        tied = np.zeros(ws.size, dtype=bool)
        tied[1:] = tie
        tied[:-1] |= tie
        pos = np.flatnonzero(tied)
        seg = order[pos]
        p = np.argsort(
            (u[seg].astype(np.int64, copy=False) << 32)
            | v[seg].astype(np.int64, copy=False))
        order[pos] = seg[p[np.argsort(w[seg][p], kind="stable")]]
    return order


def _boruvka(lu, lv, labels):
    """Borůvka rounds over edges in rank order between distinct components.

    lu and lv are the component labels of each edge's ends; labels holds a
    vertex id per vertex. Each round, every component takes its lowest-rank
    outgoing edge and hooks to the component at the other end. Distinct
    ranks allow no cycle but a mutual pick, which is rooted at the lower
    label; pointer jumping then flattens the hooks. Components with
    outgoing edges at least halve per round. Returns the new labels and the
    ascending positions of the edges Kruskal's greedy pass would accept.
    """
    n = labels.size
    m = lu.size
    rank = positions = np.arange(m, dtype=np.int64)
    picked = []
    while rank.size:
        # positions ascend with rank, so the lowest position is the lightest
        pos = positions[: rank.size]
        best = np.full(n, m, dtype=np.int64)
        np.minimum.at(best, lu, pos)
        np.minimum.at(best, lv, pos)
        comps = np.flatnonzero(best < m)
        e = best[comps]
        other = np.where(lu[e] == comps, lv[e], lu[e])
        hook = np.arange(n, dtype=np.int64)
        hook[comps] = other
        # a mutual pick names one edge twice; keep it once, at the non-root
        root = (hook[other] == comps) & (comps < other)
        hook[comps[root]] = comps[root]
        picked.append(rank[e[~root]])
        while True:
            jumped = hook[hook]
            if np.array_equal(jumped, hook):
                break
            hook = jumped
        labels = hook[labels]
        lu = hook[lu]
        lv = hook[lv]
        cross = lu != lv
        lu, lv, rank = lu[cross], lv[cross], rank[cross]
    taken = np.sort(np.concatenate(picked)) if picked else positions[:0]
    return labels, taken


def kruskal_forest(edges, n):
    """Minimum spanning forest by Borůvka over ranks in (w, u, v) order.

    It equals the forest Kruskal's greedy pass accepts over the same order,
    and comes back in that order. The name stays because the public API and
    the benchmark's tracer look this function up by it.
    """
    u, v, w = edges.u, edges.v, edges.w
    labels = np.arange(n, dtype=np.int64)
    cap = _PREFIX_DEGREE * n
    out = [(u[:0], v[:0], w[:0])]
    while u.size:
        last = u.size <= cap
        block = slice(None) if last else w <= np.partition(w, cap)[cap]
        bu, bv, bw = u[block], v[block], w[block]
        order = sorted_edge_order(bu, bv, bw)
        labels, taken = _boruvka(
            labels[bu[order]], labels[bv[order]], labels)
        taken = order[taken]
        out.append((bu[taken], bv[taken], bw[taken]))
        if last:
            break
        # the block joined both ends of each of its edges, so this drops
        # the block along with every other edge inside one component
        cross = labels[u] != labels[v]
        u, v, w = u[cross], v[cross], w[cross]
    # each component takes its lowest vertex as its label
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, labels, np.arange(n, dtype=np.int64))
    labels = lowest[labels]
    fu, fv, fw = (np.concatenate(a) for a in zip(*out))
    return SpanningForest(
        n=n,
        u=fu,
        v=fv,
        w=fw,
        component_count=n - fu.size,
        labels=labels,
    )


def prim_forest(m):
    """Minimum spanning tree of a complete graph by Prim's algorithm.

    m is a symmetric n x n weight matrix (reach.mutual_reach_matrix); its
    diagonal is ignored. No edge is materialized, sorted or filtered: best
    and src hold, for every vertex outside the tree, its lightest edge to
    the tree under the (w, u, v) order. The vertex whose edge is least
    joins next; a row that ties best takes it where its end is the smaller,
    since for a fixed x the smaller tree end gives the smaller (w, u, v)
    edge. The tree is the unique minimum forest kruskal_forest builds over
    the same edges, in the same order.
    """
    n = m.shape[0]
    best = m[0].copy()
    src = np.zeros(n, dtype=np.int64)
    open_ = np.ones(n, dtype=bool)
    open_[0] = False
    best[0] = np.inf
    tu, tv, tw = [], [], []
    for _ in range(n - 1):
        x = int(best.argmin())
        w = best[x]
        best[x] = np.inf
        if best[best.argmin()] == w:
            # tied on w: the least (min(src, x), max(src, x)) joins
            best[x] = w
            tied = np.flatnonzero(best == w)
            s = src[tied]
            lo, hi = np.minimum(s, tied), np.maximum(s, tied)
            x = int(tied[np.lexsort((hi, lo))[0]])
            best[x] = np.inf
        s = int(src[x])
        tu.append(min(s, x))
        tv.append(max(s, x))
        tw.append(w)
        open_[x] = False
        row = m[x]
        take = row < best
        take |= (row == best) & (x < src)
        take &= open_
        src[take] = x
        np.copyto(best, row, where=take)
    u = np.array(tu, dtype=np.int64)
    v = np.array(tv, dtype=np.int64)
    w = np.array(tw, dtype=np.float64)
    order = sorted_edge_order(u, v, w)
    return SpanningForest(
        n=n,
        u=u[order],
        v=v[order],
        w=w[order],
        component_count=1,
        labels=np.zeros(n, dtype=np.int64),
    )


def attach_forest_root(forest):
    """Join a forest into one tree with infinite-weight synthetic edges.

    Every component's lowest-index vertex is linked to the lowest-index
    vertex of vertex 0's component; downstream those edges condense to
    density 0, so components stay independent top-level subtrees.
    """
    if forest.component_count == 1:
        return EdgeList(u=forest.u, v=forest.v, w=forest.w)
    # a component's lowest vertex is its label; the first of them is 0
    anchors = np.flatnonzero(forest.labels == np.arange(forest.n))[1:]
    return EdgeList(
        u=np.concatenate([forest.u, np.zeros(anchors.size, dtype=np.int64)]),
        v=np.concatenate([forest.v, anchors.astype(np.int64)]),
        w=np.concatenate([forest.w, np.full(anchors.size, np.inf)]),
    )
