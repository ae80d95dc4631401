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

The complete graph of exact HDBSCAN* takes Prim's algorithm (prim_forest)
instead, over mutual reachability rows computed on demand from the points
and core distances, in O(n d) memory. It compares the same (w, u, v) order
without materializing, sorting or filtering an edge.
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


def prim_forest(points, core):
    """Minimum spanning tree of the complete mutual reachability graph.

    Prim's algorithm over rows computed on demand, in O(n d) memory: no
    n x n matrix, and no edge materialized, sorted or filtered. The open
    vertices stay contiguous, one column each: their coordinates (one row
    per dimension), core distance and id in a float64 block, where ids
    below 2^53 are exact, and best + 1j * src, each one's lightest edge to
    the tree and its tree end. A joined vertex is swap-removed. Its row
    against the open vertices b takes sqdist_exact's arithmetic,
    (x_0 - b_0)^2 then += (x_d - b_d)^2, then sqrt and
    max(d, max(core_x, core_b)), so each weight has the bits of the pair's
    edge in mutual_reach_edges(brute_force_knn(points, n - 1), core).

    numpy orders complex numbers lexicographically, so one minimum updates
    best and src: a row that ties best takes it where its end is the
    smaller, since for a fixed x the smaller tree end gives the smaller
    (w, u, v) edge. The vertex whose edge is least joins next. Both rules
    look at ids only, so the order of the positions does not matter. The
    tree is the unique minimum forest kruskal_forest builds over the same
    edges, in the same order.
    """
    x = np.asarray(points.data, dtype=np.float64)
    n, dim = x.shape
    if core.n != n:
        raise ValueError("core distances not aligned with the points")
    f = np.empty((dim + 2, n))
    coords, (c, ids) = f[:dim], f[dim:]
    coords[:] = x.T
    c[:] = core.values
    ids[:] = np.arange(n)
    best = np.full(n, np.inf, dtype=np.complex128)
    row = np.empty(n, dtype=np.complex128)
    sq, tmp = np.empty((2, n))
    tree = []
    # vertex 0 joins first
    j, m = 0, n
    while True:
        m -= 1
        *xq, cx, xid = f[:, j].tolist()
        f[:, j] = f[:, m]
        best[j] = best[m]
        if not m:
            break
        r, t, b, rc = sq[:m], tmp[:m], best[:m], row[:m]
        w = b.real
        np.subtract(xq[0], coords[0, :m], out=r)
        r *= r
        for d in range(1, dim):
            np.subtract(xq[d], coords[d, :m], out=t)
            t *= t
            r += t
        np.sqrt(r, out=r)
        # the operands in mutual_reach_edges' order (see there)
        np.maximum(cx, c[:m], out=t)
        np.maximum(r, t, out=rc.real)
        rc.imag = xid
        np.minimum(b, rc, out=b)
        j = int(w.argmin())
        e = b[j]
        b[j] = np.inf
        if w[w.argmin()] == e.real:
            # tied on w: the least (min(src, id), max(src, id)) joins
            b[j] = e
            tied = np.flatnonzero(w == e.real)
            lo = np.minimum(b[tied].imag, ids[tied])
            hi = np.maximum(b[tied].imag, ids[tied])
            j = int(tied[np.lexsort((hi, lo))[0]])
            e = b[j]
        tree.append((e.imag, ids[j], e.real))
    p, q, w = np.array(tree).reshape(-1, 3).T
    u = np.minimum(p, q).astype(np.int64)
    v = np.maximum(p, q).astype(np.int64)
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
