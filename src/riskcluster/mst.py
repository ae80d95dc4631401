"""Minimum spanning forest over mutual reachability edges.

The forest comes from a vectorized Borůvka over edge ranks: edges are sorted
into ascending (w, u, v) order and each edge's position is its rank. Ranks
are distinct, so the minimum forest is unique, and it equals edge for edge
the forest Kruskal's greedy pass or a Prim over the same order builds.

A kNN graph takes one sort of its whole edge list and one Borůvka pass
over it.

The complete graph of exact HDBSCAN* (full_graph_forest) takes two steps
instead, in O(n k) memory for short kNN lists of length k plus two tiles
per thread: a Borůvka over the lists' edges that hooks a component only
along an edge no unlisted edge can undercut, then Prim over the few
components left, with their mutual reachability computed in tiles from
the points and core distances. Both compare the same (w, u, v) order without
materializing, sorting or filtering the n(n - 1)/2 edges.
"""

from dataclasses import dataclass

import numpy as np

from .knn import _BLOCK_CELLS, _TILE_CELLS
from .parallel import available_cpus, run_chunked
from .reach import EdgeList


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

    An unstable argsort on w gives the runs of equal weight; without ties
    that is the order. Otherwise one np.sort of the run-ranked key
    run * m + rank, which needs m^2 < 2^63, orders each run by the edges'
    (u, v) rank. Edges in ascending (u, v) order, as mutual_reach_edges
    returns them, are ranked by their index; other input is ranked by an
    argsort of the packed key (u << 32) | v, for which vertex ids must lie
    in [0, 2^31). Edges with equal (w, u, v) may come in any order; an
    EdgeList has none.
    """
    m = w.size
    if m * m >= 1 << 63:
        raise ValueError("m^2 must lie below 2^63 for run-ranked keys")
    if m and (min(u.min(), v.min()) < 0
              or max(u.max(), v.max()) >= 1 << 31):
        raise ValueError("vertex ids must lie in [0, 2^31)")
    order = np.argsort(w)
    ws = w[order]
    step = ws[1:] != ws[:-1]
    if step.all():
        return order
    pair = (u.astype(np.int64) << 32) | v.astype(np.int64, copy=False)
    pre = np.argsort(pair) if (pair[1:] <= pair[:-1]).any() else None
    if pre is not None:
        rank = np.empty(m, dtype=np.int64)
        rank[pre] = np.arange(m)
        order = rank[order]
    run = np.zeros(m, dtype=np.int64)
    np.cumsum(step, out=run[1:])
    run *= m
    order += run
    order.sort()
    order -= run
    return order if pre is None else pre[order]


def _boruvka(lu, lv, n, bound=None):
    """Borůvka rounds over the edges (lu, lv) of n vertices in rank order.

    Every vertex starts as its own component, labeled by its id. Each
    round, every component takes its lowest-rank outgoing edge and hooks to
    the component at the other end. Distinct ranks allow no cycle but a
    mutual pick, which is rooted at the lower label; pointer jumping then
    flattens the hooks. Components with outgoing edges at least halve per
    round. Returns each vertex's component label and the ascending
    positions of the edges Kruskal's greedy pass would accept.

    bound, if given, holds one edge position per vertex. A component then
    hooks only along an edge whose position lies below every member's
    bound, and the rounds stop when no component hooks. So the edges
    given may be a subset of the graph's, as long as every edge left out
    ranks after each given edge that lies below the bounds of its ends.
    """
    labels = np.arange(n, dtype=np.int64)
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
        if bound is not None:
            cap = np.full(n, m, dtype=np.int64)
            np.minimum.at(cap, labels, bound)
            hooks = rank[e] < cap[comps]
            if not hooks.any():
                break
            comps, e = comps[hooks], e[hooks]
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

    One sort of the whole edge list gives the ranks, and one Borůvka pass
    joins them. The forest equals the one Kruskal's greedy pass accepts
    over the same order, and comes back in that order. The name stays
    because the public API and the benchmark's tracer look this function
    up by it.
    """
    u, v, w = edges.u, edges.v, edges.w
    order = sorted_edge_order(u, v, w)
    labels, taken = _boruvka(u[order], v[order], n)
    taken = order[taken]
    # each component takes its lowest vertex as its label
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, labels, np.arange(n, dtype=np.int64))
    labels = lowest[labels]
    return SpanningForest(
        n=n,
        u=u[taken],
        v=v[taken],
        w=w[taken],
        component_count=n - taken.size,
        labels=labels,
    )


def full_graph_forest(points, core, edges, bound, threads=1):
    """Minimum spanning tree of the complete mutual reachability graph.

    edges holds the mutual reachability edges of a kNN graph of the points
    (mutual_reach_edges), and bound[x] is x's distance to its last listed
    neighbor, so no unlisted edge out of x weighs less than bound[x]. The
    tree comes in two steps, in O(n k) memory plus two tiles per thread:

    - Borůvka over the listed edges (_hooked_edges). A component
      hooks along its lightest listed edge only when that edge is strictly
      lighter than every member's bound. It is then the component's
      lightest outgoing edge of the complete graph in (w, u, v) order, so
      it belongs to the unique tree. The rounds stop when no component
      hooks.
    - Prim over the components left (_prim_components).

    The tree is the unique minimum forest kruskal_forest builds over the
    full graph's edges, and comes back in the same order.
    """
    x = np.asarray(points.data, dtype=np.float64)
    n = x.shape[0]
    if core.n != n or np.shape(bound) != (n,):
        raise ValueError("core distances not aligned with the points")
    labels, *hooked = _hooked_edges(edges, bound)
    joins = _prim_components(x, core.values, labels, threads)
    u, v, w = (np.concatenate(pair) for pair in zip(hooked, joins))
    order = sorted_edge_order(u, v, w)
    return SpanningForest(
        n=n,
        u=u[order],
        v=v[order],
        w=w[order],
        component_count=1,
        labels=np.zeros(n, dtype=np.int64),
    )


def _hooked_edges(edges, bound):
    """Borůvka over listed edges, bounded by each vertex's bound.

    Returns each vertex's component label and the (u, v, w) arrays of the
    edges hooked.
    """
    order = sorted_edge_order(edges.u, edges.v, edges.w)
    u, v, w = edges.u[order], edges.v[order], edges.w[order]
    # w sorts ascending, so w < bound holds exactly below searchsorted's
    labels, taken = _boruvka(u, v, bound.size, np.searchsorted(w, bound))
    return labels, u[taken], v[taken], w[taken]


def _prim_components(x, c, labels, threads):
    """The edges joining the components of labels into one minimum tree.

    Prim's algorithm, where a component joins whole. Its members' mutual
    reachability to every open vertex comes in tiles of up to _TILE_CELLS
    cells: open vertices are the rows and the members, in ascending id,
    the columns. Each weight takes sqdist_exact's arithmetic,
    (x_0 - y_0)^2 then += (x_d - y_d)^2, then sqrt and
    max(d, max(core_x, core_y)), so it has the bits of the pair's edge in
    mutual_reach_edges(brute_force_knn(points, n - 1), core). A row's
    first argmin is then its least (u, v) pair, and its key
    w + 1j * (u n + v) compares in (w, u, v) order: numpy orders complex
    numbers lexicographically, and u n + v is exact below 2^53. One
    np.minimum.reduceat gives each open component's lightest edge to the
    members, and the component whose edge to the tree is least joins next.
    Every pair of components is tiled once, whichever joins first, so
    Prim starts at the component of vertex 0. Rows are independent, so a
    join of _BLOCK_CELLS cells or more splits its rows across threads,
    each with its own two tiles. Returns (u, v, w) arrays.
    """
    n, dim = x.shape
    if n * n >= 1 << 53:
        raise ValueError("n^2 must lie below 2^53 for exact pair keys")
    _, comp, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    # vertices grouped by component, ascending ids within each
    ids = np.argsort(comp, kind="stable")
    comp = comp[ids]
    ends = np.cumsum(sizes)
    f = np.empty((dim + 1, n))
    f[:dim] = x[ids].T
    f[dim] = c[ids]
    open_ = np.ones(sizes.size, dtype=bool)
    best = np.full(sizes.size, np.inf, dtype=np.complex128)
    keys = np.empty(n, dtype=np.complex128)
    parts = min(threads, available_cpus())
    scratch = np.empty((parts, 2, max(_TILE_CELLS, sizes.max())))
    tree = np.empty(sizes.size - 1, dtype=np.complex128)
    j = 0
    for step in range(tree.size):
        open_[j] = False
        cols = sizes[j]
        joined = slice(ends[j] - cols, ends[j])
        xm, cm, idm = f[:dim, joined], f[dim, joined], ids[joined]
        at = np.flatnonzero(open_[comp])
        fo, io, k = f[:, at], ids[at], keys[: at.size]
        rows = max(1, _TILE_CELLS // cols)
        # a join splits from the cells of one brute_force_knn block. On a
        # 2-core VM, splitting every join past one tile (the largest held
        # 0.6 M cells) made the seed-1 exact_full_graph op 6% slower
        # (0.0335 against 0.0317 s, 4 perfbench pairs), while at
        # 10,000 x 16 splits from this size took the mst stage from
        # 1.06-1.14 s to 0.79-0.94 s (5 alternating runs)
        split = parts if at.size * cols >= _BLOCK_CELLS else 1
        chunk = -(-at.size // split)

        def tiles(start, stop):
            sq, tmp = scratch[start // chunk]
            for a in range(start, stop, rows):
                b = min(a + rows, stop)
                s = sq[: (b - a) * cols].reshape(b - a, cols)
                t = tmp[: s.size].reshape(s.shape)
                np.subtract(xm[0], fo[0, a:b, None], out=s)
                s *= s
                for d in range(1, dim):
                    np.subtract(xm[d], fo[d, a:b, None], out=t)
                    t *= t
                    s += t
                np.sqrt(s, out=s)
                # the operands in mutual_reach_edges' order (see there)
                np.maximum(cm, fo[dim, a:b, None], out=t)
                np.maximum(s, t, out=s)
                arg = s.argmin(axis=1)
                k.real[a:b] = s[np.arange(b - a), arg]
                xa, ya = idm[arg], io[a:b]
                k.imag[a:b] = np.minimum(xa, ya) * n + np.maximum(xa, ya)

        run_chunked(tiles, at.size, parts, chunk)
        live = np.flatnonzero(open_)
        heads = np.cumsum(sizes[live]) - sizes[live]
        best[live] = np.minimum(best[live], np.minimum.reduceat(k, heads))
        j = live[best[live].argmin()]
        tree[step] = best[j]
    u, v = np.divmod(tree.imag.astype(np.int64), n)
    return u, v, tree.real


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
