"""Minimum spanning forest over mutual reachability edges.

The forest comes from a vectorized Borůvka over edge ranks: edges are sorted
once into ascending (w, u, v) order and each edge's position is its rank.
Ranks are distinct, so the minimum forest is unique, and it equals edge for
edge the forest Kruskal's greedy pass or a Prim over the same order builds.
"""

from dataclasses import dataclass

import numpy as np

from .reach import EdgeList


@dataclass(frozen=True)
class SpanningForest:
    """Forest edges in ascending (w, u, v) order.

    labels holds one component label per vertex: two vertices share a label
    exactly when the forest connects them.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    component_count: int
    labels: np.ndarray

    def total_weight(self):
        return float(self.w.sum())

    def __len__(self):
        return self.u.shape[0]


class UnionFind:
    """Array-backed disjoint sets, path compression plus union by rank."""

    def __init__(self, n):
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int64)

    def find(self, a):
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return int(root)

    def union(self, a, b):
        """Join the sets of a and b; returns the new root, or -1 if same."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return -1
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return ra


def sorted_edge_order(u, v, w, threads=1):
    """Permutation putting edges in ascending (w, u, v) order.

    One sort on w, then one lexsort over only the positions whose weight
    equals a neighbor's. The lexsort keys on w first, so tie runs of
    different weights that sit side by side keep their weight order. Edges
    with equal (w, u, v) may come in any order; an EdgeList has none.
    threads is accepted for compatibility and changes nothing.
    """
    order = np.argsort(w)
    ws = w[order]
    tie = ws[1:] == ws[:-1]
    if tie.any():
        tied = np.zeros(ws.size, dtype=bool)
        tied[1:] = tie
        tied[:-1] |= tie
        pos = np.flatnonzero(tied)
        seg = order[pos]
        order[pos] = seg[np.lexsort((v[seg], u[seg], w[seg]))]
    return order


def kruskal_forest(edges, n, threads=1):
    """Minimum spanning forest by Borůvka over ranks in (w, u, v) order.

    Each round, every component takes its lowest-rank outgoing edge and
    hooks to the component at the other end. Distinct ranks allow no cycle
    but a mutual pick, which is rooted at the lower label; pointer jumping
    then flattens the hooks. Components with outgoing edges at least halve
    per round. The forest equals the one Kruskal's greedy pass accepts over
    the same order, and comes back in that order. The name stays because
    the public API and the benchmark's tracer look this function up by it.
    threads is accepted for compatibility and changes nothing.
    """
    order = sorted_edge_order(edges.u, edges.v, edges.w, threads)
    m = order.size
    # live edges in rank order: component labels of both ends, and the rank
    lu = edges.u[order]
    lv = edges.v[order]
    rank = positions = np.arange(m, dtype=np.int64)
    labels = np.arange(n, dtype=np.int64)
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
    chosen = order[np.sort(np.concatenate(picked))] if picked else order[:0]
    return SpanningForest(
        n=n,
        u=edges.u[chosen],
        v=edges.v[chosen],
        w=edges.w[chosen],
        component_count=n - chosen.size,
        labels=labels,
    )


def attach_forest_root(forest):
    """Join a forest into one tree with infinite-weight synthetic edges.

    Every component's lowest-index vertex is linked to the lowest-index
    vertex of vertex 0's component; downstream those edges condense to
    density 0, so components stay independent top-level subtrees.
    """
    if forest.component_count == 1:
        return EdgeList(u=forest.u, v=forest.v, w=forest.w)
    # first index of each label is its component's lowest vertex; the
    # smallest of those is 0 itself
    _, lowest = np.unique(forest.labels, return_index=True)
    anchors = np.sort(lowest)[1:]
    return EdgeList(
        u=np.concatenate([forest.u, np.zeros(anchors.size, dtype=np.int64)]),
        v=np.concatenate([forest.v, anchors.astype(np.int64)]),
        w=np.concatenate([forest.w, np.full(anchors.size, np.inf)]),
    )
