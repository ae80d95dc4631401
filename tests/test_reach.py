import numpy as np
import pytest

from riskcluster import knn
from riskcluster.datagen import SyntheticSpec, generate
from riskcluster.knn import brute_force_knn, ivf_build, ivf_search
from riskcluster.model import PointSet
from riskcluster.mst import full_graph_forest, kruskal_forest
from riskcluster.reach import EdgeList, core_distances, mutual_reach_edges

from oracle import (
    dense_core_distances, dense_mutual_reachability, mutual_reach_reference)


def _line_points():
    return PointSet(np.array([[0.0], [1.0], [3.0]]))


class TestCoreDistances:
    def test_hand_case(self):
        g = brute_force_knn(_line_points(), 2)
        core = core_distances(g, 1)
        assert core.values.tolist() == [1.0, 1.0, 2.0]

    def test_duplicate_point_zero_core(self):
        pts = PointSet(np.array([[2.0], [2.0], [9.0]]))
        g = brute_force_knn(pts, 2)
        core = core_distances(g, 1)
        assert core.values[0] == 0.0
        assert core.values[1] == 0.0

    def test_min_samples_equals_k_is_last_column(self):
        pts, _ = generate(SyntheticSpec(shape="moons", n=120, seed=1))
        g = brute_force_knn(pts, 9)
        core = core_distances(g, 9)
        assert np.array_equal(core.values, g.neighbor_dists[:, -1])

    def test_min_samples_above_k_rejected(self):
        g = brute_force_knn(_line_points(), 2)
        with pytest.raises(ValueError):
            core_distances(g, 3)

    def test_matches_oracle(self):
        pts, _ = generate(SyntheticSpec(shape="circles", n=140, seed=3))
        g = brute_force_knn(pts, 139)
        core = core_distances(g, 7)
        want = dense_core_distances(pts.data, 7)
        assert np.array_equal(core.values, want)


class TestMutualReachEdges:
    def test_hand_case(self):
        g = brute_force_knn(_line_points(), 2)
        core = core_distances(g, 1)
        edges = mutual_reach_edges(g, core)
        got = sorted(zip(edges.u.tolist(), edges.v.tolist(),
                         edges.w.tolist()))
        assert got == [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]

    def test_identical_points_zero_weights(self):
        pts = PointSet(np.zeros((5, 2)))
        g = brute_force_knn(pts, 4)
        core = core_distances(g, 2)
        edges = mutual_reach_edges(g, core)
        assert np.all(edges.w == 0.0)

    def test_weight_dominates_parts(self):
        pts, _ = generate(
            SyntheticSpec(shape="varied_variance", n=200, seed=5, dim=3))
        g = brute_force_knn(pts, 15)
        core = core_distances(g, 6)
        edges = mutual_reach_edges(g, core)
        assert np.all(edges.w >= core.values[edges.u])
        assert np.all(edges.w >= core.values[edges.v])
        # raw distance for present pairs never exceeds mutual reach weight
        dist_of = {}
        for i in range(pts.n):
            for j, d in zip(g.neighbor_ids[i], g.neighbor_dists[i]):
                a, b = (i, int(j)) if i < j else (int(j), i)
                dist_of[(a, b)] = d
        for a, b, w in zip(edges.u, edges.v, edges.w):
            assert w >= dist_of[(int(a), int(b))]

    def test_canonical_u_lt_v_and_deduplicated(self):
        pts, _ = generate(SyntheticSpec(shape="blobs", n=150, seed=8, dim=4))
        g = brute_force_knn(pts, 10)
        core = core_distances(g, 5)
        edges = mutual_reach_edges(g, core)
        assert np.all(edges.u < edges.v)
        keys = edges.u * pts.n + edges.v
        assert np.unique(keys).size == keys.size
        assert len(edges) <= pts.n * 10

    def test_symmetrization_keeps_asymmetric_pairs(self):
        # j in knn(i) but i not in knn(j) must still yield the edge
        pts = PointSet(np.array([[0.0], [0.5], [10.0]]))
        g = brute_force_knn(pts, 1)
        core = core_distances(g, 1)
        edges = mutual_reach_edges(g, core)
        pairs = set(zip(edges.u.tolist(), edges.v.tolist()))
        # 2's nearest is 1; pair (1,2) exists though 1's nearest is 0
        assert (1, 2) in pairs

    def test_full_k_matches_dense_oracle(self):
        pts, _ = generate(SyntheticSpec(shape="moons", n=90, seed=2))
        n = pts.n
        g = brute_force_knn(pts, n - 1)
        core = core_distances(g, 4)
        edges = mutual_reach_edges(g, core)
        dense = dense_mutual_reachability(pts.data, 4)
        for a, b, w in zip(edges.u, edges.v, edges.w):
            assert w == dense[int(a), int(b)]
        assert len(edges) == n * (n - 1) // 2


class TestDedupeMatchesUniqueReference:
    """The unstable-sort dedupe and the row-built full-graph matrix keep
    np.unique's edges.

    Edge order is free, so both sides are compared in (u, v) order; weights
    are compared as int64 views, so every bit counts.
    """

    def _assert_matches_reference(self, g, min_samples=4):
        core = core_distances(g, min_samples)
        edges = mutual_reach_edges(g, core)
        u, v, w = mutual_reach_reference(
            g.neighbor_ids, g.neighbor_dists, core.values)
        order = np.lexsort((edges.v, edges.u))
        assert np.array_equal(edges.u[order], u)
        assert np.array_equal(edges.v[order], v)
        assert np.array_equal(edges.w[order].view(np.int64), w.view(np.int64))

    @staticmethod
    def _points(n, seed, dim=2):
        # a few exact duplicates and a shared grid give tied distances
        rng = np.random.Generator(np.random.PCG64(seed))
        x = np.round(rng.normal(size=(n, dim)) * 4.0) / 4.0
        x[: n // 10] = x[n // 10 : 2 * (n // 10)]
        return PointSet(x)

    @pytest.mark.parametrize("n", [2, 3, 40, 301])
    def test_exact_full_rows(self, n):
        g = brute_force_knn(self._points(n, seed=n), n - 1)
        self._assert_matches_reference(g, min_samples=min(4, n - 1))

    @staticmethod
    def _wide_points():
        rng = np.random.Generator(np.random.PCG64(9))
        return PointSet(rng.normal(size=(257, 28)) + 3.0)

    @pytest.mark.parametrize("rows", [None, 37])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("tree", ["prim", "kruskal"])
    @pytest.mark.parametrize("n", [2, 3, 40, 301, "wide"])
    def test_full_graph_forest_weights_from_distance_rows(
            self, monkeypatch, n, tree, threads, rows):
        # cluster_points' forest comes from short lists and Prim, whose
        # tiles hold open vertices against one component's members; the
        # search's hold a chunk of rows against every point: exact values
        # must not depend on either. The explicit pipeline's forest, which
        # the full-graph tests of cluster_points compare against, comes
        # from the full rows through mutual_reach_edges and kruskal_forest
        pts = self._wide_points() if n == "wide" else self._points(n, seed=n)
        n = pts.n
        if rows is not None:
            monkeypatch.setattr(knn, "_BLOCK_CELLS", n * rows)
        g = brute_force_knn(pts, n - 1, threads=threads)
        core = core_distances(g, min(4, n - 1))
        u, v, w = mutual_reach_reference(
            g.neighbor_ids, g.neighbor_dists, core.values)
        # the reference's (u, v) order is the upper triangle's row order
        assert np.array_equal(np.triu_indices(n, 1), (u, v))
        if tree == "prim":
            short = brute_force_knn(pts, min(n - 1, 8), threads=threads)
            forest = full_graph_forest(
                pts, core, mutual_reach_edges(short, core),
                short.neighbor_dists[:, -1])
        else:
            forest = kruskal_forest(mutual_reach_edges(g, core), n)
        assert forest.component_count == 1
        want = np.zeros((n, n))
        want[u, v] = w
        assert np.array_equal(
            want[forest.u, forest.v].view(np.int64), forest.w.view(np.int64))

    @pytest.mark.parametrize("k", [1, 7, 150, 299])
    def test_exact_short_rows(self, k):
        g = brute_force_knn(self._points(301, seed=k, dim=3), k)
        self._assert_matches_reference(g, min_samples=1)

    def test_ivf_full_probe_full_rows(self):
        pts = self._points(257, seed=5, dim=3)
        g = ivf_search(ivf_build(pts, 8, seed=1), pts, pts.n - 1, 8)
        self._assert_matches_reference(g)

    @pytest.mark.parametrize("k", [6, 120])
    def test_asymmetric_rows_keep_row_u_copy(self, k):
        # one ulp more on every copy in the row of the larger end: only the
        # row-u copies give the reference's weights
        n = 121
        g = brute_force_knn(self._points(n, seed=k, dim=3), k)
        src = np.repeat(np.arange(n), k).reshape(n, k)
        dists = np.where(src > g.neighbor_ids,
                         np.nextafter(g.neighbor_dists, np.inf),
                         g.neighbor_dists)
        nudged = type(g)(k=k, neighbor_ids=g.neighbor_ids,
                         neighbor_dists=dists)
        core = core_distances(g, 1)
        # pairs held in both rows whose weight is the nudged distance
        both = np.zeros((n, n), dtype=bool)
        both[src, g.neighbor_ids] = True
        both &= both.T
        seen = both[src, g.neighbor_ids] & (src > g.neighbor_ids) & (
            dists > np.maximum(core.values[src],
                               core.values[g.neighbor_ids]))
        assert seen.sum() > 0
        self._assert_matches_reference(nudged, min_samples=1)


class TestEdgeList:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            EdgeList(u=np.array([1]), v=np.array([1]),
                     w=np.array([1.0]))

    def test_rejects_u_ge_v(self):
        with pytest.raises(ValueError):
            EdgeList(u=np.array([2]), v=np.array([1]),
                     w=np.array([1.0]))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            EdgeList(u=np.array([0]), v=np.array([1]),
                     w=np.array([-1.0]))
