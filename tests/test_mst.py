import numpy as np
import pytest

from riskcluster.datagen import SyntheticSpec, generate
from riskcluster.knn import brute_force_knn, ivf_build, ivf_search
from riskcluster.model import PointSet
from riskcluster.mst import (
    attach_forest_root, kruskal_forest, prim_forest, sorted_edge_order)
from riskcluster.reach import EdgeList, core_distances, mutual_reach_edges

from oracle import (
    dense_mutual_reachability, kruskal_reference, prim_canonical, prim_dense)


def _reach_edges(pts, min_samples, k=None):
    k = k if k is not None else pts.n - 1
    g = brute_force_knn(pts, k)
    core = core_distances(g, min_samples)
    return core, mutual_reach_edges(g, core)


class TestKruskal:
    def test_hand_case(self):
        pts = PointSet(np.array([[0.0], [1.0], [3.0]]))
        _, edges = _reach_edges(pts, 1)
        forest = kruskal_forest(edges, 3)
        got = sorted(zip(forest.u.tolist(), forest.v.tolist(),
                         forest.w.tolist()))
        assert got == [(0, 1, 1.0), (1, 2, 2.0)]
        assert forest.component_count == 1

    def test_empty_edges(self):
        empty = EdgeList(
            u=np.empty(0, dtype=np.int64), v=np.empty(0, dtype=np.int64),
            w=np.empty(0))
        forest = kruskal_forest(empty, 4)
        assert forest.component_count == 4
        assert forest.u.size == 0

    def test_matches_prim_total_weight(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for trial in range(10):
            n = int(rng.integers(30, 200))
            pts, _ = generate(SyntheticSpec(
                shape="uniform_noise", n=n,
                seed=int(rng.integers(100000)), dim=3))
            core, edges = _reach_edges(pts, 4)
            kf = kruskal_forest(edges, n)
            pf = prim_dense(pts, core)
            assert kf.w.sum() == pytest.approx(pf.w.sum(), rel=0, abs=0)

    def test_same_edges_as_canonical_prim(self):
        # the (w, u, v) tie rule makes the MST unique, so the edge SETS
        # must match exactly, not only the total weight
        pts, _ = generate(SyntheticSpec(shape="blobs", n=180, seed=21))
        core, edges = _reach_edges(pts, 5)
        kf = kruskal_forest(edges, pts.n)
        want = prim_canonical(dense_mutual_reachability(pts.data, 5))
        got = list(zip(kf.u.tolist(), kf.v.tolist(), kf.w.tolist()))
        assert got == want

    def test_duplicate_points_all_zero_weights(self):
        pts = PointSet(np.zeros((12, 3)))
        core, edges = _reach_edges(pts, 2)
        forest = kruskal_forest(edges, 12)
        assert forest.u.size == 11
        assert np.all(forest.w == 0.0)

    def test_disconnected_graph_gives_forest(self):
        edges = EdgeList(
            u=np.array([0, 2]), v=np.array([1, 3]),
            w=np.array([1.0, 2.0]))
        forest = kruskal_forest(edges, 5)
        assert forest.component_count == 3
        assert forest.u.size == 2


class TestSortedEdgeOrder:
    def test_ties_resolved_by_u_then_v(self):
        u = np.array([3, 0, 1, 0], dtype=np.int64)
        v = np.array([4, 2, 2, 1], dtype=np.int64)
        w = np.array([1.0, 1.0, 1.0, 0.5])
        order = sorted_edge_order(u, v, w)
        got = list(zip(u[order].tolist(), v[order].tolist(),
                       w[order].tolist()))
        assert got == [(0, 1, 0.5), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0)]


class TestPrimDense:
    def test_hand_case(self):
        pts = PointSet(np.array([[0.0], [1.0], [3.0]]))
        core, edges = _reach_edges(pts, 1)
        pf = prim_dense(pts, core)
        got = sorted(zip(pf.u.tolist(), pf.v.tolist(), pf.w.tolist()))
        assert got == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_single_point(self):
        pts = PointSet(np.array([[1.0]]))
        core = core_distances(brute_force_knn(
            PointSet(np.array([[1.0], [2.0]])), 1), 1)

        # n=1 needs its own zero-length core
        from riskcluster.reach import CoreDistances
        core = CoreDistances(values=np.zeros(1))
        pf = prim_dense(pts, core)
        assert pf.u.size == 0
        assert pf.component_count == 1

    def test_weight_not_above_restricted_kruskal(self):
        # dense Prim sees every edge, so its tree cannot weigh more than
        # a spanning tree restricted to kNN edges (when that graph is
        # connected; k=40 keeps one component on this blob)
        pts, _ = generate(SyntheticSpec(shape="blobs", n=500, seed=33))
        g = brute_force_knn(pts, 40)
        core = core_distances(g, 5)
        edges = mutual_reach_edges(g, core)
        kf = kruskal_forest(edges, pts.n)
        assert kf.component_count == 1
        pf = prim_dense(pts, core)
        assert pf.w.sum() <= kf.w.sum() + 1e-9


class TestAttachForestRoot:
    def test_single_component_unchanged(self):
        pts = PointSet(np.array([[0.0], [1.0], [3.0]]))
        _, edges = _reach_edges(pts, 1)
        forest = kruskal_forest(edges, 3)
        full = attach_forest_root(forest)
        assert len(full) == 2
        assert np.all(np.isfinite(full.w))

    def test_three_components_two_synthetic_edges(self):
        edges = EdgeList(
            u=np.array([0, 3, 6]), v=np.array([1, 4, 7]),
            w=np.array([1.0, 1.0, 1.0]))
        # vertices 0..8, extra singletons 2,5,8 joined pairwise: 6 comps
        forest = kruskal_forest(edges, 9)
        assert forest.component_count == 6
        full = attach_forest_root(forest)
        assert len(full) == 8
        synth = np.isinf(full.w)
        assert synth.sum() == 5
        # synthetic edges anchor to vertex 0's component lowest index
        assert np.all(full.u[synth] == 0)


class TestSortedEdgeOrderMatchesLexsort:
    def _check(self, u, v, w):
        order = sorted_edge_order(u, v, w)
        assert np.array_equal(order, np.lexsort((v, u, w)))

    def test_seeded_unsorted_inputs(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for trial in range(40):
            m = int(rng.integers(2, 3000))
            n = int(rng.integers(2, 200))
            # distinct (u, v) pairs, as in an EdgeList, in shuffled order
            pairs = rng.choice(n * n, size=min(m, n * n), replace=False)
            u, v = pairs // n, pairs % n
            distinct = int(rng.choice([1, 2, 5, 50, 10**9]))
            w = rng.integers(0, distinct, u.size).astype(np.float64)
            self._check(u, v, w)

    def test_adjacent_tie_runs_of_different_weights(self):
        # sorted by w the runs 1.0 and 2.0 touch; their (u, v) order is the
        # reverse of their weight order, so a repair keyed on contiguous
        # tied positions instead of on weight would interleave them
        u = np.array([0, 3, 1, 0], dtype=np.int64)
        v = np.array([2, 4, 2, 1], dtype=np.int64)
        w = np.array([2.0, 1.0, 1.0, 2.0])
        self._check(u, v, w)
        order = sorted_edge_order(u, v, w)
        assert w[order].tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_empty_and_single_edge(self):
        empty = np.empty(0, dtype=np.int64)
        assert sorted_edge_order(empty, empty, np.empty(0)).size == 0
        one = sorted_edge_order(
            np.array([2]), np.array([5]), np.array([0.5]))
        assert one.tolist() == [0]


class TestSortedEdgeOrderIdGuard:
    def test_ids_up_to_two_pow_31_minus_one_sort(self):
        top = (1 << 31) - 1
        u = np.array([top, 0, top, 5], dtype=np.int64)
        v = np.array([0, top, 7, top], dtype=np.int64)
        w = np.array([1.0, 1.0, 1.0, 0.5])
        order = sorted_edge_order(u, v, w)
        assert np.array_equal(order, np.lexsort((v, u, w)))

    @pytest.mark.parametrize("bad", [-1, 1 << 31])
    def test_rejects_ids_outside_packable_range(self, bad):
        w = np.array([1.0, 1.0])
        ok = np.array([0, 1], dtype=np.int64)
        wrong = np.array([bad, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            sorted_edge_order(wrong, ok, w)
        with pytest.raises(ValueError):
            sorted_edge_order(ok, wrong, w)


def _assert_same_forest(edges, n):
    forest = kruskal_forest(edges, n)
    want, lowest = kruskal_reference(edges.u, edges.v, edges.w, n)
    got = list(zip(forest.u.tolist(), forest.v.tolist(), forest.w.tolist()))
    assert got == want
    assert forest.component_count == len(set(lowest))
    # each vertex is labeled with the lowest vertex of its tree
    assert forest.labels.tolist() == lowest
    return forest, lowest


class TestBoruvkaMatchesKruskalReference:

    def test_tie_heavy_ivf_graph_with_many_components(self):
        pts, _ = generate(SyntheticSpec(
            shape="blobs", n=2000, dim=16, centers=64, seed=3))
        g = ivf_search(ivf_build(pts, 64, seed=0), pts, 16, 2)
        edges = mutual_reach_edges(g, core_distances(g, 16))
        assert np.unique(edges.w).size < 0.2 * len(edges)
        forest, lowest = _assert_same_forest(edges, pts.n)
        assert forest.component_count >= 32
        full = attach_forest_root(forest)
        synth = np.isinf(full.w)
        assert np.all(full.u[synth] == 0)
        assert full.v[synth].tolist() == sorted(set(lowest) - {0})

    def test_seeded_random_graphs(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for trial in range(30):
            n = int(rng.integers(1, 120))
            pairs = np.unique(rng.integers(0, n, size=(int(rng.integers(
                0, 3 * n)), 2)), axis=0)
            pairs = pairs[pairs[:, 0] < pairs[:, 1]]
            rng.shuffle(pairs)
            w = rng.integers(0, 4, len(pairs)).astype(np.float64)
            edges = EdgeList(u=pairs[:, 0].copy(), v=pairs[:, 1].copy(), w=w)
            _assert_same_forest(edges, n)


class TestDenseGraphsMatchKruskalReference:
    """Dense, tied and disconnected graphs give Kruskal's forest."""

    @staticmethod
    def _cliques(rng, sizes, cross):
        """Dense cliques, each lighter than the next, with integer weights
        in eight values per clique, plus `cross` heavy random links."""
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        pairs, weights = [], []
        for c, size in enumerate(sizes):
            a, b = np.triu_indices(size, 1)
            pairs.append(np.column_stack([a, b]) + offsets[c])
            weights.append(10.0 * c + rng.integers(0, 8, a.size))
        n = int(offsets[-1])
        links = np.unique(np.sort(rng.integers(0, n, (cross, 2)), axis=1),
                          axis=0)
        links = links[links[:, 0] < links[:, 1]]
        pairs.append(links)
        weights.append(100.0 + rng.integers(0, 3, len(links)))
        pairs = np.concatenate(pairs)
        weights = np.concatenate(weights)
        # one copy per pair (a link may repeat a clique pair), then shuffle
        _, first = np.unique(pairs[:, 0] * n + pairs[:, 1], return_index=True)
        pick = rng.permutation(first)
        return EdgeList(u=pairs[pick, 0].copy(), v=pairs[pick, 1].copy(),
                        w=weights[pick]), n

    @pytest.mark.parametrize("cross", [0, 40])
    def test_cliques_with_and_without_cross_links(self, cross):
        # without cross links the forest has one tree per clique, plus the
        # isolated vertices 0 and n-1
        rng = np.random.Generator(np.random.PCG64(31 + cross))
        edges, n = self._cliques(rng, [1, 110, 105, 100, 1], cross)
        forest, _ = _assert_same_forest(edges, n)
        if cross == 0:
            assert forest.component_count == 5

    def test_complete_graphs_with_tied_weights(self):
        rng = np.random.Generator(np.random.PCG64(32))
        for n in (40, 75):
            a, b = np.triu_indices(n, 1)
            pick = rng.permutation(a.size)
            for levels in (1, 3, 50):
                w = rng.integers(0, levels, a.size).astype(np.float64)
                _assert_same_forest(EdgeList(u=a[pick], v=b[pick], w=w), n)

    def test_sparse_knn_graph(self):
        pts, _ = generate(SyntheticSpec(shape="blobs", n=400, seed=4))
        g = brute_force_knn(pts, 16)
        _assert_same_forest(
            mutual_reach_edges(g, core_distances(g, 5)), pts.n)

    @pytest.mark.parametrize("seed", [41, 42])
    def test_seeded_random_graphs_with_ties_and_disconnected_parts(
            self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        for trial in range(40):
            n = int(rng.integers(1, 60))
            pairs = np.unique(rng.integers(0, n, size=(int(rng.integers(
                0, 6 * n)), 2)), axis=0)
            pairs = pairs[pairs[:, 0] < pairs[:, 1]]
            rng.shuffle(pairs)
            w = rng.integers(0, 4, len(pairs)).astype(np.float64)
            edges = EdgeList(u=pairs[:, 0].copy(), v=pairs[:, 1].copy(), w=w)
            _assert_same_forest(edges, n)


_SHAPES = ("blobs", "moons", "circles", "varied_variance", "anisotropic",
           "uniform_noise")


def _prim_inputs():
    named = {shape: generate(SyntheticSpec(shape=shape, n=300, seed=1))[0]
             for shape in _SHAPES}
    # a quarter grid with duplicated points gives tied distances
    rng = np.random.Generator(np.random.PCG64(7))
    x = np.round(rng.normal(size=(300, 2)) * 4.0) / 4.0
    x[:40] = x[40:80]
    named["grid"] = PointSet(x)
    named["identical"] = PointSet(np.ones((50, 2)))
    named["pair"] = PointSet(np.array([[0.0, 1.0], [2.0, 1.5]]))
    # wide rows check the per-dimension summation order at d > 2
    rng = np.random.Generator(np.random.PCG64(9))
    named["wide"] = PointSet(rng.normal(size=(257, 28)) + 3.0)
    return named


class TestPrimForest:
    """Prim over mutual reachability rows computed on demand keeps the full
    graph's forest bit for bit: Borůvka over the explicit edges and the
    dense oracle Prim over the same weights build it too."""

    # min_samples 1 puts many weights on a core distance, so they tie
    @pytest.mark.parametrize("min_samples", [1, 5])
    @pytest.mark.parametrize(
        "name", [*_SHAPES, "grid", "identical", "pair", "wide"])
    def test_matches_kruskal_and_prim_oracle(self, name, min_samples):
        pts = _prim_inputs()[name]
        n = pts.n
        g = brute_force_knn(pts, n - 1)
        core = core_distances(g, min(min_samples, n - 1))
        edges = mutual_reach_edges(g, core)
        want = kruskal_forest(edges, n)
        got = prim_forest(pts, core)
        for attr in ("u", "v", "w", "labels"):
            assert getattr(got, attr).tobytes() == (
                getattr(want, attr).tobytes()), attr
        assert got.component_count == want.component_count == 1
        dense = np.zeros((n, n))
        dense[edges.u, edges.v] = dense[edges.v, edges.u] = edges.w
        assert list(zip(got.u.tolist(), got.v.tolist(),
                        got.w.tolist())) == prim_canonical(dense)

    def test_rejects_misaligned_core(self):
        pts = _prim_inputs()["pair"]
        core = core_distances(brute_force_knn(pts, 1), 1)
        with pytest.raises(ValueError, match="not aligned with the points"):
            prim_forest(PointSet(np.zeros((3, 2))), core)
