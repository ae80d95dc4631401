import tracemalloc

import numpy as np
import pytest

from riskcluster import cluster, knn, mst
from riskcluster.cluster import ClusterParams, cluster_points
from riskcluster.datagen import SyntheticSpec, generate
from riskcluster.hierarchy import (
    condense_tree, extract_clusters, single_linkage)
from riskcluster.knn import brute_force_knn
from riskcluster.model import PointSet
from riskcluster.mst import attach_forest_root, kruskal_forest
from riskcluster.reach import core_distances, mutual_reach_edges

from oracle import pair_counting_ari, reference_cluster

SHAPES = ("blobs", "moons", "circles", "varied_variance",
          "anisotropic", "uniform_noise")


class TestParamsResolve:
    def test_defaults_chain(self):
        r = ClusterParams(min_cluster_size=10).resolve(1000)
        assert r["min_samples"] == 10
        assert r["k"] == 10
        assert r["mode"] == "exact"
        assert r["nlist"] == 32  # rounded sqrt(1000)
        assert r["nprobe"] >= 1

    def test_clamps_to_n_minus_one(self):
        r = ClusterParams(min_cluster_size=5, min_samples=50, k=80).resolve(20)
        assert r["min_samples"] == 19
        assert r["k"] == 19

    def test_explicit_values_kept(self):
        r = ClusterParams(
            min_cluster_size=5, min_samples=7, k=12, mode="ivf",
            nlist=4, nprobe=2, seed=9).resolve(100)
        assert (r["min_samples"], r["k"]) == (7, 12)
        assert (r["nlist"], r["nprobe"], r["seed"]) == (4, 2, 9)

    def test_rejects_small_mcs(self):
        with pytest.raises(ValueError, match="min_cluster_size"):
            ClusterParams(min_cluster_size=1).resolve(10)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ClusterParams(min_cluster_size=5, mode="annoy").resolve(10)

    def test_rejects_unknown_kernel(self):
        pts, _ = generate(SyntheticSpec(shape="blobs", n=30, seed=0))
        with pytest.raises(ValueError, match="kernel"):
            cluster_points(
                pts, ClusterParams(min_cluster_size=5, kernel="gpu"))

    def test_rejects_k_below_min_samples(self):
        with pytest.raises(ValueError, match="min_samples"):
            ClusterParams(min_cluster_size=5, min_samples=10, k=4).resolve(50)

    def test_nlist_clamped_to_n(self):
        r = ClusterParams(min_cluster_size=2, nlist=500).resolve(30)
        assert r["nlist"] == 30


class TestOracleEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_exact_full_k_matches_reference(self, shape):
        pts, _ = generate(SyntheticSpec(shape=shape, n=140, seed=5))
        params = ClusterParams(min_cluster_size=8, min_samples=5, k=pts.n - 1)
        res = cluster_points(pts, params)
        want_labels, want_strengths = reference_cluster(
            pts.data, min_samples=5, min_cluster_size=8)
        assert pair_counting_ari(res.labels, want_labels) == 1.0
        assert np.array_equal(res.strengths, want_strengths)

    def test_restricted_k_still_agrees_on_separated_blobs(self):
        pts, _ = generate(
            SyntheticSpec(shape="blobs", n=300, seed=2, std=0.4))
        res = cluster_points(
            pts, ClusterParams(min_cluster_size=15, min_samples=10))
        want, _ = reference_cluster(
            pts.data, min_samples=10, min_cluster_size=15)
        assert pair_counting_ari(res.labels, want) == 1.0


class TestEndToEnd:
    def test_single_point(self):
        res = cluster_points(
            PointSet(np.array([[0.5, 0.5]])), ClusterParams(
                min_cluster_size=2))
        assert res.labels.tolist() == [-1]
        assert res.strengths.tolist() == [0.0]
        assert res.component_count == 1
        assert res.num_clusters == 0

    def test_timings_keys(self):
        pts, _ = generate(SyntheticSpec(shape="moons", n=120, seed=0))
        res = cluster_points(
            pts, ClusterParams(min_cluster_size=8, min_samples=5))
        assert set(res.timings) == {
            "quantizer", "knn", "reach", "mst", "hierarchy", "condense",
            "extract", "total"}
        assert res.timings["quantizer"] == 0.0  # exact mode skips it
        assert res.timings["total"] > 0.0

    def test_ivf_mode_populates_quantizer_timing(self):
        pts, _ = generate(SyntheticSpec(shape="blobs", n=400, seed=1))
        res = cluster_points(pts, ClusterParams(
            min_cluster_size=10, min_samples=5, mode="ivf", nlist=8,
            nprobe=8))
        assert res.timings["quantizer"] > 0.0

    def test_ivf_full_probe_matches_exact(self):
        pts, _ = generate(
            SyntheticSpec(shape="varied_variance", n=350, seed=3))
        exact = cluster_points(
            pts, ClusterParams(min_cluster_size=12, min_samples=6))
        ivf = cluster_points(pts, ClusterParams(
            min_cluster_size=12, min_samples=6, mode="ivf", nlist=10,
            nprobe=10))
        assert np.array_equal(exact.labels, ivf.labels)
        assert np.array_equal(exact.strengths, ivf.strengths)

    def test_thread_count_does_not_change_output(self):
        pts, _ = generate(SyntheticSpec(shape="circles", n=260, seed=4))
        params = ClusterParams(min_cluster_size=10, min_samples=5)
        one = cluster_points(pts, params, threads=1)
        many = cluster_points(pts, params, threads=8)
        assert np.array_equal(one.labels, many.labels)
        assert np.array_equal(one.strengths, many.strengths)

    def test_same_seed_same_result_ivf(self):
        pts, _ = generate(SyntheticSpec(shape="blobs", n=500, seed=6))
        params = ClusterParams(
            min_cluster_size=10, min_samples=5, mode="ivf", nlist=16,
            nprobe=4, seed=11)
        a = cluster_points(pts, params)
        b = cluster_points(pts, params)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.strengths, b.strengths)

    def test_result_accessors_consistent(self):
        pts, _ = generate(SyntheticSpec(shape="moons", n=180, seed=8))
        res = cluster_points(
            pts, ClusterParams(min_cluster_size=9, min_samples=5))
        labels = res.labels
        assert res.noise_count == int((labels == -1).sum())
        if res.num_clusters:
            assert labels.max() == res.num_clusters - 1
        assert res.component_count >= 1


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestFullGraph:
    """k = n - 1 keeps every bit of the explicit full kNN pipeline.

    With the exact kernel, cluster_points searches short lists there and
    takes its tree by Borůvka over their edges, certified by each vertex's
    last listed distance, then Prim over the components left; the fast
    kernel takes the explicit path. The reference sorts all n - 1
    neighbors of every row, dedupes them in mutual_reach_edges and joins
    them in kruskal_forest.
    """

    @staticmethod
    def _inputs():
        named = {shape: generate(SyntheticSpec(shape=shape, n=300, seed=1))[0]
                 for shape in SHAPES}
        # a quarter grid with duplicated points gives tied distances
        rng = np.random.Generator(np.random.PCG64(7))
        x = np.round(rng.normal(size=(300, 2)) * 4.0) / 4.0
        x[:40] = x[40:80]
        named["grid"] = PointSet(x)
        named["pair"] = PointSet(np.array([[0.0, 1.0], [2.0, 1.5]]))
        return named

    @staticmethod
    def _explicit(points, params, threads):
        r = params.resolve(points.n)
        n = points.n
        g = brute_force_knn(points, n - 1, threads=threads, kernel=r["kernel"])
        edges = mutual_reach_edges(g, core_distances(g, r["min_samples"]))
        forest = kruskal_forest(edges, n)
        condensed = condense_tree(
            single_linkage(attach_forest_root(forest), n),
            r["min_cluster_size"])
        return forest, extract_clusters(condensed, r["allow_single_cluster"])

    @pytest.mark.parametrize("rows", [None, 37])
    @pytest.mark.parametrize("kernel", ["exact", "fast"])
    @pytest.mark.parametrize("name", [*SHAPES, "grid", "pair"])
    def test_matches_explicit_pipeline_bitwise(
            self, monkeypatch, name, kernel, rows):
        points = self._inputs()[name]
        if rows is not None:
            # several chunks per thread, fast-kernel rows included, and
            # joins of the exact kernel's tree split across threads
            monkeypatch.setattr(knn, "_BLOCK_CELLS", points.n * rows)
            monkeypatch.setattr(mst, "_BLOCK_CELLS", points.n * rows)
        forests = []
        # full_graph_forest builds the exact kernel's forest, kruskal_forest
        # the fast one's
        routine = "full_graph_forest" if kernel == "exact" else (
            "kruskal_forest")
        original = getattr(cluster, routine)

        def capture(*args):
            forests.append(original(*args))
            return forests[-1]

        monkeypatch.setattr(cluster, routine, capture)
        for threads in (1, 2):
            for min_samples in (1, 5, 10):
                params = ClusterParams(
                    min_cluster_size=5, min_samples=min_samples,
                    k=points.n - 1, kernel=kernel)
                got = cluster_points(points, params, threads=threads)
                forest, want = self._explicit(points, params, threads)
                for attr in ("u", "v", "w", "labels"):
                    assert _bits(getattr(forests[-1], attr)) == _bits(
                        getattr(forest, attr)), (threads, min_samples, attr)
                assert _bits(got.labels) == _bits(want.labels)
                assert _bits(got.strengths) == _bits(want.strengths)

    @staticmethod
    def _traced_peak(pts):
        params = ClusterParams(
            min_cluster_size=15, min_samples=10, k=pts.n - 1)
        tracemalloc.start()
        try:
            cluster_points(pts, params, threads=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_short_lists_clamp_to_n_minus_one(self, monkeypatch):
        # n <= 2 min_samples: the search takes every other point
        rng = np.random.Generator(np.random.PCG64(5))
        points = PointSet(np.round(rng.normal(size=(9, 2)), 1))
        searched, forests = [], []
        original = cluster.full_graph_forest

        def search(pts, k, **kwargs):
            searched.append(k)
            return brute_force_knn(pts, k, **kwargs)

        def capture(*args):
            forests.append(original(*args))
            return forests[-1]

        monkeypatch.setattr(cluster, "brute_force_knn", search)
        monkeypatch.setattr(cluster, "full_graph_forest", capture)
        params = ClusterParams(min_cluster_size=2, min_samples=5, k=8)
        got = cluster_points(points, params)
        assert searched == [8]
        forest, want = self._explicit(points, params, 1)
        for attr in ("u", "v", "w", "labels"):
            assert _bits(getattr(forests[0], attr)) == _bits(
                getattr(forest, attr)), attr
        assert _bits(got.labels) == _bits(want.labels)
        assert _bits(got.strengths) == _bits(want.strengths)

    def test_full_graph_memory_bound(self):
        # one n = 1500 op of the benchmark's exact_full_graph: the explicit
        # pipeline peaked at 100-108 MB, a row-built edge list at 58-69 MB,
        # an 18 MB mutual reachability matrix at 21-24 MB and Prim over
        # rows computed on demand at 4.7-8.5 MB
        pts, _ = generate(SyntheticSpec(shape="moons", n=1500, seed=1))
        assert self._traced_peak(pts) < 12e6

    def test_full_graph_memory_is_linear(self):
        # a mutual reachability matrix alone would take 800 MB here
        rng = np.random.Generator(np.random.PCG64(3))
        assert self._traced_peak(PointSet(rng.normal(size=(10_000, 2)))) < 32e6

    def test_full_graph_memory_guard(self):
        # an n x n float64 matrix would take 128 MB here; short lists, their
        # edges and two tiles per thread peaked at 9.8 MB (Prim over rows
        # computed on demand at 7.9 MB)
        pts, _ = generate(SyntheticSpec(shape="blobs", n=4000, seed=1))
        assert self._traced_peak(pts) < 20e6
