import time

import numpy as np
import pytest

from riskcluster.cluster import ClusterParams, cluster_points
from riskcluster.datagen import SyntheticSpec, generate
from riskcluster.hierarchy import (
    MAX_LAMBDA, condense_tree, extract_clusters, single_linkage,
    stability_scores)
from riskcluster.model import PointSet
from riskcluster.reach import EdgeList

from oracle import condensed_invariants


def _edges(triples):
    u, v, w = zip(*triples)
    return EdgeList(
        u=np.asarray(u, dtype=np.int64), v=np.asarray(v, dtype=np.int64),
        w=np.asarray(w, dtype=np.float64))


def _two_blob_points(per_blob=50, gap=100.0, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.normal(size=(per_blob, 2))
    b = rng.normal(size=(per_blob, 2)) + gap
    return PointSet(np.concatenate([a, b]))


def _cluster_tree(pts, mcs, min_samples):
    res = cluster_points(
        pts, ClusterParams(min_cluster_size=mcs, min_samples=min_samples))
    return res


def _oracle_rows(ct):
    """CondensedTree records in (parent, child, lambda, size) row form."""
    rows = []
    for i, p, b, s in zip(
            ct.cluster_id.tolist(), ct.cluster_parent.tolist(),
            ct.cluster_birth.tolist(), ct.cluster_size.tolist()):
        if p != -1:
            rows.append((p, i, b, s))
    for c, p, lam in zip(
            ct.fall_cluster.tolist(), ct.fall_point.tolist(),
            ct.fall_lambda.tolist()):
        rows.append((c, p, lam, 1))
    return rows


class TestSingleLinkage:
    def test_hand_case(self):
        slt = single_linkage(_edges([(0, 1, 1.0), (1, 2, 2.0)]), 3)
        assert slt.left.tolist() == [0, 3]
        assert slt.right.tolist() == [1, 2]
        assert slt.dist.tolist() == [1.0, 2.0]
        assert slt.size.tolist() == [2, 3]

    def test_single_point(self):
        slt = single_linkage(
            EdgeList(u=np.empty(0, dtype=np.int64),
                     v=np.empty(0, dtype=np.int64), w=np.empty(0)), 1)
        for column in (slt.left, slt.right, slt.dist, slt.size):
            assert column.size == 0

    def test_merge_distances_are_sorted_weights(self):
        rng = np.random.Generator(np.random.PCG64(2))
        n = 40
        # random spanning tree: connect i to a previous vertex
        triples = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            triples.append((j, i, float(rng.uniform(0, 10))))
        triples.sort(key=lambda t: t[2])
        slt = single_linkage(_edges(triples), n)
        want = np.sort(np.asarray([t[2] for t in triples]))
        assert np.array_equal(slt.dist, want)
        assert int(slt.size[-1]) == n

    def test_merge_sizes_accumulate(self):
        slt = single_linkage(
            _edges([(0, 1, 1.0), (2, 3, 1.5), (1, 2, 4.0)]), 4)
        assert slt.size.tolist() == [2, 2, 4]

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="spanning tree"):
            single_linkage(_edges([(0, 1, 1.0)]), 3)

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="spanning tree"):
            single_linkage(
                _edges([(0, 1, 1.0), (2, 3, 1.0), (0, 1, 2.0)]), 4)

    def test_rejects_unsorted_weights(self):
        with pytest.raises(ValueError, match="ascending"):
            single_linkage(
                _edges([(0, 1, 2.0), (1, 2, 1.0)]), 3)

    def test_rejects_vertex_ids_out_of_range(self):
        # id 3 of 3 vertices would alias the first merge node's slot
        with pytest.raises(ValueError, match="vertex ids"):
            single_linkage(_edges([(0, 1, 1.0), (1, 3, 2.0)]), 3)
        with pytest.raises(ValueError, match="vertex ids"):
            single_linkage(_edges([(-1, 1, 1.0), (1, 2, 2.0)]), 3)

    def test_hub_star_finds_roots_in_constant_steps(self):
        # every edge touches vertex 0, whose root sits one merge higher each
        # time: path compression keeps each walk at two steps, a walk
        # without it grows by one per merge (about 10**9 steps here)
        n = 50_000
        spokes = np.arange(1, n, dtype=np.int64)
        edges = EdgeList(
            u=np.zeros(n - 1, dtype=np.int64), v=spokes,
            w=np.linspace(1.0, 2.0, n - 1))
        t0 = time.perf_counter()
        slt = single_linkage(edges, n)
        assert time.perf_counter() - t0 < 2.0
        assert slt.left.tolist() == [0] + list(range(n, 2 * n - 2))
        assert slt.right.tolist() == spokes.tolist()


class TestCondense:
    def test_hand_case_three_points(self):
        slt = single_linkage(_edges([(0, 1, 1.0), (1, 2, 2.0)]), 3)
        ct = condense_tree(slt, 2)
        assert ct.num_clusters == 1  # root only
        falls = {int(p): float(lam) for p, lam in zip(
            ct.fall_point, ct.fall_lambda)}
        assert falls == {0: 1.0, 1: 1.0, 2: 0.5}

    def test_two_blobs_root_plus_two_children(self):
        pts = _two_blob_points()
        res = _cluster_tree(pts, 10, 5)
        ct = res.condensed
        assert ct.num_clusters == 3
        root = int(ct.cluster_id[0])
        assert ct.cluster_parent.tolist() == [-1, root, root]
        assert ct.cluster_size[1:].tolist() == [50, 50]

    def test_mcs_above_n_root_only(self):
        slt = single_linkage(
            _edges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]), 4)
        ct = condense_tree(slt, 5)
        assert ct.num_clusters == 1
        assert ct.fall_point.size == 4

    def test_rejects_mcs_below_two(self):
        slt = single_linkage(_edges([(0, 1, 1.0)]), 2)
        with pytest.raises(ValueError):
            condense_tree(slt, 1)

    def test_zero_distance_merge_uses_sentinel(self):
        slt = single_linkage(_edges([(0, 1, 0.0), (1, 2, 2.0)]), 3)
        ct = condense_tree(slt, 2)
        assert float(ct.fall_lambda.max()) == MAX_LAMBDA

    def test_infinite_distance_lambda_zero(self):
        slt = single_linkage(_edges([(0, 1, 1.0), (1, 2, np.inf)]), 3)
        ct = condense_tree(slt, 2)
        falls = {int(p): float(lam) for p, lam in zip(
            ct.fall_point, ct.fall_lambda)}
        assert falls[2] == 0.0

    def test_structural_invariants_on_generated_data(self):
        for shape, seed in (("moons", 3), ("uniform_noise", 4),
                            ("varied_variance", 5)):
            pts, _ = generate(SyntheticSpec(shape=shape, n=150, seed=seed))
            res = _cluster_tree(pts, 8, 5)
            problems = condensed_invariants(
                _oracle_rows(res.condensed), pts.n, 8)
            assert problems == []


class TestExtract:
    def test_two_blobs_clean_split(self):
        pts = _two_blob_points()
        res = _cluster_tree(pts, 10, 5)
        assert res.num_clusters == 2
        assert res.noise_count == 0
        labels = res.labels
        assert len(set(labels[:50].tolist())) == 1
        assert len(set(labels[50:].tolist())) == 1
        assert labels[0] != labels[50]

    def test_uniform_noise_mostly_noise(self):
        pts, _ = generate(
            SyntheticSpec(shape="uniform_noise", n=500, seed=7))
        res = _cluster_tree(pts, 25, 25)
        assert res.noise_count / pts.n > 0.5

    def test_all_identical_single_cluster_mode(self):
        pts = PointSet(np.zeros((20, 3)))
        res = cluster_points(pts, ClusterParams(
            min_cluster_size=5, min_samples=3, allow_single_cluster=True))
        assert res.num_clusters == 1
        assert res.noise_count == 0
        assert np.all(res.strengths == 1.0)

    def test_root_not_selected_without_flag(self):
        pts = PointSet(np.zeros((20, 3)))
        res = cluster_points(
            pts, ClusterParams(min_cluster_size=5, min_samples=3))
        # one merged blob, no substructure, root excluded -> all noise
        assert res.num_clusters == 0
        assert res.noise_count == 20

    def test_labels_ordered_by_decreasing_size(self):
        rng = np.random.Generator(np.random.PCG64(11))
        blobs = [rng.normal(size=(m, 2)) + off
                 for m, off in ((30, 0.0), (80, 50.0), (55, 100.0))]
        pts = PointSet(np.concatenate(blobs))
        res = cluster_points(
            pts, ClusterParams(min_cluster_size=10, min_samples=5))
        assert res.num_clusters == 3
        counts = np.bincount(res.labels[res.labels >= 0])
        assert counts.tolist() == sorted(counts.tolist(), reverse=True)

    def test_stability_nonnegative_and_antichain(self):
        for seed in range(5):
            pts, _ = generate(
                SyntheticSpec(shape="circles", n=160, seed=seed))
            res = _cluster_tree(pts, 8, 5)
            ct = res.condensed
            st = stability_scores(ct)
            assert np.all(st.values >= 0.0)
            # selected clusters form an antichain: no selected ancestor
            parent_of = {int(c): int(p) for c, p in zip(
                ct.cluster_id, ct.cluster_parent)}
            selected = {int(c) for c, s in zip(ct.cluster_id, st.selected)
                        if s}
            for c in selected:
                p = parent_of[c]
                while p != -1:
                    assert p not in selected
                    p = parent_of.get(p, -1)

    def test_strengths_lambda_ratio_in_unit_interval(self):
        pts, _ = generate(SyntheticSpec(shape="moons", n=200, seed=13))
        res = _cluster_tree(pts, 10, 5)
        s = res.strengths
        assert np.all((0.0 <= s) & (s <= 1.0))
        member = res.labels >= 0
        assert np.all(s[member] > 0.0)
        # each cluster's strongest member sits at exactly 1.0
        for cid in range(res.num_clusters):
            assert s[res.labels == cid].max() == 1.0

    def test_single_point_dataset(self):
        res = cluster_points(
            PointSet(np.array([[1.0, 2.0]])),
            ClusterParams(min_cluster_size=2))
        assert res.labels.tolist() == [-1]
        assert res.noise_count == 1
