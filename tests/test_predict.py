import numpy as np
import pytest

from riskcluster import predict
from riskcluster.cluster import ClusterParams, cluster_points
from riskcluster.datagen import SyntheticSpec, generate
from riskcluster.model import ClusterAssignment, PointSet
from riskcluster.parallel import run_chunked
from riskcluster.predict import InductiveModel, assign_new_points

from oracle import vote_reference


def _assignment(labels, strengths=None):
    labels = np.asarray(labels, dtype=np.int64)
    if strengths is None:
        strengths = np.where(labels >= 0, 1.0, 0.0)
    return ClusterAssignment(
        labels=labels, strengths=np.asarray(strengths, dtype=np.float64))


def _model(points, labels, k_assign=5):
    return InductiveModel(
        train_points=PointSet(np.asarray(points, dtype=np.float64)),
        train_labels=_assignment(labels), k_assign=k_assign)


class TestModelValidation:
    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError, match="aligned"):
            _model([[0.0], [1.0], [2.0]], [0, 1])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k_assign"):
            _model([[0.0], [1.0]], [0, 1], k_assign=0)

    @pytest.mark.parametrize("k_assign", [2.5, True, "3", None])
    def test_rejects_non_integer_k(self, k_assign):
        with pytest.raises(ValueError, match="k_assign must be an integer"):
            _model([[0.0], [1.0]], [0, 1], k_assign=k_assign)

    def test_accepts_numpy_integer_k(self):
        model = _model([[0.0], [1.0]], [0, 1], k_assign=np.int64(1))
        got = assign_new_points(model, PointSet(np.array([[0.9]])))
        assert got.labels.tolist() == [1]

    def test_rejects_dim_mismatch(self):
        model = _model([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        with pytest.raises(ValueError, match="dim"):
            assign_new_points(model, PointSet(np.zeros((2, 3))))


class TestVoting:
    def test_nearest_majority_wins(self):
        # cluster 0 near origin, cluster 1 far right; query sits in blob 0
        model = _model(
            [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]],
            [0, 0, 1, 1], k_assign=4)
        out = assign_new_points(model, PointSet(np.array([[0.4, 0.1]])))
        assert out.labels.tolist() == [0]
        assert 0.5 < out.strengths[0] <= 1.0

    def test_exact_match_short_circuits(self):
        model = _model(
            [[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]], [2, 1, 0], k_assign=3)
        out = assign_new_points(model, PointSet(np.array([[5.0, 5.0]])))
        assert out.labels.tolist() == [1]
        assert out.strengths.tolist() == [1.0]

    def test_exact_match_on_noise_point(self):
        model = _model([[0.0], [3.0]], [-1, 0], k_assign=2)
        out = assign_new_points(model, PointSet(np.array([[0.0]])))
        assert out.labels.tolist() == [-1]
        assert out.strengths.tolist() == [0.0]

    def test_noise_votes_can_reject_query(self):
        # two noise points hug the query; the lone member point is far
        model = _model(
            [[0.0, 0.0], [0.2, 0.0], [8.0, 0.0]], [-1, -1, 0], k_assign=3)
        out = assign_new_points(model, PointSet(np.array([[0.1, 0.0]])))
        assert out.labels.tolist() == [-1]
        assert out.strengths.tolist() == [0.0]

    def test_tie_goes_to_smaller_label(self):
        # symmetric distances, one vote each
        model = _model([[-1.0], [1.0]], [1, 0], k_assign=2)
        out = assign_new_points(model, PointSet(np.array([[0.0]])))
        assert out.labels.tolist() == [0]

    def test_k_assign_clamped_to_train_size(self):
        model = _model([[0.0], [1.0]], [0, 0], k_assign=50)
        out = assign_new_points(model, PointSet(np.array([[0.5]])))
        assert out.labels.tolist() == [0]

    def test_distance_weighting_beats_count(self):
        # two far label-1 points vs one hugging label-0 point
        model = _model(
            [[0.0, 0.0], [4.0, 0.0], [4.0, 0.1]], [0, 1, 1], k_assign=3)
        out = assign_new_points(model, PointSet(np.array([[0.1, 0.0]])))
        assert out.labels.tolist() == [0]

    def test_strength_is_winner_vote_share(self):
        model = _model([[0.0], [2.0]], [0, 1], k_assign=2)
        out = assign_new_points(model, PointSet(np.array([[0.5]])))
        # weights 1/0.5 and 1/1.5 -> share 0.75
        assert out.labels.tolist() == [0]
        assert out.strengths[0] == pytest.approx(0.75)


class TestEndToEnd:
    def test_holdout_agrees_on_separated_blobs(self):
        pts, truth = generate(
            SyntheticSpec(shape="blobs", n=400, seed=9, std=0.3))
        order = np.random.Generator(np.random.PCG64(1)).permutation(pts.n)
        data, truth = pts.data[order], truth[order]
        train = PointSet(data[:300])
        test = PointSet(data[300:])
        res = cluster_points(
            train, ClusterParams(min_cluster_size=15, min_samples=10))
        assert res.num_clusters == 3
        assert res.noise_count == 0
        model = InductiveModel(
            train_points=train, train_labels=res.assignment, k_assign=5)
        out = assign_new_points(model, test)
        # blobs are far apart: every test point lands with its own blob
        for lab in range(res.num_clusters):
            blob_ids = {int(b) for b in
                        truth[:300][res.labels == lab].tolist()}
            assert len(blob_ids) == 1
            blob = blob_ids.pop()
            got = out.labels[truth[300:] == blob]
            assert got.size > 0
            assert np.all(got == lab)

    def test_thread_invariance(self):
        pts, _ = generate(SyntheticSpec(shape="moons", n=300, seed=12))
        train = PointSet(pts.data[:200])
        test = PointSet(pts.data[200:])
        res = cluster_points(
            train, ClusterParams(min_cluster_size=10, min_samples=5))
        model = InductiveModel(
            train_points=train, train_labels=res.assignment, k_assign=5)
        one = assign_new_points(model, test, threads=1)
        many = assign_new_points(model, test, threads=8)
        assert np.array_equal(one.labels, many.labels)
        assert np.array_equal(one.strengths, many.strengths)

    def test_thread_counts_split_rows_evenly(self, monkeypatch):
        # 301 queries split into one chunk per thread, uneven for 2 and 3;
        # a tied grid away from the origin (exact in float32) keeps the
        # Gram filter honest
        chunks = []

        def recording(fn, n, threads, chunk):
            chunks.append(-(-n // chunk))
            return run_chunked(fn, n, threads, chunk)

        monkeypatch.setattr(predict, "run_chunked", recording)
        rng = np.random.Generator(np.random.PCG64(50))
        train = 1e4 + rng.integers(0, 6, size=(400, 3))
        labels = rng.integers(-1, 4, size=400)
        queries = PointSet(1e4 + rng.integers(-1, 7, size=(301, 3)) / 2.0)
        model = _model(train, labels, k_assign=6)
        outs = [assign_new_points(model, queries, threads=t)
                for t in (1, 2, 3)]
        assert chunks == [1, 2, 3]
        want_labels, want_strengths = vote_reference(
            train, labels, queries.data, 6)
        for out in outs:
            assert np.array_equal(out.labels, want_labels)
            assert np.array_equal(out.strengths.view(np.int64),
                                  want_strengths.view(np.int64))


class TestAgainstReference:
    @pytest.mark.parametrize("nlabels", [1, 5, 200])
    @pytest.mark.parametrize("k_assign", [1, 7, 60])
    def test_bitwise_equal_to_per_query_vote(self, nlabels, k_assign):
        # a 16 x 16 integer grid makes distances tie everywhere; queries sit
        # on grid points (exact matches, noise ones too), on half steps and
        # off the grid
        rng = np.random.Generator(np.random.PCG64(nlabels * 100 + k_assign))
        g = np.arange(16, dtype=np.float64)
        train = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        labels = rng.integers(-1, nlabels, size=train.shape[0])
        labels[:nlabels] = np.arange(nlabels)  # every label occurs
        labels[nlabels::3] = -1
        queries = PointSet(np.concatenate([
            train[rng.permutation(train.shape[0])[:60]],
            train[labels == -1][:10],
            rng.integers(-4, 40, size=(60, 2)) / 2.0,
            rng.normal(8.0, 6.0, size=(30, 2)),
        ]))
        model = _model(train, labels, k_assign=k_assign)
        out = assign_new_points(model, queries, threads=2)
        want_labels, want_strengths = vote_reference(
            train, labels, queries.data, k_assign)
        assert np.array_equal(out.labels, want_labels)
        assert np.array_equal(out.strengths, want_strengths)
