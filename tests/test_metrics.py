import json
import math

import numpy as np
import pytest

from riskcluster.metrics import adjusted_rand_index, fraud_metrics

from oracle import pair_counting_ari


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_relabeling_invariant(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [5, 5, 3, 3, 9, 9]
        assert adjusted_rand_index(a, b) == 1.0

    def test_known_negative_half(self):
        # perfectly anti-correlated 2x2 split
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert adjusted_rand_index(a, b) == -0.5

    def test_singletons_vs_one_cluster(self):
        a = [0, 1, 2, 3]
        b = [0, 0, 0, 0]
        assert adjusted_rand_index(a, b) == 0.0

    def test_degenerate_identical_labelings(self):
        # expected and maximum index coincide: defined as 1.0
        assert adjusted_rand_index([0, 0, 0], [7, 7, 7]) == 1.0
        assert adjusted_rand_index([0, 1, 2], [5, 6, 7]) == 1.0

    def test_matches_pair_counting_oracle(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(25):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 4, size=n)
            got = adjusted_rand_index(a, b)
            want = pair_counting_ari(a.tolist(), b.tolist())
            assert got == pytest.approx(want, abs=1e-12)

    def test_noise_labels_participate(self):
        a = [-1, -1, 0, 0]
        b = [1, 1, 0, 0]
        assert adjusted_rand_index(a, b) == 1.0

    def test_large_n_no_overflow(self):
        # pair counts here exceed 2**63 if multiplied naively
        n = 4_000_000
        a = np.zeros(n, dtype=np.int64)
        a[: n // 2] = 1
        b = a.copy()
        b[:100] = 1 - b[:100]
        val = adjusted_rand_index(a, b)
        assert 0.99 < val < 1.0

    def test_random_labels_near_zero(self):
        rng = np.random.Generator(np.random.PCG64(8))
        a = rng.integers(0, 10, size=10000)
        b = rng.integers(0, 10, size=10000)
        assert abs(adjusted_rand_index(a, b)) <= 0.05

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([], [])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([[0, 1]], [[0, 1]])


class TestFraudMetrics:
    def test_hand_counts(self):
        pred = [True, True, True, False, False]
        act = [True, False, True, True, False]
        amt = [10.0, 20.0, 30.0, 40.0, 50.0]
        rep = fraud_metrics(pred, act, amt)
        assert rep.true_positives == 2
        assert rep.false_positives == 1
        assert rep.false_negatives == 1
        assert rep.true_negatives == 1
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.recall == pytest.approx(2 / 3)
        assert rep.f_score == pytest.approx(2 / 3)
        assert rep.loss_saved == 40.0
        assert rep.profit_hurt == 20.0
        assert rep.return_rate == pytest.approx(2.0)
        assert rep.no_predictions is False

    def test_no_predictions_flag(self):
        rep = fraud_metrics([False, False], [True, False], [5.0, 5.0])
        assert rep.no_predictions is True
        assert rep.precision == 0.0
        assert rep.recall == 0.0
        assert rep.f_score == 0.0
        assert rep.loss_saved == 0.0

    def test_infinite_return_rate(self):
        rep = fraud_metrics([True], [True], [99.0])
        assert math.isinf(rep.return_rate)
        assert rep.loss_saved == 99.0
        assert rep.profit_hurt == 0.0

    def test_no_actual_fraud_recall_zero(self):
        rep = fraud_metrics([True, False], [False, False], [1.0, 1.0])
        assert rep.recall == 0.0
        assert rep.precision == 0.0
        assert rep.profit_hurt == 1.0

    def test_rejects_negative_amounts(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fraud_metrics([True], [True], [-1.0])

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError, match="aligned"):
            fraud_metrics([True, False], [True], [1.0, 2.0])

    def test_to_dict_inf_marker(self):
        rep = fraud_metrics([True], [True], [10.0])
        d = rep.to_dict()
        assert d["return_rate"] == "inf"
        assert json.loads(json.dumps(rep.to_dict()))["return_rate"] == "inf"

    def test_to_dict_round_trip_finite(self):
        rep = fraud_metrics(
            [True, True], [True, False], [10.0, 4.0])
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["return_rate"] == pytest.approx(2.5)
        assert d["true_positives"] == 1
        assert set(d) == {
            "precision", "recall", "f_score", "loss_saved", "profit_hurt",
            "return_rate", "no_predictions", "true_positives",
            "false_positives", "false_negatives", "true_negatives"}

    def test_to_text_lines(self):
        rep = fraud_metrics([True], [True], [10.0])
        text = rep.to_text()
        lines = text.splitlines()
        assert lines[0].startswith("precision")
        assert "return_rate" in text
        assert "inf" in text
        assert "flagged_no_predictions" in text
