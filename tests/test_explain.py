import numpy as np
import pytest

from riskcluster.explain import (
    ExplainConfig, Rule, dedup_rules, fit_rules, harvest_tree_rules,
    render_rule, rule_mask, rules_to_json, _normalize_path)


def _rule(predicates, precision, recall, coverage):
    coverage = np.asarray(coverage, dtype=bool)
    return Rule(
        predicates=predicates, precision=precision, recall=recall,
        support=int(coverage.sum()), coverage=coverage)


class TestConfig:
    def test_defaults(self):
        c = ExplainConfig()
        assert c.n_tree_estimators == 10
        assert c.max_depth == 4
        assert c.min_precision == 0.7
        assert c.min_recall == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            ExplainConfig(n_tree_estimators=0)
        with pytest.raises(ValueError):
            ExplainConfig(max_depth=0)
        with pytest.raises(ValueError):
            ExplainConfig(min_precision=1.2)
        with pytest.raises(ValueError):
            ExplainConfig(dedup_similarity=-0.1)


class TestNormalizePath:
    def test_tightest_bounds_win(self):
        path = [
            (0, "a", ">", 1.0), (0, "a", ">", 3.0), (0, "a", "<=", 9.0),
            (0, "a", "<=", 7.0)]
        assert _normalize_path(path) == (("a", ">", 3.0), ("a", "<=", 7.0))

    def test_sorted_by_feature_lower_first(self):
        path = [(2, "c", "<=", 5.0), (1, "b", ">", 0.0), (2, "c", ">", 1.0)]
        assert _normalize_path(path) == (
            ("b", ">", 0.0), ("c", ">", 1.0), ("c", "<=", 5.0))


class TestRuleMask:
    def test_conjunction(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0], [3.0, 9.0]])
        mask = rule_mask(
            (("a", ">", 2.0), ("b", "<=", 6.0)), x, ("a", "b"))
        assert mask.tolist() == [False, True, False]

    def test_boundary_semantics(self):
        x = np.array([[2.0], [2.0000001]])
        assert rule_mask((("a", ">", 2.0),), x, ("a",)).tolist() == [
            False, True]
        assert rule_mask((("a", "<=", 2.0),), x, ("a",)).tolist() == [
            True, False]


class TestRender:
    def test_plain_conjunction(self):
        rule = _rule(
            (("f1", ">", 10.03), ("f2", "<=", 1.98)), 1.0, 0.5, [True])
        assert render_rule(rule) == "f1 > 10.03 and f2 <= 1.98"

    def test_integral_threshold_keeps_single_zero(self):
        rule = _rule((("f1", ">", 4.0),), 1.0, 0.5, [True])
        assert render_rule(rule) == "f1 > 4.0"

    def test_json_form(self):
        rule = _rule((("f1", ">", 2.5),), 0.9, 0.4, [True, False])
        (doc,) = rules_to_json([rule])
        assert doc["predicates"] == [
            {"feature": "f1", "op": ">", "threshold": 2.5}]
        assert doc["text"] == "f1 > 2.5"
        assert doc["precision"] == 0.9
        assert doc["recall"] == 0.4
        assert doc["support"] == 1


class TestHarvest:
    def test_pure_split_recovered(self):
        x = np.column_stack([np.arange(20, dtype=np.float64)])
        y = (np.arange(20) >= 10).astype(np.int64)
        rules = harvest_tree_rules(x, y, ("f0",), max_depth=3)
        assert rules == [(("f0", ">", 9.5),)]

    def test_no_positive_leaves_no_rules(self):
        x = np.column_stack([np.arange(10, dtype=np.float64)])
        y = np.zeros(10, dtype=np.int64)
        assert harvest_tree_rules(x, y, ("f0",), max_depth=3) == []

    def test_all_positive_no_path_no_rules(self):
        # root is pure positive: no split, empty path, nothing to harvest
        x = np.column_stack([np.arange(10, dtype=np.float64)])
        y = np.ones(10, dtype=np.int64)
        assert harvest_tree_rules(x, y, ("f0",), max_depth=3) == []

    def test_two_sided_box(self):
        x = np.column_stack([np.arange(30, dtype=np.float64)])
        y = ((np.arange(30) >= 10) & (np.arange(30) < 20)).astype(np.int64)
        rules = harvest_tree_rules(x, y, ("f0",), max_depth=3)
        assert (("f0", ">", 9.5), ("f0", "<=", 19.5)) in rules


class TestDedup:
    def test_identical_coverage_dropped(self):
        cov = [True, True, False, False]
        a = _rule((("a", ">", 1.0),), 1.0, 0.9, cov)
        b = _rule((("b", ">", 2.0),), 0.8, 0.9, cov)
        kept = dedup_rules([a, b], 0.9)
        assert kept == [a]  # higher precision survives

    def test_disjoint_coverage_kept(self):
        a = _rule((("a", ">", 1.0),), 1.0, 0.5, [True, True, False, False])
        b = _rule((("b", ">", 2.0),), 0.9, 0.5, [False, False, True, True])
        kept = dedup_rules([a, b], 0.9)
        assert len(kept) == 2

    def test_threshold_is_strict(self):
        # Jaccard exactly at the threshold is kept, above it is dropped
        a = _rule((("a", ">", 1.0),), 1.0, 0.5,
                  [True, True, True, True, False])
        b = _rule((("b", ">", 2.0),), 0.9, 0.5,
                  [True, True, True, True, True])
        assert len(dedup_rules([a, b], 0.8)) == 2  # sim = 0.8, not > 0.8
        assert len(dedup_rules([a, b], 0.79)) == 1

    def test_both_empty_counts_as_identical(self):
        a = _rule((("a", ">", 1.0),), 1.0, 0.5, [False, False])
        b = _rule((("b", ">", 2.0),), 0.9, 0.5, [False, False])
        assert len(dedup_rules([a, b], 0.9)) == 1

    def test_quality_order(self):
        cov_a = [True] * 6 + [False] * 4
        cov_b = [True] * 5 + [False] * 5
        a = _rule((("a", ">", 1.0),), 0.9, 0.9, cov_a)
        b = _rule((("b", ">", 2.0),), 0.95, 0.3, cov_b)
        kept = dedup_rules([a, b], 0.5)
        # b wins on precision despite lower recall; a overlaps and drops
        assert kept == [b]


class TestFitRules:
    def _planted(self, seed=42, n=800):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = np.column_stack([
            rng.uniform(0.0, 20.0, size=n),
            rng.uniform(0.0, 4.0, size=n),
            rng.uniform(-5.0, 5.0, size=n),
            rng.uniform(0.0, 100.0, size=n),
        ])
        y = (x[:, 0] > 10.0) & (x[:, 1] <= 2.0)
        return x, ("f1", "f2", "f3", "f4"), y

    def test_recovers_planted_rule(self):
        x, names, y = self._planted()
        rules = fit_rules(x, names, y, seed=7)
        assert rules
        top = rules[0]
        bounds = {(name, op) for name, op, _ in top.predicates}
        assert ("f1", ">") in bounds
        assert ("f2", "<=") in bounds
        thr = {(n, op): t for n, op, t in top.predicates}
        assert 9.0 <= thr[("f1", ">")] <= 11.0
        assert 1.8 <= thr[("f2", "<=")] <= 2.2
        assert top.precision >= 0.9

    def test_reported_stats_meet_thresholds(self):
        x, names, y = self._planted(seed=1)
        config = ExplainConfig(min_precision=0.75, min_recall=0.2)
        for rule in fit_rules(x, names, y, config=config, seed=3):
            assert rule.precision >= 0.75
            assert rule.recall >= 0.2

    def test_deterministic_per_seed(self):
        x, names, y = self._planted(seed=2)
        a = fit_rules(x, names, y, seed=5)
        b = fit_rules(x, names, y, seed=5)
        assert [r.predicates for r in a] == [r.predicates for r in b]
        assert [r.precision for r in a] == [r.precision for r in b]

    def test_seed_changes_sampling(self):
        x, names, y = self._planted(seed=2)
        a = fit_rules(x, names, y, seed=5)
        b = fit_rules(x, names, y, seed=6)
        stats = lambda rs: [(r.predicates, r.precision, r.recall)
                            for r in rs]
        assert stats(a) != stats(b)

    def test_rejects_single_class(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError, match="single class"):
            fit_rules(x, ("a", "b"), np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="single class"):
            fit_rules(x, ("a", "b"), np.ones(10, dtype=bool))

    @pytest.mark.parametrize("target", [
        [0, 2, 0, -1, 0, 2, 0, 5], [0, 1, 0, 1, 0, 1, 0, 0.5],
        [0, 1, 0, 1, 0, 1, 0, np.nan]])
    def test_rejects_target_values_other_than_0_and_1(self, target):
        x = np.arange(16.0).reshape(8, 2)
        with pytest.raises(ValueError, match="only 0 and 1"):
            fit_rules(x, ("a", "b"), np.array(target))

    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, cell):
        x, names, y = self._planted()
        x[17, 2] = cell
        with pytest.raises(ValueError, match="non-finite"):
            fit_rules(x, names, y)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-d"):
            fit_rules(np.zeros(5), ("a",), np.zeros(5, dtype=bool))
        with pytest.raises(ValueError, match="names length"):
            fit_rules(np.zeros((5, 2)), ("a",), np.zeros(5, dtype=bool))
        with pytest.raises(ValueError, match="unique"):
            fit_rules(
                np.zeros((5, 2)), ("a", "a"), np.zeros(5, dtype=bool))
        with pytest.raises(ValueError, match="aligned"):
            fit_rules(
                np.zeros((5, 2)), ("a", "b"), np.zeros(4, dtype=bool))

    def test_support_counts_full_matrix(self):
        x, names, y = self._planted(seed=3)
        for rule in fit_rules(x, names, y, seed=1):
            assert rule.support == int(rule_mask(
                rule.predicates, x, names).sum())
