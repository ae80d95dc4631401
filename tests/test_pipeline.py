import json
import re
from pathlib import Path

import numpy as np
import pytest

from riskcluster.cluster import ClusterParams
from riskcluster.datagen import fraud_stream
from riskcluster.model import ClickSession, ClusterAssignment, PointSet, \
    TransactionBatch, TransactionRecord, load_transactions, save_transactions
from riskcluster.pipeline import (
    SESSION_FEATURE_NAMES, ExperimentSpec, RiskyClusterConfig, SamplingSpec,
    _group_by_snapshot, build_feature_matrix, run_experiment,
    select_risky_clusters)

from oracle import session_features_reference


def _session(*events):
    return ClickSession(tuple(events))


def _record(i, ts=1000, amount=100.0, risk="legit", features=None,
            session=None):
    return TransactionRecord(
        id=f"r{i:04d}", timestamp=ts, amount=amount, risk_seed=risk,
        features={"f0": 0.0, "f1": 1.0} if features is None else features,
        session=_session(("view", 1000)) if session is None else session)


def _session_row(*events):
    """One-record session feature row, keyed by SESSION_FEATURE_NAMES."""
    mat, _ = build_feature_matrix(
        [_record(0, session=_session(*events))], "session")
    return dict(zip(SESSION_FEATURE_NAMES, mat[0]))


class TestSessionFeatures:
    def test_hand_case(self):
        fs = _session_row(("view", 1000), ("view", 2000), ("checkout", 500))
        assert fs["count_view"] == 2
        assert fs["count_checkout"] == 1
        assert fs["count_search"] == 0
        assert fs["total_events"] == 3
        assert fs["distinct_page_types"] == 2
        assert fs["total_dwell_ms"] == 3500
        assert fs["mean_dwell_ms"] == pytest.approx(3500 / 3)
        assert fs["max_dwell_ms"] == 2000
        assert fs["min_dwell_ms"] == 500
        assert fs["dwell_variance"] == pytest.approx(
            np.var([1000.0, 2000.0, 500.0]))
        assert fs["session_duration_ms"] == 3500
        assert fs["checkout_to_view_ratio"] == pytest.approx(0.5)
        assert fs["search_count"] == 0

    def test_single_event_variance_zero(self):
        fs = _session_row(("cart", 700))
        assert fs["dwell_variance"] == 0.0
        assert fs["mean_dwell_ms"] == 700.0
        assert fs["max_dwell_ms"] == fs["min_dwell_ms"] == 700

    def test_unknown_pages_fold_into_other(self):
        fs = _session_row(("promo", 100), ("view", 200), ("weird", 300))
        assert fs["count_other"] == 2
        assert fs["count_view"] == 1
        assert fs["distinct_page_types"] == 2

    def test_no_views_ratio_zero(self):
        fs = _session_row(("checkout", 100))
        assert fs["checkout_to_view_ratio"] == 0.0

    def test_order_invariance(self):
        a = _session_row(("view", 100), ("search", 200), ("cart", 300))
        b = _session_row(("cart", 300), ("view", 100), ("search", 200))
        assert a == b

    def test_rejects_empty_session(self):
        with pytest.raises(ValueError, match="no events"):
            _session()  # ClickSession refuses empty event lists outright
        bare = TransactionRecord(
            id="bare", timestamp=1, amount=1.0, features={"f0": 0.0})
        with pytest.raises(ValueError, match="no session"):
            build_feature_matrix([bare], "session")

    def test_vector_matches_name_order(self):
        mat, _ = build_feature_matrix(
            [_record(0, session=_session(("search", 400)))], "session")
        assert mat.shape == (1, len(SESSION_FEATURE_NAMES))
        assert mat[0, SESSION_FEATURE_NAMES.index("count_search")] == 1.0
        assert mat[0, SESSION_FEATURE_NAMES.index("search_count")] == 1.0


class TestFeatureMatrix:
    def test_embedding_columns_sorted(self):
        recs = [_record(i, features={"b": 2.0, "a": 1.0}) for i in range(3)]
        mat, names = build_feature_matrix(recs, "embedding")
        assert names == ("a", "b")
        assert mat.shape == (3, 2)
        assert mat[0].tolist() == [1.0, 2.0]

    def test_hybrid_concatenates(self):
        recs = [_record(i) for i in range(2)]
        mat, names = build_feature_matrix(recs, "hybrid")
        assert mat.shape == (2, 2 + len(SESSION_FEATURE_NAMES))
        assert names[:2] == ("f0", "f1")
        assert all(n.startswith("session_") for n in names[2:])

    def test_session_only(self):
        recs = [_record(i) for i in range(2)]
        mat, names = build_feature_matrix(recs, "session")
        assert mat.shape == (2, len(SESSION_FEATURE_NAMES))
        assert names == tuple(
            "session_" + n for n in SESSION_FEATURE_NAMES)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="no records"):
            build_feature_matrix([], "hybrid")

    def test_rejects_unknown_feature_set(self):
        with pytest.raises(ValueError, match="feature_set"):
            build_feature_matrix([_record(0)], "pca")

    def test_rejects_ragged_keys(self):
        recs = [_record(0), _record(1, features={"f0": 1.0})]
        with pytest.raises(ValueError, match="differ"):
            build_feature_matrix(recs, "embedding")

    def test_rejects_missing_session(self):
        rec = TransactionRecord(
            id="x", timestamp=1, amount=1.0, risk_seed="legit",
            features={"f0": 0.0}, session=None)
        with pytest.raises(ValueError, match="session"):
            build_feature_matrix([rec], "hybrid")
        mat, _ = build_feature_matrix([rec], "embedding")
        assert mat.shape == (1, 1)

    def test_key_mismatch_named_before_missing_session(self):
        bare = TransactionRecord(
            id="bare", timestamp=1, amount=1.0,
            features={"f0": 0.0, "f1": 1.0})
        other = TransactionRecord(
            id="other", timestamp=1, amount=1.0, features={"f0": 0.0},
            session=_session(("view", 1)))
        recs = [_record(0), bare, other, bare]
        with pytest.raises(ValueError, match="record other: feature keys"):
            build_feature_matrix(recs, "hybrid")
        second = TransactionRecord(
            id="second", timestamp=1, amount=1.0, features={})
        with pytest.raises(ValueError, match="record bare: no session"):
            build_feature_matrix([_record(0), bare, second], "session")

    def test_loaded_non_uniform_keys(self, tmp_path):
        recs = [_record(0), _record(1, features={"f1": 2.0, "g": 1.0}),
                _record(2, features={})]
        path = tmp_path / "keys.ndjson"
        save_transactions(path, recs)
        batch = load_transactions(path)
        assert batch.feature_names == ("f0", "f1", "g")
        mat, _ = build_feature_matrix(batch, "session")
        assert np.array_equal(mat, build_feature_matrix(recs, "session")[0])
        for feature_set in ("embedding", "hybrid"):
            with pytest.raises(
                    ValueError, match="^record r0001: feature keys differ"):
                build_feature_matrix(batch, feature_set)

    def test_embedding_values_convert_as_per_record_rows(self):
        # ints past 2**53 and 2**64 round to float64 like a row assignment
        values = [2**53 + 1, 2**63 + 2**11 + 1, 10**30 + 1, True, -0.0, 1e-310]
        recs = [_record(i, features={"a": v, "b": 0.5})
                for i, v in enumerate(values)]
        mat, _ = build_feature_matrix(recs, "embedding")
        want = np.empty((len(values), 2))
        for i, v in enumerate(values):
            want[i] = [v, 0.5]
        assert np.array_equal(mat.view(np.int64), want.view(np.int64))


class TestColumnarSessionBlock:
    """Session rows built in one columnar pass keep the per-session bits."""

    LENGTHS = (1, 2, 7, 8, 9, 127, 128, 129, 1000)
    PAGES = ("view", "search", "cart", "checkout", "account", "other",
             "promo", "", "VIEW")

    def _session(self, rng, length):
        # dwell 0, small, and up to 1e17: a 1000-event session then sums
        # past 2**63, where an int64 cast of the total goes wrong
        top = rng.choice([0, 10**4, 10**17])
        pages = rng.choice(self.PAGES, size=length)
        dwells = rng.integers(0, top, size=length, endpoint=True)
        return _session(*zip(pages.tolist(), dwells.tolist()))

    def _assert_rows_equal(self, sessions):
        recs = [_record(i, session=s) for i, s in enumerate(sessions)]
        got, _ = build_feature_matrix(recs, "session")
        want = np.array(
            [session_features_reference(s.events) for s in sessions])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for s, row in zip(sessions, want):
            one, _ = build_feature_matrix([_record(0, session=s)], "session")
            assert np.array_equal(one[0].view(np.int64), row.view(np.int64))
        return want

    def test_mixed_lengths_in_one_batch(self):
        rng = np.random.Generator(np.random.PCG64(51))
        lengths = rng.permutation(np.repeat(self.LENGTHS, 4))
        want = self._assert_rows_equal(
            [self._session(rng, int(n)) for n in lengths])
        total = want[:, SESSION_FEATURE_NAMES.index("total_dwell_ms")]
        assert (total == 0).any() and (total > 2**63).any()

    def test_uniform_length_batches(self):
        rng = np.random.Generator(np.random.PCG64(52))
        for n in self.LENGTHS:
            self._assert_rows_equal([self._session(rng, n) for _ in range(5)])

    @pytest.mark.parametrize("dwell", [2**63, 10**308, 10**400],
                             ids=["2**63", "10**308", "10**400"])
    def test_dwell_past_int64_rejected(self, dwell):
        with pytest.raises(
                ValueError, match="dwell_ms must fit in a signed 64-bit"):
            _session(("view", 1), ("cart", dwell))


def _assignment(labels, strengths=None):
    labels = np.asarray(labels, dtype=np.int64)
    if strengths is None:
        strengths = np.where(labels >= 0, 1.0, 0.0)
    return ClusterAssignment(
        labels=labels, strengths=np.asarray(strengths, dtype=np.float64))


class TestRiskySelection:
    def test_flags_dense_cluster_only(self):
        labels = [0] * 4 + [1] * 4
        risks = ["confirmed_fraud"] * 3 + ["legit"] + ["legit"] * 4
        recs = [_record(i, risk=r) for i, r in enumerate(risks)]
        config = RiskyClusterConfig(
            min_cluster_size_for_flag=4, min_fraud_density=0.5,
            min_mean_strength=0.1)
        risky, stats = select_risky_clusters(
            _assignment(labels), recs, config)
        assert risky == {0}
        assert stats[0]["confirmed_fraud"] == 3
        assert stats[0]["fraud_density"] == pytest.approx(0.75)
        assert stats[0]["flagged"] is True
        assert stats[1]["flagged"] is False

    def test_declined_counts_toward_density(self):
        labels = [0] * 4
        risks = ["declined", "declined", "legit", "legit"]
        recs = [_record(i, risk=r) for i, r in enumerate(risks)]
        config = RiskyClusterConfig(
            min_cluster_size_for_flag=2, min_fraud_density=0.5)
        risky, stats = select_risky_clusters(
            _assignment(labels), recs, config)
        assert risky == {0}
        assert stats[0]["declined"] == 2

    def test_size_gate(self):
        recs = [_record(i, risk="confirmed_fraud") for i in range(3)]
        config = RiskyClusterConfig(min_cluster_size_for_flag=4)
        risky, stats = select_risky_clusters(
            _assignment([0, 0, 0]), recs, config)
        assert risky == set()
        assert stats[0]["flagged"] is False

    def test_strength_gate(self):
        recs = [_record(i, risk="confirmed_fraud") for i in range(4)]
        config = RiskyClusterConfig(
            min_cluster_size_for_flag=2, min_mean_strength=0.5)
        risky, _ = select_risky_clusters(
            _assignment([0] * 4, strengths=[0.1, 0.2, 0.3, 0.4]), recs,
            config)
        assert risky == set()

    def test_noise_never_flagged(self):
        recs = [_record(i, risk="confirmed_fraud") for i in range(5)]
        config = RiskyClusterConfig(
            min_cluster_size_for_flag=1, min_fraud_density=0.0,
            min_mean_strength=0.0)
        risky, stats = select_risky_clusters(
            _assignment([-1] * 5), recs, config)
        assert risky == set()
        assert stats == {}

    def test_density_monotone_in_threshold(self):
        rng = np.random.Generator(np.random.PCG64(0))
        labels = rng.integers(0, 4, size=60)
        risks = ["confirmed_fraud" if rng.random() < 0.5 else "legit"
                 for _ in range(60)]
        recs = [_record(i, risk=r) for i, r in enumerate(risks)]
        previous = None
        for density in (0.0, 0.25, 0.5, 0.75, 1.01):
            config = RiskyClusterConfig(
                min_cluster_size_for_flag=1, min_fraud_density=min(
                    density, 1.0), min_mean_strength=0.0)
            risky, _ = select_risky_clusters(
                _assignment(labels), recs, config)
            if previous is not None:
                assert risky <= previous
            previous = risky

    def test_rejects_misalignment(self):
        with pytest.raises(ValueError, match="aligned"):
            select_risky_clusters(
                _assignment([0, 0]), [_record(0)], RiskyClusterConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RiskyClusterConfig(min_cluster_size_for_flag=0)
        with pytest.raises(ValueError):
            RiskyClusterConfig(min_fraud_density=1.5)
        with pytest.raises(ValueError):
            RiskyClusterConfig(min_mean_strength=-0.1)


class TestExperimentSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ExperimentSpec(mode="offline")

    def test_rejects_train_after_test(self):
        with pytest.raises(ValueError, match="precede"):
            ExperimentSpec(
                mode="inductive", train_snapshots=(3,), test_snapshot=3)

    def test_rejects_empty_train(self):
        with pytest.raises(ValueError, match="train"):
            ExperimentSpec(mode="inductive", test_snapshot=1)

    def test_spec_built_in_code_needs_min_cluster_size(self):
        # the rule holds for every spec, not only those read from JSON
        with pytest.raises(ValueError, match="needs min_cluster_size"):
            ExperimentSpec(
                mode="inductive", train_snapshots=(0,), test_snapshot=1,
                clustering={"min_samples": 5})

    def test_windows_validated_too(self):
        with pytest.raises(ValueError, match="precede"):
            ExperimentSpec(
                mode="transductive", windows=(((0, 1), 1),))

    @pytest.mark.parametrize("text, message", [
        ("[]", "must be an object"),
        ('{"clustering": {"min_cluster_size": 10}}', "needs mode"),
        ('{"mode": "inductive", "test_snapshot": 1,'
         ' "train_snapshots": [0]}', "min_cluster_size"),
        ('{"mode": "inductive", "test_snapshot": 1, "train_snapshots": [0],'
         ' "clustering": 7}', "clustering must be an object"),
    ])
    def test_from_json_rejects_malformed_config(self, text, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_json(text)

    def test_from_json_coerces_nested(self):
        spec = ExperimentSpec.from_json("""
        {
          "mode": "transductive",
          "windows": [[[0, 1], 2], [[1, 2], 3]],
          "sampling": {"max_train": 100, "half_life_ms": 1000.0},
          "risky": {"min_fraud_density": 0.6},
          "clustering": {"min_cluster_size": 10},
          "feature_set": "embedding"
        }
        """)
        assert isinstance(spec.sampling, SamplingSpec)
        assert spec.sampling.max_train == 100
        assert isinstance(spec.risky, RiskyClusterConfig)
        assert spec.risky.min_fraud_density == 0.6
        assert spec.windows == (((0, 1), 2), ((1, 2), 3))

    def test_sections_become_config_objects(self):
        spec = ExperimentSpec(
            mode="inductive", train_snapshots=[0], test_snapshot=1,
            sampling={"max_train": 10}, risky={"min_fraud_density": 0.6},
            clustering={"min_cluster_size": 10})
        assert spec.sampling == SamplingSpec(max_train=10)
        assert spec.risky == RiskyClusterConfig(min_fraud_density=0.6)
        assert spec.clustering == ClusterParams(min_cluster_size=10)
        assert spec.windows == (((0,), 1),)
        assert spec == ExperimentSpec.from_json(json.dumps({
            "mode": "inductive", "train_snapshots": [0], "test_snapshot": 1,
            "sampling": {"max_train": 10}, "risky": {"min_fraud_density": 0.6},
            "clustering": {"min_cluster_size": 10}}))

    def test_config_objects_pass_through(self):
        params = ClusterParams(min_cluster_size=10)
        spec = ExperimentSpec(
            mode="inductive", train_snapshots=(0,), test_snapshot=1,
            clustering=params)
        assert spec.clustering is params

    def test_snapshot_numbers_read_as_ints(self):
        spec = ExperimentSpec(
            mode="inductive", windows=[[np.array([0, 1]), np.int64(2)]],
            clustering={"min_cluster_size": 10})
        assert spec.windows == (((0, 1), 2),)
        assert {type(s) for s in (*spec.windows[0][0], spec.windows[0][1])} \
            == {int}

    @pytest.mark.parametrize("edit, message", [
        ({"train_snapshots": (0.0,)}, "train_snapshots must be a list"),
        ({"train_snapshots": (True,)}, "train_snapshots must be a list"),
        ({"test_snapshot": "1"}, "train_snapshots must be a list"),
        ({"windows": (((0,), 1.5),)}, "windows must be a list"),
        ({"windows": (((0,), 1, 2),)}, "windows must be a list"),
        ({"windows": ((0, 1),)}, "windows must be a list"),
        ({"windows": (((0,), 1),), "train_snapshots": (0,)},
         "not both"),
        ({"windows": (((0,), 1),), "test_snapshot": 1}, "not both"),
        ({"windows": ()}, "windows must not be empty"),
        ({"k_assign": 0}, "k_assign must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    @pytest.mark.parametrize("mode", ["inductive", "transductive"])
    def test_rejects_at_construction(self, mode, edit, message):
        base = {"mode": mode, "clustering": {"min_cluster_size": 10}}
        if "windows" not in edit:
            base.update(train_snapshots=(0,), test_snapshot=1)
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**{**base, **edit})

    @pytest.mark.parametrize("form", [
        {"train_snapshots": (0, 0, 1), "test_snapshot": 2},
        {"windows": (((0, 1), 2), ((1, 0, 1), 2))},
    ], ids=["train_snapshots", "windows"])
    @pytest.mark.parametrize("mode", ["inductive", "transductive"])
    def test_rejects_a_repeated_train_snapshot(self, mode, form):
        # a repeated snapshot would train on each of its records twice
        with pytest.raises(
                ValueError, match="^window repeats a train snapshot$"):
            ExperimentSpec(
                mode=mode, clustering={"min_cluster_size": 10}, **form)

    def test_window_errors_come_before_clustering_errors(self):
        with pytest.raises(ValueError, match="windows must not be empty"):
            ExperimentSpec(mode="inductive", windows=(), clustering=7)

    def test_readme_config_is_read(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        # the first JSON block under the heading, as the docs show it
        block = re.search(
            r"\*\*Experiment config JSON\*\*.*?```json\n(.*?)```",
            readme.read_text(encoding="utf-8"), re.S)
        spec = ExperimentSpec.from_json(block.group(1))
        assert isinstance(spec.clustering, ClusterParams)
        assert len(spec.windows) == 1

    def test_group_by_snapshot_boundaries(self):
        batch = TransactionBatch.of([
            _record(0, ts=7_200_000), _record(1, ts=7_199_999),
            _record(2, ts=1), _record(3, ts=7_200_001)])
        groups = _group_by_snapshot(batch, 3_600_000)
        assert {s: g.tolist() for s, g in groups.items()} == {
            0: [2], 1: [1], 2: [0, 3]}

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            SamplingSpec(max_train=0)
        with pytest.raises(ValueError):
            SamplingSpec(half_life_ms=0.0)


def _stream_spec(mode, snaps, **overrides):
    base = {
        "mode": mode,
        "snapshot_ms": 3_600_000,
        "train_snapshots": tuple(snaps[:-1]),
        "test_snapshot": snaps[-1],
        "clustering": {"min_cluster_size": 50, "min_samples": 10},
        "feature_set": "embedding",
    }
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def stream():
    return fraud_stream(seed=5)


class TestRunExperiment:
    def test_inductive_flags_planted_cluster(self, stream):
        records, truth = stream
        spec = _stream_spec("inductive", truth["snapshots"])
        report, artifacts = run_experiment(spec, records)
        assert report.precision > 0.7
        assert report.recall > 0.7
        window = artifacts["windows"][0]
        assert len(window["risky_clusters"]) == 1
        flagged = {
            rid for rid, pred in zip(
                window["test_ids"], window["predicted_fraud"]) if pred}
        assert flagged <= truth["planted_ids"]

    def test_transductive_mode_runs(self, stream):
        records, truth = stream
        spec = _stream_spec(
            "transductive", truth["snapshots"],
            sampling=SamplingSpec(max_train=800, half_life_ms=3_600_000.0))
        report, artifacts = run_experiment(spec, records)
        assert artifacts["mode"] == "transductive"
        assert artifacts["windows"][0]["n_train"] == 800
        assert report.recall > 0.7

    def test_windows_aggregate(self, stream):
        records, truth = stream
        s = truth["snapshots"]
        spec = _stream_spec(
            "inductive", s,
            train_snapshots=(), test_snapshot=0,
            windows=(((s[0],), s[1]), ((s[0], s[1]), s[2])))
        report, artifacts = run_experiment(spec, records)
        assert len(artifacts["windows"]) == 2
        total_tp = sum(
            w["report"]["true_positives"] for w in artifacts["windows"])
        assert report.true_positives == total_tp

    def test_train_test_disjoint(self, stream):
        records, truth = stream
        spec = _stream_spec("inductive", truth["snapshots"])
        _, artifacts = run_experiment(spec, records)
        window = artifacts["windows"][0]
        ms = truth["snapshot_ms"]
        test_ids = set(window["test_ids"])
        for rec in records:
            in_test = rec.timestamp // ms == truth["snapshots"][-1]
            assert (rec.id in test_ids) == in_test

    def test_no_risky_clusters_no_predictions(self, stream):
        records, truth = stream
        spec = _stream_spec(
            "inductive", truth["snapshots"],
            risky=RiskyClusterConfig(min_fraud_density=1.0))
        report, artifacts = run_experiment(spec, records)
        assert report.no_predictions is True
        assert artifacts["windows"][0]["risky_clusters"] == []

    def test_rejects_window_without_records(self, stream):
        records, truth = stream
        spec = _stream_spec(
            "inductive", [truth["snapshots"][0], truth["snapshots"][-1] + 5])
        with pytest.raises(ValueError, match="matched no records"):
            run_experiment(spec, records)

    def test_rejects_empty_stream(self):
        spec = ExperimentSpec(
            mode="inductive", train_snapshots=(0,), test_snapshot=1,
            clustering={"min_cluster_size": 10})
        with pytest.raises(ValueError, match="no records"):
            run_experiment(spec, [])


@pytest.mark.parametrize("mode", ["inductive", "transductive"])
def test_spec_built_in_code_with_section_mappings_runs_as_from_json(
        stream, mode):
    # every section as a plain mapping, as a library caller may pass it
    records, truth = stream
    obj = {
        "mode": mode, "train_snapshots": truth["snapshots"][:-1],
        "test_snapshot": truth["snapshots"][-1],
        "sampling": {"max_train": 800, "half_life_ms": 3_600_000.0},
        "clustering": {"min_cluster_size": 50, "min_samples": 10},
        "risky": {"min_fraud_density": 0.4}, "feature_set": "embedding"}
    want_report, want = run_experiment(
        ExperimentSpec.from_json(json.dumps(obj)), records)
    got_report, got = run_experiment(ExperimentSpec(**obj), records)
    assert got_report == want_report
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert want_report.recall > 0.7


@pytest.mark.parametrize("feature_set", ["embedding", "session", "hybrid"])
@pytest.mark.parametrize("mode", ["inductive", "transductive"])
def test_loaded_batch_and_record_list_give_equal_artifacts(
        stream, tmp_path, feature_set, mode):
    records, truth = stream
    path = tmp_path / "stream.ndjson"
    save_transactions(path, records)
    spec = _stream_spec(
        mode, truth["snapshots"], feature_set=feature_set,
        sampling=SamplingSpec(max_train=800, half_life_ms=1_800_000.0))
    want = run_experiment(spec, records)[1]
    got = run_experiment(spec, load_transactions(path))[1]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("half_life_ms", [1000.0, 1.0])
def test_short_half_lives_sample_every_stratum(half_life_ms):
    # ages measured from the newest train record underflowed exp2 to 0 in
    # the older strata: numpy's choice then refused the probabilities
    records, truth = fraud_stream(
        seed=1, legit_blobs=4, legit_per_blob=100, planted_per_snapshot=60)
    spec = _stream_spec(
        "transductive", truth["snapshots"],
        sampling=SamplingSpec(max_train=200, half_life_ms=half_life_ms))
    _, artifacts = run_experiment(spec, records)
    assert artifacts["windows"][0]["n_train"] == 200


class TestStratifiedSampling:
    def _records(self, n=100, fraud_every=4):
        recs = []
        for i in range(n):
            risk = "confirmed_fraud" if i % fraud_every == 0 else "legit"
            recs.append(_record(i, ts=(i + 1) * 1000, risk=risk))
        return recs

    def test_quota_proportions(self):
        from riskcluster.pipeline import _stratified_sample
        recs = self._records(100, fraud_every=4)
        rng = np.random.Generator(np.random.PCG64(0))
        picked = _stratified_sample(
            recs, list(range(100)), SamplingSpec(max_train=40), rng)
        assert len(picked) == 40
        n_fraud = sum(recs[i].risk_seed == "confirmed_fraud" for i in picked)
        assert n_fraud == 10  # exact largest-remainder quota of 25%
        assert picked == sorted(picked)

    def test_no_cap_returns_all(self):
        from riskcluster.pipeline import _stratified_sample
        recs = self._records(20)
        rng = np.random.Generator(np.random.PCG64(0))
        picked = _stratified_sample(
            recs, list(range(20)), SamplingSpec(), rng)
        assert picked == list(range(20))

    def test_recency_bias(self):
        from riskcluster.pipeline import _stratified_sample
        recs = self._records(400, fraud_every=400)
        rng = np.random.Generator(np.random.PCG64(3))
        biased = _stratified_sample(
            recs, list(range(400)),
            SamplingSpec(max_train=100, half_life_ms=20_000.0), rng)
        uniform = _stratified_sample(
            recs, list(range(400)), SamplingSpec(max_train=100), rng)
        assert np.mean([recs[i].timestamp for i in biased]) > np.mean(
            [recs[i].timestamp for i in uniform])

    def test_tiny_half_life_takes_each_stratum_newest_first(self):
        from riskcluster.pipeline import _stratified_sample
        recs = self._records(400, fraud_every=4)
        rng = np.random.Generator(np.random.PCG64(3))
        picked = _stratified_sample(
            recs, list(range(400)),
            SamplingSpec(max_train=100, half_life_ms=1.0), rng)
        assert len(picked) == 100
        # record 396 is the newest fraud, 399 the newest legit one
        assert {396, 399} <= set(picked)
