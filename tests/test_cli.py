import json
from pathlib import Path

import numpy as np
import pytest

from riskcluster.cli import main
from riskcluster.datagen import fraud_stream
from riskcluster.model import save_transactions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def blob_files(tmp_path, capsys):
    prefix = str(tmp_path / "blobs_600_7")
    code, out, _ = run(
        capsys, "gen", "--shape", "blobs", "--n", "600", "--seed", "7",
        "--out-prefix", prefix)
    assert code == 0
    return prefix


class TestParsing:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "ari", "--bogus", "x")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "cluster", "--input", "x.csv")
        assert code == 2

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("riskcluster ")


class TestGen:
    def test_writes_three_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "m")
        code, out, _ = run(
            capsys, "gen", "--shape", "moons", "--n", "80", "--seed", "3",
            "--out-prefix", prefix)
        assert code == 0
        assert (tmp_path / "m.points.csv").exists()
        assert (tmp_path / "m.labels.csv").exists()
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["shape"] == "moons"
        assert manifest["n"] == 80
        points = (tmp_path / "m.points.csv").read_text().splitlines()
        labels = (tmp_path / "m.labels.csv").read_text().splitlines()
        assert len(points) == 80
        assert len(labels) == 80
        assert set(labels) == {"0", "1"}
        assert "wrote" in out

    def test_rejects_bad_spec(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--shape", "moons", "--n", "10", "--dim", "5",
            "--out-prefix", str(tmp_path / "x"))
        assert code == 4
        assert "error:" in err


class TestClusterPredictAri:
    def test_full_loop_recovers_blobs(self, blob_files, tmp_path, capsys):
        out_json = str(tmp_path / "labels.json")
        code, out, _ = run(
            capsys, "cluster", "--input", f"{blob_files}.points.csv",
            "--min-cluster-size", "15", "--min-samples", "5",
            "--out", out_json)
        assert code == 0
        assert "timing total" in out
        doc = json.loads((tmp_path / "labels.json").read_text())
        assert doc["n"] == 600
        assert doc["dim"] == 2
        assert doc["num_clusters"] == 3
        assert "timings" not in doc
        # predicted labels for the training file match the stored labels
        pred_json = str(tmp_path / "predictions.json")
        code, _, _ = run(
            capsys, "predict", "--model", out_json,
            "--queries", f"{blob_files}.points.csv", "--out", pred_json)
        assert code == 0
        pred = json.loads((tmp_path / "predictions.json").read_text())
        assert pred["labels"] == doc["labels"]
        # ARI of cluster labels vs generator truth
        got_path = tmp_path / "got.csv"
        got_path.write_text(
            "".join(f"{v}\n" for v in doc["labels"]))
        code, out, _ = run(
            capsys, "ari", "--a", str(got_path),
            "--b", f"{blob_files}.labels.csv")
        assert code == 0
        assert float(out.strip().splitlines()[-1]) >= 0.99

    def test_emit_timings_opt_in(self, blob_files, tmp_path, capsys):
        out_json = str(tmp_path / "timed.json")
        code, _, _ = run(
            capsys, "cluster", "--input", f"{blob_files}.points.csv",
            "--min-cluster-size", "15", "--emit-timings",
            "--out", out_json)
        assert code == 0
        doc = json.loads((tmp_path / "timed.json").read_text())
        assert set(doc["timings"]) == {
            "quantizer", "knn", "reach", "mst", "hierarchy", "condense",
            "extract", "total"}

    def test_byte_identical_reruns_across_threads(
            self, blob_files, tmp_path, capsys):
        outs = []
        for name, threads in (("a.json", "1"), ("b.json", "1"),
                              ("c.json", "8")):
            out_json = tmp_path / name
            code, _, _ = run(
                capsys, "cluster", "--input", f"{blob_files}.points.csv",
                "--min-cluster-size", "15", "--min-samples", "5",
                "--mode", "ivf", "--nlist", "8", "--nprobe", "8",
                "--seed", "42", "--threads", threads,
                "--out", str(out_json))
            assert code == 0
            outs.append(out_json.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "cluster", "--input", str(tmp_path / "nope.csv"),
            "--min-cluster-size", "5", "--format", "csv",
            "--out", str(tmp_path / "o.json"))
        assert code == 3
        assert "error:" in err

    def test_malformed_csv_is_contract_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(bad),
            "--min-cluster-size", "5", "--out", str(tmp_path / "o.json"))
        assert code == 4
        assert "line 2" in err

    def test_binary_round_trip_via_auto(self, tmp_path, capsys):
        from riskcluster.model import PointSet, save_points
        rng = np.random.Generator(np.random.PCG64(0))
        pts = PointSet(rng.normal(size=(40, 3)))
        path = tmp_path / "pts.rcpt"
        save_points(str(path), pts, fmt="binary")
        code, out, _ = run(
            capsys, "cluster", "--input", str(path),
            "--min-cluster-size", "5", "--out", str(tmp_path / "o.json"))
        assert code == 0
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["input"]["format"] == "binary"
        assert doc["n"] == 40

    def test_ari_identity(self, tmp_path, capsys):
        path = tmp_path / "l.csv"
        path.write_text("0\n0\n1\n1\n2\n")
        code, out, _ = run(
            capsys, "ari", "--a", str(path), "--b", str(path))
        assert code == 0
        assert out.strip().splitlines()[-1] == "1.0"

    def test_ari_bad_labels_file(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0\nfoo\n")
        code, _, err = run(capsys, "ari", "--a", str(a), "--b", str(a))
        assert code == 4
        assert "line 2" in err

    def test_ari_infinite_label_is_contract_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0\ninf\n")
        code, _, err = run(capsys, "ari", "--a", str(a), "--b", str(a))
        assert code == 4
        assert "error: line 2: non-finite label 'inf'" in err

    def test_ari_fractional_label_is_contract_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0\n1.7\n1\n")
        b = tmp_path / "b.csv"
        b.write_text("0\n1\n1\n")
        code, out, err = run(capsys, "ari", "--a", str(a), "--b", str(b))
        assert code == 4
        assert "error: line 2: non-integral label '1.7'" in err
        assert "1.0" not in out

    def test_ari_integral_spellings_accepted(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("1\n1.0\n-1\n-1.0\n")
        b = tmp_path / "b.csv"
        b.write_text("1\n1\n-1\n-1\n")
        code, out, _ = run(capsys, "ari", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.strip().splitlines()[-1] == "1.0"

    @pytest.mark.parametrize("source, missing", [
        ({"format": "csv"}, "path"),
        ({"path": "train.csv"}, "format"),
        ("train.csv", "path"),
    ])
    def test_model_input_without_path_or_format(
            self, tmp_path, capsys, source, missing):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(
            {"input": source, "labels": [0], "strengths": [1.0]}))
        code, _, err = run(
            capsys, "predict", "--model", str(model),
            "--queries", str(tmp_path / "q.csv"),
            "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "error: model file input needs 'path'" in err


@pytest.fixture(scope="module")
def stream_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("stream")
    records, truth = fraud_stream(seed=5)
    data = tmp / "stream.ndjson"
    save_transactions(str(data), records)
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "mode": "inductive",
        "snapshot_ms": truth["snapshot_ms"],
        "train_snapshots": truth["snapshots"][:-1],
        "test_snapshot": truth["snapshots"][-1],
        "clustering": {"min_cluster_size": 50, "min_samples": 10},
        "feature_set": "embedding",
    }))
    return str(data), str(config), truth


class TestExperiment:
    def test_writes_three_artifacts(self, stream_files, tmp_path, capsys):
        data, config, truth = stream_files
        prefix = str(tmp_path / "exp")
        code, out, _ = run(
            capsys, "experiment", "--config", config, "--data", data,
            "--out-prefix", prefix)
        assert code == 0
        assert "precision" in out
        report = json.loads((tmp_path / "exp.report.json").read_text())
        assert report["mode"] == "inductive"
        assert report["report"]["precision"] > 0.7
        clusters = json.loads((tmp_path / "exp.clusters.json").read_text())
        assert len(clusters["windows"][0]["risky_clusters"]) == 1
        lines = (tmp_path / "exp.labels.csv").read_text().splitlines()
        assert lines[0] == "id,window,label,strength,predicted_fraud"
        assert len(lines) == 1 + 3 * 400 + 150

    def test_deterministic_artifacts(self, stream_files, tmp_path, capsys):
        data, config, _ = stream_files
        blobs = []
        for sub in ("x", "y"):
            prefix = str(tmp_path / sub)
            code, _, _ = run(
                capsys, "experiment", "--config", config, "--data", data,
                "--out-prefix", prefix)
            assert code == 0
            blobs.append(tuple(
                (tmp_path / f"{sub}{ext}").read_bytes()
                for ext in (".report.json", ".clusters.json",
                            ".labels.csv")))
        assert blobs[0] == blobs[1]

    def test_bad_config_is_contract_error(self, stream_files, tmp_path,
                                          capsys):
        data, _, _ = stream_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"mode": "sideways"}))
        code, _, err = run(
            capsys, "experiment", "--config", str(bad), "--data", data,
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert "mode" in err

    @pytest.mark.parametrize("section, key", [
        (None, "windowz"),
        ("clustering", "min_cluster_sise"),
        ("sampling", "max_trian"),
        ("risky", "min_density"),
    ])
    def test_unknown_config_key_is_contract_error(
            self, stream_files, tmp_path, capsys, section, key):
        data, config, _ = stream_files
        obj = json.loads(Path(config).read_text())
        if section is None:
            obj[key] = 1
        else:
            obj[section] = {**obj.get(section, {}), key: 1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "experiment", "--config", str(bad), "--data", data,
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert f"error: unknown {section or 'experiment'} keys: {key}" in err


    @pytest.mark.parametrize("edit, message", [
        ({"clustering": None}, "clustering needs min_cluster_size"),
        ({"clustering": {"min_samples": 10}},
         "clustering needs min_cluster_size"),
        ({"sampling": 5}, "sampling must be an object"),
        ({"risky": [0.5]}, "risky must be an object"),
    ])
    def test_malformed_config_fails_before_loading_data(
            self, stream_files, tmp_path, capsys, edit, message):
        _, config, _ = stream_files
        obj = json.loads(Path(config).read_text())
        for key, value in edit.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        # the data path does not exist: the config must fail first
        code, _, err = run(
            capsys, "experiment", "--config", str(bad),
            "--data", str(tmp_path / "missing.ndjson"),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert f"error: {message}" in err


class TestExplain:
    @pytest.fixture()
    def planted(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(42))
        n = 600
        x = np.column_stack([
            rng.uniform(0.0, 20.0, size=n),
            rng.uniform(0.0, 4.0, size=n),
        ])
        y = ((x[:, 0] > 10.0) & (x[:, 1] <= 2.0)).astype(int)
        feats = tmp_path / "features.csv"
        with open(feats, "w") as fh:
            fh.write("f1,f2\n")
            for row in x:
                fh.write(",".join(
                    np.format_float_positional(v, unique=True, trim="0")
                    for v in row) + "\n")
        target = tmp_path / "target.csv"
        target.write_text("".join(f"{v}\n" for v in y))
        return str(feats), str(target)

    def test_mines_planted_rule(self, planted, tmp_path, capsys):
        feats, target = planted
        out_json = str(tmp_path / "rules.json")
        code, out, _ = run(
            capsys, "explain", "--features", feats, "--target", target,
            "--seed", "7", "--out", out_json)
        assert code == 0
        assert "rule:" in out
        doc = json.loads((tmp_path / "rules.json").read_text())
        assert doc["rules"]
        top = doc["rules"][0]
        assert "f1 > " in top["text"]
        assert top["precision"] >= 0.9

    def test_misaligned_target(self, planted, tmp_path, capsys):
        feats, _ = planted
        short = tmp_path / "short.csv"
        short.write_text("1\n0\n")
        code, _, err = run(
            capsys, "explain", "--features", feats, "--target", str(short),
            "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert "target length" in err

    def test_unknown_config_key_is_contract_error(
            self, planted, tmp_path, capsys):
        feats, target = planted
        config = tmp_path / "explain.json"
        config.write_text(json.dumps({"max_depth": 3, "max_dept": 2}))
        code, _, err = run(
            capsys, "explain", "--features", feats, "--target", target,
            "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert "error: unknown explain config keys: max_dept" in err


class TestSankey:
    def test_single_path_flow(self, tmp_path, capsys):
        from riskcluster.model import ClickSession, TransactionRecord
        recs = [
            TransactionRecord(
                id="a", timestamp=10, amount=5.0, risk_seed="legit",
                features={"f0": 0.0},
                session=ClickSession((
                    ("view", 100), ("cart", 100), ("checkout", 100)))),
            TransactionRecord(
                id="b", timestamp=20, amount=5.0, risk_seed="legit",
                features={"f0": 0.0},
                session=ClickSession((("view", 100), ("cart", 100)))),
            TransactionRecord(
                id="c", timestamp=30, amount=5.0, risk_seed="legit",
                features={"f0": 0.0},
                session=ClickSession((("search", 100), ("view", 100)))),
        ]
        data = tmp_path / "recs.ndjson"
        save_transactions(str(data), recs)
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"labels": [0, 0, 1]}))
        out_json = str(tmp_path / "flow.json")
        code, _, _ = run(
            capsys, "sankey", "--data", str(data), "--labels", str(labels),
            "--cluster", "0", "--out", out_json)
        assert code == 0
        doc = json.loads((tmp_path / "flow.json").read_text())
        assert doc["cluster"] == 0
        assert doc["links"] == [
            {"source": "cart", "target": "checkout", "value": 1},
            {"source": "view", "target": "cart", "value": 2},
        ]

    def test_misaligned_labels(self, tmp_path, capsys):
        from riskcluster.model import ClickSession, TransactionRecord
        recs = [TransactionRecord(
            id="a", timestamp=10, amount=5.0, risk_seed="legit",
            features={"f0": 0.0},
            session=ClickSession((("view", 100),)))]
        data = tmp_path / "recs.ndjson"
        save_transactions(str(data), recs)
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps({"labels": [0, 1]}))
        code, _, err = run(
            capsys, "sankey", "--data", str(data), "--labels", str(labels),
            "--cluster", "0", "--out", str(tmp_path / "f.json"))
        assert code == 4
        assert "labels length" in err
