import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskcluster
from riskcluster.cli import main
from riskcluster.datagen import fraud_stream
from riskcluster.model import save_transactions


# one JSON value nested past the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


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

    def test_kernel_flag_is_gone(self, capsys):
        # the exact kernel is the only one, so there is nothing to choose
        code, _, err = run(capsys, "cluster", "--input", "x.csv",
                           "--min-cluster-size", "5", "--kernel", "fast")
        assert code == 2
        assert "--kernel" in err

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--centers", "0", "centers must be >= 1"),
        ("--dim", "0", "dim must be >= 1"),
        ("--n", "0", "n must be >= 1"),
        ("--std", "-1", "std must be >= 0"),
        ("--seed", "-1", "seed must be >= 0"),
        ("--noise", "nan", "noise must be a finite number"),
    ])
    def test_bad_field_fails_before_writing(
            self, tmp_path, capsys, flag, value, message):
        argv = {"--shape": "blobs", "--n": "10", flag: value}
        code, out, err = run(
            capsys, "gen", *[a for kv in argv.items() for a in kv],
            "--out-prefix", str(tmp_path / "x"))
        assert code == 4
        assert f"error: {message}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


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

    @staticmethod
    def _model_beside_points(tmp_path, capsys, monkeypatch):
        """A cluster run in tmp_path/a with a relative input path; returns
        the training points' path and the model document."""
        home = tmp_path / "a"
        home.mkdir()
        monkeypatch.chdir(home)
        code, _, _ = run(
            capsys, "gen", "--shape", "blobs", "--n", "120", "--seed", "3",
            "--out-prefix", "train")
        assert code == 0
        code, _, err = run(
            capsys, "cluster", "--input", "train.points.csv",
            "--min-cluster-size", "10", "--out", "labels.json")
        assert code == 0, err
        doc = json.loads((home / "labels.json").read_text())
        return home / "train.points.csv", doc

    def _predict_from(self, tmp_path, capsys, model):
        return run(
            capsys, "predict", "--model", str(model),
            "--queries", str(tmp_path / "q.csv"),
            "--out", str(tmp_path / "p.json"))

    def test_moved_model_directory_finds_its_points(
            self, tmp_path, capsys, monkeypatch):
        points, doc = self._model_beside_points(
            tmp_path, capsys, monkeypatch)
        assert doc["input"]["path"] == "train.points.csv"
        assert len(doc["input"]["sha256"]) == 64
        (tmp_path / "q.csv").write_bytes(points.read_bytes())
        moved = tmp_path / "elsewhere" / "b"
        moved.parent.mkdir()
        points.parent.rename(moved)
        monkeypatch.chdir(tmp_path)
        code, _, err = self._predict_from(
            tmp_path, capsys, moved / "labels.json")
        assert code == 0, err
        pred = json.loads((tmp_path / "p.json").read_text())
        assert pred["labels"] == doc["labels"]

    def test_relative_input_written_against_the_model_directory(
            self, tmp_path, capsys, monkeypatch):
        points, doc = self._model_beside_points(
            tmp_path, capsys, monkeypatch)
        (tmp_path / "out").mkdir()
        code, _, err = run(
            capsys, "cluster", "--input", "train.points.csv",
            "--min-cluster-size", "10", "--out", "../out/labels.json")
        assert code == 0, err
        model = tmp_path / "out" / "labels.json"
        moved = json.loads(model.read_text())
        assert moved["input"]["path"] == "../a/train.points.csv"
        assert moved["labels"] == doc["labels"]
        (tmp_path / "q.csv").write_bytes(points.read_bytes())
        code, _, err = self._predict_from(tmp_path, capsys, model)
        assert code == 0, err

    def test_swapped_points_of_the_same_shape_are_refused(
            self, tmp_path, capsys, monkeypatch):
        points, _ = self._model_beside_points(tmp_path, capsys, monkeypatch)
        (tmp_path / "q.csv").write_text("0,0\n")
        rows = points.read_text().splitlines()
        points.write_text("\n".join(rows[1:] + rows[:1]) + "\n")
        code, _, err = self._predict_from(
            tmp_path, capsys, points.parent / "labels.json")
        assert code == 4
        assert "do not match the model file's sha256" in err

    def test_model_without_hash_is_checked_by_n_and_dim(
            self, tmp_path, capsys, monkeypatch):
        points, doc = self._model_beside_points(
            tmp_path, capsys, monkeypatch)
        (tmp_path / "q.csv").write_text("0,0\n")
        del doc["input"]["sha256"]
        model = points.parent / "labels.json"
        model.write_text(json.dumps(doc))
        rows = points.read_text().splitlines()
        points.write_text("\n".join(rows[1:] + rows[:1]) + "\n")
        code, _, err = self._predict_from(tmp_path, capsys, model)
        assert code == 0, err
        points.write_text("\n".join(rows[1:]) + "\n")
        code, _, err = self._predict_from(tmp_path, capsys, model)
        assert code == 4
        assert "have n 119, the model file 120" in err
        points.write_text("".join(f"{r},0\n" for r in rows))
        code, _, err = self._predict_from(tmp_path, capsys, model)
        assert code == 4
        assert "have dim 3, the model file 2" in err

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

    @pytest.mark.parametrize("mode", ["exact", "ivf"])
    def test_exact_output_does_not_depend_on_blas_threads(
            self, tmp_path, capsys, mode):
        # the exact kernel's Gram filter runs on BLAS, whose thread count is
        # read once at start-up, so each count gets its own interpreter.
        # IVF mode adds the quantizer and the probe order, which select
        # through the same filter, and k-means++ seeds drawn from Gram
        # weights, which pick the same seeds here at either count
        prefix = str(tmp_path / "wide")
        code, _, _ = run(
            capsys, "gen", "--shape", "blobs", "--n", "3000", "--dim", "24",
            "--centers", "5", "--seed", "11", "--out-prefix", prefix)
        assert code == 0
        src = str(Path(riskcluster.__file__).resolve().parents[1])
        outs = []
        for blas in ("1", "2"):
            out_json = tmp_path / f"blas{blas}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run(
                [sys.executable, "-m", "riskcluster", "cluster",
                 "--input", f"{prefix}.points.csv",
                 "--min-cluster-size", "25", "--mode", mode,
                 "--threads", "1", "--out", str(out_json)],
                env=env, capture_output=True, text=True, check=False)
            assert done.returncode == 0, done.stderr
            outs.append(out_json.read_bytes())
        assert json.loads(outs[0])["num_clusters"] >= 2
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["exact", "ivf"])
    def test_negative_seed_is_contract_error(
            self, blob_files, tmp_path, capsys, mode):
        # exact mode never draws from the seed, yet -1 is refused there too
        out_json = tmp_path / "o.json"
        code, out, err = run(
            capsys, "cluster", "--input", f"{blob_files}.points.csv",
            "--min-cluster-size", "15", "--mode", mode, "--seed", "-1",
            "--out", str(out_json))
        assert code == 4
        assert "error: seed must be >= 0" in err
        assert out == ""
        assert not out_json.exists()

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

    @pytest.mark.parametrize("cell", ["1e30", "9223372036854775808"])
    def test_ari_label_past_int64_is_contract_error(
            self, tmp_path, capsys, cell):
        a = tmp_path / "a.csv"
        a.write_text(f"0\n{cell}\n1\n")
        code, _, err = run(capsys, "ari", "--a", str(a), "--b", str(a))
        assert code == 4
        assert (f"error: line 2: label {cell!r} must fit in a signed 64-bit"
                " integer") in err

    def test_ari_integral_spellings_accepted(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("1\n1.0\n-1\n-1.0\n")
        b = tmp_path / "b.csv"
        b.write_text("1\n1\n-1\n-1\n")
        code, out, _ = run(capsys, "ari", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.strip().splitlines()[-1] == "1.0"

    def test_ari_reads_integer_labels_exactly(self, tmp_path, capsys):
        # 2**53 + 1 and 2**53 are one float64: read through a float, the
        # three distinct labels of a would be two and match b
        a = tmp_path / "a.csv"
        a.write_text("1\n9007199254740993\n9007199254740992\n")
        b = tmp_path / "b.csv"
        b.write_text("1\n5\n5\n")
        code, out, _ = run(capsys, "ari", "--a", str(a), "--b", str(b))
        assert code == 0
        assert out.strip().splitlines()[-1] == "0.0"

    def test_ari_accepts_the_int64_extremes(self, tmp_path, capsys):
        # 2**63 - 1 rounds up to 2**63 as a float64
        a = tmp_path / "a.csv"
        a.write_text("9223372036854775807\n-9223372036854775808\n0\n")
        code, out, _ = run(capsys, "ari", "--a", str(a), "--b", str(a))
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


    def test_model_file_not_an_object(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(["input", "labels", "strengths"]))
        code, _, err = run(
            capsys, "predict", "--model", str(model),
            "--queries", str(tmp_path / "q.csv"),
            "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "error: model file must be an object" in err

    def test_model_file_nested_too_deep(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(DEEP)
        code, _, err = run(
            capsys, "predict", "--model", str(model),
            "--queries", str(tmp_path / "q.csv"),
            "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "error: " in err and "maximum recursion depth" in err

    @staticmethod
    def _predict(tmp_path, capsys, labels, strengths):
        """Exit code, stderr and output document of predict with a model of
        three training points on a line."""
        train = tmp_path / "train.csv"
        train.write_text("0,0\n10,0\n20,0\n")
        queries = tmp_path / "q.csv"
        queries.write_text("1,0\n9,0\n10,0\n19,0\n")
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "input": {"path": str(train), "format": "csv"},
            "labels": labels, "strengths": strengths}))
        out = tmp_path / "p.json"
        code, _, err = run(
            capsys, "predict", "--model", str(model),
            "--queries", str(queries), "--out", str(out))
        return code, err, json.loads(out.read_text()) if code == 0 else None

    def test_model_label_values_far_apart(self, tmp_path, capsys):
        # the vote block has a bucket per distinct label, not per value up
        # to the largest one
        big = self._predict(tmp_path, capsys, [0, 2**40, -1], [1.0, 1.0, 0.0])
        dense = self._predict(tmp_path, capsys, [0, 1, -1], [1.0, 1.0, 0.0])
        assert big[0] == dense[0] == 0
        assert dense[2]["labels"] == [0, 1, 1, -1]
        assert big[2]["labels"] == [0, 2**40, 2**40, -1]
        assert big[2]["strengths"] == dense[2]["strengths"]

    @pytest.mark.parametrize("label", [1.7, True, None])
    def test_model_label_not_integral(self, tmp_path, capsys, label):
        code, err, _ = self._predict(
            tmp_path, capsys, [0, label, -1], [1.0, 1.0, 0.0])
        assert code == 4
        assert f"error: labels[1]: non-integral label {label!r}" in err

    def test_model_strength_null(self, tmp_path, capsys):
        code, err, _ = self._predict(
            tmp_path, capsys, [0, 1, -1], [1.0, None, 0.0])
        assert code == 4
        assert "error: strengths must lie in [0, 1]" in err

    @pytest.mark.parametrize("label", [1e19, 2**63])
    def test_model_label_past_int64(self, tmp_path, capsys, label):
        code, err, _ = self._predict(
            tmp_path, capsys, [0, label, -1], [1.0, 1.0, 0.0])
        assert code == 4
        assert (f"error: labels[1]: label {label!r} must fit in a signed"
                " 64-bit integer") in err

    @pytest.mark.parametrize("strengths, message", [
        ({"a": 1}, "model file strengths must be a list of numbers"),
        ([1.0, "1", 0.0], "model file strengths must be a list of numbers"),
        ([1.0, 10**400, 0.0], "strengths must lie in [0, 1]"),
    ])
    def test_model_strengths_not_numbers(
            self, tmp_path, capsys, strengths, message):
        code, err, _ = self._predict(tmp_path, capsys, [0, 1, -1], strengths)
        assert code == 4
        assert f"error: {message}" in err

    @pytest.mark.parametrize("params", [[], 5])
    def test_model_params_not_an_object(self, tmp_path, capsys, params):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "input": {"path": str(tmp_path / "train.csv"), "format": "csv"},
            "labels": [0], "strengths": [1.0], "params": params}))
        code, _, err = run(
            capsys, "predict", "--model", str(model),
            "--queries", str(tmp_path / "q.csv"),
            "--out", str(tmp_path / "p.json"))
        assert code == 4
        assert "error: model file params must be an object" in err


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
        ({"windows": 5}, "windows must be a list"),
        ({"train_snapshots": 5}, "train_snapshots must be a list"),
        ({"snapshot_ms": "x"}, "snapshot_ms must be an integer"),
        ({"snapshot_ms": 1.5}, "snapshot_ms must be an integer"),
        ({"k_assign": "5"}, "k_assign must be an integer"),
        ({"seed": "x"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
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


    @pytest.mark.parametrize("key, value, message", [
        ("clustering", {"min_cluster_size": "50"},
         "min_cluster_size must be an integer"),
        ("clustering", {"min_cluster_size": 5.5},
         "min_cluster_size must be an integer"),
        ("clustering", {"min_cluster_size": 50, "min_samples": 2.5},
         "min_samples must be an integer"),
        ("clustering", {"min_cluster_size": 50, "mode": "ivf", "nlist": "x"},
         "nlist must be an integer"),
        ("clustering", {"min_cluster_size": 50, "allow_single_cluster": 1},
         "allow_single_cluster must be true or false"),
        ("clustering", {"min_cluster_size": 50, "mode": "ivf", "seed": -1},
         "seed must be >= 0"),
        ("clustering", {"min_cluster_size": 50, "mode": "gpu"},
         "unknown mode 'gpu'"),
        ("clustering", {"min_cluster_size": 50, "kernel": "gpu"},
         "unknown kernel 'gpu'"),
        ("clustering", {"min_cluster_size": 50, "kernel": "fast"},
         "unknown kernel 'fast'"),
        ("clustering", {"min_cluster_size": 1},
         "min_cluster_size must be >= 2"),
        ("clustering", {"min_cluster_size": 50, "min_samples": 0},
         "min_samples must be >= 1"),
        ("clustering", {"min_cluster_size": 50, "k": 0}, "k must be >= 1"),
        ("clustering", {"min_cluster_size": 50, "nlist": 0},
         "nlist must be >= 1"),
        ("clustering", {"min_cluster_size": 50, "nprobe": -3},
         "nprobe must be >= 1"),
        ("clustering", {"min_cluster_size": 50, "ivf_train_sample": 0},
         "ivf_train_sample must be >= 1"),
        ("clustering", {"min_cluster_size": 50, "ivf_max_iter": 0},
         "ivf_max_iter must be >= 1"),
        ("sampling", {"max_train": "5"}, "max_train must be an integer"),
        ("risky", {"min_fraud_density": "0.5"},
         "min_fraud_density must be a finite number"),
        ("snapshot_ms", 2**63,
         "snapshot_ms must fit in a signed 64-bit integer"),
        ("train_snapshots", [float("inf")],
         "train_snapshots must be a list of snapshot numbers"),
    ])
    def test_config_value_of_the_wrong_kind_fails_before_loading_data(
            self, stream_files, tmp_path, capsys, key, value, message):
        _, config, _ = stream_files
        obj = {**json.loads(Path(config).read_text()), key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "experiment", "--config", str(bad),
            "--data", str(tmp_path / "missing.ndjson"),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert f"error: {message}" in err

    @pytest.mark.parametrize("mode", ["inductive", "transductive"])
    @pytest.mark.parametrize("edit, message", [
        ({"seed": -1}, "seed must be >= 0"),
        ({"k_assign": 0}, "k_assign must be >= 1"),
        ({"windows": [], "train_snapshots": None, "test_snapshot": None},
         "windows must not be empty"),
        ({"windows": [[[0], 1]]},
         "give windows or train_snapshots and test_snapshot, not both"),
        ({"train_snapshots": [1.7]},
         "train_snapshots must be a list of snapshot numbers"),
        ({"test_snapshot": "9"},
         "train_snapshots must be a list of snapshot numbers"),
        ({"windows": [[[0], True]], "train_snapshots": None,
          "test_snapshot": None}, "windows must be a list"),
    ], ids=["seed", "k_assign", "no-windows", "both-window-forms",
            "float-snapshot", "string-snapshot", "bool-snapshot"])
    def test_windows_seed_and_k_assign_fail_before_loading_data(
            self, stream_files, tmp_path, capsys, mode, edit, message):
        _, config, _ = stream_files
        obj = {**json.loads(Path(config).read_text()), "mode": mode}
        for key, value in edit.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "experiment", "--config", str(bad),
            "--data", str(tmp_path / "missing.ndjson"),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert f"error: {message}" in err

    @pytest.mark.parametrize("fields, message", [
        ('"timestamp": 5, "amount": 1' + "0" * 400,
         "int too large to convert to float"),
        ('"timestamp": 5, "amount": NaN', "amount must be a finite number"),
        ('"timestamp": 5, "amount": Infinity',
         "amount must be a finite number"),
        ('"timestamp": 100000000000000000000000, "amount": 1',
         "timestamp must fit in a signed 64-bit integer"),
        ('"timestamp": Infinity, "amount": 1',
         "cannot convert float infinity to integer"),
    ])
    def test_values_past_the_columns_are_contract_errors(
            self, stream_files, tmp_path, capsys, fields, message):
        _, config, _ = stream_files
        data = tmp_path / "edge.ndjson"
        data.write_text('{"id": "a", "timestamp": 5, "amount": 1}\n'
                        '{"id": "b", ' + fields + '}\n')
        code, _, err = run(
            capsys, "experiment", "--config", config, "--data", str(data),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert f"error: line 2: {message}" in err

    def test_config_nested_too_deep(self, stream_files, tmp_path, capsys):
        data, _, _ = stream_files
        config = tmp_path / "deep.json"
        config.write_text(DEEP)
        code, _, err = run(
            capsys, "experiment", "--config", str(config), "--data", data,
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert "error: " in err and "maximum recursion depth" in err

    def test_data_line_nested_too_deep_names_the_line(
            self, stream_files, tmp_path, capsys):
        _, config, _ = stream_files
        data = tmp_path / "deep.ndjson"
        data.write_text('{"id": "a", "timestamp": 5, "amount": 1}\n'
                        + DEEP + "\n")
        code, _, err = run(
            capsys, "experiment", "--config", config, "--data", str(data),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert "error: line 2: maximum recursion depth exceeded" in err

    def test_data_line_not_utf8_names_the_line(
            self, stream_files, tmp_path, capsys):
        _, config, _ = stream_files
        data = tmp_path / "latin1.ndjson"
        data.write_bytes(b'{"id": "a", "timestamp": 5, "amount": 1}\n'
                         b'{"id": "\xe9", "timestamp": 5, "amount": 1}\n')
        code, _, err = run(
            capsys, "experiment", "--config", config, "--data", str(data),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert "error: line 2: 'utf-8' codec can't decode byte 0xe9" in err

    def test_repeated_train_snapshot_is_contract_error(
            self, stream_files, tmp_path, capsys):
        # [s0, s0, s1] would train on every s0 record twice
        data, config, truth = stream_files
        obj = json.loads(Path(config).read_text())
        s0, s1 = truth["snapshots"][:2]
        obj["train_snapshots"] = [s0, s0, s1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(
            capsys, "experiment", "--config", str(bad), "--data", data,
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert "error: window repeats a train snapshot" in err
        assert not (tmp_path / "e.report.json").exists()

    def test_labels_csv_quotes_ids(self, stream_files, tmp_path, capsys):
        # RFC 4180: an id that holds a comma, a quote, CR or LF is quoted,
        # with its quotes doubled; a plain id keeps its bytes
        _, config, _ = stream_files
        records, _ = fraud_stream(seed=5)
        odd = ['a,b"900', '"', "\r", "\n", "x\r\ny"]
        records = [
            dataclasses.replace(r, id=r.id + odd[i % 10]) if i % 10 < 5
            else r for i, r in enumerate(records)]
        data = tmp_path / "odd.ndjson"
        save_transactions(str(data), records)
        code, _, _ = run(
            capsys, "experiment", "--config", config, "--data", str(data),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 0
        path = tmp_path / "e.labels.csv"
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "id", "window", "label", "strength", "predicted_fraud"]
        assert len(rows) == 1 + 3 * 400 + 150
        assert {len(row) for row in rows} == {5}
        ids = {r.id for r in records}
        assert {row[0] for row in rows[1:]} <= ids
        assert {row[0][7:] for row in rows[1:]} == {"", *odd}
        text = path.read_bytes().decode()
        for row in rows[1:]:
            cell = row[0]
            if cell[7:]:  # past a fraud_stream id such as "t000042"
                cell = '"' + cell.replace('"', '""') + '"'
            assert "\n" + ",".join([cell, *row[1:]]) + "\n" in text

    @pytest.mark.parametrize("dwell", [2**63, 10**400],
                             ids=["2**63", "10**400"])
    def test_dwell_overflow_names_the_record(self, tmp_path, capsys, dwell):
        # a dwell past int64 is a contract error that names its line, not a
        # traceback or an object column
        records, truth = fraud_stream(seed=5)
        data = tmp_path / "huge.ndjson"
        save_transactions(str(data), records)
        lines = data.read_text().splitlines()
        obj = json.loads(lines[3])
        obj["session"]["events"][0][1] = dwell
        lines[3] = json.dumps(obj)
        data.write_text("\n".join(lines) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mode": "inductive",
            "snapshot_ms": truth["snapshot_ms"],
            "train_snapshots": truth["snapshots"][:-1],
            "test_snapshot": truth["snapshots"][-1],
            "clustering": {"min_cluster_size": 50},
            "feature_set": "session",
        }))
        code, _, err = run(
            capsys, "experiment", "--config", str(config), "--data",
            str(data), "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert ("error: line 4: dwell_ms must fit in a signed 64-bit"
                " integer") in err

    def test_feature_name_not_a_string_names_the_line(
            self, stream_files, tmp_path, capsys):
        # only the list-of-pairs form of features can name a feature 1
        data, config, _ = stream_files
        lines = Path(data).read_text().splitlines()
        obj = json.loads(lines[3])
        obj["features"] = [[1, 2.0], *obj["features"].items()]
        lines[3] = json.dumps(obj)
        pairs = tmp_path / "pairs.ndjson"
        pairs.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "experiment", "--config", config, "--data", str(pairs),
            "--out-prefix", str(tmp_path / "e"))
        assert code == 4
        assert "error: line 4: feature name 1 is not a string" in err


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


    def test_config_not_an_object(self, planted, tmp_path, capsys):
        feats, target = planted
        config = tmp_path / "explain.json"
        config.write_text(json.dumps([1, 2]))
        code, _, err = run(
            capsys, "explain", "--features", feats, "--target", target,
            "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert "error: explain config must be an object" in err

    @pytest.mark.parametrize("overrides, message", [
        ({"n_tree_estimators": "10"}, "n_tree_estimators must be an integer"),
        ({"max_depth": 2.5}, "max_depth must be an integer"),
        ({"min_precision": "0.5"}, "min_precision must be a finite number"),
    ])
    def test_config_value_of_the_wrong_kind(
            self, planted, tmp_path, capsys, overrides, message):
        feats, target = planted
        config = tmp_path / "explain.json"
        config.write_text(json.dumps(overrides))
        code, _, err = run(
            capsys, "explain", "--features", feats, "--target", target,
            "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert f"error: {message}" in err

    def test_config_nested_too_deep(self, planted, tmp_path, capsys):
        feats, target = planted
        config = tmp_path / "explain.json"
        config.write_text(DEEP)
        code, _, err = run(
            capsys, "explain", "--features", feats, "--target", target,
            "--config", str(config), "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert "error: " in err and "maximum recursion depth" in err

    def test_target_other_than_0_and_1(self, tmp_path, capsys):
        feats = tmp_path / "features.csv"
        feats.write_text("f1\n" + "".join(f"{i}\n" for i in range(8)))
        target = tmp_path / "target.csv"
        target.write_text("0\n2\n0\n-1\n0\n2\n0\n5\n")
        out = tmp_path / "r.json"
        code, _, err = run(
            capsys, "explain", "--features", str(feats),
            "--target", str(target), "--out", str(out))
        assert code == 4
        assert "error: target must hold only 0 and 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell(self, planted, tmp_path, capsys, cell):
        feats, target = planted
        lines = Path(feats).read_text().splitlines()
        lines[5] = f"{cell},1"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "explain", "--features", str(bad), "--target", target,
            "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert "error: feature matrix contains non-finite values" in err

    def test_bad_cell_line_counts_blank_lines(self, tmp_path, capsys):
        feats = tmp_path / "features.csv"
        feats.write_text("f1,f2\n1,2\n\n3,x\n")
        target = tmp_path / "target.csv"
        target.write_text("0\n1\n")
        code, _, err = run(
            capsys, "explain", "--features", str(feats),
            "--target", str(target), "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert "error: line 4: non-numeric cell" in err


class TestInputNotUtf8:
    """Every input file of every command: a byte that is not UTF-8 on line
    3 is a contract error that names the line."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        files = {
            "train": "0,0\n0,1\n5,5\n5,6\n",
            "queries": "0,0\n5,5\n1,1\n",
            "model": json.dumps({
                "input": {"path": "train.csv", "format": "csv"},
                "labels": [0, 0, 1, 1], "strengths": [1.0] * 4}, indent=2),
            "a": "0\n0\n1\n1\n",
            "b": "0\n1\n0\n1\n",
            "features": "f1,f2\n0,1\n1,0\n2,2\n3,1\n",
            "target": "0\n0\n1\n1\n",
            "explain_config": json.dumps(
                {"max_depth": 2, "min_precision": 0.5}, indent=2),
            "experiment_config": json.dumps({
                "mode": "inductive", "train_snapshots": [0],
                "test_snapshot": 1,
                "clustering": {"min_cluster_size": 2}}, indent=2),
            "sankey_labels": json.dumps({"labels": [0, 0, 0, 0]}, indent=2),
        }
        paths = {"out": str(tmp_path / "out")}
        for name, text in files.items():
            path = tmp_path / f"{name}.{'json' if '{' in text else 'csv'}"
            path.write_text(text)
            paths[name] = str(path)
        records, _ = fraud_stream(seed=5)
        paths["data"] = str(tmp_path / "data.ndjson")
        save_transactions(paths["data"], records[:4])
        return paths

    @pytest.mark.parametrize("command, bad", [
        ("cluster --input {train} --min-cluster-size 2 --out {out}",
         "train"),
        ("predict --model {model} --queries {queries} --out {out}",
         "queries"),
        ("predict --model {model} --queries {queries} --out {out}", "model"),
        ("predict --model {model} --queries {queries} --out {out}", "train"),
        ("ari --a {a} --b {b}", "a"),
        ("ari --a {a} --b {b}", "b"),
        ("explain --features {features} --target {target}"
         " --config {explain_config} --out {out}", "features"),
        ("explain --features {features} --target {target}"
         " --config {explain_config} --out {out}", "target"),
        ("explain --features {features} --target {target}"
         " --config {explain_config} --out {out}", "explain_config"),
        ("experiment --config {experiment_config} --data {data}"
         " --out-prefix {out}", "experiment_config"),
        ("experiment --config {experiment_config} --data {data}"
         " --out-prefix {out}", "data"),
        ("sankey --data {data} --labels {sankey_labels} --cluster 0"
         " --out {out}", "sankey_labels"),
        ("sankey --data {data} --labels {sankey_labels} --cluster 0"
         " --out {out}", "data"),
    ], ids=lambda v: v.split()[0] if " " in v else v)
    def test_line_3_not_utf8(self, inputs, capsys, command, bad):
        argv = command.format(**inputs).split()
        assert "line 3" not in run(capsys, *argv)[2]
        path = Path(inputs[bad])
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert "line 3" in err


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

    @pytest.mark.parametrize("labels", [[0], {"labels": 5}])
    def test_labels_file_without_a_labels_list(
            self, tmp_path, capsys, labels):
        from riskcluster.model import ClickSession, TransactionRecord
        recs = [TransactionRecord(
            id="a", timestamp=10, amount=5.0, risk_seed="legit",
            features={"f0": 0.0},
            session=ClickSession((("view", 100),)))]
        data = tmp_path / "recs.ndjson"
        save_transactions(str(data), recs)
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(labels))
        code, _, err = run(
            capsys, "sankey", "--data", str(data), "--labels", str(path),
            "--cluster", "0", "--out", str(tmp_path / "f.json"))
        assert code == 4
        assert "error: labels file lacks a labels list" in err

    def test_labels_file_nested_too_deep(self, tmp_path, capsys):
        data = tmp_path / "recs.ndjson"
        data.write_text('{"id": "a", "timestamp": 10, "amount": 5}\n')
        path = tmp_path / "labels.json"
        path.write_text(DEEP)
        code, _, err = run(
            capsys, "sankey", "--data", str(data), "--labels", str(path),
            "--cluster", "0", "--out", str(tmp_path / "f.json"))
        assert code == 4
        assert "error: " in err and "maximum recursion depth" in err

    @pytest.fixture()
    def mixed_stream(self, tmp_path):
        """Four records: one without a session, one with an unknown page."""
        data = tmp_path / "mixed.ndjson"
        data.write_text("\n".join(json.dumps(obj) for obj in (
            {"id": "a", "timestamp": 10, "amount": 5,
             "session": [["view", 1], ["promo", 2], ["view", 3]]},
            {"id": "b", "timestamp": 20, "amount": 5},
            {"id": "c", "timestamp": 30, "amount": 5,
             "session": {"events": [{"page_type": "view", "dwell_ms": 1},
                                    ["promo", 2.5]]}},
            {"id": "d", "timestamp": 40, "amount": 5,
             "session": [["promo", 1], ["view", 2]]})) + "\n")
        return str(data)

    @pytest.mark.parametrize("labels", [
        [-1, 0, 2.0, 0], [-1.0, 0.0, 2, 0.0]])
    def test_integral_labels_of_either_kind(
            self, mixed_stream, tmp_path, capsys, labels):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": labels}))
        flows = {}
        for cluster in (-1, 0, 2):
            out = tmp_path / f"flow{cluster}.json"
            code, _, _ = run(
                capsys, "sankey", "--data", mixed_stream, "--labels",
                str(path), "--cluster", str(cluster), "--out", str(out))
            assert code == 0
            flows[cluster] = json.loads(out.read_text())["links"]
        assert flows == {
            -1: [{"source": "promo", "target": "view", "value": 1},
                 {"source": "view", "target": "promo", "value": 1}],
            0: [{"source": "promo", "target": "view", "value": 1}],
            2: [{"source": "view", "target": "promo", "value": 1}],
        }

    @pytest.mark.parametrize("label", [None, 1.7, "0", True, float("nan")])
    def test_non_integral_label_is_contract_error(
            self, mixed_stream, tmp_path, capsys, label):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": [0, 0, label, 0]}))
        code, _, err = run(
            capsys, "sankey", "--data", mixed_stream, "--labels", str(path),
            "--cluster", "0", "--out", str(tmp_path / "f.json"))
        assert code == 4
        assert f"error: labels[2]: non-integral label {label!r}" in err

    def test_label_past_int64_is_contract_error(
            self, mixed_stream, tmp_path, capsys):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": [0, 0, 2**63, 0]}))
        code, _, err = run(
            capsys, "sankey", "--data", mixed_stream, "--labels", str(path),
            "--cluster", "0", "--out", str(tmp_path / "f.json"))
        assert code == 4
        assert ("error: labels[2]: label 9223372036854775808 must fit in a"
                " signed 64-bit integer") in err
