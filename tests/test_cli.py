"""End-to-end command-line behavior on synthetic EDF corpora."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from somnoscore import cli, model
from somnoscore.edf_ingest import SleepStage, load_recording
from somnoscore.model import CHECKPOINT_VERSION
from somnoscore.synthetic import write_synthetic_pair
from test_evaluation import GOLDEN_COUNTS, GOLDEN_F1_MEAN, GOLDEN_OVERALL
from test_model import rewrite_config

FIVE = [SleepStage.W, SleepStage.N1, SleepStage.N2, SleepStage.N3, SleepStage.R]

TINY_FULL_LENGTH_MODEL = {
    "c1_filters": 2, "c2_filters": 2, "f1": 4, "f2": 4,
    "batch_size": 5, "learning_rate": 0.01, "max_iterations": 2,
    "eval_every": 1, "patience": 5, "dtype": "float64",
}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    for i in range(20):
        write_synthetic_pair(d, f"S{i:02d}A", FIVE, lights_out_epoch=0, seed=i)
    return d


@pytest.fixture()
def run_config(tmp_path, corpus_dir):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "data_dir": str(corpus_dir),
        "output_dir": str(tmp_path / "out"),
        "model": TINY_FULL_LENGTH_MODEL,
    }))
    return path


class TestIngest:
    def test_summary_contents(self, tmp_path, corpus_dir):
        out = tmp_path / "summary"
        rc = cli.main(["ingest", "--data-dir", str(corpus_dir), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "dataset_summary.json").read_text())
        assert summary["n_recordings"] == 20
        assert summary["total_removed_epochs"] == 0
        first = summary["per_recording"][0]
        assert first["stage_histogram"] == {"N1": 1, "N2": 1, "N3": 1, "R": 1, "W": 1}

    def test_movement_epochs_surface_in_summary(self, tmp_path):
        d = tmp_path / "data"
        write_synthetic_pair(d, "withmove", FIVE[:2] + [None] + FIVE[2:],
                             lights_out_epoch=0)
        out = tmp_path / "sum"
        assert cli.main(["ingest", "--data-dir", str(d), "--out", str(out)]) == 0
        summary = json.loads((out / "dataset_summary.json").read_text())
        assert summary["total_removed_epochs"] == 1
        assert summary["recordings_with_removals"] == 1

    def test_empty_dir_is_data_error(self, tmp_path):
        assert cli.main(["ingest", "--data-dir", str(tmp_path)]) == cli.EXIT_DATA

    def test_rerun_is_idempotent(self, tmp_path, corpus_dir):
        out = tmp_path / "sum"
        argv = ["ingest", "--data-dir", str(corpus_dir), "--out", str(out)]
        assert cli.main(argv) == 0
        first = (out / "dataset_summary.json").read_text()
        assert cli.main(argv) == 0
        assert (out / "dataset_summary.json").read_text() == first

    @pytest.mark.parametrize("flag", ["--out", "--output-dir"])
    def test_manifest_names_the_directory_written(self, tmp_path, corpus_dir, flag):
        out = tmp_path / "sum"
        assert cli.main(["ingest", "--data-dir", str(corpus_dir), flag, str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["output_dir"] == str(out)

    def test_env_var_fallback(self, tmp_path, corpus_dir, monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(corpus_dir))
        out = tmp_path / "sum"
        assert cli.main(["ingest", "--out", str(out)]) == 0


def file_bytes(out):
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


class TestTrain:
    def test_single_fold(self, tmp_path, run_config):
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "3",
                       "--folds", "2"])
        assert rc == 0
        out = tmp_path / "out"
        payload = json.loads((out / "fold_02" / "result.json").read_text())
        assert payload["fold"] == 2 and payload["seed"] == 3
        assert (out / "fold_02" / "best.somn").exists()
        assert not (out / "fold_00").exists()  # exactly one fold trained
        assert (out / "aggregate_confusion.csv").exists()
        assert not (out / "folds.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "seed"}
        assert manifest["command"] == "crossval" and manifest["seed"] == 3
        assert manifest["config"]["model"]["c1_filters"] == 2
        assert manifest["config"]["output_dir"] == str(out)
        record = json.loads((out / "run_manifest.json").read_text())
        assert record["seed"] == 3 and len(record["corpus_sha256"]) == 64
        assert len(record["folds"]) == 20 and record["folds"][2]["fold"] == 2
        assert record["folds"][2]["test"] == payload["test"]
        assert record["folds"][2]["val"] == payload["val"]

    def test_rerun_skips_completed_fold(self, tmp_path, run_config, capsys):
        argv = ["crossval", "--config", str(run_config), "--seed", "3", "--folds", "2"]
        assert cli.main(argv) == 0
        assert "fold 2: best val mean F1" in capsys.readouterr().out
        fold_dir = tmp_path / "out" / "fold_02"
        before = file_bytes(fold_dir)
        assert cli.main(argv) == 0
        out_text = capsys.readouterr().out
        assert "skipped completed folds: [2]" in out_text
        assert "best val mean F1" not in out_text
        assert file_bytes(fold_dir) == before

    def test_fold_results_without_run_record_refused(self, tmp_path, run_config, capsys):
        assert cli.main(["crossval", "--config", str(run_config), "--seed", "3",
                         "--folds", "2"]) == 0
        out = tmp_path / "out"
        (out / "run_manifest.json").unlink()
        before = file_bytes(out)
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "9", "--folds", "2",
                       "--learning-rate", "0.5"])
        assert rc == cli.EXIT_DATA
        assert "fold results but no run_manifest.json" in capsys.readouterr().err
        assert file_bytes(out) == before

    def test_seed_is_mandatory(self, run_config):
        with pytest.raises(SystemExit) as exc:
            cli.main(["crossval", "--config", str(run_config), "--folds", "0"])
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--batch-size", "--max-iterations", "--eval-every"])
    def test_zero_schedule_flag_exits_data_and_writes_nothing(self, tmp_path, run_config,
                                                              capsys, flag):
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "3", "--folds", "0",
                       flag, "0"])
        assert rc == cli.EXIT_DATA
        assert f"{flag[2:].replace('-', '_')} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, field", [("--learning-rate", "-1", "learning_rate"),
                                                    ("--momentum", "1", "momentum"),
                                                    ("--l2", "-1", "l2_lambda")])
    def test_impossible_optimizer_value_exits_data_and_writes_nothing(
            self, tmp_path, run_config, capsys, flag, value, field):
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "3", "--folds", "0",
                       flag, value])
        assert rc == cli.EXIT_DATA
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_model_field_in_config_file_exits_data(self, tmp_path, run_config,
                                                           capsys):
        run = json.loads(run_config.read_text())
        run["model"]["seed"] = 3
        run_config.write_text(json.dumps(run))
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "3", "--folds", "0"])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "'seed'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        # an old file's `overall` and a misspelling, both named in one error
        (lambda run: run | {"overall": "raw", "bootstrap_sampels": 9},
         "unknown run config field(s) ['bootstrap_sampels', 'overall']"),
        (lambda run: [run], "run config must be a JSON object, not list"),
        # a format-4 era model config
        (lambda run: run | {"model": run["model"] | {"first_layer_mode": "trainable"}},
         "unknown model config field(s) ['first_layer_mode']"),
        # a value of the wrong type, however harmless it looks
        (lambda run: run | {"model": run["model"] | {"batch_size": 10.0}},
         "'batch_size' must be int, not float"),
        (lambda run: run | {"model": run["model"] | {"max_iterations": 2.5}},
         "'max_iterations' must be int, not float"),
        (lambda run: run | {"folds": "0,1"}, "'folds' must be list[int] | None, not str"),
        # a conv2 longer than pool1's output: no fold may start on it
        (lambda run: run | {"model": run["model"] | {"c2_len": 2000}},
         "the layers do not fit a 15000-sample window"),
    ], ids=["unknown_fields", "not_an_object", "first_layer_mode", "float_batch_size",
            "float_max_iterations", "string_folds", "layers_do_not_fit"])
    def test_bad_run_config_file_exits_data_and_writes_nothing(self, tmp_path, run_config,
                                                               capsys, edit, message):
        # no --folds, so that the file's folds are the ones run
        run_config.write_text(json.dumps(edit(json.loads(run_config.read_text()))))
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "3"])
        assert rc == cli.EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flag_overrides_config(self, tmp_path, run_config):
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "3",
                       "--folds", "0", "--max-iterations", "1"])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["model"]["max_iterations"] == 1


class TestCrossval:
    def test_resume_skips_completed(self, tmp_path, run_config, capsys):
        base = ["crossval", "--config", str(run_config), "--seed", "4"]
        assert cli.main(base + ["--folds", "0"]) == 0
        assert cli.main(base + ["--folds", "0,1"]) == 0
        out_text = capsys.readouterr().out
        assert "skipped completed folds: [0]" in out_text
        out = tmp_path / "out"
        assert (out / "fold_00" / "result.json").exists()
        assert (out / "fold_01" / "result.json").exists()
        assert (out / "aggregate_confusion.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert len(manifest["folds"]) == 20

    @pytest.mark.parametrize("folds", ["25", "-1"])
    def test_fold_out_of_range_exits_data(self, tmp_path, run_config, capsys, folds):
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "4",
                       "--folds", f"0,{folds}"])
        assert rc == cli.EXIT_DATA
        assert f"fold {folds} out of range 0..19" in capsys.readouterr().err
        out = tmp_path / "out"
        assert not (out / "run_manifest.json").exists()
        assert not list(out.glob("fold_*"))

    def test_repeated_fold_exits_data_and_writes_nothing(self, tmp_path, run_config, capsys):
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "4",
                       "--folds", "0,0"])
        assert rc == cli.EXIT_DATA
        assert "fold 0 repeated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_fold_list_exits_data_and_writes_nothing(self, tmp_path, run_config,
                                                           capsys):
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "4", "--folds", ""])
        assert rc == cli.EXIT_DATA
        assert "no fold selected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_window_length_the_corpus_cannot_fill_exits_data_and_writes_nothing(
            self, tmp_path, run_config, capsys):
        run = json.loads(run_config.read_text())
        run["model"] = model.reduced_config(batch_size=5, max_iterations=2,
                                            eval_every=1).to_json_dict()
        run_config.write_text(json.dumps(run))
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "4", "--folds", "0"])
        assert rc == cli.EXIT_DATA
        assert "input_len 300 is not the corpus's window length" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change", [["--folds", "25"], ["--seed", "5"]])
    def test_refused_rerun_leaves_directory_unchanged(self, tmp_path, run_config, capsys,
                                                      change):
        base = ["crossval", "--config", str(run_config), "--seed", "4", "--folds", "0"]
        assert cli.main(base) == 0
        out = tmp_path / "out"
        before = file_bytes(out)
        assert {"manifest.json", "run_manifest.json", "fold_00/result.json"} <= \
            {str(p) for p in before}
        assert cli.main(base + change) == cli.EXIT_DATA
        assert "data error" in capsys.readouterr().err
        assert file_bytes(out) == before

    def test_save_failure_exits_numeric(self, tmp_path, run_config, capsys, monkeypatch):
        from somnoscore import training

        def disk_full(result, out_dir, seed):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(training, "save_fold_result", disk_full)
        rc = cli.main(["crossval", "--config", str(run_config), "--seed", "4", "--folds", "0"])
        assert rc == cli.EXIT_NUMERIC
        assert "fold 0 FAILED: OSError: [Errno 28]" in capsys.readouterr().err
        assert (tmp_path / "out" / "fold_00" / "failure.txt").exists()

    def test_two_processes_into_one_directory_match_one_serial_run(self, tmp_path,
                                                                  run_config):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["crossval", "--config", str(run_config), "--seed", "4"]
        shared, serial = tmp_path / "shared", tmp_path / "serial"
        procs = [subprocess.Popen(
            [sys.executable, "-m", "somnoscore.cli", *argv, "--output-dir", str(shared),
             "--folds", fold], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for fold in ("0", "1")]
        assert cli.main(argv + ["--output-dir", str(serial), "--folds", "0,1"]) == 0
        for proc in procs:
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err.decode()

        def fold_outputs(out):
            outputs = {}
            for fold_dir in sorted(out.glob("fold_*")):
                result = json.loads((fold_dir / "result.json").read_text())
                for record in result["history"]:
                    del record["wall_clock"]  # timing
                outputs[fold_dir.name] = ((fold_dir / "best.somn").read_bytes(), result)
            return outputs

        assert list(fold_outputs(shared)) == ["fold_00", "fold_01"]
        assert fold_outputs(shared) == fold_outputs(serial)
        for out in (shared, serial):
            assert cli.main(["evaluate", str(out), "--out", str(out / "report"),
                             "--bootstrap-samples", "20"]) == 0
        for name in ("run_manifest.json", "report/metrics.json"):
            assert (shared / name).read_bytes() == (serial / name).read_bytes()
        assert not list(shared.rglob("*.tmp"))


def write_fold_fixture(results_dir, fold_index, matrix, subjects):
    fold_dir = results_dir / f"fold_{fold_index:02d}"
    fold_dir.mkdir(parents=True)
    per_rec = [{"subject_id": s, "night": 1, "matrix": m.tolist()}
               for s, m in subjects]
    (fold_dir / "result.json").write_text(json.dumps({
        "fold": fold_index, "seed": 0, "test": [s for s, _ in subjects],
        "val": [], "train": [], "history": [],
        "test_matrix": matrix.tolist(), "per_recording": per_rec,
        "checkpoint": "best.somn",
    }))


class TestEvaluate:
    @pytest.fixture()
    def results_dir(self, tmp_path):
        d = tmp_path / "results"
        d.mkdir()
        (d / "run_manifest.json").write_text(json.dumps(
            {"seed": 0, "folds": [{"fold_index": 0}, {"fold_index": 1}]}))
        a = GOLDEN_COUNTS // 2
        b = GOLDEN_COUNTS - a
        write_fold_fixture(d, 0, a, [("s0", a)])
        write_fold_fixture(d, 1, b, [("s1", b)])
        return d

    def test_golden_metrics_reproduced(self, tmp_path, results_dir):
        out = tmp_path / "report"
        rc = cli.main(["evaluate", str(results_dir), "--out", str(out),
                       "--bootstrap-samples", "50"])
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["summary"]["f1_mean"] == pytest.approx(GOLDEN_F1_MEAN, abs=1e-6)
        assert report["summary"]["overall_accuracy"] == pytest.approx(
            GOLDEN_OVERALL, abs=1e-6)
        np.testing.assert_array_equal(
            np.asarray(report["confusion_counts"]), GOLDEN_COUNTS)
        assert (out / "summary.csv").exists()

    def test_missing_folds_listed(self, tmp_path, results_dir, capsys):
        (results_dir / "fold_01" / "result.json").unlink()
        out = tmp_path / "r"
        rc = cli.main(["evaluate", str(results_dir), "--out", str(out),
                       "--bootstrap-samples", "20"])
        assert rc == 0
        assert f"missing fold result(s) under {results_dir}: [1]" in capsys.readouterr().err
        report = json.loads((out / "metrics.json").read_text())
        assert report["missing_folds"] == [1]
        np.testing.assert_array_equal(report["confusion_counts"], GOLDEN_COUNTS // 2)

    def test_complete_run_lists_no_missing_fold(self, tmp_path, results_dir):
        out = tmp_path / "r"
        assert cli.main(["evaluate", str(results_dir), "--out", str(out),
                         "--bootstrap-samples", "20"]) == 0
        assert json.loads((out / "metrics.json").read_text())["missing_folds"] == []

    def test_no_fold_result_is_data_error(self, tmp_path, results_dir, capsys):
        for i in (0, 1):
            (results_dir / f"fold_{i:02d}" / "result.json").unlink()
        rc = cli.main(["evaluate", str(results_dir), "--out", str(tmp_path / "r")])
        assert rc == cli.EXIT_DATA
        assert "no fold result under" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_wrong_typed_config_value_exits_data_and_writes_nothing(self, tmp_path,
                                                                    results_dir, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"bootstrap_samples": "20"}))
        rc = cli.main(["evaluate", str(results_dir), "--config", str(config),
                       "--out", str(tmp_path / "r")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "'bootstrap_samples' must be int, not str" in err
        assert not (tmp_path / "r").exists()

    def test_single_fold_train_output_evaluates(self, tmp_path, run_config, capsys):
        assert cli.main(["crossval", "--config", str(run_config), "--seed", "3",
                         "--folds", "2"]) == 0
        out = tmp_path / "report"
        assert cli.main(["evaluate", str(tmp_path / "out"), "--out", str(out),
                         "--bootstrap-samples", "20"]) == 0
        others = [i for i in range(20) if i != 2]
        assert f": {others}; scoring the 1 present" in capsys.readouterr().err
        report = json.loads((out / "metrics.json").read_text())
        assert report["missing_folds"] == others
        assert "bootstrap" not in report  # one test recording: nothing to resample
        assert (out / "summary.csv").read_text().splitlines()[1].endswith(",,,")

    def test_missing_run_record_is_data_error(self, tmp_path, results_dir, capsys):
        (results_dir / "run_manifest.json").unlink()
        rc = cli.main(["evaluate", str(results_dir), "--out", str(tmp_path / "r")])
        assert rc == cli.EXIT_DATA
        assert "run_manifest.json" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_csv_rounded_to_tenth_point(self, tmp_path, results_dir):
        out = tmp_path / "report"
        cli.main(["evaluate", str(results_dir), "--out", str(out),
                  "--bootstrap-samples", "20"])
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        values = [r.split(",")[1] for r in rows]
        assert all(len(v.split(".")[-1]) == 1 for v in values)

    def test_reads_only_the_scored_recordings(self, tmp_path, corpus_dir, monkeypatch):
        loaded = []

        def counting_load(pair, *args):
            loaded.append(pair.subject_id)
            return load_recording(pair, *args)

        monkeypatch.setattr(cli, "load_recording", counting_load)
        results = tmp_path / "results"
        results.mkdir()
        (results / "run_manifest.json").write_text(json.dumps(
            {"seed": 0, "folds": [{"fold_index": 0}, {"fold_index": 1}]}))
        a = GOLDEN_COUNTS // 2
        write_fold_fixture(results, 0, a, [("S07A", a)])
        write_fold_fixture(results, 1, GOLDEN_COUNTS - a, [("S03A", GOLDEN_COUNTS - a)])
        assert cli.main(["evaluate", str(results), "--out", str(tmp_path / "report"),
                         "--data-dir", str(corpus_dir), "--bootstrap-samples", "20"]) == 0
        assert loaded == ["S03A", "S07A"]

    def test_regressions_emitted_with_corpus(self, tmp_path):
        # stage sequences varied so sleep efficiency/transitional fraction vary
        data = tmp_path / "data"
        sequences = {
            "regA": [SleepStage.W, SleepStage.N1, SleepStage.N2, SleepStage.N2,
                     SleepStage.N3],
            "regB": [SleepStage.N2, SleepStage.W, SleepStage.W, SleepStage.N2,
                     SleepStage.R],
            "regC": [SleepStage.N1, SleepStage.N1, SleepStage.W, SleepStage.N3,
                     SleepStage.N3],
            "regD": [SleepStage.R, SleepStage.R, SleepStage.R, SleepStage.W,
                     SleepStage.N1],
        }
        for stem, stages in sequences.items():
            write_synthetic_pair(data, stem, stages, lights_out_epoch=0)
        results = tmp_path / "results"
        results.mkdir()
        (results / "run_manifest.json").write_text(json.dumps(
            {"seed": 0, "folds": [{"fold_index": i} for i in range(4)]}))
        rng = np.random.default_rng(0)
        for i, stem in enumerate(sequences):
            m = np.diag(rng.integers(2, 9, size=5)) + rng.integers(0, 3, size=(5, 5))
            write_fold_fixture(results, i, m, [(stem, m)])
        out = tmp_path / "report"
        rc = cli.main(["evaluate", str(results), "--out", str(out),
                       "--data-dir", str(data), "--bootstrap-samples", "20"])
        assert rc == 0
        report = json.loads((out / "metrics.json").read_text())
        assert "f1_vs_sleep_efficiency" in report["regressions"]
        assert (out / "regressions.csv").exists()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("trainout")
    cfg_path = out / "run.json"
    cfg_path.write_text(json.dumps({
        "data_dir": str(corpus_dir),
        "output_dir": str(out),
        "model": TINY_FULL_LENGTH_MODEL,
    }))
    assert cli.main(["crossval", "--config", str(cfg_path), "--seed", "1",
                     "--folds", "0"]) == 0
    return out / "fold_00" / "best.somn"


def set_version(path, version):
    data = bytearray(path.read_bytes())
    data[4:6] = struct.pack("<H", version)
    path.write_bytes(bytes(data))


class TestPredict:
    def test_prediction_count_and_determinism(self, tmp_path, corpus_dir,
                                              trained_checkpoint):
        psg = corpus_dir / "S00A-PSG.edf"
        ann = corpus_dir / "S00A-Hypnogram.edf"
        outs = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            rc = cli.main(["predict", "--checkpoint", str(trained_checkpoint),
                           "--psg", str(psg), "--annotations", str(ann),
                           "--out", str(out)])
            assert rc == 0
            outs.append((out / "predicted.csv").read_text())
        lines = outs[0].strip().splitlines()
        assert len(lines) == 1 + len(FIVE)  # header + one row per labeled epoch
        assert outs[0] == outs[1]

    def test_agrees_with_training_module_scoring(self, tmp_path, corpus_dir,
                                                 trained_checkpoint):
        from somnoscore import training as Tr
        from somnoscore.dataset import build_windows
        from somnoscore.edf_ingest import discover_pairs, load_recording

        out = tmp_path / "pred"
        psg = corpus_dir / "S03A-PSG.edf"
        ann = corpus_dir / "S03A-Hypnogram.edf"
        assert cli.main(["predict", "--checkpoint", str(trained_checkpoint),
                         "--psg", str(psg), "--annotations", str(ann),
                         "--out", str(out)]) == 0
        counts_cli = np.asarray(json.loads((out / "confusion.json").read_text()))
        pair = [p for p in discover_pairs(corpus_dir) if p.psg_path == psg][0]
        rec = load_recording(pair)
        params = model.load_checkpoint(trained_checkpoint)
        counts_lib = Tr._score_windows(params, build_windows(rec))
        np.testing.assert_array_equal(counts_cli, counts_lib)

    @pytest.mark.parametrize("damage, message", [
        (lambda path: set_version(path, CHECKPOINT_VERSION - 1),
         f"format version {CHECKPOINT_VERSION - 1} != {CHECKPOINT_VERSION}"),
        (lambda path: set_version(path, CHECKPOINT_VERSION - 2),
         f"format version {CHECKPOINT_VERSION - 2} != {CHECKPOINT_VERSION}"),
        (lambda path: rewrite_config(path, lambda c: c | {"dropout": 0.5}), "'dropout'"),
    ], ids=["previous_version", "older_version", "unknown_config_field"])
    def test_refused_checkpoint_is_data_error(self, tmp_path, corpus_dir, trained_checkpoint,
                                              capsys, damage, message):
        refused = tmp_path / "refused.somn"
        refused.write_bytes(trained_checkpoint.read_bytes())
        damage(refused)
        rc = cli.main(["predict", "--checkpoint", str(refused),
                       "--psg", str(corpus_dir / "S00A-PSG.edf"),
                       "--annotations", str(corpus_dir / "S00A-Hypnogram.edf"),
                       "--out", str(tmp_path / "pred")])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert not (tmp_path / "pred").exists()

    def test_bad_checkpoint_is_data_error(self, tmp_path, corpus_dir):
        bad = tmp_path / "bad.somn"
        bad.write_bytes(b"not a checkpoint")
        rc = cli.main(["predict", "--checkpoint", str(bad),
                       "--psg", str(corpus_dir / "S00A-PSG.edf"),
                       "--annotations", str(corpus_dir / "S00A-Hypnogram.edf")])
        assert rc == cli.EXIT_DATA


class TestAnalyzeFilters:
    def test_bundle_schema(self, tmp_path, corpus_dir, trained_checkpoint):
        out = tmp_path / "filters"
        rc = cli.main(["analyze-filters", "--checkpoint", str(trained_checkpoint),
                       "--data-dir", str(corpus_dir), "--subjects", "S00A,S01A",
                       "--fold", "0", "--out", str(out)])
        assert rc == 0
        bundle = json.loads((out / "profile.json").read_text())
        assert bundle["fold"] == 0
        assert np.asarray(bundle["normalized"]).shape == (2, 5)
        assert sorted(bundle["ordering"]) == [0, 1]
        assert (out / "activation.svg").exists()

    def test_subjects_filter_before_loading(self, tmp_path, corpus_dir, trained_checkpoint,
                                            monkeypatch):
        loaded = []

        def counting_load(pair, *args):
            loaded.append(pair.subject_id)
            return load_recording(pair, *args)

        monkeypatch.setattr(cli, "load_recording", counting_load)
        rc = cli.main(["analyze-filters", "--checkpoint", str(trained_checkpoint),
                       "--data-dir", str(corpus_dir), "--subjects", "S05A",
                       "--out", str(tmp_path / "filters")])
        assert rc == 0
        assert loaded == ["S05A"]

    def test_unknown_subject_is_data_error(self, tmp_path, corpus_dir,
                                           trained_checkpoint):
        rc = cli.main(["analyze-filters", "--checkpoint", str(trained_checkpoint),
                       "--data-dir", str(corpus_dir), "--subjects", "NOPE"])
        assert rc == cli.EXIT_DATA


class TestRunConfig:
    @pytest.mark.parametrize("name, value", [
        ("data_dir", None), ("folds", [0, 1]), ("folds", None), ("lights_out_epoch", 5),
    ])
    def test_json_value_of_its_field_type_accepted(self, name, value):
        assert getattr(cli.RunConfig.from_json_dict({name: value}), name) == value

    @pytest.mark.parametrize("name, value, message", [
        ("data_dir", 3, r"'data_dir' must be str \| None, not int"),
        ("folds", [0, 1.0], r"'folds' must be list\[int\] \| None, not list"),
        ("lights_out_epoch", "5", r"'lights_out_epoch' must be int \| None, not str"),
        ("model", [], "'model' must be ModelConfig, not list"),
    ])
    def test_json_value_of_wrong_type_refused_by_name(self, name, value, message):
        with pytest.raises(ValueError, match=f"run config field.*of the wrong type.*{message}"):
            cli.RunConfig.from_json_dict({name: value})


class TestMissingInputFile:
    @pytest.mark.parametrize("command", ["predict", "analyze-filters", "evaluate"])
    def test_exits_data_naming_the_path(self, tmp_path, corpus_dir, capsys, command):
        missing = tmp_path / "missing.somn"
        out = tmp_path / "out"
        argv = {
            "predict": ["predict", "--checkpoint", str(missing),
                        "--psg", str(corpus_dir / "S00A-PSG.edf"),
                        "--annotations", str(corpus_dir / "S00A-Hypnogram.edf")],
            "analyze-filters": ["analyze-filters", "--checkpoint", str(missing),
                                "--data-dir", str(corpus_dir)],
            "evaluate": ["evaluate", str(tmp_path), "--config", str(missing)],
        }[command]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(missing) in err
        assert not out.exists()


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == cli.EXIT_USAGE

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ingest", "--frobnicate"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_crossval_has_no_parallel_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["crossval", "--seed", "1", "--parallel", "2"])
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["evaluate", "RESULTS", "--overall", "balanced"],
        ["train", "--seed", "1", "--fold", "0"],
        ["crossval", "--seed", "1", "--first-layer-mode", "fixed_morlet"],
    ], ids=["evaluate_overall", "train", "crossval_first_layer_mode"])
    def test_removed_option_or_subcommand_is_a_usage_error(self, tmp_path, argv):
        # the class-balanced reading is sensitivity_mean; one fold is crossval
        # --folds k; the first layer always trains
        argv = [str(tmp_path / "results") if a == "RESULTS" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == cli.EXIT_USAGE
        assert list(tmp_path.iterdir()) == []
