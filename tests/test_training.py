"""Training loop behavior: stopping, determinism, isolation, serialization."""

import gc
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from somnoscore import evaluation as Ev
from somnoscore import model as M
from somnoscore import tensor_ops as T
from somnoscore import training as Tr
from somnoscore.dataset import make_folds, windows_for_subjects
from somnoscore.edf_ingest import SleepStage, discover_pairs, load_recording
from somnoscore.synthetic import synthetic_corpus, synthetic_recording, write_synthetic_pair

pytestmark = pytest.mark.filterwarnings("ignore:Morlet filter")


def tiny_config(**overrides):
    base = dict(batch_size=10, learning_rate=0.01, momentum=0.9, l2_lambda=1e-4,
                max_iterations=6, eval_every=3, patience=3)
    base.update(overrides)
    return M.reduced_config(**base)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(n_subjects=20, epochs_per_stage=1,
                            samples_per_epoch=60, seed=2)


@pytest.fixture(scope="module")
def folds(corpus):
    return make_folds(sorted({r.subject_id for r in corpus}), seed=5)


class TestTrainFold:
    def test_history_and_result_shape(self, corpus, folds, tmp_path):
        result = Tr.train_fold(corpus, folds[0], tiny_config(),
                               np.random.default_rng(0), tmp_path / "best.somn")
        assert [r.iteration for r in result.history.records] == [3, 6]
        best = result.history.best()
        assert best.val_mean_f1 == max(r.val_mean_f1 for r in result.history.records)
        assert result.test_matrix.sum() == 5  # one recording, five epochs

    def test_per_recording_matrices_sum_to_fold_matrix(self, folds, tmp_path):
        recs = []
        for subject_index in range(20):
            subject = f"SYN{subject_index:02d}"
            for night in (1, 2):
                recs.append(synthetic_recording(
                    subject, night, list(SleepStage), samples_per_epoch=60, seed=3))
        result = Tr.train_fold(recs, folds[0], tiny_config(), np.random.default_rng(0),
                               tmp_path / "best.somn")
        assert len(result.per_recording) == 2
        total = sum(s.matrix for s in result.per_recording)
        np.testing.assert_array_equal(total, result.test_matrix)
        # row sums equal each recording's per-stage epoch counts
        for score in result.per_recording:
            np.testing.assert_array_equal(score.matrix.sum(axis=1), np.ones(5))

    def test_constant_metric_stops_at_second_evaluation(self, corpus, folds, tmp_path,
                                                        monkeypatch):
        # a constant validation F1 never improves on the first evaluation
        monkeypatch.setattr(Tr, "validation_scores", lambda counts: (0.5, 0.0))
        cfg = tiny_config(eval_every=1, patience=1, max_iterations=50)
        result = Tr.train_fold(corpus, folds[0], cfg, np.random.default_rng(0),
                               tmp_path / "best.somn")
        assert len(result.history.records) == 2
        assert result.history.records[0].is_best

    def test_plateau_stops_after_patience_and_flags_first_tied_best(
            self, corpus, folds, tmp_path, monkeypatch):
        # scripted validation F1: the best (0.5) comes second and is tied
        # twice; the third evaluation that does not beat it ends the fold
        def scripted(*f1s):
            f1 = iter(f1s)
            monkeypatch.setattr(Tr, "validation_scores", lambda counts: (next(f1), 0.0))

        scripted(0.2, 0.5, 0.5, 0.4, 0.5, 0.9)
        cfg = tiny_config(eval_every=2, patience=3, max_iterations=50)
        result = Tr.train_fold(corpus, folds[0], cfg, np.random.default_rng(0),
                               tmp_path / "result.somn")
        records = result.history.records
        assert [r.val_mean_f1 for r in records] == [0.2, 0.5, 0.5, 0.4, 0.5]
        assert [r.is_best for r in records] == [False, True, False, False, False]
        # the kept tensors are those at the first tied best, iteration 4
        scripted(0.2, 0.5)
        cut = Tr.train_fold(corpus, folds[0], tiny_config(eval_every=2, max_iterations=4),
                            np.random.default_rng(0), tmp_path / "cut.somn")
        for name, tensor in cut.best_params.tensors.items():
            assert tensor.tobytes() == result.best_params.tensors[name].tobytes()

    def test_single_balanced_step_bitwise_reproducible(self, corpus, folds):
        from somnoscore.dataset import balanced_batch, class_pools

        cfg = tiny_config()
        pools = class_pools(windows_for_subjects(corpus, folds[0].training_subjects))
        snapshots = []
        for _ in range(2):
            params = M.init_params(cfg, np.random.default_rng(21))
            batch = balanced_batch(pools, cfg.batch_size, np.random.default_rng(22))
            Tr.batch_update(params, batch, cfg)
            snapshots.append({k: v.tobytes() for k, v in params.tensors.items()})
        assert snapshots[0] == snapshots[1]

    def test_step_objective_is_one_cross_entropy_plus_the_updates_l2_term(
            self, corpus, folds, monkeypatch):
        from somnoscore.dataset import balanced_batch, class_pools

        cfg = tiny_config(l2_lambda=0.05)
        pools = class_pools(windows_for_subjects(corpus, folds[0].training_subjects))
        params = M.init_params(cfg, np.random.default_rng(21))
        batch = balanced_batch(pools, cfg.batch_size, np.random.default_rng(22))
        sum_sq = sum(float(np.sum(params.tensors[n].astype(np.float64) ** 2))
                     for n in params.l2_weight_names())
        real_xent, real_step, losses, terms = T.cross_entropy, M.sgd_step, [], []

        def xent(*args):
            out = real_xent(*args)
            losses.append(out[0])
            return out

        def step(*args):
            terms.append(real_step(*args))
            return terms[-1]

        monkeypatch.setattr(T, "cross_entropy", xent)
        monkeypatch.setattr(M, "sgd_step", step)
        loss = Tr.batch_update(params, batch, cfg)
        assert len(losses) == 1 and len(terms) == 1
        assert loss == losses[0] + terms[0]
        assert terms[0] == pytest.approx(0.5 * 0.05 * sum_sq, rel=1e-12)

    def test_same_seed_identical_history(self, corpus, folds, tmp_path):
        cfg = tiny_config(max_iterations=9)
        runs = []
        for _ in range(2):
            result = Tr.train_fold(corpus, folds[1], cfg, np.random.default_rng(77),
                                   tmp_path / "best.somn")
            runs.append([(r.iteration, r.training_loss, r.val_mean_f1,
                          r.val_overall_accuracy, r.is_best)
                         for r in result.history.records])
        assert runs[0] == runs[1]

    def test_returned_params_reproduce_best_metric(self, corpus, folds, tmp_path):
        result = Tr.train_fold(corpus, folds[2], tiny_config(max_iterations=9),
                               np.random.default_rng(1), tmp_path / "best.somn")
        val = windows_for_subjects(corpus, folds[2].validation_subjects)
        counts = Tr._score_windows(result.best_params, val)
        mean_f1, _ = Ev.validation_scores(counts)
        assert mean_f1 == pytest.approx(result.history.best().val_mean_f1, abs=1e-12)

    def test_checkpoint_saved_at_each_improvement_holds_the_best(
            self, corpus, folds, tmp_path, monkeypatch):
        # scripted validation F1: it improves at evaluations 1, 2 and 4
        f1 = iter([0.2, 0.5, 0.4, 0.6, 0.6])
        monkeypatch.setattr(Tr, "validation_scores", lambda counts: (next(f1), 0.0))
        real_save, saved = M.save_checkpoint, []

        def spy(params, path):
            saved.append({k: v.tobytes() for k, v in params.tensors.items()})
            real_save(params, path)

        monkeypatch.setattr(M, "save_checkpoint", spy)
        ckpt = tmp_path / "best.somn"
        result = Tr.train_fold(corpus, folds[0], tiny_config(eval_every=2, max_iterations=10),
                               np.random.default_rng(0), ckpt)
        f1s = [r.val_mean_f1 for r in result.history.records]
        improvements = sum(f > max(f1s[:i], default=-1.0) for i, f in enumerate(f1s))
        assert len(saved) == improvements == 3
        assert result.history.best().iteration == 8
        assert saved[1] != saved[2]
        assert result.checkpoint_path == ckpt
        assert {k: v.tobytes() for k, v in M.load_checkpoint(ckpt).tensors.items()} == \
            saved[-1]

    def test_missing_subject_rejected(self, corpus, folds, tmp_path):
        with pytest.raises(Tr.TrainingError, match="not among"):
            Tr.train_fold(corpus[:10], folds[0], tiny_config(), np.random.default_rng(0),
                          tmp_path / "best.somn")

    def test_empty_stage_pool_refused(self, folds, tmp_path):
        # recordings missing stage W entirely
        recs = [synthetic_recording(f"SYN{i:02d}", 1,
                                    [SleepStage.N1, SleepStage.N2, SleepStage.N3,
                                     SleepStage.R],
                                    samples_per_epoch=60) for i in range(20)]
        with pytest.raises(ValueError, match="empty training pool"):
            Tr.train_fold(recs, folds[0], tiny_config(), np.random.default_rng(0),
                          tmp_path / "best.somn")

    def test_non_finite_gradient_reports_iteration(self, corpus, folds, tmp_path,
                                                   monkeypatch):
        real_backward = M.backward

        def poisoned(params, cache, grad_logits):
            grads = real_backward(params, cache, grad_logits)
            grads["out_b"] = np.full_like(grads["out_b"], np.nan)
            return grads

        monkeypatch.setattr(M, "backward", poisoned)
        with pytest.raises(Tr.TrainingError, match="iteration 1"):
            Tr.train_fold(corpus, folds[0], tiny_config(), np.random.default_rng(0),
                          tmp_path / "best.somn")


class TestValidationScores:
    def test_matches_strict_metrics_when_all_present(self):
        counts = np.array([[8, 1, 0, 0, 0], [1, 7, 1, 0, 0], [0, 0, 9, 0, 0],
                           [0, 1, 0, 8, 0], [1, 0, 0, 0, 9]])
        mean_f1, overall = Ev.validation_scores(counts)
        strict = Ev.class_metrics(counts)
        assert mean_f1 == pytest.approx(strict.mean("f1"), abs=1e-12)
        assert overall == pytest.approx(strict.overall_accuracy, abs=1e-12)

    def test_survives_missing_stage(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[0, 0] = 5
        counts[1, 1] = 3
        counts[1, 0] = 1
        mean_f1, overall = Ev.validation_scores(counts)
        assert 0 < mean_f1 <= 1 and 0 < overall <= 1

    @given(st.lists(st.integers(0, 40), min_size=25, max_size=25),
           st.sets(st.integers(0, 4), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_stage_loop(self, cells, absent):
        # Model selection compares these values for equality, so the
        # vectorized reduction must match the per-stage loop bit for bit.
        counts = np.array(cells).reshape(5, 5)
        counts[sorted(absent)] = 0
        assume(counts.sum() > 0)
        r = Ev.row_normalize(counts)
        present = np.flatnonzero(counts.sum(axis=1) > 0)
        expected = float(r[present[0], present[0]])  # one stage: its sensitivity
        if len(present) > 1:
            f1s = []
            for c in present:
                others = present[present != c]
                sens = r[c, c]
                fpr = r[others, c].sum() / len(others)
                prec = sens / (sens + fpr) if sens + fpr > 0 else 0.0
                f1s.append(2 * prec * sens / (prec + sens) if prec + sens > 0 else 0.0)
            expected = float(np.mean(f1s))
        assert Ev.validation_scores(counts)[0] == expected

    def test_predictions_on_absent_stages_still_count_as_errors(self):
        # expert has only N1 epochs; half are predicted as the absent N3
        counts = np.zeros((5, 5), dtype=int)
        counts[0, 0] = 5
        counts[0, 2] = 5
        mean_f1, overall = Ev.validation_scores(counts)
        assert mean_f1 == pytest.approx(0.5)  # sensitivity 0.5, not 1.0
        assert overall == pytest.approx(0.5)


class TestCrossValidation:
    def test_aggregate_is_sum_of_folds(self, corpus, tmp_path):
        cfg = tiny_config(max_iterations=3)
        outcome = Tr.run_crossvalidation(corpus, cfg, seed=5, out_dir=tmp_path,
                                         fold_indices=[0, 1, 2])
        total = sum(r.test_matrix for r in outcome.fold_results.values())
        np.testing.assert_array_equal(outcome.aggregate, total)
        assert not outcome.failures and not outcome.skipped

    def test_twenty_folds_for_twenty_subjects(self, corpus, tmp_path):
        cfg = tiny_config(max_iterations=1, eval_every=1)
        outcome = Tr.run_crossvalidation(corpus, cfg, seed=5, out_dir=tmp_path)
        assert len(outcome.fold_results) == 20
        tested = {r.split.test_subjects[0] for r in outcome.fold_results.values()}
        assert tested == {r.subject_id for r in corpus}
        assert int(outcome.aggregate.sum()) == sum(r.n_epochs for r in corpus)

    def test_same_seed_bit_exact_aggregate(self, corpus, tmp_path):
        cfg = tiny_config(max_iterations=3)
        a = Tr.run_crossvalidation(corpus, cfg, seed=8, out_dir=tmp_path / "a",
                                   fold_indices=[0, 4])
        b = Tr.run_crossvalidation(corpus, cfg, seed=8, out_dir=tmp_path / "b",
                                   fold_indices=[0, 4])
        assert not b.skipped
        np.testing.assert_array_equal(a.aggregate, b.aggregate)

    def test_outcome_holds_no_parameters(self, corpus, tmp_path):
        # the runner's memory does not grow with the number of folds
        def live_params():
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, M.ModelParameters)]

        before = live_params()
        outcome = Tr.run_crossvalidation(corpus, tiny_config(max_iterations=3), seed=5,
                                         out_dir=tmp_path, fold_indices=[0, 1, 2])
        assert set(outcome.fold_results) == {0, 1, 2}
        assert len(live_params()) == len(before)

    @pytest.mark.parametrize("index", [20, 25, -1])
    def test_fold_index_out_of_range_rejected_before_writing(self, corpus, tmp_path, index):
        with pytest.raises(ValueError, match=rf"fold {index} out of range 0\.\.19"):
            Tr.run_crossvalidation(corpus, tiny_config(), seed=5, out_dir=tmp_path / "out",
                                   fold_indices=[0, index])
        assert not (tmp_path / "out").exists()

    def test_repeated_fold_index_rejected_before_writing(self, corpus, tmp_path):
        with pytest.raises(ValueError, match="fold 0 repeated"):
            Tr.run_crossvalidation(corpus, tiny_config(), seed=5, out_dir=tmp_path / "out",
                                   fold_indices=[0, 0])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rival_seed, refused", [(4, False), (5, True)])
    def test_record_written_first_by_another_process_is_kept(self, corpus, tmp_path,
                                                             monkeypatch, rival_seed,
                                                             refused):
        # Another process's record lands after the runner found none, as the
        # runner writes its own (the only JSON written to the directory's top).
        cfg = tiny_config(max_iterations=3)
        real, record = Tr.write_json, tmp_path / Tr.RUN_RECORD
        rival = []

        def rival_first(path, payload):
            if path.parent == tmp_path and not rival:
                real(record, payload | {"seed": rival_seed})
                rival.append(record.read_bytes())
            real(path, payload)

        monkeypatch.setattr(Tr, "write_json", rival_first)
        if refused:
            with pytest.raises(ValueError, match="run_manifest.json records another run"):
                Tr.run_crossvalidation(corpus, cfg, seed=4, out_dir=tmp_path, fold_indices=[0])
            assert not list(tmp_path.glob("fold_*"))
        else:
            outcome = Tr.run_crossvalidation(corpus, cfg, seed=4, out_dir=tmp_path,
                                             fold_indices=[0])
            assert set(outcome.fold_results) == {0}
        assert record.read_bytes() == rival[0]
        assert not list(tmp_path.glob(".*"))  # no temporary file left

    def test_resume_skips_completed_folds(self, corpus, tmp_path):
        cfg = tiny_config(max_iterations=3)
        first = Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path,
                                       fold_indices=[0, 1])
        assert set(first.fold_results) == {0, 1}
        second = Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path,
                                        fold_indices=[0, 1, 2])
        assert second.skipped == [0, 1]
        assert set(second.fold_results) == {2}
        np.testing.assert_array_equal(second.aggregate[:, :],
                                      first.aggregate + second.fold_results[2].test_matrix)

    @pytest.mark.parametrize("change", ["seed", "learning_rate", "corpus"])
    def test_other_run_into_same_directory_refused(self, corpus, tmp_path, change):
        cfg = tiny_config(max_iterations=3)
        Tr.run_crossvalidation(corpus, cfg, seed=4, out_dir=tmp_path, fold_indices=[0])
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        recordings, config, seed = {
            "seed": (corpus, cfg, 5),
            "learning_rate": (corpus, tiny_config(max_iterations=3, learning_rate=0.003), 4),
            "corpus": (synthetic_corpus(n_subjects=20, epochs_per_stage=1,
                                        samples_per_epoch=60, seed=3), cfg, 4),
        }[change]
        with pytest.raises(ValueError, match="run_manifest.json records another run"):
            Tr.run_crossvalidation(recordings, config, seed=seed, out_dir=tmp_path,
                                   fold_indices=[0, 1])
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_run_under_another_thread_setting_refused(self, corpus, tmp_path, monkeypatch,
                                                      variable):
        cfg = tiny_config(max_iterations=3)
        monkeypatch.delenv(variable, raising=False)
        Tr.run_crossvalidation(corpus, cfg, seed=4, out_dir=tmp_path, fold_indices=[0])
        record = json.loads((tmp_path / Tr.RUN_RECORD).read_text())
        assert record["threads"][variable] is None
        assert record["threads"]["cpus"] == len(os.sched_getaffinity(0))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        monkeypatch.setenv(variable, "1")
        with pytest.raises(ValueError, match="run_manifest.json records another run"):
            Tr.run_crossvalidation(corpus, cfg, seed=4, out_dir=tmp_path, fold_indices=[1])
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_each_fold_saved_before_the_next_trains(self, corpus, tmp_path, monkeypatch):
        cfg = tiny_config(max_iterations=3)
        real = Tr.train_fold
        saved_at_start = {}

        def spy(recordings, fold, config, rng, checkpoint):
            saved_at_start[fold.fold_index] = len(list(tmp_path.glob("fold_*/result.json")))
            return real(recordings, fold, config, rng, checkpoint)

        monkeypatch.setattr(Tr, "train_fold", spy)
        Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path, fold_indices=[0, 1, 2])
        assert saved_at_start == {0: 0, 1: 1, 2: 2}

    def test_one_fold_failure_does_not_abort_others(self, corpus, tmp_path, monkeypatch):
        cfg = tiny_config(max_iterations=3)
        real = Tr.train_fold

        def flaky(recordings, fold, config, rng, checkpoint):
            if fold.fold_index == 1:
                raise RuntimeError("synthetic fault")
            return real(recordings, fold, config, rng, checkpoint)

        monkeypatch.setattr(Tr, "train_fold", flaky)
        outcome = Tr.run_crossvalidation(corpus, cfg, seed=5, out_dir=tmp_path,
                                         fold_indices=[0, 1, 2])
        assert set(outcome.fold_results) == {0, 2}
        assert list(outcome.failures) == [1] and "synthetic fault" in outcome.failures[1]

    def test_fold_serialization_round_trip(self, corpus, folds, tmp_path):
        (tmp_path / "fold_00").mkdir()
        result = Tr.train_fold(corpus, folds[0], tiny_config(), np.random.default_rng(0),
                               tmp_path / "fold_00" / "best.somn")
        Tr.save_fold_result(result, tmp_path, seed=5)
        payload = Tr.load_fold_result_json(tmp_path, 0)
        np.testing.assert_array_equal(payload["test_matrix"], result.test_matrix)
        assert payload["test_matrix"].dtype == np.int64
        assert [(s.subject_id, s.night) for s in payload["per_recording"]] == \
            [(s.subject_id, s.night) for s in result.per_recording]
        for loaded_score, score in zip(payload["per_recording"], result.per_recording):
            np.testing.assert_array_equal(loaded_score.matrix, score.matrix)
        assert payload["seed"] == 5
        assert Tr.load_fold_result_json(tmp_path, 1) is None
        assert payload["checkpoint"] == "best.somn"
        assert (tmp_path / "fold_00" / "best.somn").exists()

    def test_run_manifest_written(self, corpus, tmp_path):
        cfg = tiny_config(max_iterations=1, eval_every=1)
        Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path, fold_indices=[0])
        import json
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["seed"] == 6
        assert len(manifest["folds"]) == 20
        assert manifest["corpus_sha256"] == Tr.corpus_fingerprint(corpus)

    def test_corpus_fingerprint_of_a_fixed_edf_corpus_is_pinned(self, tmp_path):
        # The digest covers the fixture bytes (written through
        # `SignalSpec.counts`), the kept epochs' counts and their scaling; if it
        # moves, every existing run record names another corpus.
        stages = [SleepStage.W, SleepStage.N1, SleepStage.N2, None, SleepStage.N3,
                  SleepStage.R, SleepStage.W]
        for i, stem in enumerate(["SC4001E0", "SC4002E0", "SC4011E0"]):
            write_synthetic_pair(tmp_path, stem, stages, lights_out_epoch=i % 2, seed=i,
                                 extra_channels=["EEG Pz-Oz"] if i else None)
        recordings = [load_recording(p) for p in discover_pairs(tmp_path)]
        assert [r.n_epochs for r in recordings] == [5, 4, 5]
        assert Tr.corpus_fingerprint(recordings) == (
            "a3e4097fc3c6aed88a7e9c7fc8210a93865b999bd3b7c16ac62ecc83a4659853")

    def test_window_length_the_corpus_cannot_fill_is_refused(self, corpus, tmp_path):
        cfg = tiny_config(input_len=15000)  # the corpus has 60-sample epochs
        with pytest.raises(ValueError, match=r"input_len 15000 is not the corpus's window "
                                             r"length \(5 epochs: \[300\] samples\)"):
            Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


class _TornWrite:
    """A file whose first write lands half its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError("simulated crash mid-write")


class TestCrashResume:
    def test_torn_result_write_leaves_no_result_and_fold_reruns(
            self, corpus, tmp_path, monkeypatch):
        cfg = tiny_config(max_iterations=3)
        real_open = Path.open

        def torn_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return _TornWrite(fh) if "result.json" in self.name and "w" in mode else fh

        monkeypatch.setattr(Path, "open", torn_open)
        torn = Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path, fold_indices=[0])
        monkeypatch.undo()
        assert "mid-write" in torn.failures[0] and not torn.fold_results
        assert sorted(p.name for p in (tmp_path / "fold_00").iterdir()) == \
            ["best.somn", "failure.txt"]

        again = Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path,
                                       fold_indices=[0])
        assert again.skipped == [] and set(again.fold_results) == {0}
        assert Tr.load_fold_result_json(tmp_path, 0)["fold"] == 0
        assert not (tmp_path / "fold_00" / "failure.txt").exists()

    def test_save_failure_is_that_folds_failure(self, corpus, tmp_path, monkeypatch):
        cfg = tiny_config(max_iterations=3)
        real_save = Tr.save_fold_result

        def disk_full_on_fold_1(result, out_dir, seed):
            if result.split.fold_index == 1:
                raise OSError(28, "No space left on device")
            return real_save(result, out_dir, seed)

        monkeypatch.setattr(Tr, "save_fold_result", disk_full_on_fold_1)
        outcome = Tr.run_crossvalidation(corpus, cfg, seed=6, out_dir=tmp_path,
                                         fold_indices=[0, 1, 2])
        assert outcome.failures == {1: "OSError: [Errno 28] No space left on device"}
        assert set(outcome.fold_results) == {0, 2}
        assert [Tr.load_fold_result_json(tmp_path, i) is not None for i in range(3)] == \
            [True, False, True]

    def test_failure_keeps_its_traceback(self, corpus, tmp_path, monkeypatch):
        def broken(recordings, fold, config, rng, checkpoint):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(Tr, "train_fold", broken)
        outcome = Tr.run_crossvalidation(corpus, tiny_config(), seed=6, out_dir=tmp_path,
                                         fold_indices=[3])
        assert outcome.failures == {3: "RuntimeError: synthetic fault"}
        text = (tmp_path / "fold_03" / "failure.txt").read_text()
        assert text.startswith("Traceback (most recent call last):")
        assert "in broken" in text and text.endswith("RuntimeError: synthetic fault\n")
