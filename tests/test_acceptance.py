"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import time
from collections import Counter

import numpy as np
import pytest

from somnoscore import dataset as D
from somnoscore import edf_ingest as E
from somnoscore import evaluation as Ev
from somnoscore import filter_analysis as FA
from somnoscore import model as M
from somnoscore import synthetic as S
from somnoscore import training as Tr
from somnoscore.edf_ingest import STAGES, SleepStage

from test_evaluation import GOLDEN_COUNTS
from test_model import finite_diff_model_grads, layer_shapes, make_morlet_bank


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


def test_criterion_01_shape_conformance():
    cfg = M.ModelConfig()  # float32: full 145M-parameter network
    params = M.init_params(cfg, np.random.default_rng(0))
    probs, cache = M.forward(params, np.random.default_rng(1).standard_normal(15000))
    expected = [(20, 14801), (20, 1479), (1, 20, 1479),
                (400, 1450), (400, 721), 288400, 500, 500, 5]
    report(1, "forward-pass layer extents match the reference architecture",
           layer_shapes(probs, cache, cfg) == expected and abs(probs.sum() - 1.0) < 1e-9,
           f"trace {layer_shapes(probs, cache, cfg)}")


def test_criterion_02_gradient_correctness():
    params = M.init_params(M.reduced_config(l2_lambda=1e-3), np.random.default_rng(7))
    x = np.random.default_rng(7).standard_normal(300)
    t0 = time.monotonic()
    worst, masked_frac = finite_diff_model_grads(params, x, label=2)
    elapsed = time.monotonic() - t0
    report(2, "end-to-end analytic gradients match central finite differences",
           worst < 1e-4 and elapsed < 60.0,
           f"max rel err {worst:.2e}, masked {masked_frac:.2%}, {elapsed:.1f}s")


def test_criterion_03_metric_oracle():
    m = Ev.class_metrics(GOLDEN_COUNTS)
    diag_pct = 100 * m.sensitivity
    diag_ok = np.abs(diag_pct - np.array([60, 73, 91, 74, 70])).max() <= 0.5
    comparisons = {
        "precision_mean": 91, "precision_worst": 86,
        "sensitivity_mean": 74, "sensitivity_worst": 60,
        "f1_mean": 81, "f1_worst": 70,
        "accuracy_mean": 82, "accuracy_worst": 73,
        "overall_accuracy": 74,
    }
    values = m.as_dict()
    deltas = {k: abs(100 * values[k] - v) for k, v in comparisons.items()}
    summary_ok = all(d <= 2.0 for d in deltas.values())
    report(3, "golden confusion counts reproduce the golden metric row to 2pp",
           diag_ok and summary_ok,
           f"worst delta {max(deltas.values()):.2f}pp at "
           f"{max(deltas, key=deltas.get)}")


def test_criterion_04_bootstrap_contract():
    identical = [GOLDEN_COUNTS] * 39
    result = Ev.bootstrap_ci(identical, n_samples=1000, seed=5)
    zero_width = all(iv.lower == iv.upper == pytest.approx(iv.mean, abs=1e-12)
                     for iv in result.intervals.values())

    rng = np.random.default_rng(0)
    varied = [np.diag(rng.integers(5, 40, size=5)) + rng.integers(0, 4, size=(5, 5))
              for _ in range(39)]
    a = Ev.bootstrap_ci(varied, n_samples=1000, seed=11)
    b = Ev.bootstrap_ci(varied, n_samples=1000, seed=11)
    reproducible = a.intervals == b.intervals

    # independently recompute one metric's 1000-sample stream
    stream = []
    for i in range(1000):
        picks = np.random.default_rng([11, i]).integers(0, 39, size=39)
        stream.append(Ev.class_metrics(sum(varied[p] for p in picks)).as_dict()["f1_mean"])
    ordered = sorted(stream)
    iv = a.intervals["f1_mean"]
    order_stats = iv.lower == ordered[26 - 1] and iv.upper == ordered[975 - 1]
    report(4, "bootstrap bounds are the 26th/975th order statistics, reproducible",
           zero_width and reproducible and order_stats)


def test_criterion_05_sampler_property():
    stages = ([SleepStage.N1] * 1 + [SleepStage.N2] * 40 + [SleepStage.N3] * 7
              + [SleepStage.R] * 12 + [SleepStage.W] * 3)
    rec = S.synthetic_recording("s", 1, stages, samples_per_epoch=60)
    pools = D.class_pools(D.build_windows(rec))
    rng = np.random.default_rng(3)
    histogram = Counter()
    minority_seen = 0
    n_batches = 10_000
    for _ in range(n_batches):
        batch = D.balanced_batch(pools, 100, rng)
        histogram.update(w.label for w in batch)
        minority_seen += sum(1 for w in batch if w.label is SleepStage.N1)
    exact = all(histogram[s] == 20 * n_batches for s in SleepStage)
    # a single N1 window must recur 20x per batch: with-replacement behavior
    recurs = minority_seen == 20 * n_batches
    report(5, "10,000 balanced batches are exactly uniform; minority windows recur",
           exact and recurs)


def test_criterion_06_ingestion_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    digital = rng.integers(-2048, 2048, size=6000).astype(np.int16)
    sig = {"label": E.DEFAULT_CHANNEL, "physical_min": -200, "physical_max": 200,
           "digital_min": -2048, "digital_max": 2047, "samples_per_record": 3000,
           "digital": digital}
    S.write_edf(tmp_path / "rt.edf", [sig], n_records=2, record_duration=30)
    parsed = E.parse_edf((tmp_path / "rt.edf").read_bytes())
    bit_exact = np.array_equal(parsed.columns(0).ravel(), digital)

    stages = [SleepStage.W, SleepStage.N1, SleepStage.N2, None,
              SleepStage.N3, SleepStage.R]
    raw = ["Sleep stage W", "Sleep stage 1", "Sleep stage 2", "Movement time",
           "Sleep stage 4", "Sleep stage R"]  # legacy stage 4 in the stream
    d = tmp_path / "corpus"
    S.write_synthetic_pair(d, "SC4001E0", stages, lights_out_epoch=0)
    S.write_hypnogram_edf(d / "SC4001E0-Hypnogram.edf",
                          [E.AnnotationEvent(0.0, 0.0, "Lights off")]
                          + [E.AnnotationEvent(30.0 * i, 30.0, label) for i, label in enumerate(raw)])
    rec = E.load_recording(E.discover_pairs(d)[0])
    merged = rec.epoch_labels == [SleepStage.W, SleepStage.N1, SleepStage.N2,
                                  SleepStage.N3, SleepStage.R]
    movement_removed = rec.removed_epochs == 1
    invariants = rec.epochs.shape == (rec.n_epochs, E.SAMPLES_PER_EPOCH)

    S.write_synthetic_pair(tmp_path / "csv", "subj", stages[:3],
                           annotation_format="csv")
    rec_csv = E.load_recording(E.discover_pairs(tmp_path / "csv")[0],
                               lights_out_epoch=0)
    csv_ok = rec_csv.epoch_labels == [SleepStage.W, SleepStage.N1, SleepStage.N2][
        :rec_csv.n_epochs] and rec_csv.n_epochs == 3
    report(6, "EDF round-trip bit-exact; stage-4 merge and movement removal hold",
           bit_exact and merged and movement_removed and invariants and csv_ok)


def test_criterion_07_learning_smoke(tmp_path):
    recordings = S.synthetic_corpus(n_subjects=20, epochs_per_stage=4,
                                    samples_per_epoch=60, seed=1)
    cfg = M.reduced_config(batch_size=20, learning_rate=0.003, momentum=0.9,
                           l2_lambda=1e-4, max_iterations=3000, eval_every=100,
                           patience=5)
    folds = D.make_folds(sorted({r.subject_id for r in recordings}), seed=11)
    t0 = time.monotonic()
    result = Tr.train_fold(recordings, folds[0], cfg, np.random.default_rng([11, 0]),
                           tmp_path / "best.somn")
    elapsed = time.monotonic() - t0
    val = D.windows_for_subjects(recordings, folds[0].validation_subjects)
    counts = Tr._score_windows(result.best_params, val)
    balanced = float(np.diag(Ev.row_normalize(counts)).mean())
    within_budget = result.history.best().iteration <= 3000 and elapsed < 600
    report(7, "class-balanced SGD reaches 90% balanced validation accuracy",
           balanced >= 0.90 and within_budget,
           f"balanced acc {balanced:.3f} at iter {result.history.best().iteration}, "
           f"{elapsed:.0f}s")


def test_criterion_08_filter_analysis():
    cfg = M.ModelConfig(input_len=15000, c1_filters=5, c1_len=200,
                        c2_filters=4, f1=8, f2=8, batch_size=10, dtype="float64")
    params = M.init_params(cfg, np.random.default_rng(0))
    freqs = np.array([S.STAGE_BAND_HZ[s] for s in STAGES])
    params.tensors["c1_kernels"] = make_morlet_bank(freqs, 6.0)
    params.tensors["c1_bias"][:] = 0
    stages = [s for s in STAGES for _ in range(3)]
    windows = D.build_windows(S.synthetic_recording("a", 1, stages, seed=4,
                                                    amplitude=20.0, noise=0.5))
    raw = FA.class_activation_matrix(params, windows)
    argmax_matches = np.array_equal(raw.argmax(axis=0), np.arange(5))

    normalized, _, _ = FA.normalize_profile(raw)
    unit_rows = np.allclose(np.linalg.norm(normalized, axis=1), 1.0, atol=1e-12)

    scales = np.array([3.0, 0.2, 11.0, 0.5, 7.0])
    rescaled, _, _ = FA.normalize_profile(raw * scales[None, :])
    scale_invariant = np.allclose(normalized, rescaled, atol=1e-9)
    order_same = np.array_equal(FA.order_filters(normalized),
                                FA.order_filters(rescaled))
    report(8, "band-matched filters attribute to their designed stages; "
              "normalization is per-stage scale invariant",
           argmax_matches and unit_rows and scale_invariant and order_same)


def test_criterion_09_statistics():
    W, N1, N2, N3 = SleepStage.W, SleepStage.N1, SleepStage.N2, SleepStage.N3
    eff = Ev.sleep_efficiency([W, W, N1, N2, W, N2, W, W], 0)
    trans = Ev.transitional_fraction([N2, N2, N3, N3, N3, N2], 0)

    fixture = Ev.linreg_r2([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    fixture_ok = (abs(fixture.r_squared - 0.64) < 1e-6
                  and abs(fixture.slope - 0.8) < 1e-6
                  and abs(fixture.p_value - 0.1040880386618) < 1e-9)

    x = np.arange(12.0)
    perfect = Ev.linreg_r2(x, 2 * x + 1)
    rng = np.random.default_rng(5)
    null = Ev.linreg_r2(rng.standard_normal(4000), rng.standard_normal(4000))
    report(9, "sleep statistics and OLS fixtures reproduce hand-derived values",
           eff == pytest.approx(50.0) and trans == pytest.approx(100 * 4 / 6)
           and fixture_ok and perfect.r_squared == pytest.approx(1.0)
           and 0 < perfect.p_value < 1e-12 and null.r_squared < 0.01)


def test_criterion_10_full_corpus_recipe_documented():
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    recipe = root / "scripts" / "run_full_crossval.sh"
    readme = (root / "README.md").read_text()
    documented = recipe.exists() and "crossval" in recipe.read_text() \
        and "crossval" in readme
    report(10, "full-corpus cross-validation recipe ships (not desk-runnable)",
           documented, "target mean F1 within 3pp of 81 when run "
           "on the real 39-recording corpus")
