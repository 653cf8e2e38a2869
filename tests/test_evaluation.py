"""Metric suite, bootstrap intervals, sleep statistics and OLS regression."""

import csv

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from somnoscore import evaluation as Ev
from somnoscore.edf_ingest import SleepStage

# Golden five-stage confusion counts (rows expert N1..W, columns algorithm)
# with independently derived expected metrics, frozen below.
GOLDEN_COUNTS = np.array([
    [1657,   259,    9,  427,  410],
    [1534, 12858, 1263, 1257,  666],
    [   9,   399, 5097,    1,   85],
    [1019,   643,    3, 5686,  360],
    [ 605,   171,   47,  175, 2382],
])

# Expected values recomputed from GOLDEN_COUNTS with a standalone script:
# row-normalize, one-vs-all with column-mean FPR, raw trace/total overall.
GOLDEN_SENSITIVITY = [0.599928, 0.731483, 0.911644, 0.737388, 0.704734]
GOLDEN_PRECISION_N1 = 0.857122
GOLDEN_PRECISION_MEAN = 0.914673
GOLDEN_F1_N1 = 0.705825
GOLDEN_F1_MEAN = 0.814494
GOLDEN_ACCURACY_N1 = 0.749961
GOLDEN_ACCURACY_MEAN = 0.835647
GOLDEN_OVERALL = 0.747664


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        seq = [SleepStage.N1, SleepStage.N3, SleepStage.W, SleepStage.N3]
        counts = Ev.confusion(seq, seq)
        assert counts.sum() == 4
        assert np.trace(counts) == 4

    def test_single_epoch_placement(self):
        counts = Ev.confusion([SleepStage.W], [SleepStage.N1])
        assert counts[SleepStage.N1, SleepStage.W] == 1
        assert counts.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(Ev.MetricError):
            Ev.confusion([SleepStage.W], [SleepStage.W, SleepStage.W])

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_label_outside_stages_rejected(self, bad):
        with pytest.raises(Ev.MetricError, match="outside"):
            Ev.confusion([bad], [SleepStage.W])
        with pytest.raises(Ev.MetricError, match="outside"):
            Ev.confusion([SleepStage.W], [bad])

    @given(st.lists(st.tuples(st.sampled_from(list(SleepStage)),
                              st.sampled_from(list(SleepStage))),
                    min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_total_equals_sequence_length(self, pairs):
        expert, predicted = zip(*pairs)
        counts = Ev.confusion(list(predicted), list(expert))
        assert counts.sum() == len(pairs)
        reference = np.zeros((5, 5), dtype=np.int64)
        for e, p in pairs:
            reference[e, p] += 1
        np.testing.assert_array_equal(counts, reference)


class TestRowNormalize:
    def test_golden_first_row(self):
        r = Ev.row_normalize(GOLDEN_COUNTS)
        np.testing.assert_allclose(
            r[0], [0.5999, 0.0938, 0.0033, 0.1546, 0.1484], atol=5e-5)

    def test_identity_counts(self):
        np.testing.assert_array_equal(Ev.row_normalize(np.eye(5, dtype=int)), np.eye(5))

    def test_rows_sum_to_one(self):
        r = Ev.row_normalize(GOLDEN_COUNTS)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_row_stays_zero_and_flags(self):
        counts = np.eye(5, dtype=int)
        counts[2] = 0
        assert not Ev.row_normalize(counts)[2].any()
        assert Ev.empty_stage_rows(counts) == [SleepStage.N3]


class TestClassMetrics:
    def test_golden_sensitivity(self):
        m = Ev.class_metrics(GOLDEN_COUNTS)
        np.testing.assert_allclose(m.sensitivity, GOLDEN_SENSITIVITY, atol=1e-6)
        assert m.mean("sensitivity") == pytest.approx(0.737035, abs=1e-6)

    def test_golden_precision_f1_accuracy(self):
        m = Ev.class_metrics(GOLDEN_COUNTS)
        assert m.precision[SleepStage.N1] == pytest.approx(GOLDEN_PRECISION_N1, abs=1e-6)
        assert m.mean("precision") == pytest.approx(GOLDEN_PRECISION_MEAN, abs=1e-6)
        assert m.f1[SleepStage.N1] == pytest.approx(GOLDEN_F1_N1, abs=1e-6)
        assert m.mean("f1") == pytest.approx(GOLDEN_F1_MEAN, abs=1e-6)
        assert m.accuracy[SleepStage.N1] == pytest.approx(GOLDEN_ACCURACY_N1, abs=1e-6)
        assert m.mean("accuracy") == pytest.approx(GOLDEN_ACCURACY_MEAN, abs=1e-6)
        assert m.overall_accuracy == pytest.approx(GOLDEN_OVERALL, abs=1e-6)

    def test_worst_stage_is_n1_here(self):
        m = Ev.class_metrics(GOLDEN_COUNTS)
        for metric in ("precision", "sensitivity", "f1", "accuracy"):
            assert m.worst(metric) == pytest.approx(
                float(getattr(m, metric)[SleepStage.N1]), abs=1e-12)

    def test_identity_matrix_all_ones(self):
        m = Ev.class_metrics(np.eye(5, dtype=int) * 7)
        for metric in (m.sensitivity, m.precision, m.f1, m.accuracy):
            np.testing.assert_allclose(metric, 1.0, atol=1e-12)
        assert m.overall_accuracy == 1.0

    def test_empty_row_rejected(self):
        counts = np.eye(5, dtype=int)
        counts[1] = 0
        with pytest.raises(Ev.MetricError, match="N2"):
            Ev.class_metrics(counts)

    def test_stack_equals_each_matrix_bit_for_bit(self):
        rng = np.random.default_rng(8)
        # zero columns (never-predicted stages) exercise the 0/0 branches too
        stack = rng.integers(0, 60, size=(3, 4, 5, 5)) * (rng.random((3, 4, 5, 5)) < 0.6)
        stack[..., np.arange(5), np.arange(5)] += 1
        stack[0, 0] = GOLDEN_COUNTS
        batched = Ev.class_metrics(stack)
        summary = batched.as_dict()
        for index in np.ndindex(3, 4):
            single = Ev.class_metrics(stack[index])
            for metric in ("sensitivity", "precision", "f1", "accuracy"):
                assert np.array_equal(getattr(batched, metric)[index], getattr(single, metric))
            for name, value in single.as_dict().items():
                assert type(value) is float
                assert summary[name][index] == value, name

    def test_sensitivity_mean_is_the_class_balanced_accuracy(self):
        # the one balanced reading: the mean of the per-stage recalls, beside
        # overall accuracy, the trace over the total, for a stack and a matrix alike
        rng = np.random.default_rng(5)
        stack = rng.integers(0, 40, size=(6, 5, 5))
        stack[:, np.arange(5), np.arange(5)] += 1
        stack[0] = GOLDEN_COUNTS
        summary = Ev.class_metrics(stack).as_dict()
        recall = np.diagonal(stack, axis1=-2, axis2=-1) / stack.sum(axis=-1)
        np.testing.assert_allclose(summary["sensitivity_mean"], recall.mean(axis=-1),
                                   rtol=1e-12)
        np.testing.assert_allclose(summary["overall_accuracy"],
                                   np.trace(stack, axis1=-2, axis2=-1) / stack.sum(axis=(-2, -1)),
                                   rtol=1e-12)
        assert Ev.class_metrics(GOLDEN_COUNTS).as_dict()["sensitivity_mean"] == pytest.approx(
            0.737035, abs=1e-6)

    def test_stack_with_one_empty_row_rejected(self):
        stack = np.stack([GOLDEN_COUNTS] * 3)
        stack[1, 3] = 0
        with pytest.raises(Ev.MetricError, match=r"stage\(s\): R$"):
            Ev.class_metrics(stack)

    def test_f1_is_harmonic_mean(self):
        m = Ev.class_metrics(GOLDEN_COUNTS)
        hm = 2 * m.precision * m.sensitivity / (m.precision + m.sensitivity)
        np.testing.assert_allclose(m.f1, hm, atol=1e-12)

    def test_never_predicted_stage_scores_zero_not_nan(self):
        # stage N3 has expert epochs but is never predicted anywhere
        counts = np.array([[9, 1, 0, 0, 0], [1, 9, 0, 0, 0], [2, 8, 0, 0, 0],
                           [0, 0, 0, 9, 1], [0, 1, 0, 0, 9]])
        m = Ev.class_metrics(counts)
        assert m.sensitivity[2] == 0.0
        assert m.precision[2] == 0.0 and m.f1[2] == 0.0
        assert np.isfinite(m.as_dict()["f1_mean"])

    @given(scales=st.lists(st.integers(1, 50), min_size=5, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_row_scaling_invariance(self, scales):
        # class balance: multiplying any expert row by a positive integer
        # changes prevalence but no metric
        scaled = GOLDEN_COUNTS * np.array(scales)[:, None]
        base = Ev.class_metrics(GOLDEN_COUNTS)
        after = Ev.class_metrics(scaled)
        for metric in ("sensitivity", "precision", "f1", "accuracy"):
            np.testing.assert_allclose(
                getattr(after, metric), getattr(base, metric), atol=1e-12)


class TestBootstrap:
    def test_identical_matrices_zero_width(self):
        matrices = [GOLDEN_COUNTS] * 39
        result = Ev.bootstrap_ci(matrices, n_samples=50, seed=1)
        point = Ev.class_metrics(GOLDEN_COUNTS).as_dict()
        for name, iv in result.intervals.items():
            assert iv.lower == iv.upper == pytest.approx(iv.mean, abs=1e-12)
            assert iv.mean == pytest.approx(point[name], abs=1e-12)

    def test_bounds_are_exact_order_statistics(self):
        rng = np.random.default_rng(0)
        matrices = [np.diag(rng.integers(5, 40, size=5)) +
                    rng.integers(0, 4, size=(5, 5)) for _ in range(39)]
        result = Ev.bootstrap_ci(matrices, n_samples=1000, seed=3)
        # recompute one metric stream independently
        values = []
        for i in range(1000):
            rs = np.random.default_rng([3, i])
            picks = rs.integers(0, 39, size=39)
            total = sum(matrices[p] for p in picks)
            values.append(Ev.class_metrics(total).as_dict()["f1_mean"])
        ordered = sorted(values)
        iv = result.intervals["f1_mean"]
        assert iv.lower == ordered[25] and iv.upper == ordered[974]
        assert iv.mean == pytest.approx(np.mean(values), abs=1e-12)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(4)
        matrices = [np.diag(rng.integers(5, 30, size=5)) for _ in range(10)]
        a = Ev.bootstrap_ci(matrices, n_samples=200, seed=9)
        b = Ev.bootstrap_ci(matrices, n_samples=200, seed=9)
        assert a.intervals == b.intervals

    def test_two_recordings_mean_within_hull(self):
        # with 2 recordings a sample is AA, AB or BB; enumerate those metrics
        a = np.diag([10, 10, 10, 10, 10])
        b = np.diag([8, 8, 8, 8, 8]) + 2 * (np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
        options = [Ev.class_metrics(m + n).as_dict()["f1_mean"]
                   for m, n in ((a, a), (a, b), (b, b))]
        result = Ev.bootstrap_ci([a, b], n_samples=300, seed=2)
        iv = result.intervals["f1_mean"]
        assert min(options) - 1e-12 <= iv.mean <= max(options) + 1e-12
        assert set(np.round([iv.lower, iv.upper], 12)) <= set(np.round(options, 12))

    def test_undefined_samples_excluded_and_counted(self):
        # stage N3 present in only one recording: some samples miss it entirely
        a = np.diag([5, 5, 1, 5, 5])
        b = np.diag([5, 5, 0, 5, 5])
        result = Ev.bootstrap_ci([a, b, b, b], n_samples=400, seed=7)
        assert result.excluded["f1_mean"] > 0
        assert result.excluded["overall_accuracy"] == 0  # overall always defined
        assert result.intervals["f1_mean"].lower <= result.intervals["f1_mean"].upper

    def test_overall_accuracy_taken_from_every_sample(self):
        # overall accuracy is scored on all samples, the undefined ones
        # included; the other metrics on the defined samples only
        a = np.diag([5, 5, 1, 5, 5]) + 1
        b = np.diag([5, 5, 0, 5, 5])
        matrices = [a, b, b, b]
        result = Ev.bootstrap_ci(matrices, n_samples=300, seed=7)
        overall, balanced = [], []
        for i in range(300):
            total = sum(matrices[p] for p in np.random.default_rng([7, i]).integers(0, 4, 4))
            overall.append(np.trace(total) / total.sum())
            if total.sum(axis=1).all():
                balanced.append(Ev.class_metrics(total).as_dict()["sensitivity_mean"])
        assert 0 < len(balanced) < 300
        assert result.excluded["sensitivity_mean"] == 300 - len(balanced)
        iv = result.intervals["overall_accuracy"]
        assert (iv.lower, iv.upper) == (sorted(overall)[7], sorted(overall)[292])
        assert iv.mean == pytest.approx(np.mean(overall), abs=1e-12)
        assert result.intervals["sensitivity_mean"].mean == pytest.approx(np.mean(balanced),
                                                                          abs=1e-12)

    def test_single_recording_rejected(self):
        with pytest.raises(Ev.MetricError):
            Ev.bootstrap_ci([GOLDEN_COUNTS], n_samples=10, seed=0)


W, N1, N2, N3, R = (SleepStage.W, SleepStage.N1, SleepStage.N2,
                    SleepStage.N3, SleepStage.R)


class TestSleepStatistics:
    def test_efficiency_hand_case(self):
        labels = [W, W, N1, N2, W, N2, W, W]
        # span epochs 0..5 (6 in bed), asleep at 2,3,5 -> 50%
        assert Ev.sleep_efficiency(labels, 0) == pytest.approx(50.0)

    def test_efficiency_all_asleep(self):
        assert Ev.sleep_efficiency([N2, N3, R], 0) == pytest.approx(100.0)

    def test_efficiency_all_wake(self):
        with pytest.raises(Ev.MetricError, match="no sleep onset"):
            Ev.sleep_efficiency([W, W, W], 0)

    def test_efficiency_respects_lights_out(self):
        labels = [N2, W, W, N2, N2]
        # lights out at 1: span 1..4, asleep 2 of 4
        assert Ev.sleep_efficiency(labels, 1) == pytest.approx(50.0)

    def test_transitional_hand_case(self):
        labels = [N2, N2, N3, N3, N3, N2]
        # transitional at 1, 2, 4, 5 -> 4/6
        assert Ev.transitional_fraction(labels, 0) == pytest.approx(100 * 4 / 6)

    def test_transitional_constant_sequence(self):
        assert Ev.transitional_fraction([N2] * 9, 0) == 0.0

    def test_transitional_alternating(self):
        assert Ev.transitional_fraction([N2, N3] * 4, 0) == 100.0

    def test_bounds(self):
        labels = [W, N1, N1, W, N2, R]
        eff = Ev.sleep_efficiency(labels, 0)
        trans = Ev.transitional_fraction(labels, 0)
        assert 0 < eff <= 100 and 0 <= trans <= 100


class TestLinreg:
    def test_hand_computed_fixture(self):
        # x = 1..5, y = [2,1,4,3,5]: Sxy=8, Sxx=Syy=10
        # slope 0.8, intercept 0.6, R^2 = 1 - 3.6/10 = 0.64 exactly
        r = Ev.linreg_r2([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
        assert r.slope == pytest.approx(0.8, abs=1e-9)
        assert r.intercept == pytest.approx(0.6, abs=1e-9)
        assert r.r_squared == pytest.approx(0.64, abs=1e-9)
        # p-value from F(1,3): cross-checked against scipy.stats.f.sf
        assert r.p_value == pytest.approx(0.1040880386618, abs=1e-10)

    def test_perfect_line(self):
        x = np.arange(10.0)
        r = Ev.linreg_r2(x, 2 * x + 1)
        assert r.r_squared == pytest.approx(1.0)
        assert r.p_value < 1e-12
        assert r.p_value > 0

    def test_null_case_large_n(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        r = Ev.linreg_r2(x, y)
        assert r.r_squared < 0.01
        assert r.p_value > 0.001

    def test_constant_x_rejected(self):
        with pytest.raises(Ev.MetricError, match="degenerate"):
            Ev.linreg_r2([3, 3, 3, 3], [1, 2, 3, 4])

    def test_too_few_points(self):
        with pytest.raises(Ev.MetricError):
            Ev.linreg_r2([1, 2], [1, 2])

    @given(seed=st.integers(0, 5000), n=st.integers(4, 60))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_scipy(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = 0.3 * x + rng.standard_normal(n)
        ours = Ev.linreg_r2(x, y)
        ref = scipy.stats.linregress(x, y)
        assert ours.slope == pytest.approx(ref.slope, rel=1e-9)
        assert ours.r_squared == pytest.approx(ref.rvalue ** 2, abs=1e-9)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-7, abs=1e-12)


class TestIncompleteBeta:
    @given(a=st.floats(0.5, 50), b=st.floats(0.5, 50), x=st.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_to_1e10(self, a, b, x):
        ours = Ev.regularized_incomplete_beta(a, b, x)
        ref = scipy.special.betainc(a, b, x)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestHypnogramExport:
    def test_round_trip(self, tmp_path):
        labels = [W, N1, N2, N3, R, N2, W]
        Ev.export_hypnogram(labels, tmp_path / "h.csv")
        with open(tmp_path / "h.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["index", "stage"]
        assert [SleepStage[name] for _, name in rows[1:]] == labels

    def test_empty_input_header_only(self, tmp_path):
        Ev.export_hypnogram([], tmp_path / "h.csv")
        assert (tmp_path / "h.csv").read_text() == "index,stage\n"

    def test_svg_renders_five_levels(self, tmp_path):
        labels = [W, N1, N2, N3, R, N3, N1]
        Ev.export_hypnogram(labels, tmp_path / "h.csv")
        svg = (tmp_path / "h.svg").read_text()
        assert svg.startswith("<svg")
        poly = svg.split('points="')[1].split('"')[0]
        ys = {point.split(",")[1] for point in poly.split()}
        assert len(ys) == 5


class TestReportFiles:
    def test_report_bundle(self, tmp_path):
        metrics = Ev.class_metrics(GOLDEN_COUNTS)
        boot = Ev.bootstrap_ci([GOLDEN_COUNTS] * 4, n_samples=20, seed=0)
        reg = {"f1_vs_sleep_efficiency": Ev.linreg_r2([1, 2, 3, 4], [1, 2, 2, 4])}
        Ev.write_metrics_report(GOLDEN_COUNTS, metrics, boot, tmp_path, reg)
        import json
        report = json.loads((tmp_path / "metrics.json").read_text())
        assert report["summary"]["f1_mean"] == pytest.approx(GOLDEN_F1_MEAN, abs=1e-6)
        assert (tmp_path / "confusion.csv").exists()
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("metric,")
        assert len(summary) == 1 + len(Ev.METRIC_NAMES)
        assert (tmp_path / "regressions.csv").exists()

    def test_csv_lines_end_with_newline_and_no_temporary_file_is_left(self, tmp_path):
        metrics = Ev.class_metrics(GOLDEN_COUNTS)
        boot = Ev.bootstrap_ci([GOLDEN_COUNTS] * 4, n_samples=20, seed=0)
        reg = {"f1_vs_sleep_efficiency": Ev.linreg_r2([1, 2, 3, 4], [1, 2, 2, 4])}
        Ev.write_metrics_report(GOLDEN_COUNTS, metrics, boot, tmp_path, reg)
        Ev.export_hypnogram([W, N1, N2], tmp_path / "h.csv")
        for name in ("confusion.csv", "summary.csv", "regressions.csv", "h.csv"):
            text = (tmp_path / name).read_bytes()
            assert b"\r" not in text and text.endswith(b"\n"), name
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "confusion.csv", "h.csv", "h.svg", "metrics.json", "regressions.csv",
            "summary.csv"]
