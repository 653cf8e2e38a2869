"""Filter spectra, per-stage activation profiles and their exports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somnoscore import filter_analysis as FA
from somnoscore import model as M
from somnoscore import tensor_ops as T
from somnoscore.dataset import WINDOW_EPOCHS, build_windows
from somnoscore.edf_ingest import STAGES, Recording, SignalSpec, SleepStage
from somnoscore.synthetic import STAGE_BAND_HZ, synthetic_recording

pytestmark = pytest.mark.filterwarnings("ignore:Morlet filter")


def small_bank_params(n_filters=5, seed=0):
    """Full-length first layer (200 taps over 15000 samples), tiny tail."""
    cfg = M.ModelConfig(input_len=15000, c1_filters=n_filters, c1_len=200,
                        c2_filters=4, f1=8, f2=8, batch_size=10, dtype="float64")
    return M.init_params(cfg, np.random.default_rng(seed)), cfg


class TestSpectrum:
    def test_pure_cosine_peaks_at_its_bin(self):
        t = np.arange(200) / 100.0
        power = FA.bank_spectra(np.cos(2 * np.pi * 10.0 * t))
        assert power.shape == (101,)
        assert np.argmax(power) == 20  # 10 Hz at 0.5 Hz per bin

    def test_zero_kernel(self):
        assert not FA.bank_spectra(np.zeros(200)).any()

    def test_impulse_is_flat(self):
        kernel = np.zeros(200)
        kernel[0] = 1.0
        power = FA.bank_spectra(kernel)
        np.testing.assert_allclose(power, power[0], atol=1e-12)

    def test_one_sided_loses_nothing(self):
        # real kernel: full DFT magnitude is symmetric around Nyquist
        rng = np.random.default_rng(3)
        kernel = rng.standard_normal(200)
        full = np.abs(np.fft.fft(kernel)) ** 2
        one_sided = FA.bank_spectra(kernel)
        np.testing.assert_allclose(one_sided, full[:101], atol=1e-9)
        np.testing.assert_allclose(full[101:], full[1:100][::-1], atol=1e-9)
        # a bank is its kernels' spectra, row by row, to the bit
        bank = rng.standard_normal((3, 200))
        spectra = FA.bank_spectra(bank)
        assert spectra.shape == (3, 101)
        for row, k in zip(spectra, bank):
            np.testing.assert_array_equal(row, FA.bank_spectra(k))

    def test_bin_frequencies(self):
        freqs = FA.spectrum_frequencies(200)
        assert freqs[0] == 0.0 and freqs[-1] == 50.0 and freqs[1] == 0.5


def window_with_middle(freq_hz, fill_noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    sig = fill_noise * rng.standard_normal(15000)
    t = np.arange(3000) / 100.0
    sig[6000:9000] = np.sin(2 * np.pi * freq_hz * t)
    return sig


class TestActivationPower:
    def test_zero_signal_zero_power(self):
        params, _ = small_bank_params()
        params.tensors["c1_bias"][:] = 0
        power = FA.c1_activation_power(params, np.zeros(15000))
        assert not power.any()

    def test_restricted_region_length(self):
        first, last = FA.middle_epoch_output_range(15000, 200)
        assert (first, last) == (6000, 8800)
        assert last - first + 1 == 2801

    @pytest.mark.parametrize("input_len", [300, 15000])
    def test_reads_exactly_the_scored_epoch_of_a_dataset_window(self, input_len):
        # epoch e holds the value e + 1, so each window shows where its scored
        # epoch lies; NaN everywhere else must leave the power unchanged, and
        # NaN at either end of the scored epoch must reach it
        params = M.init_params(M.reduced_config(input_len=input_len),
                               np.random.default_rng(0))
        spe = input_len // WINDOW_EPOCHS
        identity = SignalSpec("S", -32768.0, 32767.0, -32768, 32767, spe, 100.0)
        counts = np.repeat(np.arange(1, 8, dtype=np.int16)[:, None], spe, axis=1)
        rec = Recording("S", 1, counts, identity, [SleepStage.N2] * 7)
        for w in build_windows(rec)[2:5]:  # windows with no replicated epoch
            x = w.signal()
            assert x.shape == (input_len,)
            scored = np.flatnonzero(x == w.epoch_index + 1)
            assert len(scored) == spe and scored[-1] - scored[0] == spe - 1
            masked = np.full(input_len, np.nan)
            masked[scored] = x[scored]
            np.testing.assert_array_equal(FA.c1_activation_power(params, masked),
                                          FA.c1_activation_power(params, x))
            for end in (scored[0], scored[-1]):
                poked = x.copy()
                poked[end] = np.nan
                assert np.isnan(FA.c1_activation_power(params, poked)).all()

    def test_matched_filter_discriminates_bands(self):
        params, _ = small_bank_params(n_filters=2)
        params.tensors["c1_kernels"] = M.make_morlet_bank(
            np.array([10.0, 30.0]), 6.0)
        params.tensors["c1_bias"][:] = 0
        p10 = FA.c1_activation_power(params, window_with_middle(10.0))
        p30 = FA.c1_activation_power(params, window_with_middle(30.0))
        assert p10[0] > p30[0]      # 10 Hz filter prefers the 10 Hz window
        assert p30[1] > p10[1]

    def test_batch_rows_equal_single_windows(self):
        # each row of a batch call equals the single-window call and the
        # rectified middle-epoch slice of conv1 run over the whole window
        params, cfg = small_bank_params()
        x = np.stack([window_with_middle(f, seed=i) for i, f in enumerate((3.0, 10.0, 20.0))])
        first, last = FA.middle_epoch_output_range(cfg.input_len, cfg.c1_len)
        batch = FA.c1_activation_power(params, x)
        assert batch.shape == (3, 5)
        for row, sig in zip(batch, x):
            np.testing.assert_array_equal(row, FA.c1_activation_power(params, sig))
            feats = T.relu(T.conv1d_valid(sig, params.tensors["c1_kernels"],
                                          params.tensors["c1_bias"])[:, first:last + 1])
            np.testing.assert_allclose(row, (feats ** 2).mean(axis=1), rtol=1e-12)

    def test_wrong_signal_shape_rejected(self):
        params, _ = small_bank_params()
        for bad in (np.zeros(14999), np.zeros((2, 2, 15000))):
            with pytest.raises(ValueError, match="window length 15000"):
                FA.c1_activation_power(params, bad)


def band_matched_params():
    """One Morlet filter per stage band, ordered like the stage enum."""
    params, cfg = small_bank_params(n_filters=5)
    freqs = np.array([STAGE_BAND_HZ[s] for s in STAGES])
    params.tensors["c1_kernels"] = M.make_morlet_bank(freqs, 6.0)
    params.tensors["c1_bias"][:] = 0
    return params, cfg


@pytest.fixture(scope="module")
def band_windows():
    stages = [s for s in STAGES for _ in range(3)]
    rec = synthetic_recording("a", 1, stages, seed=4, amplitude=20.0, noise=0.5)
    return build_windows(rec)


class TestClassActivationMatrix:
    def test_single_window_per_class(self, band_windows):
        params, _ = band_matched_params()
        singles = band_windows[::3][:5]
        by_label = {int(w.label): w for w in singles}
        m = FA.class_activation_matrix(params, singles)
        for c, w in by_label.items():
            np.testing.assert_allclose(
                m[:, c], FA.c1_activation_power(params, w.signal()), rtol=1e-12)

    def test_duplicated_windows_leave_mean_unchanged(self, band_windows):
        params, _ = band_matched_params()
        singles = band_windows[::3][:5]
        m1 = FA.class_activation_matrix(params, singles)
        m2 = FA.class_activation_matrix(params, list(singles) * 3)
        np.testing.assert_allclose(m1, m2, rtol=1e-12)

    def test_band_design_recovered(self, band_windows):
        # filter k is matched to stage k's band: argmax down each column is k
        params, _ = band_matched_params()
        m = FA.class_activation_matrix(params, band_windows)
        np.testing.assert_array_equal(m.argmax(axis=0), np.arange(5))

    def test_missing_stage_rejected(self, band_windows):
        params, _ = band_matched_params()
        no_w = [w for w in band_windows if w.label != SleepStage.W]
        with pytest.raises(ValueError, match="W"):
            FA.class_activation_matrix(params, no_w)


class TestNormalizeProfile:
    def test_rows_unit_norm(self):
        rng = np.random.default_rng(0)
        m, _, _ = FA.normalize_profile(rng.uniform(0.1, 5.0, (20, 5)))
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-12)

    def test_constant_matrix(self):
        m, _, _ = FA.normalize_profile(np.full((20, 5), 3.7))
        np.testing.assert_allclose(m, 1.0 / np.sqrt(5), atol=1e-12)

    def test_zero_column_flagged(self):
        raw = np.ones((4, 5))
        raw[:, 2] = 0
        m, zero_cols, zero_rows = FA.normalize_profile(raw)
        assert zero_cols == [2] and zero_rows == []
        assert not m[:, 2].any()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_per_stage_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.01, 10.0, (20, 5))
        scales = rng.uniform(0.1, 100.0, 5)
        a, _, _ = FA.normalize_profile(raw)
        b, _, _ = FA.normalize_profile(raw * scales[None, :])
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestOrderFilters:
    def test_already_grouped_is_identity(self):
        m = np.zeros((6, 5))
        for f, stage in enumerate([0, 0, 1, 2, 3, 4]):
            m[f, stage] = 1.0
        np.testing.assert_array_equal(FA.order_filters(m), np.arange(6))

    def test_reversed_grouping_reverses(self):
        m = np.zeros((5, 5))
        for f in range(5):
            m[f, 4 - f] = 1.0
        np.testing.assert_array_equal(FA.order_filters(m), [4, 3, 2, 1, 0])

    def test_argmax_tie_takes_lowest_stage(self):
        m = np.zeros((2, 5))
        m[0, :] = 1.0          # tie across all stages -> stage N1
        m[1, 0] = 2.0
        order = FA.order_filters(m)
        np.testing.assert_array_equal(order, [0, 1])

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_valid_permutation_with_sorted_argmax(self, seed, n):
        # integer values make argmax ties within a row and shared argmax
        # stages across rows common
        m = np.random.default_rng(seed).integers(0, 3, size=(n, 5)).astype(float)
        order = FA.order_filters(m)
        assert sorted(order) == list(range(n))
        argmax = m.argmax(axis=1)
        assert list(order) == sorted(range(n), key=lambda f: (argmax[f], f))


class TestExport:
    @pytest.fixture()
    def exported(self, tmp_path, band_windows):
        params, _ = band_matched_params()
        # pad the bank to 20 filters to exercise the full-size export
        cfg = M.ModelConfig(input_len=15000, c1_len=200, c2_filters=4,
                            f1=8, f2=8, batch_size=10, dtype="float64")
        params20 = M.init_params(cfg, np.random.default_rng(0))
        freqs = np.geomspace(1.0, 40.0, 20)
        params20.tensors["c1_kernels"] = M.make_morlet_bank(freqs, 4.0)
        params20.tensors["c1_bias"][:] = 0
        profile = FA.build_profile(params20, band_windows)
        spectra = FA.bank_spectra(params20.tensors["c1_kernels"])
        FA.export_profile(profile, spectra, tmp_path, fold_index=3)
        return tmp_path, profile, spectra

    def test_csv_row_counts(self, exported):
        out, _, _ = exported
        activation = (out / "activation.csv").read_text().strip().splitlines()
        spectra = (out / "spectra.csv").read_text().strip().splitlines()
        assert len(activation) == 1 + 20 * 5
        assert len(spectra) == 1 + 20 * 101

    def test_reimport_equals_export(self, exported):
        out, profile, _ = exported
        np.testing.assert_allclose(
            FA.read_activation_csv(out / "activation.csv"),
            profile.normalized, rtol=0, atol=0)

    def test_svg_has_100_stage_cells(self, exported):
        out, _, _ = exported
        svg = (out / "activation.svg").read_text()
        assert svg.count('class="stage-cell"') == 100

    def test_odd_kernel_length_labels_its_own_bins(self, tmp_path, band_windows):
        # a 201-tap kernel's bins are 100/201 Hz apart and stop short of 50 Hz
        cfg = M.ModelConfig(input_len=15000, c1_filters=2, c1_len=201, c2_filters=4,
                            f1=8, f2=8, batch_size=10, dtype="float64")
        params = M.init_params(cfg, np.random.default_rng(0))
        spectra = FA.bank_spectra(params.tensors["c1_kernels"])
        assert spectra.shape == (2, 101)
        FA.export_profile(FA.build_profile(params, band_windows), spectra, tmp_path)
        rows = [r.split(",") for r in (tmp_path / "spectra.csv").read_text().splitlines()[1:]]
        assert rows[20][:2] == ["0", f"{20 * 100 / 201:g}"]
        assert rows[100][:2] == ["0", f"{100 * 100 / 201:g}"]

    def test_spectra_of_another_kernel_length_rejected(self, tmp_path, exported):
        _, profile, spectra = exported
        with pytest.raises(ValueError, match="200-tap filter has 101"):
            FA.export_profile(profile, spectra[:, :100], tmp_path / "bad")
        assert not (tmp_path / "bad").exists()

    def test_json_bundle_schema(self, exported):
        out, profile, spectra = exported
        bundle = json.loads((out / "profile.json").read_text())
        assert bundle["fold"] == 3
        assert np.asarray(bundle["normalized"]).shape == (20, 5)
        assert np.asarray(bundle["spectra"]).shape == (20, 101)
        assert sorted(bundle["ordering"]) == list(range(20))
