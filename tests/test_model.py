"""Network assembly, gradients, SGD, Morlet bank and checkpoint format."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from somnoscore import model as M
from somnoscore import tensor_ops as T
from somnoscore import training as Tr
from somnoscore.dataset import build_windows
from somnoscore.edf_ingest import SleepStage
from somnoscore.synthetic import synthetic_recording


def reduced_params(seed=7, **overrides):
    cfg = M.reduced_config(**overrides)
    return M.init_params(cfg, np.random.default_rng(seed)), cfg


class TestConfig:
    def test_default_extents(self):
        cfg = M.ModelConfig()
        assert (cfg.c1_out, cfg.p1_out, cfg.c2_out, cfg.p2_out, cfg.flat_size) == (
            14801, 1479, 1450, 721, 288400)

    def test_trainable_count_from_extents(self):
        # re-derived: conv kernels + biases, dense weights + biases
        cfg = M.ModelConfig()
        expected = (cfg.c1_filters * cfg.c1_len + cfg.c1_filters
                    + cfg.c2_filters * cfg.c1_filters * cfg.c2_len + cfg.c2_filters
                    + cfg.f1 * cfg.flat_size + cfg.f1
                    + cfg.f2 * cfg.f1 + cfg.f2
                    + cfg.classes * cfg.f2 + cfg.classes)
        assert expected == 144_697_925
        shapes = cfg.tensor_shapes()
        assert sum(int(np.prod(s)) for s in shapes.values()) == expected

    def test_batch_size_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            M.ModelConfig(batch_size=33)

    def test_json_round_trip(self):
        cfg = M.reduced_config(learning_rate=0.5, first_layer_mode="fixed_morlet")
        assert M.ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg


class TestInit:
    def test_c1_variance_matches_fan_in_rule(self):
        params, cfg = reduced_params()
        # 2/fan_in target, checked on the full-size first layer (4000 draws)
        full = M.init_params(M.ModelConfig(), np.random.default_rng(0))
        var = full.tensors["c1_kernels"].var()
        assert abs(var - 2.0 / 200) < 0.2 * (2.0 / 200)

    def test_same_seed_bit_identical(self):
        a, _ = reduced_params(seed=5)
        b, _ = reduced_params(seed=5)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()

    def test_biases_exactly_zero(self):
        params, _ = reduced_params()
        for name in ("c1_bias", "c2_bias", "f1_b", "f2_b", "out_b"):
            assert not params.tensors[name].any()

    def test_velocity_starts_zero(self):
        params, _ = reduced_params()
        assert all(not v.any() for v in params.velocity.values())


class TestForward:
    def test_full_architecture_shape_trace(self):
        cfg = M.ModelConfig()  # float32 keeps the 145M-parameter net affordable
        params = M.init_params(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 15000))
        probs, cache = M.forward(params, x[0])
        assert cache.shape_trace() == [
            (20, 14801), (20, 1479), (1, 20, 1479),
            (400, 1450), (400, 721), 288400, 500, 500, 5]
        assert probs.shape == (5,) and abs(probs.sum() - 1.0) < 1e-9
        batch_probs, cache = M.forward(params, x)
        assert cache.shape_trace() == [
            (2, 20, 14801), (2, 20, 1479), (2, 1, 20, 1479),
            (2, 400, 1450), (2, 400, 721), 288400, 500, 500, 5]
        assert batch_probs.shape == (2, 5)
        np.testing.assert_allclose(batch_probs.sum(axis=1), 1.0, atol=1e-9)

    def test_probabilities_sum_to_one(self):
        params, _ = reduced_params()
        x = np.random.default_rng(2).standard_normal(300)
        probs, _ = M.forward(params, x)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs >= 0).all()

    def test_zero_input_zero_params_uniform(self):
        params, cfg = reduced_params()
        for name in params.tensors:
            params.tensors[name][:] = 0
        probs, _ = M.forward(params, np.zeros(cfg.input_len))
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)

    def test_wrong_input_length(self):
        params, cfg = reduced_params()
        for bad in (np.zeros(301), np.zeros((1, 1, cfg.input_len))):
            with pytest.raises(ValueError, match="length"):
                M.forward(params, bad)

    def test_batch_rows_equal_single_windows(self):
        params, cfg = reduced_params()
        x = np.random.default_rng(5).standard_normal((4, cfg.input_len))
        batch_probs, _ = M.forward(params, x)
        for row, probs in zip(x, batch_probs):
            np.testing.assert_allclose(probs, M.forward(params, row)[0], rtol=1e-12)


def tie_signature(cache):
    """Kink pattern of a forward pass: ReLU signs and pool argmax choices.

    Finite-difference checks compare signatures of the +/- evaluations to
    mask coordinates whose perturbation crosses a nondifferentiable point.
    """
    return ((cache.a1 > 0).tobytes(), cache.p1_idx.tobytes(),
            (cache.a2 > 0).tobytes(), cache.p2_idx.tobytes(),
            (cache.z1 > 0).tobytes(), (cache.z2 > 0).tobytes())


def loss_and_signature(params, x, label):
    """Mean cross-entropy of one window (x 1-D, one label) or a batch, plus L2."""
    probs, cache = M.forward(params, x)
    labels = np.atleast_1d(label)
    loss = float(np.mean(-np.log(np.atleast_2d(probs)[np.arange(len(labels)), labels])))
    lam = params.config.l2_lambda
    if lam:
        loss += 0.5 * lam * sum(
            float(np.vdot(params.tensors[n], params.tensors[n]))
            for n in params.l2_weight_names())
    return loss, tie_signature(cache)


def finite_diff_model_grads(params, x, label, eps=1e-5):
    """Per-tensor max relative error vs central differences.

    `x` is one window with one label, or a batch with a list of labels.
    Coordinates whose +/- evaluations differ in ReLU/pool tie signature are
    masked; the fraction masked is returned for sanity checks.
    """
    probs, cache = M.forward(params, x)
    grads = M.backward(params, cache, label)
    names = params.l2_weight_names()
    _, decay = T.l2_penalty([params.tensors[n] for n in names], params.config.l2_lambda)
    for name, g in zip(names, decay):
        grads[name] = grads[name] + g
    worst, total, masked = 0.0, 0, 0
    for name, g in grads.items():
        w = params.tensors[name]
        flat_w, flat_g = w.ravel(), g.ravel()
        for i in range(flat_w.size):
            orig = flat_w[i]
            flat_w[i] = orig + eps
            f_plus, sig_plus = loss_and_signature(params, x, label)
            flat_w[i] = orig - eps
            f_minus, sig_minus = loss_and_signature(params, x, label)
            flat_w[i] = orig
            total += 1
            if sig_plus != sig_minus:
                masked += 1
                continue
            numeric = (f_plus - f_minus) / (2 * eps)
            err = abs(flat_g[i] - numeric) / max(abs(flat_g[i]), abs(numeric), eps)
            worst = max(worst, err)
    return worst, masked / total


class TestBackward:
    def test_end_to_end_gradient_reduced_architecture(self):
        params, cfg = reduced_params(seed=7, l2_lambda=1e-3)
        x = np.random.default_rng(7).standard_normal(cfg.input_len)
        worst, masked_frac = finite_diff_model_grads(params, x, label=2)
        assert worst < 1e-4
        assert masked_frac < 0.01

    def test_end_to_end_gradient_of_a_batch(self):
        params, cfg = reduced_params(seed=7, l2_lambda=1e-3)
        x = np.random.default_rng(8).standard_normal((3, cfg.input_len))
        worst, masked_frac = finite_diff_model_grads(params, x, label=[2, 0, 4])
        assert worst < 1e-4
        assert masked_frac < 0.01

    @pytest.mark.parametrize("overrides", [
        dict(l2_scope="all"), dict(l2_scope="softmax_only"),
        dict(first_layer_mode="fixed_morlet", morlet_min_hz=2.0, morlet_max_hz=20.0),
    ], ids=["l2-all", "l2-softmax-only", "fixed-morlet"])
    @pytest.mark.filterwarnings("ignore:Morlet filter")
    def test_batch_gradient_is_mean_of_single_window_gradients(self, overrides):
        # float64 at reduced_config, to 1e-10 of each tensor's largest entry;
        # the SGD step then adds the configured decay once.
        params, cfg = reduced_params(seed=9, l2_lambda=1e-2, **overrides)
        batch = build_windows(synthetic_recording("s", 1, list(SleepStage) * 2,
                                                  samples_per_epoch=60, seed=4))
        x = np.stack([w.signal() for w in batch])
        labels = [w.label for w in batch]
        assert len(set(labels)) == 5
        _, cache = M.forward(params, x)
        batched = M.backward(params, cache, labels)
        singles = [M.backward(params, M.forward(params, row)[1], label)
                   for row, label in zip(x, labels)]
        assert set(batched) == set(singles[0])
        for name, g in batched.items():
            mean = sum(s[name] for s in singles) / len(singles)
            np.testing.assert_allclose(g, mean, rtol=1e-10, atol=1e-10 * np.abs(mean).max())

        stepped = params.copy()
        Tr.batch_update(stepped, batch, replace(cfg, batch_size=10, learning_rate=1.0,
                                                momentum=0.0))
        for name in params.tensors:
            want = -batched.get(name, 0.0)
            if name in params.l2_weight_names():
                want = want - cfg.l2_lambda * params.tensors[name]
            np.testing.assert_allclose(stepped.tensors[name] - params.tensors[name], want,
                                       rtol=1e-10, atol=1e-12)

    def test_softmax_only_l2_scope(self):
        # One plain-descent step with and without decay: only out_w differs,
        # by lr * lambda * w.
        params, cfg = reduced_params(l2_lambda=0.5, l2_scope="softmax_only")
        assert params.l2_weight_names() == ("out_w",)
        cfg = replace(cfg, batch_size=5, learning_rate=1.0, momentum=0.0)
        batch = build_windows(synthetic_recording("s", 1, list(SleepStage),
                                                  samples_per_epoch=60, seed=6))
        with_l2, without = params.copy(), params.copy()
        Tr.batch_update(with_l2, batch, cfg)
        Tr.batch_update(without, batch, replace(cfg, l2_lambda=0.0))
        np.testing.assert_allclose(
            without.tensors["out_w"] - with_l2.tensors["out_w"],
            0.5 * params.tensors["out_w"], rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(with_l2.tensors["f1_w"], without.tensors["f1_w"])

    def test_duplicated_window_means_to_same_gradient(self):
        params, cfg = reduced_params(l2_lambda=0.0)
        x = np.random.default_rng(3).standard_normal(cfg.input_len)
        _, cache = M.forward(params, x)
        single = M.backward(params, cache, 1)
        # mean over a batch of the same example equals the single-example gradient
        doubled = {k: (v + v) / 2 for k, v in M.backward(params, cache, 1).items()}
        for name in single:
            np.testing.assert_allclose(single[name], doubled[name], rtol=0, atol=0)

    @pytest.mark.filterwarnings("ignore:Morlet filter")
    def test_fixed_morlet_freezes_first_layer_gradient(self):
        params, cfg = reduced_params(first_layer_mode="fixed_morlet",
                                     morlet_min_hz=2.0, morlet_max_hz=20.0)
        x = np.random.default_rng(4).standard_normal(cfg.input_len)
        _, cache = M.forward(params, x)
        grads = M.backward(params, cache, 0)
        assert "c1_kernels" not in grads and "c1_bias" not in grads


class TestSgdStep:
    def test_momentum_zero_is_plain_descent(self):
        params, _ = reduced_params()
        w0 = params.tensors["out_b"].copy()
        g = np.ones_like(w0)
        M.sgd_step(params, {"out_b": g}, learning_rate=0.1, momentum=0.0)
        np.testing.assert_allclose(params.tensors["out_b"], w0 - 0.1)

    def test_zero_gradient_fresh_params_unchanged(self):
        params, _ = reduced_params()
        before = {k: v.copy() for k, v in params.tensors.items()}
        M.sgd_step(params, {k: np.zeros_like(v) for k, v in params.tensors.items()},
                   0.1, 0.9)
        for name in before:
            np.testing.assert_array_equal(params.tensors[name], before[name])

    def test_zero_gradient_velocity_decays(self):
        params, _ = reduced_params()
        params.velocity["f2_b"][:] = 1.0
        M.sgd_step(params, {"f2_b": np.zeros_like(params.velocity["f2_b"])}, 0.1, 0.9)
        np.testing.assert_allclose(params.velocity["f2_b"], 0.9)

    def test_absent_tensor_left_untouched(self):
        params, _ = reduced_params()
        params.velocity["f2_b"][:] = 1.0
        before = params.tensors["f2_b"].copy()
        M.sgd_step(params, {"out_b": np.ones_like(params.tensors["out_b"])}, 0.1, 0.9)
        np.testing.assert_array_equal(params.tensors["f2_b"], before)
        np.testing.assert_array_equal(params.velocity["f2_b"], 1.0)

    def test_two_steps_on_quadratic_match_hand_values(self):
        # f(w) = w^2/2, lr 0.1, momentum 0.9, w0 = 1:
        #   v1 = -0.1,  w1 = 0.9
        #   v2 = 0.9*(-0.1) - 0.1*0.9 = -0.18, w2 = 0.72
        params, _ = reduced_params()
        w = params.tensors["out_b"]
        v = params.velocity["out_b"]
        w[:] = 1.0
        v[:] = 0.0
        M.sgd_step(params, {"out_b": w.copy()}, 0.1, 0.9)
        np.testing.assert_allclose(w, 0.9, atol=1e-15)
        M.sgd_step(params, {"out_b": w.copy()}, 0.1, 0.9)
        np.testing.assert_allclose(w, 0.72, atol=1e-15)
        np.testing.assert_allclose(v, -0.18, atol=1e-15)

    def test_non_finite_gradient_aborts(self):
        params, _ = reduced_params()
        bad = {"out_b": np.full_like(params.tensors["out_b"], np.nan)}
        with pytest.raises(FloatingPointError, match="out_b"):
            M.sgd_step(params, bad, 0.1, 0.9)

    def test_pure_decay_shrinks_weights(self):
        # zero data gradient, lambda > 0: every weight magnitude strictly drops
        params, cfg = reduced_params(l2_lambda=0.01)
        params.velocity = {k: np.zeros_like(v) for k, v in params.velocity.items()}
        grads = {name: cfg.l2_lambda * params.tensors[name]
                 for name in params.l2_weight_names()}
        before = {n: np.abs(params.tensors[n].copy()) for n in grads}
        M.sgd_step(params, grads, 0.1, 0.0)
        for name in grads:
            after = np.abs(params.tensors[name])
            nonzero = before[name] > 0
            assert (after[nonzero] < before[name][nonzero]).all()

    @pytest.mark.filterwarnings("ignore:Morlet filter")
    def test_fixed_morlet_kernels_never_move(self):
        params, cfg = reduced_params(first_layer_mode="fixed_morlet",
                                     morlet_min_hz=2.0, morlet_max_hz=20.0)
        frozen = params.tensors["c1_kernels"].copy()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(cfg.input_len)
            _, cache = M.forward(params, x)
            grads = M.backward(params, cache, int(rng.integers(5)))
            M.sgd_step(params, grads, 0.05, 0.9)
        np.testing.assert_array_equal(params.tensors["c1_kernels"], frozen)
        assert not params.velocity["c1_kernels"].any()


class TestPredict:
    def test_argmax(self):
        assert M.predict_from_probs(np.array([.1, .2, .3, .25, .15])) is SleepStage.N3

    def test_tie_breaks_to_lowest_stage(self):
        assert M.predict_from_probs(np.full(5, 0.2)) is SleepStage.N1

    def test_consistent_with_forward(self):
        params, cfg = reduced_params()
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal(cfg.input_len)
            probs, _ = M.forward(params, x)
            assert M.predict(params, x) == SleepStage(int(np.argmax(probs)))


class TestMorletBank:
    def test_peak_at_center_frequency(self):
        bank = M.make_morlet_bank(np.array([10.0]), 6.0)
        power = np.abs(np.fft.rfft(bank[0])) ** 2
        assert np.argmax(power) == 20  # 10 Hz at 0.5 Hz bins

    def test_unit_energy(self):
        bank = M.make_morlet_bank(np.array([2.0, 5.0, 10.0, 25.0]), 4.0)
        np.testing.assert_allclose((bank ** 2).sum(axis=1), 1.0, atol=1e-9)

    def test_even_symmetry(self):
        bank = M.make_morlet_bank(np.array([7.0]), 5.0)
        np.testing.assert_allclose(bank[0], bank[0][::-1], atol=1e-12)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            M.make_morlet_bank(np.array([0.0]), 6.0)

    def test_truncation_warning_for_wide_envelope(self):
        with pytest.warns(RuntimeWarning, match="truncated"):
            M.make_morlet_bank(np.array([0.5]), 6.0)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params, cfg = reduced_params(seed=13)
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        loaded = M.load_checkpoint(path, expect_config=cfg)
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()
            assert loaded.tensors[name].dtype == params.tensors[name].dtype
        assert loaded.config == cfg

    def test_round_trip_float32(self, tmp_path):
        params, _ = reduced_params(dtype="float32")
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        loaded = M.load_checkpoint(path)
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(M.CheckpointError, match="checksum"):
            M.load_checkpoint(path)

    def test_truncation_fails(self, tmp_path):
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(M.CheckpointError):
            M.load_checkpoint(path)

    def test_architecture_mismatch_rejected(self, tmp_path):
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        with pytest.raises(M.CheckpointError, match="architecture"):
            M.load_checkpoint(path, expect_config=M.reduced_config(f1=32))

    def test_version_mismatch_rejected(self, tmp_path):
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        body = bytes(data[:-8])
        path.write_bytes(body + struct.pack("<Q", M.crc64(body)))
        with pytest.raises(M.CheckpointError, match="version"):
            M.load_checkpoint(path)

    def test_version_checked_before_checksum(self, tmp_path):
        # A file of another format version fails by version, whatever its trailer.
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(M.CheckpointError, match="format version 2 != 1"):
            M.load_checkpoint(path)

    def test_checksum_trailer_and_no_temporary_file(self, tmp_path):
        assert M.crc64(b"123456789") == 0x6C40DF5F0B497347  # CRC-64/ECMA-182 check value
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = path.read_bytes()
        assert data[-8:] == struct.pack("<Q", M.crc64(data[:-8]))
        assert [p.name for p in tmp_path.iterdir()] == ["m.somn"]

    @pytest.mark.filterwarnings("ignore:Morlet filter")
    def test_frozen_flag_survives(self, tmp_path):
        params, _ = reduced_params(first_layer_mode="fixed_morlet",
                                   morlet_min_hz=2.0, morlet_max_hz=20.0)
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        assert M.load_checkpoint(path).frozen == frozenset({"c1_kernels", "c1_bias"})
