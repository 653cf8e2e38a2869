"""Network assembly, gradients, SGD, Morlet bank and checkpoint format."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from somnoscore import model as M
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
        # none is built at init; sgd_step creates each as zeros on first update
        params, cfg = reduced_params()
        assert params.velocity == {}
        M.sgd_step(params, {"out_b": np.zeros_like(params.tensors["out_b"])}, cfg)
        assert list(params.velocity) == ["out_b"] and not params.velocity["out_b"].any()


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
    for name in params.l2_weight_names():
        grads[name] = grads[name] + params.config.l2_lambda * params.tensors[name]
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


def step_config(lr, mu, lam=0.0, **overrides):
    return M.reduced_config(learning_rate=lr, momentum=mu, l2_lambda=lam, **overrides)


class TestSgdStep:
    def test_momentum_zero_is_plain_descent(self):
        params, _ = reduced_params()
        w0 = params.tensors["out_b"].copy()
        g = np.ones_like(w0)
        M.sgd_step(params, {"out_b": g}, step_config(lr=0.1, mu=0.0))
        np.testing.assert_allclose(params.tensors["out_b"], w0 - 0.1)

    def test_zero_gradient_fresh_params_unchanged(self):
        params, _ = reduced_params()
        before = {k: v.copy() for k, v in params.tensors.items()}
        M.sgd_step(params, {k: np.zeros_like(v) for k, v in params.tensors.items()},
                   step_config(0.1, 0.9))
        for name in before:
            np.testing.assert_array_equal(params.tensors[name], before[name])

    def test_zero_gradient_velocity_decays(self):
        params, _ = reduced_params()
        params.velocity["f2_b"] = np.ones_like(params.tensors["f2_b"])
        M.sgd_step(params, {"f2_b": np.zeros_like(params.tensors["f2_b"])},
                   step_config(0.1, 0.9))
        np.testing.assert_allclose(params.velocity["f2_b"], 0.9)

    def test_absent_tensor_left_untouched(self):
        params, _ = reduced_params()
        params.velocity["f2_b"] = np.ones_like(params.tensors["f2_b"])
        before = params.tensors["f2_b"].copy()
        M.sgd_step(params, {"out_b": np.ones_like(params.tensors["out_b"])},
                   step_config(0.1, 0.9))
        np.testing.assert_array_equal(params.tensors["f2_b"], before)
        np.testing.assert_array_equal(params.velocity["f2_b"], 1.0)
        assert set(params.velocity) == {"f2_b", "out_b"}

    def test_two_steps_on_quadratic_match_hand_values(self):
        # f(w) = w^2/2, lr 0.1, momentum 0.9, w0 = 1, v0 = 0:
        #   v1 = -0.1,  w1 = 0.9
        #   v2 = 0.9*(-0.1) - 0.1*0.9 = -0.18, w2 = 0.72
        params, _ = reduced_params()
        w = params.tensors["out_b"]
        w[:] = 1.0
        M.sgd_step(params, {"out_b": w.copy()}, step_config(0.1, 0.9))
        np.testing.assert_allclose(w, 0.9, atol=1e-15)
        M.sgd_step(params, {"out_b": w.copy()}, step_config(0.1, 0.9))
        np.testing.assert_allclose(w, 0.72, atol=1e-15)
        np.testing.assert_allclose(params.velocity["out_b"], -0.18, atol=1e-15)

    def test_non_finite_gradient_aborts(self):
        params, _ = reduced_params()
        bad = {"out_b": np.full_like(params.tensors["out_b"], np.nan)}
        with pytest.raises(FloatingPointError, match="out_b"):
            M.sgd_step(params, bad, step_config(0.1, 0.9))

    def test_pure_decay_shrinks_weights(self):
        # zero data gradient, lambda > 0: every weight magnitude strictly drops,
        # by the factor 1 - lr*lambda at momentum 0; biases do not move
        params, _ = reduced_params(l2_lambda=0.01)
        biases = ("c1_bias", "c2_bias", "f1_b", "f2_b", "out_b")
        for name in biases:
            params.tensors[name][:] = 1.0
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        before = {n: params.tensors[n].copy() for n in grads}
        M.sgd_step(params, grads, step_config(0.1, 0.0, lam=0.01))
        for name in params.l2_weight_names():
            after, was = np.abs(params.tensors[name]), np.abs(before[name])
            nonzero = was > 0
            assert (after[nonzero] < was[nonzero]).all()
            np.testing.assert_allclose(after, was * (1 - 0.1 * 0.01), rtol=1e-14)
        for name in biases:
            np.testing.assert_array_equal(params.tensors[name], 1.0)

    @pytest.mark.parametrize("scope", ["all", "softmax_only"])
    def test_one_step_equals_decayed_momentum_rule(self, scope):
        # float64: v = mu*v - lr*(g + lam*w); w += v, to 1e-12 relative
        params, _ = reduced_params(l2_scope=scope)
        cfg = step_config(0.05, 0.9, lam=0.02, l2_scope=scope)
        rng = np.random.default_rng(11)
        params.velocity = {k: rng.standard_normal(v.shape) for k, v in params.tensors.items()}
        grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors.items()}
        want_v, want_w = {}, {}
        for name, w in params.tensors.items():
            lam = cfg.l2_lambda if name in params.l2_weight_names() else 0.0
            want_v[name] = 0.9 * params.velocity[name] - 0.05 * (grads[name] + lam * w)
            want_w[name] = w + want_v[name]
        M.sgd_step(params, grads, cfg)
        for name in params.tensors:
            np.testing.assert_allclose(params.velocity[name], want_v[name], rtol=1e-12)
            np.testing.assert_allclose(params.tensors[name], want_w[name], rtol=1e-12)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_zero_lambda_step_bit_identical_to_separate_arithmetic(self, dtype):
        params, _ = reduced_params(dtype=dtype)
        cfg = step_config(0.003, 0.9, dtype=dtype)
        rng = np.random.default_rng(12)
        draw = lambda shape: rng.standard_normal(shape).astype(dtype)  # noqa: E731
        params.velocity = {k: draw(v.shape) for k, v in params.tensors.items()}
        grads = {k: draw(v.shape) for k, v in params.tensors.items()}
        want_v = {k: params.velocity[k] * 0.9 - 0.003 * grads[k] for k in grads}
        want_w = {k: params.tensors[k] + want_v[k] for k in grads}
        M.sgd_step(params, grads, cfg)
        for name in want_w:
            np.testing.assert_array_equal(params.velocity[name], want_v[name])
            np.testing.assert_array_equal(params.tensors[name], want_w[name])

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
            M.sgd_step(params, grads, replace(cfg, learning_rate=0.05, momentum=0.9))
        np.testing.assert_array_equal(params.tensors["c1_kernels"], frozen)
        assert "c1_kernels" not in params.velocity and "c1_bias" not in params.velocity


B = M._UPDATE_BLOCK


def whole_tensor_step(params, gradients, config):
    """The update as whole-tensor ops: the reference for the blocked sgd_step."""
    lr, lam = config.learning_rate, config.l2_lambda
    for name, g in gradients.items():
        if name in params.frozen:
            continue
        w = params.tensors[name]
        v = params.velocity.setdefault(name, np.zeros(w.shape, w.dtype))
        v *= config.momentum
        v -= np.multiply(g, lr, out=g)
        if lam and name in params.l2_weight_names():
            v -= np.multiply(w, lr * lam, out=g)
        w += v


class TestBlockedSgdStep:
    @pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("lam, scope", [(0.0, "all"), (0.02, "all"), (0.02, "softmax_only")])
    def test_block_boundaries_bit_identical_to_whole_tensor_rule(self, size, dtype, lam, scope):
        # f1_w is decayed under "all" only, out_w under both scopes, f1_b never;
        # c1_kernels is frozen and f2_w has no gradient
        cfg = step_config(0.05, 0.9, lam=lam, l2_scope=scope, dtype=dtype)
        rng = np.random.default_rng(size)
        draw = lambda: rng.standard_normal((1, size)).astype(dtype)  # noqa: E731
        tensors = {n: draw() for n in ("f1_w", "out_w", "f1_b", "c1_kernels", "f2_w")}
        velocity = {n: draw() for n in ("f1_w", "f2_w")}
        grads = {n: draw() for n in ("f1_w", "out_w", "f1_b", "c1_kernels")}

        def run(step):
            params = M.ModelParameters(
                cfg, {k: v.copy() for k, v in tensors.items()},
                {k: v.copy() for k, v in velocity.items()}, frozenset({"c1_kernels"}))
            step(params, {k: g.copy() for k, g in grads.items()}, cfg)
            return params

        got, want = run(M.sgd_step), run(whole_tensor_step)
        assert set(got.velocity) == set(want.velocity) == {"f1_w", "out_w", "f1_b", "f2_w"}
        for name in tensors:
            assert np.array_equal(got.tensors[name], want.tensors[name])
        for name in got.velocity:
            assert np.array_equal(got.velocity[name], want.velocity[name])
        for name in ("c1_kernels", "f2_w"):
            assert np.array_equal(got.tensors[name], tensors[name])
        assert np.array_equal(got.velocity["f2_w"], velocity["f2_w"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_block_raises_naming_the_tensor(self, bad):
        # the earlier blocks are already updated when the last one raises
        params = M.ModelParameters(step_config(0.1, 0.9), {"f1_w": np.zeros(2 * B + 3)})
        g = np.ones(2 * B + 3)
        g[-2] = bad
        with pytest.raises(FloatingPointError, match="f1_w"):
            M.sgd_step(params, {"f1_w": g}, step_config(0.1, 0.9))
        w = params.tensors["f1_w"]
        assert (w[:2 * B] == -0.1).all() and not w[2 * B:].any()

    def test_update_allocates_no_tensor_sized_temporary(self):
        # a whole-tensor finite check alone would allocate an eighth of the tensor
        rng = np.random.default_rng(5)
        n = 1_000_003
        params = M.ModelParameters(step_config(0.05, 0.9, lam=0.01),
                                   {"f1_w": rng.standard_normal(n)},
                                   {"f1_w": rng.standard_normal(n)})
        g = rng.standard_normal(n)
        tracemalloc.start()
        try:
            M.sgd_step(params, {"f1_w": g}, params.config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes / 16


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
        loaded = M.load_checkpoint(path)
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()
            assert loaded.tensors[name].dtype == params.tensors[name].dtype
        assert loaded.config == cfg

    def test_load_builds_no_velocity(self, tmp_path):
        # checkpoints keep no velocity; a trained model's is not carried over
        params, cfg = reduced_params(seed=13)
        M.sgd_step(params, {k: np.ones_like(v) for k, v in params.tensors.items()},
                   replace(cfg, learning_rate=0.01))
        assert params.velocity
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        assert M.load_checkpoint(path).velocity == {}

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

    def test_tensor_shape_against_own_config_rejected(self, tmp_path):
        wide, _ = reduced_params(f1=32)
        path = tmp_path / "m.somn"
        M.save_checkpoint(M.ModelParameters(M.reduced_config(f1=16), wide.tensors), path)
        with pytest.raises(M.CheckpointError,
                           match=r"tensor 'f1_w' shape \(32, 528\) != \(16, 528\)"):
            M.load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        params, _ = reduced_params()
        del params.tensors["out_b"]
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        with pytest.raises(M.CheckpointError, match="tensor 'out_b' missing"):
            M.load_checkpoint(path)

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
