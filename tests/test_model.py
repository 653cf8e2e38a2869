"""Network assembly, gradients, SGD, Morlet bank and checkpoint format."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somnoscore import model as M
from somnoscore import tensor_ops as T
from somnoscore import training as Tr
from somnoscore.dataset import build_windows
from somnoscore.edf_ingest import N_STAGES, SCORING_RATE_HZ, SleepStage
from somnoscore.synthetic import synthetic_recording


def reduced_params(seed=7, **overrides):
    cfg = M.reduced_config(**overrides)
    return M.init_params(cfg, np.random.default_rng(seed)), cfg


def make_morlet_bank(center_freqs, cycles_per_filter: float, length: int = 200) -> np.ndarray:
    """Real Morlet (cosine-Gaussian) filters, one row per center frequency:
    a first layer tuned to chosen bands for the filter-analysis tests.

    Each filter is cos(2*pi*f*t) * exp(-t^2 / (2*sigma^2)) with
    sigma = cycles / (2*pi*f), sampled symmetrically about t = 0 and scaled to
    unit energy.
    """
    freqs = np.asarray(center_freqs, dtype=np.float64)
    t = (np.arange(length) - (length - 1) / 2.0) / SCORING_RATE_HZ
    bank = np.empty((len(freqs), length))
    for i, f in enumerate(freqs):
        sigma = cycles_per_filter / (2.0 * np.pi * f)
        k = np.cos(2.0 * np.pi * f * t) * np.exp(-(t ** 2) / (2.0 * sigma ** 2))
        bank[i] = k / np.linalg.norm(k)
    return bank


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
                    + N_STAGES * cfg.f2 + N_STAGES)
        assert expected == 144_697_925
        shapes = cfg.tensor_shapes()
        assert sum(int(np.prod(s)) for s in shapes.values()) == expected

    def test_batch_size_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            M.ModelConfig(batch_size=33)

    def test_json_round_trip(self):
        cfg = M.reduced_config(learning_rate=0.5)
        assert M.ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg

    @pytest.mark.parametrize("name", ["seed", "classes", "dropout"])
    def test_unknown_field_refused_by_name(self, name):
        with pytest.raises(ValueError, match=f"unknown model config field.*'{name}'"):
            M.ModelConfig.from_json_dict(M.reduced_config().to_json_dict() | {name: 3})

    @pytest.mark.parametrize("name, value", [
        ("l2_scope", "all"), ("morlet_min_hz", 0.5), ("morlet_max_hz", 25.0),
        ("morlet_cycles", 6.0), ("first_layer_mode", "trainable"),
    ])
    def test_removed_field_refused_by_name(self, name, value):
        # a format-3 or format-4 config carried these; every tensor trains now
        with pytest.raises(ValueError, match=f"unknown model config field.*'{name}'"):
            M.ModelConfig.from_json_dict(M.reduced_config().to_json_dict() | {name: value})

    def test_non_object_refused(self):
        with pytest.raises(ValueError, match="JSON object, not list"):
            M.ModelConfig.from_json_dict([])

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 10), ("learning_rate", 1), ("learning_rate", 0.5),
        ("p1", [4, 2]), ("dtype", "float64"),
    ])
    def test_json_value_of_its_field_type_accepted(self, name, value):
        # a float field takes a JSON integer; a tuple field takes an array
        cfg = M.ModelConfig.from_json_dict(M.reduced_config().to_json_dict() | {name: value})
        assert getattr(cfg, name) == (tuple(value) if isinstance(value, list) else value)

    @pytest.mark.parametrize("name, value, message", [
        ("batch_size", 10.0, "'batch_size' must be int, not float"),
        ("batch_size", True, "'batch_size' must be int, not bool"),
        ("patience", "3", "'patience' must be int, not str"),
        ("learning_rate", False, "'learning_rate' must be float, not bool"),
        ("learning_rate", "0.1", "'learning_rate' must be float, not str"),
        ("momentum", None, "'momentum' must be float, not NoneType"),
        ("p1", [4], r"'p1' must be tuple\[int, int\], not list"),
        ("p1", [4, 2.5], r"'p1' must be tuple\[int, int\], not list"),
        ("p1", 4, r"'p1' must be tuple\[int, int\], not int"),
        ("dtype", 4, "'dtype' must be str, not int"),
    ])
    def test_json_value_of_wrong_type_refused_by_name(self, name, value, message):
        with pytest.raises(ValueError, match=f"model config field.*of the wrong type.*{message}"):
            M.ModelConfig.from_json_dict(M.reduced_config().to_json_dict() | {name: value})

    def test_every_wrong_typed_value_named_at_once(self):
        with pytest.raises(ValueError) as info:
            M.ModelConfig.from_json_dict({"batch_size": 10.0, "eval_every": "5"})
        assert "'batch_size' must be int, not float" in str(info.value)
        assert "'eval_every' must be int, not str" in str(info.value)

    @pytest.mark.parametrize("name", ["batch_size", "max_iterations", "eval_every"])
    def test_schedule_field_must_be_positive(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            M.reduced_config(**{name: 0})

    @pytest.mark.parametrize("name, value", [
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", float("nan")),
        ("l2_lambda", -1e-4), ("l2_lambda", float("nan"))])
    def test_optimizer_value_that_cannot_be_meant_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            M.reduced_config(**{name: value})

    @pytest.mark.parametrize("overrides", [
        {"c2_len": 200}, {"c1_len": 290}, {"p2": (400, 2)}])
    def test_layers_that_do_not_fit_the_window_refused(self, overrides):
        # each would give pool2 no outputs and a negative flat_size
        with pytest.raises(ValueError, match="layers do not fit a 300-sample window"):
            M.reduced_config(**overrides)

    def test_patience_zero_allowed(self):
        assert M.reduced_config(patience=0).patience == 0


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

    # SHA-256 of each seeded init's tensors (name, dtype, shape, bytes), at
    # seeds 0, 1 and 2
    GOLDEN_INIT_DIGESTS = {
        "reduced_float64": ({}, (
            "8a1b22de6ab2cd962d65dc9b9a5747def11441f952312f96fdb4d79139d46195",
            "99746f1442631e709d88dbcea5b5ae3da5111e48b6bbd43694529890bb07e023",
            "9afd67eeca24468c53b9ae590ad4e25df3aa3e8864d34ff92f0769635ffa05c3",
        )),
        "reduced_float32": ({"dtype": "float32"}, (
            "ee3f6ff9bc9172cbc86e28dd6b98d9430df48f6e1d74f6e488a1f606d1614fd7",
            "a2d67fe4cc06e1fcf0f16fc9cdfa09507b723cd8f662aee120c17c2f6507ee10",
            "fc21fd75e588510ee14ce75175685ce41c357e23a472b7f118f926ebc744a602",
        )),
        "full_length_float32": ({"input_len": 15000, "dtype": "float32"}, (
            "f089afbf541d2d14077e550603b593e62ff9e8279c971d6d9a842572acf2a035",
            "84cc9166e52286f4e9435a1b6919ff738e05ba76042bb6142d0de9ca1b9195fd",
            "826420c28d667fa0d6d7d73a4ac5b5924f25ae7d7e65270a499c492183a7ada0",
        )),
    }

    @pytest.mark.parametrize("case", GOLDEN_INIT_DIGESTS)
    def test_seeded_init_matches_golden_digest(self, case):
        overrides, digests = self.GOLDEN_INIT_DIGESTS[case]
        for seed, want in enumerate(digests):
            params = M.init_params(M.reduced_config(**overrides), np.random.default_rng(seed))
            h = hashlib.sha256()
            for name, t in params.tensors.items():
                h.update(f"{name}{t.dtype}{t.shape}".encode())
                h.update(t.tobytes())
            assert h.hexdigest() == want, (case, seed)

    def test_init_allocates_nothing_beyond_its_tensors(self):
        # each draw is scaled in place: scaling a copy would hold f1_w twice
        cfg = M.ModelConfig(c1_filters=4, c2_filters=8, f1=16, f2=16)
        tracemalloc.start()
        try:
            params = M.init_params(cfg, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = sum(t.nbytes for t in params.tensors.values())
        assert peak < total + params.tensors["f1_w"].nbytes / 4

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


def layer_shapes(probs: np.ndarray, cache: M.ForwardCache, cfg: M.ModelConfig) -> list:
    """Each layer's output shape, from the forward pass's probabilities and
    cache and the config's conv lengths; the flat and dense extents are per
    window."""
    p1, p2 = cache.p1_off.shape, cache.p2_off.shape
    return [(*p1[:-1], cfg.c1_out), p1, cache.s1.shape, (*p2[:-1], cfg.c2_out), p2,
            cache.flat.shape[-1], cache.h1.shape[-1], cache.h2.shape[-1],
            probs.shape[-1]]


class TestForward:
    def test_full_architecture_shape_trace(self):
        cfg = M.ModelConfig()  # float32 keeps the 145M-parameter net affordable
        params = M.init_params(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 15000))
        probs, cache = M.forward(params, x[0])
        assert layer_shapes(probs, cache, cfg) == [
            (20, 14801), (20, 1479), (1, 20, 1479),
            (400, 1450), (400, 721), 288400, 500, 500, 5]
        assert probs.shape == (5,) and abs(probs.sum() - 1.0) < 1e-9
        batch_probs, cache = M.forward(params, x)
        assert layer_shapes(batch_probs, cache, cfg) == [
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

    def test_cache_holds_no_conv_output_length_array(self):
        # each ReLU runs on its pool's output, so no conv output is kept
        params, cfg = reduced_params()
        x = np.random.default_rng(6).standard_normal((3, cfg.input_len))
        for window in (x, x[0]):
            _, cache = M.forward(params, window)
            lengths = {a.shape[-1] for a in vars(cache).values() if isinstance(a, np.ndarray)}
            assert not lengths & {cfg.c1_out, cfg.c2_out}, lengths

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
    return ((cache.s1 > 0).tobytes(), cache.p1_off.tobytes(),
            (cache.flat > 0).tobytes(), cache.p2_off.tobytes(),
            (cache.h1 > 0).tobytes(), (cache.h2 > 0).tobytes())


def loss_and_signature(params, x, label):
    """Mean cross-entropy of one window (x 1-D, one label) or a batch, plus L2."""
    probs, cache = M.forward(params, x)
    labels = np.atleast_1d(label)
    loss = float(np.mean(-np.log(np.atleast_2d(probs)[np.arange(len(labels)), labels])))
    lam = params.config.l2_lambda
    if lam:
        loss += 0.5 * lam * sum(
            float(np.vdot(params.tensors[n], params.tensors[n]))
            for n in M.WEIGHT_NAMES)
    return loss, tie_signature(cache)


def finite_diff_model_grads(params, x, label, eps=1e-5):
    """Per-tensor max relative error vs central differences.

    `x` is one window with one label, or a batch with a list of labels.
    Coordinates whose +/- evaluations differ in ReLU/pool tie signature are
    masked; the fraction masked is returned for sanity checks.
    """
    probs, cache = M.forward(params, x)
    grads = M.backward(params, cache, T.cross_entropy(probs, label)[1])
    for name in M.WEIGHT_NAMES:
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


def dense_arrays(grads):
    """backward's gradients with each factored dense weight gradient formed whole."""
    return {name: np.asarray(g) for name, g in grads.items()}


def pass_digest(params, *passes) -> str:
    """SHA-256 over (x, labels) passes of forward's probabilities and of every
    backward gradient (name, dtype, shape, bytes), each dense factor pair
    formed by np.asarray."""
    h = hashlib.sha256()
    for x, labels in passes:
        probs, cache = M.forward(params, x)
        h.update(probs.tobytes())
        grads = M.backward(params, cache, T.cross_entropy(probs, labels)[1])
        for name in sorted(grads):
            g = np.asarray(grads.pop(name))  # one formed gradient at a time at full size
            h.update(f"{name}{g.dtype}{g.shape}".encode())
            h.update(g.tobytes())
    return h.hexdigest()


FULL_SIZE_PASS = """
import numpy as np
from somnoscore import model as M
from test_model import pass_digest
params = M.init_params(M.ModelConfig(), np.random.default_rng(0))
x = np.random.default_rng(100).standard_normal((3, 15000))
print(pass_digest(params, (x, [0, 2, 4])))
"""


class TestGoldenPass:
    # pass_digest of a 5-window batch and then of its first window alone, at
    # seeds 0, 1 and 2 (the seed draws the parameters, seed + 100 the input).
    # Taken with numpy 2.4's bundled OpenBLAS 0.3.31 on x86-64 (AVX-512);
    # another BLAS build may round differently.
    GOLDEN_PASS_DIGESTS = {
        "reduced_float64": ({}, (
            "e0cb9974af902c1a5ffd5b8967dcd913bfeac95f6945a512aa1bdedf97b115e7",
            "5564e86e6a775077a963982815e96b807cbae5c94e401abfb8f0b8f18c63118f",
            "c1f8bef152bbe3e8c56c9d39bfd00537577c1238d67617c7246ad3c114595df2",
        )),
        "reduced_float32": ({"dtype": "float32"}, (
            "4c3993c18052a12c49adfbabf771cd60c864cd789e41da98df4fa65ee6c10c40",
            "06ef77520fa4dbb45a9b4cd46c41a0558eb17a311cdf8b6402997602d0767d27",
            "271616c0072f24d4a4b37c39748beda9086989fbdee5167cde06950d8655c106",
        )),
    }

    @pytest.mark.parametrize("case", GOLDEN_PASS_DIGESTS)
    def test_reduced_pass_matches_golden_digest(self, case):
        overrides, digests = self.GOLDEN_PASS_DIGESTS[case]
        for seed, want in enumerate(digests):
            cfg = M.reduced_config(**overrides)
            params = M.init_params(cfg, np.random.default_rng(seed))
            x = np.random.default_rng(seed + 100).standard_normal((5, cfg.input_len))
            assert pass_digest(params, (x, [0, 1, 2, 3, 4]), (x[0], 0)) == want, (case, seed)

    def test_full_size_batch_pass_matches_golden_digest(self):
        # In a process of its own with one BLAS thread: at full size, how
        # OpenBLAS splits a product over threads changes its rounding.
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = os.environ | {"OPENBLAS_NUM_THREADS": "1",
                            "PYTHONPATH": os.pathsep.join(filter(None, path))}
        out = subprocess.run([sys.executable, "-c", FULL_SIZE_PASS], env=env,
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == (
            "df3b0bcc5ae6f1c2154d1131bc7c08f19156196f62964923cfd383536909ecc0")


def window_im2col(cfg):
    """Elements of conv2's im2col copy for one window."""
    return cfg.c2_out * cfg.c1_filters * cfg.c2_len


class TestConv2Chunks:
    # conv2 and pool2 take a batch a few windows at a time; 7 windows split
    # into chunks of 1, of 3 + 3 + 1, and into one chunk
    CHUNKS = {"one-window": (1, 7), "three-windows": (3, 3), "whole": (7, 1)}

    def pass_arrays(self, params, x, labels):
        probs, cache = M.forward(params, x)
        return probs, dense_arrays(M.backward(params, cache, T.cross_entropy(probs, labels)[1]))

    @pytest.mark.parametrize("overrides", [{}, {"dtype": "float32"}],
                             ids=["reduced_float64", "reduced_float32"])
    def test_chunked_pass_bit_identical_to_one_chunk(self, overrides, monkeypatch):
        params, cfg = reduced_params(seed=3, **overrides)
        x = np.random.default_rng(4).standard_normal((7, cfg.input_len))
        labels = [0, 1, 2, 3, 4, 0, 1]
        assert len(M._conv2_chunks(cfg, 7)) == 1
        want_probs, want = self.pass_arrays(params, x, labels)
        for windows, count in self.CHUNKS.values():
            monkeypatch.setattr(M, "_CONV2_CHUNK", windows * window_im2col(cfg))
            assert len(M._conv2_chunks(cfg, 7)) == count
            probs, grads = self.pass_arrays(params, x, labels)
            assert np.array_equal(probs, want_probs), windows
            assert grads.keys() == want.keys()
            for name in want:
                assert np.array_equal(grads[name], want[name]), (windows, name)

    def test_tracer_call_order_over_several_chunks(self, monkeypatch):
        # benchmark/tracing.py books the n-th call of a kernel inside forward
        # or backward to the n-th layer of its list, the last one repeating:
        # relu conv1, conv2, dense1, dense2; maxpool1d pool1 then pool2's
        # chunks; maxpool1d_backward pool2 then pool1, once each
        params, cfg = reduced_params(seed=3)
        monkeypatch.setattr(M, "_CONV2_CHUNK", 3 * window_im2col(cfg))
        x = np.random.default_rng(4).standard_normal((7, cfg.input_len))
        calls = []

        def spy(name, length):  # records each call's name and pooled input length
            real = getattr(T, name)

            def wrapper(*args, **kwargs):
                calls.append((name, length(args)))
                return real(*args, **kwargs)
            monkeypatch.setattr(T, name, wrapper)

        spy("relu", lambda args: None)
        spy("maxpool1d", lambda args: args[0].shape[-1])
        spy("maxpool1d_backward", lambda args: args[2])
        probs, cache = M.forward(params, x)
        assert calls.count(("relu", None)) == 4
        assert [length for name, length in calls if name == "maxpool1d"] == (
            [cfg.c1_out] + [cfg.c2_out] * 3)
        calls.clear()
        M.backward(params, cache, T.cross_entropy(probs, [0, 1, 2, 3, 4, 0, 1])[1])
        assert calls == [("maxpool1d_backward", cfg.c2_out), ("maxpool1d_backward", cfg.c1_out)]

    def test_step_peaks_below_the_batch_im2col_copy(self):
        # full-length windows, few filters: conv2's im2col copy of the whole
        # batch (N*P*H*K values) outweighs everything else a pass allocates,
        # so a pass that built it, or its product's equal, would peak above it
        cfg = M.ModelConfig(c1_filters=4, c2_filters=8, f1=16, f2=16)
        params = M.init_params(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((8, cfg.input_len)).astype(np.float32)
        assert len(M._conv2_chunks(cfg, 8)) > 1
        tracemalloc.start()
        try:
            probs, cache = M.forward(params, x)
            M.backward(params, cache, T.cross_entropy(probs, [0, 1, 2, 3, 4, 0, 1, 2])[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * window_im2col(cfg) * x.itemsize


def spy_kernels(monkeypatch) -> list:
    """Replace every public tensor_ops function with one that appends its
    name to the returned list, then calls it."""
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name, fn in list(vars(T).items()):
        public = callable(fn) and not name.startswith("_")
        if public and getattr(fn, "__module__", None) == T.__name__:
            monkeypatch.setattr(T, name, spy(name, fn))
    return calls


class TestForwardOnly:
    # forward(..., cache=False), the pass that no backward follows: no cache,
    # no pool offsets, the same probabilities
    CONFIGS = {
        "reduced_float64": {},
        "reduced_float32": {"dtype": "float32"},
        # full-length windows, so that both pools run at the full extents
        "full_length": {"input_len": 15000, "c1_len": 200, "p1": (20, 10), "c2_len": 30,
                        "p2": (10, 2), "dtype": "float32"},
    }

    @pytest.mark.parametrize("windows", [1, 3, None], ids=["one-window", "three-windows", "whole"])
    @pytest.mark.parametrize("case", CONFIGS)
    def test_probabilities_bit_identical_to_the_cached_pass(self, case, windows, monkeypatch):
        params, cfg = reduced_params(seed=3, **self.CONFIGS[case])
        if windows is not None:
            monkeypatch.setattr(M, "_CONV2_CHUNK", windows * window_im2col(cfg))
        x = np.random.default_rng(4).standard_normal((7, cfg.input_len))
        assert len(M._conv2_chunks(cfg, 7)) > 1 or windows is None
        for batch in (x, x[0]):
            want, cache = M.forward(params, batch)
            got, none = M.forward(params, batch, cache=False)
            assert none is None and cache is not None
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_full_size_probabilities_bit_identical_to_the_cached_pass(self):
        params = M.init_params(M.ModelConfig(), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 15000))  # two conv2 chunks
        for batch in (x, x[0]):
            want, _ = M.forward(params, batch)
            got, none = M.forward(params, batch, cache=False)
            assert none is None and got.tobytes() == want.tobytes()

    def test_same_kernel_sequence_with_and_without_the_cache(self, monkeypatch):
        # benchmark/tracing.py books the n-th call of a kernel inside forward
        # to a layer by its position, so a scoring pass must call the same
        # kernels in the same order. Only the cached pass asks the dtype of
        # pool2's offsets (an int argument, no array work), to allocate them.
        params, cfg = reduced_params(seed=3)
        monkeypatch.setattr(M, "_CONV2_CHUNK", 3 * window_im2col(cfg))
        calls = spy_kernels(monkeypatch)
        x = np.random.default_rng(4).standard_normal((7, cfg.input_len))
        for batch in (x, x[0]):
            M.forward(params, batch)
            cached = [name for name in calls if name != "pool_offset_dtype"]
            calls.clear()
            M.forward(params, batch, cache=False)
            assert calls == cached and calls.count("maxpool1d") == 1 + len(
                M._conv2_chunks(cfg, len(np.atleast_2d(batch))))
            calls.clear()

    def test_scoring_passes_request_no_cache(self, monkeypatch):
        # each pool says whether it was asked for offsets: scoring passes do
        # not ask, a training step does
        asked = []
        real = T.maxpool1d

        def pool(*args, **kwargs):
            asked.append(kwargs.get("offsets", True))
            return real(*args, **kwargs)
        monkeypatch.setattr(T, "maxpool1d", pool)
        params, cfg = reduced_params(batch_size=5)
        windows = build_windows(synthetic_recording("s", 1, list(SleepStage) * 2,
                                                    samples_per_epoch=60, seed=4))
        M.predict(params, windows[0].signal())
        assert asked == [False, False]
        asked.clear()
        assert len(Tr.predict_windows(params, windows)) == len(windows)
        assert asked == [False, False] * 2  # two batches of five
        asked.clear()
        Tr.batch_update(params, windows[:5], cfg)
        assert asked == [True, True]

    def test_no_offsets_or_cache_allocated(self):
        # 400 conv2 filters over full-length windows: pool2's outputs and
        # offsets outweigh conv1's copy, so both passes peak at pool2, where
        # the cached one holds its offsets
        cfg = M.ModelConfig(c1_filters=4, f1=16, f2=16)
        params = M.init_params(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, cfg.input_len)).astype(np.float32)

        def peak(cache):
            tracemalloc.start()
            try:
                out = M.forward(params, x, cache=cache)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (_, cache), cached_peak = peak(True)
        (_, none), forward_only_peak = peak(False)
        assert none is None
        offsets = cache.p1_off.nbytes + cache.p2_off.nbytes
        assert forward_only_peak <= cached_peak - offsets, (forward_only_peak, cached_peak, offsets)


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

    def test_batch_gradient_is_mean_of_single_window_gradients(self):
        # float64 at reduced_config, to 1e-10 of each tensor's largest entry;
        # the SGD step then adds the configured decay once.
        params, cfg = reduced_params(seed=9, l2_lambda=1e-2)
        batch = build_windows(synthetic_recording("s", 1, list(SleepStage) * 2,
                                                  samples_per_epoch=60, seed=4))
        x = np.stack([w.signal() for w in batch])
        labels = [w.label for w in batch]
        assert len(set(labels)) == 5
        probs, cache = M.forward(params, x)
        batched = dense_arrays(M.backward(params, cache, T.cross_entropy(probs, labels)[1]))
        singles = []
        for row, label in zip(x, labels):
            row_probs, row_cache = M.forward(params, row)
            singles.append(dense_arrays(
                M.backward(params, row_cache, T.cross_entropy(row_probs, label)[1])))
        assert set(batched) == set(singles[0])
        for name, g in batched.items():
            mean = sum(s[name] for s in singles) / len(singles)
            np.testing.assert_allclose(g, mean, rtol=1e-10, atol=1e-10 * np.abs(mean).max())

        stepped = params.copy()
        Tr.batch_update(stepped, batch, replace(cfg, batch_size=10, learning_rate=1.0,
                                                momentum=0.0))
        for name in params.tensors:
            want = -batched[name]
            if name in M.WEIGHT_NAMES:
                want = want - cfg.l2_lambda * params.tensors[name]
            np.testing.assert_allclose(stepped.tensors[name] - params.tensors[name], want,
                                       rtol=1e-10, atol=1e-12)

    def test_duplicated_window_means_to_same_gradient(self):
        params, cfg = reduced_params(l2_lambda=0.0)
        x = np.random.default_rng(3).standard_normal(cfg.input_len)
        probs, cache = M.forward(params, x)
        grad_logits = T.cross_entropy(probs, 1)[1]
        single = dense_arrays(M.backward(params, cache, grad_logits))
        # mean over a batch of the same example equals the single-example gradient
        doubled = {k: (v + v) / 2
                   for k, v in dense_arrays(M.backward(params, cache, grad_logits)).items()}
        for name in single:
            np.testing.assert_allclose(single[name], doubled[name], rtol=0, atol=0)


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
        for name in M.WEIGHT_NAMES:
            after, was = np.abs(params.tensors[name]), np.abs(before[name])
            nonzero = was > 0
            assert (after[nonzero] < was[nonzero]).all()
            np.testing.assert_allclose(after, was * (1 - 0.1 * 0.01), rtol=1e-14)
        for name in biases:
            np.testing.assert_array_equal(params.tensors[name], 1.0)

    def test_decay_set_is_every_weight(self):
        # zero data gradient, momentum 0: each weight moves by -lr*lambda*w,
        # the biases not at all; the term covers the weights alone
        params, _ = reduced_params()
        decayed = M.WEIGHT_NAMES
        before = {k: v.copy() for k, v in params.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        term = M.sgd_step(params, grads, step_config(0.1, 0.0, lam=0.5))
        for name, w in params.tensors.items():
            want = before[name] * (1 - 0.1 * 0.5) if name in decayed else before[name]
            np.testing.assert_allclose(w, want, rtol=1e-14, atol=0, err_msg=name)
        assert term == pytest.approx(0.25 * sum(np.sum(before[n] ** 2) for n in decayed),
                                     rel=1e-12)

    def test_one_step_equals_decayed_momentum_rule(self):
        # float64: v = mu*v - lr*(g + lam*w); w += v, to 1e-12 relative
        params, _ = reduced_params()
        cfg = step_config(0.05, 0.9, lam=0.02)
        rng = np.random.default_rng(11)
        params.velocity = {k: rng.standard_normal(v.shape) for k, v in params.tensors.items()}
        grads = {k: rng.standard_normal(v.shape) for k, v in params.tensors.items()}
        want_v, want_w = {}, {}
        for name, w in params.tensors.items():
            lam = cfg.l2_lambda if name in M.WEIGHT_NAMES else 0.0
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


B = M._UPDATE_BLOCK
R, W = M._TILE_ROWS, M._UPDATE_BLOCK // M._TILE_ROWS  # f1_w's tile: R rows, W columns


def integer_factors(n, m, k, dtype, seed):
    """Dense-gradient factors (N, M) and (N, K) whose products and sums are all
    exact, so every tile is bit-identical to the whole product in any BLAS order."""
    rng = np.random.default_rng(seed)
    return (rng.integers(-8, 9, (n, m)).astype(dtype) / 64,
            rng.integers(-8, 9, (n, k)).astype(dtype))


def whole_tensor_step(params, gradients, config):
    """The update as whole-tensor ops: the reference for the blocked sgd_step."""
    lr, lam = config.learning_rate, config.l2_lambda
    for name, g in gradients.items():
        w = params.tensors[name]
        v = params.velocity.setdefault(name, np.zeros(w.shape, w.dtype))
        v *= config.momentum
        v -= np.multiply(g, lr, out=g)
        if lam and name in M.WEIGHT_NAMES:
            v -= np.multiply(w, lr * lam, out=g)
        w += v


class TestBlockedSgdStep:
    @pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 2 * B + 3])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_block_boundaries_bit_identical_to_whole_tensor_rule(self, size, dtype, lam):
        # f1_w, out_w and c1_kernels are decayed, f1_b never; f2_w has no gradient
        decayed = ("f1_w", "out_w", "c1_kernels")
        cfg = step_config(0.05, 0.9, lam=lam, dtype=dtype)
        rng = np.random.default_rng(size)
        draw = lambda: rng.standard_normal((1, size)).astype(dtype)  # noqa: E731
        tensors = {n: draw() for n in ("f1_w", "out_w", "f1_b", "c1_kernels", "f2_w")}
        velocity = {n: draw() for n in ("f1_w", "f2_w")}
        grads = {n: draw() for n in ("f1_w", "out_w", "f1_b", "c1_kernels")}

        def run(step):
            params = M.ModelParameters(
                cfg, {k: v.copy() for k, v in tensors.items()},
                {k: v.copy() for k, v in velocity.items()})
            return params, step(params, {k: g.copy() for k, g in grads.items()}, cfg)

        (got, term), (want, _) = run(M.sgd_step), run(whole_tensor_step)
        assert set(got.velocity) == set(want.velocity) == {*grads, "f2_w"}
        for name in tensors:
            assert np.array_equal(got.tensors[name], want.tensors[name])
        for name in got.velocity:
            assert np.array_equal(got.velocity[name], want.velocity[name])
        assert np.array_equal(got.tensors["f2_w"], tensors["f2_w"])
        assert np.array_equal(got.velocity["f2_w"], velocity["f2_w"])
        sum_sq = sum(float(np.sum(tensors[n].astype(np.float64) ** 2)) for n in decayed)
        rel = 1e-6 if dtype == "float32" else 1e-12  # a float32 tile's sum is rounded to it
        assert term == pytest.approx(0.5 * lam * sum_sq, rel=rel)  # exactly 0.0 at lam 0

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


    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_factored_gradient_equals_whole_tensor_rule(self, n, dtype, lam):
        # 2R+5 rows and W+7 columns: full tiles and both kinds of edge tile
        cfg = step_config(0.05, 0.9, lam=lam, dtype=dtype)
        m, k = 2 * R + 5, W + 7
        g, x = integer_factors(n, m, k, dtype, seed=3)
        rng = np.random.default_rng(4)
        w, v = (rng.standard_normal((m, k)).astype(dtype) for _ in range(2))
        grad = T.OuterGrad(g.copy(), x.copy())

        def run(step, gradient):
            params = M.ModelParameters(cfg, {"f1_w": w.copy()}, {"f1_w": v.copy()})
            step(params, {"f1_w": gradient}, cfg)
            return params

        got, want = run(M.sgd_step, grad), run(whole_tensor_step, np.asarray(grad))
        assert np.array_equal(got.tensors["f1_w"], want.tensors["f1_w"])
        assert np.array_equal(got.velocity["f1_w"], want.velocity["f1_w"])
        # the factors are not scratch
        assert np.array_equal(grad.g, g) and np.array_equal(grad.x, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
    def test_non_finite_in_later_tile_of_factored_gradient_raises_naming_it(self, bad):
        # a bad last column of x makes the last column of the product non-finite;
        # the first tile to hold it is rows [0, R), columns [W, W+7), and only
        # the tile before it, rows [0, R) and columns [0, W), is updated
        m, k = 2 * R + 5, W + 7
        g, x = integer_factors(10, m, k, "float64", seed=5)
        x[:, -1] = bad
        params = M.ModelParameters(step_config(0.1, 0.9), {"f1_w": np.zeros((m, k))})
        with pytest.raises(FloatingPointError, match="f1_w"):
            M.sgd_step(params, {"f1_w": T.OuterGrad(g, x)}, params.config)
        w = params.tensors["f1_w"]
        np.testing.assert_array_equal(w[:R, :W], -(g[:, :R].T @ x[:, :W] * 0.1))
        assert not w[:R, W:].any() and not w[R:].any()

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_factored_gradient_of_finite_factors_that_overflows_raises_naming_it(self):
        # every factor is finite, but entries of 1e20 * 1e20 summed over the
        # batch overflow float32: the factors cannot vouch for the product,
        # so each tile is checked and the first one raises
        cfg = step_config(0.1, 0.9, dtype="float32")
        m, k = 2 * R + 5, W + 7
        g, x = (np.full(shape, 1e20, np.float32) for shape in ((3, m), (3, k)))
        grad = T.OuterGrad(g, x)
        assert not grad.bounded()
        params = M.ModelParameters(cfg, {"f1_w": np.zeros((m, k), np.float32)})
        with pytest.raises(FloatingPointError, match="f1_w"):
            M.sgd_step(params, {"f1_w": grad}, cfg)
        assert not params.tensors["f1_w"].any()

    def test_factored_gradient_of_bounded_factors_is_checked_once(self, monkeypatch):
        # finite factors whose bound N * max|g| * max|x| is far below float32's
        # maximum need no tile check; an array gradient is checked tile by tile
        cfg = step_config(0.1, 0.9, dtype="float32")
        m, k = 2 * R + 5, W + 7
        g, x = integer_factors(10, m, k, "float32", seed=6)
        assert T.OuterGrad(g, x).bounded()
        checked = []
        monkeypatch.setattr(T, "assert_finite", lambda name, *a: checked.append(name))
        params = M.ModelParameters(cfg, {"f1_w": np.zeros((m, k), np.float32),
                                         "f1_b": np.zeros(m, np.float32)})
        M.sgd_step(params, {"f1_w": T.OuterGrad(g, x), "f1_b": np.ones(m, np.float32)}, cfg)
        assert checked == ["the gradient of tensor 'f1_b'"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 3e38])
    def test_factor_bound_refuses_a_non_finite_or_large_factor(self, bad):
        g, x = integer_factors(10, 4, 5, "float32", seed=7)
        assert T.OuterGrad(g, x).bounded()
        g[3, 2] = bad
        assert not T.OuterGrad(g, x).bounded() and not T.OuterGrad(x, g).bounded()
        g[3, 2] = -bad
        assert not T.OuterGrad(g, x).bounded()

    def test_dense_update_allocates_no_weight_sized_temporary(self):
        # dense_backward's weight gradient and its update together; the whole
        # product alone would be as large as the weight
        rng = np.random.default_rng(6)
        n, m, k = 10, 512, 32768
        draw = lambda *shape: rng.standard_normal(shape, dtype=np.float32)  # noqa: E731
        cfg = step_config(0.05, 0.9, lam=0.01, dtype="float32")
        params = M.ModelParameters(cfg, {"f1_w": draw(m, k)}, {"f1_w": draw(m, k)})
        x, grad_y = draw(n, k), draw(n, m)
        tracemalloc.start()
        try:
            _, grad_w, _ = T.dense_backward(x, params.tensors["f1_w"], grad_y)
            M.sgd_step(params, {"f1_w": grad_w}, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.tensors["f1_w"].nbytes / 16


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
        bank = make_morlet_bank(np.array([10.0]), 6.0)
        power = np.abs(np.fft.rfft(bank[0])) ** 2
        assert np.argmax(power) == 20  # 10 Hz at 0.5 Hz bins

    def test_unit_energy(self):
        bank = make_morlet_bank(np.array([2.0, 5.0, 10.0, 25.0]), 4.0)
        np.testing.assert_allclose((bank ** 2).sum(axis=1), 1.0, atol=1e-9)

    def test_even_symmetry(self):
        bank = make_morlet_bank(np.array([7.0]), 5.0)
        np.testing.assert_allclose(bank[0], bank[0][::-1], atol=1e-12)


def rewrite_config(path: Path, edit) -> None:
    """Replace a checkpoint's config JSON with `edit(config dict)` and write
    a valid CRC-32 trailer, as a later version or a hand edit would."""
    data = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", data, 6)
    cfg = json.dumps(edit(json.loads(data[10:10 + cfg_len]))).encode()
    body = data[:6] + struct.pack("<I", len(cfg)) + cfg + data[10 + cfg_len:-8]
    path.write_bytes(body + struct.pack("<Q", zlib.crc32(body)))


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
        with pytest.raises(M.CheckpointError,
                           match=r"tensor 'f1_w' shape \(32, 528\) != \(16, 528\)"):
            M.save_checkpoint(M.ModelParameters(M.reduced_config(f1=16), wide.tensors), path)
        assert list(tmp_path.iterdir()) == []

    def test_missing_tensor_rejected(self, tmp_path):
        params, _ = reduced_params()
        del params.tensors["out_b"]
        path = tmp_path / "m.somn"
        with pytest.raises(M.CheckpointError, match="tensor 'out_b' missing"):
            M.save_checkpoint(params, path)
        assert list(tmp_path.iterdir()) == []

    def test_tensor_dtype_against_own_config_rejected(self, tmp_path):
        single, _ = reduced_params(dtype="float32")
        path = tmp_path / "m.somn"
        with pytest.raises(M.CheckpointError,
                           match="tensor 'c1_kernels' dtype float32 != float64"):
            M.save_checkpoint(M.ModelParameters(M.reduced_config(), single.tensors), path)
        assert list(tmp_path.iterdir()) == []

    def test_version_mismatch_rejected(self, tmp_path):
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        body = bytes(data[:-8])
        path.write_bytes(body + struct.pack("<Q", zlib.crc32(body)))
        with pytest.raises(M.CheckpointError, match="version"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("version", range(2, M.CHECKPOINT_VERSION))
    def test_version_checked_before_checksum(self, tmp_path, version):
        # A file of another format version fails by version, whatever its trailer.
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        data[4:6] = struct.pack("<H", version)
        path.write_bytes(bytes(data))
        with pytest.raises(M.CheckpointError,
                           match=f"format version {version} != {M.CHECKPOINT_VERSION}"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda c: c | {"dropout": 0.5}, "dropout"),
        (lambda c: c | {"eval_every": 0}, "eval_every"),
        (lambda c: [c], "JSON object"),
        (lambda c: c | {"l2_scope": "all"}, "l2_scope"),
        (lambda c: c | {"first_layer_mode": "trainable"}, "first_layer_mode"),
    ])
    def test_intact_file_with_bad_config_refused(self, tmp_path, edit, named):
        # an unknown field, a bad value or a non-object, under a valid checksum
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        rewrite_config(path, edit)
        with pytest.raises(M.CheckpointError,
                           match=f"{re.escape(str(path))}: bad model config.*{named}"):
            M.load_checkpoint(path)

    def test_checksum_trailer_and_no_temporary_file(self, tmp_path):
        assert zlib.crc32(b"123456789") == 0xCBF43926  # the CRC-32 check value
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = path.read_bytes()
        assert data[-8:] == struct.pack("<Q", zlib.crc32(data[:-8]))
        assert [p.name for p in tmp_path.iterdir()] == ["m.somn"]

    def test_round_trip_keeps_file_size_and_layout(self, tmp_path):
        # the model config is the JSON header, and it alone fixes the tensors'
        # layout: their raw values follow it; the CRC-32 fills the u64 trailer
        params, cfg = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        data = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", data, 6)
        assert json.loads(data[10:10 + cfg_len]) == cfg.to_json_dict()
        assert len(data) == 10 + cfg_len + sum(a.nbytes for a in params.tensors.values()) + 8
        assert data[:6] == b"SOMN" + struct.pack("<H", 6) and data[-4:] == bytes(4)
        out_b = params.tensors["out_b"]
        assert data[-8 - out_b.nbytes:-8] == out_b.astype("<f8").tobytes()

    def test_intact_file_of_another_architecture_fails_checksum(self, tmp_path):
        # a config naming other shapes than the tensors stored, under a valid CRC
        params, _ = reduced_params()
        path = tmp_path / "m.somn"
        M.save_checkpoint(params, path)
        rewrite_config(path, lambda c: c | {"f1": 17})
        with pytest.raises(M.CheckpointError, match="checksum failure"):
            M.load_checkpoint(path)

    def test_save_and_load_copy_no_body(self, tmp_path):
        # f1_w is 3.2 MB; a save allocates well under it, a load about the tensors alone
        params, _ = reduced_params(f1=768)
        tensor_bytes = sum(a.nbytes for a in params.tensors.values())
        path = tmp_path / "m.somn"
        tracemalloc.start()
        try:
            M.save_checkpoint(params, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loaded = M.load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert save_peak < params.tensors["f1_w"].nbytes // 16
        assert load_peak <= tensor_bytes + 64 * 1024
        assert loaded.tensors["f1_w"].tobytes() == params.tensors["f1_w"].tobytes()


def _small_checkpoint_bytes() -> bytes:
    """A checkpoint of 1078 bytes, small enough to damage at every byte."""
    cfg = M.reduced_config(input_len=40, c1_filters=2, c1_len=5, c2_filters=2, c2_len=3,
                           f1=3, f2=3)
    params = M.init_params(cfg, np.random.default_rng(3))
    with tempfile.TemporaryDirectory() as tmp:
        M.save_checkpoint(params, Path(tmp) / "m.somn")
        return (Path(tmp) / "m.somn").read_bytes()


SMALL_CHECKPOINT = _small_checkpoint_bytes()


@pytest.fixture(scope="module")
def damaged_path(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "m.somn"


def assert_refused(path: Path, data: bytes, damaged_at: int) -> None:
    """`data` fails to load with a CheckpointError naming what is wrong: the
    magic or the version for damage in the first 6 bytes, the checksum past
    them. Any other exception (struct.error, JSONDecodeError,
    UnicodeDecodeError, MemoryError) escapes and fails the test."""
    path.write_bytes(data)
    with pytest.raises(M.CheckpointError) as err:
        M.load_checkpoint(path)
    want = ("bad magic", "version") if damaged_at < 6 else ("checksum",)
    assert any(w in str(err.value) for w in want), (damaged_at, str(err.value))


class TestCheckpointCorruption:
    def test_every_truncated_prefix_refused(self, damaged_path):
        for n in range(len(SMALL_CHECKPOINT)):
            assert_refused(damaged_path, SMALL_CHECKPOINT[:n], n)
        damaged_path.write_bytes(SMALL_CHECKPOINT)
        assert M.load_checkpoint(damaged_path).tensors["f1_w"].shape == (3, 12)

    def test_every_byte_inverted_refused(self, damaged_path):
        for i in range(len(SMALL_CHECKPOINT)):
            data = bytearray(SMALL_CHECKPOINT)
            data[i] ^= 0xFF
            assert_refused(damaged_path, bytes(data), i)

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(0, len(SMALL_CHECKPOINT) - 1), mask=st.integers(1, 255))
    def test_any_single_byte_flip_refused(self, damaged_path, position, mask):
        data = bytearray(SMALL_CHECKPOINT)
        data[position] ^= mask
        assert_refused(damaged_path, bytes(data), position)
