"""The scoring network: configuration, parameters, forward/backward, SGD.

The default configuration is a two-stage convolutional network over a
15000-sample window (five 30-second epochs at 100 Hz): 20 length-200 filters,
max-pool 20/10, a stacking reinterpretation into a 20-high image, 400
full-height 20x30 filters, max-pool 10/2, two 500-unit dense layers and a
5-way softmax. ReLU follows each convolution (before its pool) and each dense
layer.

A variant mode freezes the first layer to a generated Morlet wavelet bank so
the effect of learning (vs fixing) the input filters can be measured.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, asdict, field
from pathlib import Path

import numpy as np

from .edf_ingest import N_STAGES, SCORING_RATE_HZ, SleepStage
from .fileio import write_atomic
from . import tensor_ops as T

CHECKPOINT_MAGIC = b"SOMN"
CHECKPOINT_VERSION = 1

TRAINABLE_MODE = "trainable"
FIXED_MORLET_MODE = "fixed_morlet"

_DTYPE_CODES = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


@dataclass
class ModelConfig:
    input_len: int = 15000
    c1_filters: int = 20
    c1_len: int = 200
    p1: tuple[int, int] = (20, 10)          # (size, stride)
    c2_filters: int = 400
    c2_len: int = 30
    p2: tuple[int, int] = (10, 2)
    f1: int = 500
    f2: int = 500
    classes: int = N_STAGES
    l2_lambda: float = 1e-4
    l2_scope: str = "all"                   # "all" | "softmax_only"
    learning_rate: float = 0.003
    momentum: float = 0.9
    batch_size: int = 100
    max_iterations: int = 20000
    eval_every: int = 500
    patience: int = 10
    seed: int = 0
    first_layer_mode: str = TRAINABLE_MODE  # "trainable" | "fixed_morlet"
    dtype: str = "float32"
    morlet_min_hz: float = 0.5
    morlet_max_hz: float = 25.0
    morlet_cycles: float = 6.0

    def __post_init__(self):
        self.p1 = tuple(self.p1)
        self.p2 = tuple(self.p2)
        for name in ("input_len", "c1_filters", "c1_len", "c2_filters",
                     "c2_len", "f1", "f2", "classes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if any(v <= 0 for v in (*self.p1, *self.p2)):
            raise ValueError("pool sizes and strides must be positive")
        if self.batch_size % self.classes != 0:
            raise ValueError(
                f"batch size {self.batch_size} not divisible by {self.classes} classes")
        if self.first_layer_mode not in (TRAINABLE_MODE, FIXED_MORLET_MODE):
            raise ValueError(f"unknown first_layer_mode {self.first_layer_mode!r}")
        if self.l2_scope not in ("all", "softmax_only"):
            raise ValueError(f"unknown l2_scope {self.l2_scope!r}")
        if np.dtype(self.dtype) not in _DTYPE_CODES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")

    # Closed-form layer extents
    @property
    def c1_out(self) -> int:
        return self.input_len - self.c1_len + 1

    @property
    def p1_out(self) -> int:
        return 1 + (self.c1_out - self.p1[0]) // self.p1[1]

    @property
    def c2_out(self) -> int:
        return self.p1_out - self.c2_len + 1

    @property
    def p2_out(self) -> int:
        return 1 + (self.c2_out - self.p2[0]) // self.p2[1]

    @property
    def flat_size(self) -> int:
        return self.c2_filters * self.p2_out

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        return {
            "c1_kernels": (self.c1_filters, self.c1_len),
            "c1_bias": (self.c1_filters,),
            "c2_kernels": (self.c2_filters, self.c1_filters, self.c2_len),
            "c2_bias": (self.c2_filters,),
            "f1_w": (self.f1, self.flat_size),
            "f1_b": (self.f1,),
            "f2_w": (self.f2, self.f1),
            "f2_b": (self.f2,),
            "out_w": (self.classes, self.f2),
            "out_b": (self.classes,),
        }

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["p1"] = list(self.p1)
        d["p2"] = list(self.p2)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelConfig":
        """Build from a possibly partial dict; omitted fields keep defaults."""
        d = dict(d)
        for key in ("p1", "p2"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def reduced_config(**overrides) -> ModelConfig:
    """A desk-scale architecture with the same layer structure.

    Used for gradient verification and the synthetic learning experiment;
    window length 300 implies 60-sample epochs.
    """
    base = dict(
        input_len=300, c1_filters=4, c1_len=20, p1=(4, 2),
        c2_filters=8, c2_len=5, p2=(4, 2), f1=16, f2=16,
        dtype="float64",
    )
    base.update(overrides)
    return ModelConfig(**base)


WEIGHT_NAMES = ("c1_kernels", "c2_kernels", "f1_w", "f2_w", "out_w")
SOFTMAX_WEIGHT_NAMES = ("out_w",)


@dataclass
class ModelParameters:
    config: ModelConfig
    tensors: dict[str, np.ndarray]
    velocity: dict[str, np.ndarray] = field(default_factory=dict)  # filled by sgd_step
    frozen: frozenset[str] = frozenset()

    def l2_weight_names(self) -> tuple[str, ...]:
        names = SOFTMAX_WEIGHT_NAMES if self.config.l2_scope == "softmax_only" else WEIGHT_NAMES
        return tuple(n for n in names if n not in self.frozen)

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            config=self.config,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            velocity={k: v.copy() for k, v in self.velocity.items()},
            frozen=self.frozen,
        )


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParameters:
    """Variance-preserving Gaussian initialization.

    ReLU-fed weights draw from Normal(0, sqrt(2/fan_in)); the softmax layer
    from Normal(0, sqrt(1/fan_in)). Biases start at zero. In fixed-Morlet mode
    the first layer is replaced by the generated wavelet bank and frozen.
    """
    dtype = config.np_dtype
    shapes = config.tensor_shapes()
    fan_in = {
        "c1_kernels": config.c1_len,
        "c2_kernels": config.c1_filters * config.c2_len,
        "f1_w": config.flat_size,
        "f2_w": config.f1,
        "out_w": config.f2,
    }

    def draw(name: str, gain: float) -> np.ndarray:
        std = np.sqrt(gain / fan_in[name])
        return (rng.standard_normal(shapes[name], dtype=dtype) * dtype.type(std))

    tensors = {
        "c1_kernels": draw("c1_kernels", 2.0),
        "c1_bias": np.zeros(shapes["c1_bias"], dtype=dtype),
        "c2_kernels": draw("c2_kernels", 2.0),
        "c2_bias": np.zeros(shapes["c2_bias"], dtype=dtype),
        "f1_w": draw("f1_w", 2.0),
        "f1_b": np.zeros(shapes["f1_b"], dtype=dtype),
        "f2_w": draw("f2_w", 2.0),
        "f2_b": np.zeros(shapes["f2_b"], dtype=dtype),
        "out_w": draw("out_w", 1.0),
        "out_b": np.zeros(shapes["out_b"], dtype=dtype),
    }
    frozen: frozenset[str] = frozenset()
    if config.first_layer_mode == FIXED_MORLET_MODE:
        freqs = default_morlet_frequencies(
            config.c1_filters, config.morlet_min_hz, config.morlet_max_hz)
        tensors["c1_kernels"] = make_morlet_bank(
            freqs, config.morlet_cycles, length=config.c1_len).astype(dtype)
        frozen = frozenset({"c1_kernels", "c1_bias"})
    return ModelParameters(config, tensors, frozen=frozen)


@dataclass
class ForwardCache:
    """What backward needs of a forward pass, with the input's batch axis if any."""
    x: np.ndarray
    a1: np.ndarray          # C1 pre-ReLU
    p1_idx: np.ndarray
    p1_out: np.ndarray
    s1: np.ndarray
    a2: np.ndarray          # C2 pre-ReLU, squeezed to (..., filters, length)
    p2_idx: np.ndarray
    p2_out: np.ndarray
    flat: np.ndarray
    z1: np.ndarray
    h1: np.ndarray
    z2: np.ndarray
    h2: np.ndarray
    probs: np.ndarray

    def shape_trace(self) -> list:
        """Layer output shapes; the flat and dense extents are per window."""
        return [
            self.a1.shape, self.p1_out.shape, self.s1.shape,
            self.a2.shape, self.p2_out.shape, self.flat.shape[-1],
            self.h1.shape[-1], self.h2.shape[-1], self.probs.shape[-1],
        ]


def forward(params: ModelParameters, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Stage probabilities, (5,) for one window (input_len,), (N, 5) for a
    batch (N, input_len); and the cache that backward needs."""
    cfg = params.config
    t = params.tensors
    x = np.asarray(x, dtype=cfg.np_dtype)
    if x.ndim not in (1, 2) or x.shape[-1] != cfg.input_len:
        raise ValueError(f"input shape {x.shape}: want window length {cfg.input_len}, 1 or 2 axes")

    a1 = T.conv1d_valid(x, t["c1_kernels"], t["c1_bias"])
    p1_out, p1_idx = T.maxpool1d(T.relu(a1), *cfg.p1)
    s1 = T.stack(p1_out)
    a2 = T.conv2d_fullheight(s1, t["c2_kernels"], t["c2_bias"])[..., 0, :]
    p2_out, p2_idx = T.maxpool1d(T.relu(a2), *cfg.p2)
    flat = p2_out.reshape(*x.shape[:-1], -1)
    z1 = T.dense(flat, t["f1_w"], t["f1_b"])
    h1 = T.relu(z1)
    z2 = T.dense(h1, t["f2_w"], t["f2_b"])
    h2 = T.relu(z2)
    probs = T.softmax(T.dense(h2, t["out_w"], t["out_b"]))

    cache = ForwardCache(x, a1, p1_idx, p1_out, s1, a2, p2_idx, p2_out,
                         flat, z1, h1, z2, h2, probs)
    return probs, cache


def backward(params: ModelParameters, cache: ForwardCache, labels) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy over the forward pass's windows.

    `labels` is one stage for a single window, or one stage per window of a
    batch. Frozen tensors receive no gradient entry. The L2 decay term is not
    included; batch_update adds it once.
    """
    cfg = params.config
    t = params.tensors
    grads: dict[str, np.ndarray] = {}

    _, g_logits = T.cross_entropy(cache.probs, labels)
    g_logits = g_logits.astype(cfg.np_dtype)

    g_h2, grads["out_w"], grads["out_b"] = T.dense_backward(cache.h2, t["out_w"], g_logits)
    g_z2 = T.relu_backward(cache.z2, g_h2)
    g_h1, grads["f2_w"], grads["f2_b"] = T.dense_backward(cache.h1, t["f2_w"], g_z2)
    g_z1 = T.relu_backward(cache.z1, g_h1)
    g_flat, grads["f1_w"], grads["f1_b"] = T.dense_backward(cache.flat, t["f1_w"], g_z1)

    g_r2 = T.maxpool1d_backward(cache.p2_idx, g_flat.reshape(cache.p2_out.shape), cfg.c2_out)
    g_a2 = T.relu_backward(cache.a2, g_r2)
    del g_r2  # conv2-sized; freeing it lowers a batch-100 full-size step's peak by 0.2 GB
    g_s1, grads["c2_kernels"], grads["c2_bias"] = T.conv2d_fullheight_backward(
        cache.s1, t["c2_kernels"], g_a2[..., None, :])

    if "c1_kernels" not in params.frozen:
        g_p1 = T.unstack(g_s1)
        g_r1 = T.maxpool1d_backward(cache.p1_idx, g_p1, cfg.c1_out)
        g_a1 = T.relu_backward(cache.a1, g_r1)
        grads["c1_kernels"], grads["c1_bias"] = T.conv1d_backward(
            cache.x, t["c1_kernels"], g_a1)
    return grads


_UPDATE_BLOCK = 1 << 15  # elements of w, v and g that sgd_step updates per pass


def sgd_step(params: ModelParameters, gradients: dict[str, np.ndarray],
             config: ModelConfig) -> None:
    """Momentum SGD with L2 decay, in place: v <- mu*v - lr*(g + lam*w); w <- w + v.

    lr, mu and lam come from `config`; lam is 0 outside `params.l2_weight_names()`.
    The gradients are consumed as scratch. A velocity starts at zero on its first
    update. Frozen tensors and tensors absent from `gradients` are left untouched.

    Each tensor is updated in one sweep of `_UPDATE_BLOCK`-element slices of its
    flat w, v and g, so a slice stays in cache across the five in-place ops; the
    result is bit-identical to whole-tensor ops. Each gradient slice is checked
    before it is used: a NaN or infinity raises FloatingPointError naming the
    tensor, leaving the earlier tensors and the earlier slices of this one
    updated. `training.train_fold` turns the error into a failed fold.
    """
    lr, mu, lam = config.learning_rate, config.momentum, config.l2_lambda
    for name, g in gradients.items():
        if name in params.frozen:
            continue
        what = f"the gradient of tensor {name!r}"
        decay = lam and name in params.l2_weight_names()
        w = params.tensors[name]
        if name not in params.velocity:
            params.velocity[name] = np.zeros(w.shape, w.dtype)
        w_flat = w.reshape(-1, copy=False)  # raises rather than update a copy
        v_flat = params.velocity[name].reshape(-1, copy=False)
        g_flat = g.reshape(-1)
        for start in range(0, w_flat.size, _UPDATE_BLOCK):
            block = slice(start, start + _UPDATE_BLOCK)
            wb, vb, gb = w_flat[block], v_flat[block], g_flat[block]
            T.assert_finite(what, gb)
            vb *= mu
            vb -= np.multiply(gb, lr, out=gb)
            if decay:
                vb -= np.multiply(wb, lr * lam, out=gb)
            wb += vb


def predict(params: ModelParameters, signal: np.ndarray) -> SleepStage:
    probs, _ = forward(params, signal)
    return predict_from_probs(probs)


def predict_from_probs(probs: np.ndarray) -> SleepStage:
    """Argmax stage; ties break to the lowest stage index."""
    return SleepStage(int(np.argmax(probs)))


def default_morlet_frequencies(n: int, min_hz: float = 0.5, max_hz: float = 25.0) -> np.ndarray:
    return np.geomspace(min_hz, max_hz, n)


def make_morlet_bank(
    center_freqs: np.ndarray,
    cycles_per_filter: float,
    length: int = 200,
) -> np.ndarray:
    """Real Morlet (cosine-Gaussian) filters, one row per center frequency.

    Each filter is cos(2*pi*f*t) * exp(-t^2 / (2*sigma^2)) with
    sigma = cycles / (2*pi*f), sampled symmetrically about t = 0 and scaled to
    unit energy. A Gaussian still above 1% of its peak at the window edge is
    truncated; that raises a warning, not an error.
    """
    freqs = np.asarray(center_freqs, dtype=np.float64)
    if np.any(freqs <= 0):
        raise ValueError("center frequencies must be positive")
    t = (np.arange(length) - (length - 1) / 2.0) / SCORING_RATE_HZ
    bank = np.empty((len(freqs), length))
    for i, f in enumerate(freqs):
        sigma = cycles_per_filter / (2.0 * np.pi * f)
        envelope = np.exp(-(t ** 2) / (2.0 * sigma ** 2))
        if envelope[0] > 0.01:
            warnings.warn(
                f"Morlet filter at {f:.3g} Hz truncated: envelope {envelope[0]:.3f} "
                f"of peak at window edge", RuntimeWarning, stacklevel=2)
        k = np.cos(2.0 * np.pi * f * t) * envelope
        bank[i] = k / np.linalg.norm(k)
    return bank


# --- checkpoint format ------------------------------------------------------
# magic "SOMN" | u16 version | u32 config-JSON length | config JSON |
# per-tensor records (u16 name len, name, u8 dtype code, u8 ndim, u32 dims,
# raw little-endian values) | u64 CRC-64 of everything before it.

_CRC64_POLY = 0x42F0E1EBA9EA3693


def _crc64_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 56
        for _ in range(8):
            crc = ((crc << 1) ^ _CRC64_POLY if crc & (1 << 63) else crc << 1)
            crc &= 0xFFFFFFFFFFFFFFFF
        table.append(crc)
    return table


_CRC64_TABLE = _crc64_table()


def crc64(data: bytes) -> int:
    crc = 0
    for b in data:
        crc = ((crc << 8) & 0xFFFFFFFFFFFFFFFF) ^ _CRC64_TABLE[((crc >> 56) ^ b) & 0xFF]
    return crc


class CheckpointError(Exception):
    pass


def save_checkpoint(params: ModelParameters, path: Path) -> None:
    chunks = [CHECKPOINT_MAGIC, struct.pack("<H", CHECKPOINT_VERSION)]
    manifest = {
        "config": params.config.to_json_dict(),
        "frozen": sorted(params.frozen),
        "tensors": list(params.tensors.keys()),
    }
    cfg_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<I", len(cfg_bytes)))
    chunks.append(cfg_bytes)
    for name, arr in params.tensors.items():
        name_b = name.encode("utf-8")
        a = np.ascontiguousarray(arr)
        code = _DTYPE_CODES[a.dtype]
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<BB", code, a.ndim))
        chunks.append(struct.pack(f"<{a.ndim}I", *a.shape))
        chunks.append(a.astype(a.dtype.newbyteorder("<")).tobytes())
    body = b"".join(chunks)
    write_atomic(path, body + struct.pack("<Q", crc64(body)))


def load_checkpoint(path: Path) -> ModelParameters:
    data = Path(path).read_bytes()
    if len(data) < 14 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: format version {version} != {CHECKPOINT_VERSION}")
    body, crc_stored = data[:-8], struct.unpack("<Q", data[-8:])[0]
    if crc64(body) != crc_stored:
        raise CheckpointError(f"{path}: checksum failure (corrupt or truncated)")
    (cfg_len,) = struct.unpack_from("<I", body, 6)
    pos = 10
    manifest = json.loads(body[pos:pos + cfg_len].decode("utf-8"))
    pos += cfg_len
    config = ModelConfig.from_json_dict(manifest["config"])
    tensors: dict[str, np.ndarray] = {}
    while pos < len(body):
        (name_len,) = struct.unpack_from("<H", body, pos)
        pos += 2
        name = body[pos:pos + name_len].decode("utf-8")
        pos += name_len
        code, ndim = struct.unpack_from("<BB", body, pos)
        pos += 2
        shape = struct.unpack_from(f"<{ndim}I", body, pos)
        pos += 4 * ndim
        dtype = _CODE_DTYPES[code].newbyteorder("<")
        count = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=pos)
        pos += arr.nbytes
        tensors[name] = arr.reshape(shape).astype(_CODE_DTYPES[code])
    expected = config.tensor_shapes()
    for name, shape in expected.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: tensor {name!r} missing")
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} shape {tensors[name].shape} != {shape}")
    return ModelParameters(config, tensors, frozen=frozenset(manifest["frozen"]))
