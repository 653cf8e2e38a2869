"""The scoring network: configuration, parameters, forward/backward, SGD.

The default configuration is a two-stage convolutional network over a
15000-sample window (five 30-second epochs at 100 Hz): 20 length-200 filters,
max-pool 20/10, a stacking reinterpretation into a 20-high image, 400
full-height 20x30 filters, max-pool 10/2, two 500-unit dense layers and a
5-way softmax. ReLU follows each dense layer and each convolution's pool (the
paper's ReLU-then-pool is the same function: ReLU and max-pool commute).

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

from .dataset import WINDOW_EPOCHS
from .edf_ingest import N_STAGES, SAMPLES_PER_EPOCH, SCORING_RATE_HZ, SleepStage
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
    input_len: int = WINDOW_EPOCHS * SAMPLES_PER_EPOCH  # 15000
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

    A weight's fan-in n is the product of its shape after the first axis.
    ReLU-fed weights draw from Normal(0, sqrt(2/n)), the softmax layer from
    Normal(0, sqrt(1/n)), in `tensor_shapes` order; biases start at zero. In
    fixed-Morlet mode the first layer is replaced by the generated wavelet
    bank and frozen.
    """
    dtype = config.np_dtype
    tensors = {}
    for name, shape in config.tensor_shapes().items():
        if name in WEIGHT_NAMES:
            gain = 1.0 if name in SOFTMAX_WEIGHT_NAMES else 2.0
            std = dtype.type(np.sqrt(gain / np.prod(shape[1:])))
            tensors[name] = rng.standard_normal(shape, dtype=dtype) * std
        else:
            tensors[name] = np.zeros(shape, dtype=dtype)
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
    """What backward needs: each layer's output once (a conv's only pooled), batch axis kept.

    A pool's offsets are one byte per output (see `T.maxpool1d`), so pool2's
    are a quarter of its float32 output.
    """
    x: np.ndarray
    p1_off: np.ndarray      # pool1's argmax offsets into conv1's output
    s1: np.ndarray          # ReLU'd pool1 output, stacked: conv2's input
    p2_off: np.ndarray      # pool2's argmax offsets into conv2's output
    flat: np.ndarray        # ReLU'd pool2 output, flattened: dense1's input
    h1: np.ndarray
    h2: np.ndarray
    probs: np.ndarray
    conv_lengths: tuple[int, int]  # conv1's and conv2's output lengths

    def shape_trace(self) -> list:
        """Layer output shapes; the flat and dense extents are per window."""
        (c1_out, c2_out), p1, p2 = self.conv_lengths, self.p1_off.shape, self.p2_off.shape
        return [
            (*p1[:-1], c1_out), p1, self.s1.shape,
            (*p2[:-1], c2_out), p2, self.flat.shape[-1],
            self.h1.shape[-1], self.h2.shape[-1], self.probs.shape[-1],
        ]


_CONV2_CHUNK = 1 << 19  # im2col elements per conv2 chunk: one window at full size


def _conv2_chunks(cfg: ModelConfig, n: int) -> list[slice]:
    """The windows of a batch of n that conv2 and pool2 take at a time, in
    order, each about `_CONV2_CHUNK` elements of im2col copy: the whole of a
    `reduced_config` batch, or one full-size window."""
    step = max(1, _CONV2_CHUNK // (cfg.c2_out * cfg.c1_filters * cfg.c2_len))
    return [slice(start, start + step) for start in range(0, n, step)]


def forward(params: ModelParameters, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Stage probabilities, (5,) for one window (input_len,), (N, 5) for a
    batch (N, input_len); and the cache that backward needs.

    conv2 and pool2 run a few windows at a time, so no conv2 output or im2col
    copy is ever batch-sized.
    """
    cfg = params.config
    t = params.tensors
    x = np.asarray(x, dtype=cfg.np_dtype)
    if x.ndim not in (1, 2) or x.shape[-1] != cfg.input_len:
        raise ValueError(f"input shape {x.shape}: want window length {cfg.input_len}, 1 or 2 axes")

    p1, p1_off = T.maxpool1d(T.conv1d_valid(x, t["c1_kernels"], t["c1_bias"]), *cfg.p1)
    s1 = T.stack(T.relu(p1))
    # len(s1) is the batch size, or 1 for one window's (1, H, L) stack. Each
    # chunk's result is copied into place at once; keeping the chunks to join
    # them fragments the heap and raises a batch-100 step's peak (1.81 GB, not 1.68)
    p2 = np.empty((len(s1), cfg.c2_filters, cfg.p2_out), cfg.np_dtype)
    p2_off = np.empty(p2.shape, T.pool_offset_dtype(cfg.p2[0]))
    for rows in _conv2_chunks(cfg, len(s1)):
        p2[rows], p2_off[rows] = T.maxpool1d(
            T.conv2d_fullheight(s1[rows], t["c2_kernels"], t["c2_bias"])[..., 0, :], *cfg.p2)
    p2_off = p2_off.reshape(*x.shape[:-1], *p2.shape[1:])
    flat = T.relu(p2).reshape(*x.shape[:-1], -1)
    h1 = T.relu(T.dense(flat, t["f1_w"], t["f1_b"]))
    h2 = T.relu(T.dense(h1, t["f2_w"], t["f2_b"]))
    probs = T.softmax(T.dense(h2, t["out_w"], t["out_b"]))

    cache = ForwardCache(x, p1_off, s1, p2_off, flat, h1, h2, probs, (cfg.c1_out, cfg.c2_out))
    return probs, cache


def backward(params: ModelParameters, cache: ForwardCache,
             labels) -> dict[str, np.ndarray | T.OuterGrad]:
    """Gradients of the mean cross-entropy over the forward pass's windows.

    `labels` is one stage for a single window, or one stage per window of a
    batch. Frozen tensors receive no gradient entry. The dense weight
    gradients are `T.OuterGrad` factors; `np.asarray` forms one whole. The L2
    decay term is not included; batch_update adds it once.
    """
    cfg = params.config
    t = params.tensors
    grads: dict[str, np.ndarray | T.OuterGrad] = {}

    # g, the gradient of each layer's output in turn, is held once; a conv's
    # ReLU is masked at pooled resolution, before its pool scatters g back.
    g = T.cross_entropy(cache.probs, labels)[1].astype(cfg.np_dtype)
    g, grads["out_w"], grads["out_b"] = T.dense_backward(cache.h2, t["out_w"], g)
    g, grads["f2_w"], grads["f2_b"] = T.dense_backward(
        cache.h1, t["f2_w"], T.relu_backward(cache.h2, g))
    g, grads["f1_w"], grads["f1_b"] = T.dense_backward(
        cache.flat, t["f1_w"], T.relu_backward(cache.h1, g))
    g = T.relu_backward(cache.flat, g).reshape(cache.p2_off.shape)
    g = T.maxpool1d_backward(cache.p2_off, g, cfg.c2_out, cfg.p2[1])
    # conv2 a few windows at a time, as in forward; its parameter gradients
    # are carried from chunk to chunk, in window order
    conv1_trains = "c1_kernels" not in params.frozen
    batch = cache.s1.reshape(-1, *cache.s1.shape[-3:])
    g = g.reshape(len(batch), cfg.c2_filters, 1, cfg.c2_out)
    sums, grad_s1 = None, []
    for rows in _conv2_chunks(cfg, len(batch)):
        gx, *sums = T.conv2d_fullheight_backward(
            batch[rows], t["c2_kernels"], g[rows], input_grad=conv1_trains, sums=sums)
        grad_s1.append(gx)
    grads["c2_kernels"], grads["c2_bias"] = sums
    if conv1_trains:
        g = (grad_s1[0] if len(grad_s1) == 1 else np.concatenate(grad_s1)).reshape(cache.s1.shape)
        g = T.unstack(T.relu_backward(cache.s1, g))
        g = T.maxpool1d_backward(cache.p1_off, g, cfg.c1_out, cfg.p1[1])
        grads["c1_kernels"], grads["c1_bias"] = T.conv1d_backward(cache.x, t["c1_kernels"], g)
    return grads


_TILE_ROWS = 64         # rows of a tensor's (rows, cols) view per sgd_step tile
_UPDATE_BLOCK = 1 << 18  # elements of w, v and g per tile: 64 x 4096 for f1_w


def _tiles(rows: int, cols: int):
    """(rows, cols) slices of the tiles that cover a (rows, cols) view in order."""
    height = min(rows, _TILE_ROWS)
    width = _UPDATE_BLOCK // height
    for r in range(0, rows, height):
        for c in range(0, cols, width):
            yield slice(r, r + height), slice(c, c + width)


def sgd_step(params: ModelParameters, gradients: dict[str, np.ndarray | T.OuterGrad],
             config: ModelConfig) -> None:
    """Momentum SGD with L2 decay, in place: v <- mu*v - lr*(g + lam*w); w <- w + v.

    lr, mu and lam come from `config`; lam is 0 outside `params.l2_weight_names()`.
    Array gradients are consumed as scratch. A velocity starts at zero on its
    first update. Frozen tensors and tensors absent from `gradients` are left
    untouched.

    Each tensor is updated in one sweep of tiles of its (rows, cols) view (a
    vector is one row), `_TILE_ROWS` high and about `_UPDATE_BLOCK` elements
    in all, so a tile of w, v and g stays in cache across the five in-place
    ops. A tile of an array gradient is a slice of it, and the result is
    bit-identical to whole-tensor ops. A `T.OuterGrad` is formed one tile at a
    time, so its whole product is never built; the result is whole-tensor ops
    on those tiles. Each gradient tile is checked before it is used: a NaN or
    infinity raises FloatingPointError naming the tensor, leaving the earlier
    tensors and the earlier tiles of this one updated. `training.train_fold`
    turns the error into a failed fold.
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
        view = (len(w), -1) if w.ndim > 1 else (1, -1)
        w2 = w.reshape(view, copy=False)  # raises rather than update a copy
        v2 = params.velocity[name].reshape(view, copy=False)
        factored = isinstance(g, T.OuterGrad)
        if not factored:
            g = g.reshape(w2.shape)
        for rows, cols in _tiles(*w2.shape):
            wt, vt = w2[rows, cols], v2[rows, cols]
            gt = g.tile(rows, cols) if factored else g[rows, cols]
            T.assert_finite(what, gt)
            vt *= mu
            vt -= np.multiply(gt, lr, out=gt)
            if decay:
                vt -= np.multiply(wt, lr * lam, out=gt)
            wt += vt


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
