"""The scoring network: configuration, parameters, forward/backward, SGD.

The default configuration is a two-stage convolutional network over a
15000-sample window (five 30-second epochs at 100 Hz): 20 length-200 filters,
max-pool 20/10, a stacking reinterpretation into a 20-high image, 400
full-height 20x30 filters, max-pool 10/2, two 500-unit dense layers and a
5-way softmax. ReLU follows each dense layer and each convolution's pool (the
paper's ReLU-then-pool is the same function: ReLU and max-pool commute).
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import types
import typing
import zlib
from dataclasses import dataclass, asdict, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .dataset import WINDOW_EPOCHS
from .edf_ingest import N_STAGES, SAMPLES_PER_EPOCH, SleepStage
from .fileio import write_atomic
from . import tensor_ops as T

CHECKPOINT_MAGIC = b"SOMN"
CHECKPOINT_VERSION = 6


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
    l2_lambda: float = 1e-4
    learning_rate: float = 0.003
    momentum: float = 0.9
    batch_size: int = 100
    max_iterations: int = 20000
    eval_every: int = 500
    patience: int = 10
    dtype: str = "float32"

    def __post_init__(self):
        self.p1 = tuple(self.p1)
        self.p2 = tuple(self.p2)
        for name in ("input_len", "c1_filters", "c1_len", "c2_filters", "c2_len", "f1", "f2",
                     "batch_size", "max_iterations", "eval_every", "learning_rate"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), not {self.momentum}")
        if not self.l2_lambda >= 0:
            raise ValueError(f"l2_lambda must be non-negative, not {self.l2_lambda}")
        if any(v <= 0 for v in (*self.p1, *self.p2)):
            raise ValueError("pool sizes and strides must be positive")
        if self.p2_out < 1:  # given the positive sizes above, every earlier extent is then >= 1
            raise ValueError(f"the layers do not fit a {self.input_len}-sample window: "
                             f"pool2 would give {self.p2_out} outputs")
        if self.batch_size % N_STAGES != 0:
            raise ValueError(
                f"batch size {self.batch_size} not divisible by {N_STAGES} stages")
        if np.dtype(self.dtype) not in (np.float32, np.float64):
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
            "out_w": (N_STAGES, self.f2),
            "out_b": (N_STAGES,),
        }

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["p1"] = list(self.p1)
        d["p2"] = list(self.p2)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelConfig":
        """Build from a possibly partial dict; omitted fields keep defaults and
        a field this class does not declare is a ValueError naming it."""
        check_json_fields(cls, d, "model config")
        return cls(**d)


def check_json_fields(cls, d, what: str) -> None:
    """Raise ValueError unless `d`, the JSON form of the dataclass `cls`
    (`what`), is an object all of whose keys are `cls`'s fields, each value
    of its field's type; the error names every other key, or every value of
    the wrong type."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} field(s) {unknown}")
    hints = _type_hints(cls)
    wrong = [f"{f.name!r} must be {f.type}, not {type(d[f.name]).__name__}"
             for f in fields(cls) if f.name in d and not _holds(hints[f.name], d[f.name])]
    if wrong:
        raise ValueError(f"{what} field(s) of the wrong type: {'; '.join(wrong)}")


# the annotations are strings; evaluating them takes ~0.2 ms, so it is done once per class
_type_hints = functools.cache(typing.get_type_hints)


def _holds(hint, value) -> bool:
    """Whether the JSON value `value` is of the type `hint`: an int is no
    bool, a float may be an int, a dataclass is an object, and a `tuple[...]`
    or `list[...]` an array of its items."""
    if type(value) is hint:  # the common case, decided at once
        return True
    if type(hint) is type:
        kinds = dict if is_dataclass(hint) else (int, float) if hint is float else hint
        return isinstance(value, kinds) and not isinstance(value, bool)
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_holds(h, value) for h in args)
    if not isinstance(value, (list, tuple)):
        return False
    items = args if typing.get_origin(hint) is tuple else args * len(value)
    return len(value) == len(items) and all(map(_holds, items, value))


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


@dataclass
class ModelParameters:
    config: ModelConfig
    tensors: dict[str, np.ndarray]
    velocity: dict[str, np.ndarray] = field(default_factory=dict)  # filled by sgd_step

    frozen = frozenset()  # every tensor trains; benchmark/workloads.py still compares this

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            config=self.config,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            velocity={k: v.copy() for k, v in self.velocity.items()},
        )


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParameters:
    """Variance-preserving Gaussian initialization.

    A weight's fan-in n is the product of its shape after the first axis.
    ReLU-fed weights draw from Normal(0, sqrt(2/n)), the softmax layer from
    Normal(0, sqrt(1/n)), in `tensor_shapes` order; biases start at zero.
    """
    dtype = config.np_dtype
    tensors = {}
    for name, shape in config.tensor_shapes().items():
        if name in WEIGHT_NAMES:
            gain = 1.0 if name == "out_w" else 2.0
            tensors[name] = rng.standard_normal(shape, dtype=dtype)
            tensors[name] *= dtype.type(np.sqrt(gain / np.prod(shape[1:])))  # in place: no copy
        else:
            tensors[name] = np.zeros(shape, dtype=dtype)
    return ModelParameters(config, tensors)


@dataclass
class ForwardCache:
    """What backward needs: each layer's output once (a conv's only pooled), batch axis kept.

    A pool's offsets are one byte per output (see `T.maxpool1d`), so pool2's
    are a quarter of its float32 output.
    """
    x: np.ndarray
    p1_off: np.ndarray      # where pool1's maxima lie in their windows of conv1's output
    s1: np.ndarray          # ReLU'd pool1 output, stacked: conv2's input
    p2_off: np.ndarray      # where pool2's maxima lie in their windows of conv2's output
    flat: np.ndarray        # ReLU'd pool2 output, flattened: dense1's input
    h1: np.ndarray
    h2: np.ndarray


_CONV2_CHUNK = 1 << 19  # im2col elements per conv2 chunk: one window at full size


def _conv2_chunks(cfg: ModelConfig, n: int) -> list[slice]:
    """The windows of a batch of n that conv2 and pool2 take at a time, in
    order, each about `_CONV2_CHUNK` elements of im2col copy: the whole of a
    `reduced_config` batch, or one full-size window."""
    step = max(1, _CONV2_CHUNK // (cfg.c2_out * cfg.c1_filters * cfg.c2_len))
    return [slice(start, start + step) for start in range(0, n, step)]


def forward(params: ModelParameters, x: np.ndarray, *,
            cache: bool = True) -> tuple[np.ndarray, ForwardCache | None]:
    """Stage probabilities, (5,) for one window (input_len,), (N, 5) for a
    batch (N, input_len); and the cache that backward needs. With `cache`
    False, for a scoring pass that no backward follows, the second item is
    None: the pools keep no offsets and nothing is kept for backward. The
    probabilities are the same bits either way.

    conv2 and pool2 run a few windows at a time, so no conv2 output or im2col
    copy is ever batch-sized.
    """
    cfg = params.config
    t = params.tensors
    x = np.asarray(x, dtype=cfg.np_dtype)
    if x.ndim not in (1, 2) or x.shape[-1] != cfg.input_len:
        raise ValueError(f"input shape {x.shape}: want window length {cfg.input_len}, 1 or 2 axes")

    p1, p1_off = T.maxpool1d(T.conv1d_valid(x, t["c1_kernels"], t["c1_bias"]), *cfg.p1,
                             offsets=cache)
    s1 = T.stack(T.relu(p1))
    # len(s1) is the batch size, or 1 for one window's (1, H, L) stack. Each
    # chunk's result is copied into place at once; keeping the chunks to join
    # them fragments the heap and raises a batch-100 step's peak (1.81 GB, not 1.68)
    p2 = np.empty((len(s1), cfg.c2_filters, cfg.p2_out), cfg.np_dtype)
    p2_off = np.empty(p2.shape, T.pool_offset_dtype(cfg.p2[0])) if cache else None
    for rows in _conv2_chunks(cfg, len(s1)):
        p2[rows], off = T.maxpool1d(
            T.conv2d_fullheight(s1[rows], t["c2_kernels"], t["c2_bias"])[..., 0, :], *cfg.p2,
            offsets=cache)
        if cache:
            p2_off[rows] = off
    flat = T.relu(p2).reshape(*x.shape[:-1], -1)
    h1 = T.relu(T.dense(flat, t["f1_w"], t["f1_b"]))
    h2 = T.relu(T.dense(h1, t["f2_w"], t["f2_b"]))
    probs = T.softmax(T.dense(h2, t["out_w"], t["out_b"]))
    if not cache:
        return probs, None
    p2_off = p2_off.reshape(*x.shape[:-1], *p2.shape[1:])
    return probs, ForwardCache(x, p1_off, s1, p2_off, flat, h1, h2)


def backward(params: ModelParameters, cache: ForwardCache,
             grad_logits: np.ndarray) -> dict[str, np.ndarray | T.OuterGrad]:
    """Gradients over the forward pass's windows, from the loss's gradient
    with respect to the logits as `T.cross_entropy` returns it.

    The dense weight gradients are `T.OuterGrad` factors; `np.asarray` forms
    one whole. The L2 decay is `sgd_step`'s.
    """
    cfg = params.config
    t = params.tensors
    grads: dict[str, np.ndarray | T.OuterGrad] = {}

    # g, the gradient of each layer's output in turn, is held once; a conv's
    # ReLU is masked at pooled resolution, before its pool scatters g back.
    g = grad_logits.astype(cfg.np_dtype)
    g, grads["out_w"], grads["out_b"] = T.dense_backward(cache.h2, t["out_w"], g)
    g, grads["f2_w"], grads["f2_b"] = T.dense_backward(
        cache.h1, t["f2_w"], T.relu_backward(cache.h2, g))
    g, grads["f1_w"], grads["f1_b"] = T.dense_backward(
        cache.flat, t["f1_w"], T.relu_backward(cache.h1, g))
    g = T.relu_backward(cache.flat, g).reshape(cache.p2_off.shape)
    g = T.maxpool1d_backward(cache.p2_off, g, cfg.c2_out, cfg.p2[1])
    # conv2 a few windows at a time, as in forward, each chunk's input gradient
    # copied into place; its parameter gradients carried on, in window order
    batch = cache.s1.reshape(-1, *cache.s1.shape[-3:])
    g = g.reshape(len(batch), cfg.c2_filters, 1, cfg.c2_out)
    sums, grad_s1 = None, np.empty(batch.shape, cfg.np_dtype)
    for rows in _conv2_chunks(cfg, len(batch)):
        grad_s1[rows], *sums = T.conv2d_fullheight_backward(
            batch[rows], t["c2_kernels"], g[rows], sums=sums)
    grads["c2_kernels"], grads["c2_bias"] = sums
    g = grad_s1.reshape(cache.s1.shape)
    g = T.unstack(T.relu_backward(cache.s1, g))
    g = T.maxpool1d_backward(cache.p1_off, g, cfg.c1_out, cfg.p1[1])
    grads["c1_kernels"], grads["c1_bias"] = T.conv1d_backward(cache.x, t["c1_kernels"], g)
    return grads


_TILE_ROWS = 64         # rows of a tensor's (rows, cols) view per sgd_step tile
_UPDATE_BLOCK = 1 << 18  # elements of w, v and g per tile: 64 x 4096 for f1_w
_STRIP_ROWS = 16        # rows of a tile updated at a time: 3 x 256 KB of f1_w's w, v and g


def _tiles(rows: int, cols: int):
    """(rows, cols) slices of the tiles that cover a (rows, cols) view in order."""
    height = min(rows, _TILE_ROWS)
    width = _UPDATE_BLOCK // height
    for r in range(0, rows, height):
        for c in range(0, cols, width):
            yield slice(r, r + height), slice(c, c + width)


def _strips(*tiles: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """The `_STRIP_ROWS`-row strips of same-height tiles, in order, each a
    tuple of one strip of every tile. A tile no taller is one strip, itself,
    so that a small tensor's update pays for no slicing."""
    if len(tiles[0]) <= _STRIP_ROWS:
        return [tiles]
    return [tuple(t[r:r + _STRIP_ROWS] for t in tiles) for r in range(0, len(tiles[0]), _STRIP_ROWS)]


def sgd_step(params: ModelParameters, gradients: dict[str, np.ndarray | T.OuterGrad],
             config: ModelConfig) -> float:
    """Momentum SGD with L2 decay, in place: v <- mu*v - lr*(g + lam*w); w <- w + v.

    lr, mu and lam come from `config`; lam is 0 outside `WEIGHT_NAMES`.
    Returns the L2 term (lam/2)*sum(w^2) of the decayed weights it updates,
    as they were before the step. Array gradients are consumed as scratch. A
    velocity starts at zero on its first update. Tensors absent from
    `gradients` are left untouched.

    Each tensor is updated in one sweep of tiles of its (rows, cols) view (a
    vector is one row), `_TILE_ROWS` high and about `_UPDATE_BLOCK` elements
    in all, each applied `_STRIP_ROWS` rows at a time, so that a strip of w,
    v and g stays in cache across the in-place ops. A tile of an array
    gradient is a slice of it, and the result is bit-identical to
    whole-tensor ops. A `T.OuterGrad` is formed one tile at a time, so its
    whole product is never built; the result is whole-tensor ops on those
    tiles. Before a decayed strip is updated, each of its rows' sum of
    squares is taken in the weights' dtype (`np.vecdot`), and a tile's row
    sums are accumulated in float64, so no float32 sum runs over more than
    one row of one tile. A gradient is checked for NaN and infinity before
    it is used. A `T.OuterGrad` whose factors hold fewer values than its
    product is checked once, from the factors, when they bound every entry
    below the dtype's maximum (`T.OuterGrad.bounded`); any other gradient
    is checked tile by tile. A NaN or infinity raises FloatingPointError
    naming the tensor, leaving the earlier tensors and the earlier tiles of
    this one updated. `training.train_fold` turns the error into a failed
    fold.
    """
    lr, mu, lam = config.learning_rate, config.momentum, config.l2_lambda
    decayed = WEIGHT_NAMES if lam else ()
    sum_sq = 0.0
    for name, g in gradients.items():
        what = f"the gradient of tensor {name!r}"
        w = params.tensors[name]
        if name not in params.velocity:
            params.velocity[name] = np.zeros(w.shape, w.dtype)
        view = (len(w), -1) if w.ndim > 1 else (1, -1)
        w2 = w.reshape(view, copy=False)  # raises rather than update a copy
        v2 = params.velocity[name].reshape(view, copy=False)
        factored = isinstance(g, T.OuterGrad)
        if not factored:
            g = g.reshape(w2.shape)
        checked = factored and g.g.size + g.x.size < w.size and g.bounded()
        for rows, cols in _tiles(*w2.shape):
            wt, vt = w2[rows, cols], v2[rows, cols]
            gt = g.tile(rows, cols) if factored else g[rows, cols]
            if not checked:
                T.assert_finite(what, gt)
            decay, row_sq = name in decayed, np.empty(len(wt), wt.dtype)
            for ws, vs, gs, rs in _strips(wt, vt, gt, row_sq):
                vs *= mu
                vs -= np.multiply(gs, lr, out=gs)
                if decay:
                    np.vecdot(ws, ws, out=rs)
                    vs -= np.multiply(ws, lr * lam, out=gs)
                ws += vs
            if decay:
                sum_sq += float(row_sq.sum(dtype=np.float64))
    return 0.5 * lam * sum_sq


def predict(params: ModelParameters, signal: np.ndarray) -> SleepStage:
    probs, _ = forward(params, signal, cache=False)
    return predict_from_probs(probs)


def predict_from_probs(probs: np.ndarray) -> SleepStage:
    """Argmax stage; ties break to the lowest stage index."""
    return SleepStage(int(np.argmax(probs)))


# --- checkpoint format ------------------------------------------------------
# magic "SOMN" | u16 version | u32 config-JSON length | config JSON (the
# ModelConfig's fields) | each tensor's raw little-endian values, in
# `tensor_shapes()` order and the config's dtype | u64 holding the CRC-32
# (zlib) of everything before it. The config alone fixes every tensor's name,
# shape and offset. Version 5, which repeated each tensor's name, dtype and
# shape in a record of its own, versions 4 and 3, whose config has
# `first_layer_mode` (and, in 3, `l2_scope` and the Morlet fields), version 2,
# whose JSON wraps the config, and version 1, with a CRC-64, are refused.


class CheckpointError(Exception):
    pass


_CRC_CHUNK = 1 << 20  # bytes read at a time to checksum a file whose config does not build


def save_checkpoint(params: ModelParameters, path: Path) -> None:
    """Write `params` atomically, streaming each tensor's own buffer: nothing
    is copied but the header. A tensor missing, or not of its config's shape
    and dtype, is refused by name and nothing is written."""
    cfg = params.config
    cfg_bytes = json.dumps(cfg.to_json_dict(), sort_keys=True).encode("utf-8")
    pieces = [CHECKPOINT_MAGIC + struct.pack("<HI", CHECKPOINT_VERSION, len(cfg_bytes)),
              cfg_bytes]
    for name, shape in cfg.tensor_shapes().items():
        if name not in params.tensors:
            raise CheckpointError(f"{path}: tensor {name!r} missing")
        arr = params.tensors[name]
        if arr.shape != shape:
            raise CheckpointError(f"{path}: tensor {name!r} shape {arr.shape} != {shape}")
        if arr.dtype != cfg.np_dtype:
            raise CheckpointError(f"{path}: tensor {name!r} dtype {arr.dtype} != {cfg.dtype}")
        # a view if it already is contiguous and little-endian
        pieces.append(memoryview(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<"))))
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    write_atomic(path, [*pieces, struct.pack("<Q", crc)])


def load_checkpoint(path: Path) -> ModelParameters:
    """Read a checkpoint in one pass, each tensor straight into its own array.

    The format version is checked first. A file cut short or damaged past
    its version fails the checksum: so does a config length past the end,
    or a file whose size is not the one its config implies, both before any
    tensor is allocated, so no allocation exceeds the file's size. An intact
    file whose config does not build is refused by name.
    """
    corrupt = CheckpointError(f"{path}: checksum failure (corrupt or truncated)")
    with open(path, "rb") as f:
        head = f.read(10)
        if len(head) < 6 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack_from("<H", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: format version {version} != {CHECKPOINT_VERSION}")
        body_end = os.fstat(f.fileno()).st_size - 8  # where the trailer starts
        if len(head) < 10 or 10 + (cfg_len := struct.unpack_from("<I", head, 6)[0]) > body_end:
            raise corrupt
        cfg_bytes = f.read(cfg_len)
        crc = zlib.crc32(cfg_bytes, zlib.crc32(head))
        try:
            config = ModelConfig.from_json_dict(json.loads(cfg_bytes))
        except (TypeError, ValueError) as exc:  # not an object, an unknown field, a bad value
            while chunk := f.read(min(_CRC_CHUNK, body_end - f.tell())):  # b"" at either end
                crc = zlib.crc32(chunk, crc)
            if f.read(8) != struct.pack("<Q", crc):
                raise corrupt from None
            raise CheckpointError(f"{path}: bad model config: {exc}") from exc
        dtype = config.np_dtype.newbyteorder("<")
        shapes = config.tensor_shapes()
        if f.tell() + sum(map(math.prod, shapes.values())) * dtype.itemsize != body_end:
            raise corrupt
        tensors = {}
        for name, shape in shapes.items():
            arr = np.empty(shape, dtype)
            f.readinto(arr)  # a short read ends at the file's end: no trailer is left to match
            crc = zlib.crc32(arr, crc)
            # a byte swap only on a big-endian host
            tensors[name] = arr.astype(config.np_dtype, copy=False)
        if f.read(8) != struct.pack("<Q", crc):
            raise corrupt
    return ModelParameters(config, tensors)
