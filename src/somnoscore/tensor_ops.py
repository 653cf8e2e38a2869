"""Dense-tensor primitives for the scoring network.

Forward and backward kernels for valid-extent 1D/2D cross-correlation,
max-pooling, ReLU, dense layers, softmax cross-entropy and the L2 penalty,
plus a central finite-difference checker used as the gradient oracle in the
test suite. Kernels take leading batch axes (one window is a batch of one);
backward kernels sum parameter gradients over the batch. The 2D
convolution's backward sums window by window, in order, and can carry its
sums on from earlier windows, so a caller may take a batch a few windows at a
time and get the same bits. Convolutions use the im2col layout of
Chellapilla, Puri & Simard (2006). The forward pass lays it out tap-major,
(H*K, P), one row per kernel tap, and copies it about a budget of values at
a time, so each BLAS product reads a contiguous operand; the backward passes
lay it out position-major, one matrix product per window, and the 2D
convolution's input gradient is one more, written into its spent im2col copy.
Max-pooling takes a running maximum over blocks of gcd(size, stride) samples
and then one over each window's blocks, a chunk of rows at a time, and
records where each maximum is without an argmax; for a pass that no backward
follows it runs the same maxima and records nothing.

Conventions, fixed so that learned-filter analysis stays meaningful:
  - convolutions are cross-correlations (kernels are templates, never flipped)
  - only "valid" extents, unit stride/dilation for convolution
  - max-pool ties break to the first (lowest) index; it records each
    maximum's offset within its window, one byte when the window fits
  - ReLU subgradient at exactly 0 is 0
  - trailing pool remainder beyond the last full window is dropped
"""

from __future__ import annotations

import math

import numpy as np


def _windows(x: np.ndarray, size: int, stride: int = 1) -> np.ndarray:
    """Read-only view of the length-`size` windows along x's last axis, one
    every `stride` samples: shape (..., 1 + (L-size)//stride, size)."""
    x = np.ascontiguousarray(x)
    n, b = 1 + (x.shape[-1] - size) // stride, x.itemsize
    win = np.ndarray((*x.shape[:-1], n, size), x.dtype, x, 0, (*x.strides[:-1], stride * b, b))
    win.flags.writeable = False
    return win


# im2col values a convolution's forward copies at a time: a full-size conv2
# window (600 x 1450) in one product, a conv1 window (200 x 14801) in four
_CONV_CHUNK = 900_000
_CONV_ALIGN = 64  # a stretch of output positions starts at a multiple of this


def _correlate(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate N stacks x (N, H, L) with F full-height kernels
    (F, H, K): y (N, F, P), P = L-K+1.

    The im2col copy is tap-major, (n, H*K, P'): its row h*K + j is
    x[:, h, j:j+P'], one strided copy made for each product, so that the
    product reads a contiguous operand with no transpose. A copy holds
    several whole windows, or a stretch of one window's output positions:
    the fewest stretches of equal length that keep to `_CONV_CHUNK` values,
    the length rounded up to a multiple of `_CONV_ALIGN` (so a copy may
    exceed the budget by H*K*_CONV_ALIGN values). Aligned stretches let BLAS
    take each output column with the kernel it takes in a whole-window
    product, so the bits do not depend on the budget; OpenBLAS keeps to this
    unless a stretch is small enough for its small-matrix kernels.
    """
    x = np.ascontiguousarray(x)
    n, h, l = x.shape
    f, _, k = kernels.shape
    if k > l:
        raise ValueError(f"kernel length {k} exceeds signal length {l}")
    p, taps, b = l - k + 1, h * k, x.itemsize
    y = np.empty((n, f, p), np.result_type(x, kernels))
    windows = max(1, min(n, _CONV_CHUNK // (taps * p)))
    # the fewest stretches that keep to the budget, of equal length rounded up
    # to the alignment: one, to the window's end, if a window fits
    stretches = -(-taps * p // _CONV_CHUNK)
    span = -(-p // (stretches * _CONV_ALIGN)) * _CONV_ALIGN
    w, column = kernels.reshape(f, taps), bias[:, None]
    for first in range(0, n, windows):
        rows = x[first:first + windows]
        for start in range(0, p, span):
            m = min(span, p - start)
            # the windows view of `_windows`: its j-th row is x[..., start+j:start+j+m]
            view = np.ndarray((len(rows), h, k, m), x.dtype, rows, start * b, (*rows.strides[:2], b, b))
            out = y[first:first + windows, :, start:start + m]
            # the copy lives only for the product, so no two chunks' copies coexist
            np.matmul(w, np.ascontiguousarray(view).reshape(len(rows), taps, m), out=out)
            out += column
    return y


def conv1d_valid(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate signals x (..., L) with F kernels of length K.

    Returns y (..., F, L-K+1) with y[..., f, i] = bias[f] + sum_j x[..., i+j] * kernels[f, j].
    """
    x, kernels = np.asarray(x), np.asarray(kernels)
    y = _correlate(x.reshape(-1, 1, x.shape[-1]), kernels[:, None, :], bias)
    return y.reshape(*x.shape[:-1], *y.shape[1:])


def conv1d_backward(
    x: np.ndarray, kernels: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(grad_y * conv1d_valid(x, kernels, bias)).

    Returns (grad_kernels, grad_bias); no input gradient: the input is the data.
    """
    f, k = kernels.shape
    p = x.shape[-1] - k + 1
    if grad_y.shape != (*x.shape[:-1], f, p):
        raise ValueError(f"grad_y shape {grad_y.shape} inconsistent with ({f}, {p})")
    cols = _windows(x, k)                        # (..., P, K)
    grad_kernels = np.matmul(grad_y, cols).reshape(-1, f, k).sum(axis=0)
    grad_bias = grad_y.reshape(-1, f, p).sum(axis=(0, 2))
    return grad_kernels, grad_bias


_POOL_CHUNK = 1 << 18  # window elements (maxpool1d) or outputs (its backward) per pass


def pool_offset_dtype(size: int) -> type:
    """The dtype of :func:`maxpool1d`'s offsets for windows of `size`: one byte when it fits."""
    return np.uint8 if size <= 256 else np.intp


def _flat_index(index: np.ndarray, first_row: int, stride: int, length: int) -> np.ndarray:
    """Turn `index` (rows, n), intp offsets within windows one every `stride`
    along contiguous rows of `length` from row `first_row` on, in place into
    the flat index of the samples they pick. Only the backward scatter needs
    it: the forward pass keeps its maxima as it finds them."""
    index += np.arange(0, index.shape[1] * stride, stride)
    index += np.arange(first_row * length, (first_row + len(index)) * length, length)[:, None]
    return index


def maxpool1d(x: np.ndarray, size: int, stride: int, *,
              offsets: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Max-pool each row of x (..., L) with the given window size and stride.

    Returns (y, offsets), both (..., 1 + (L-size)//stride): offsets holds,
    for every pooled output, its maximum's offset within its window (first
    occurrence on ties; a NaN counts as the maximum, as under argmax), as
    uint8 when size <= 256. Output i's maximum is x[..., i*stride + offsets[..., i]].
    With `offsets` False, for a pass that no backward follows, it returns
    (y, None) and keeps no offsets: the same running max over the same
    blocks, so y holds the same bits, NaNs and signed zeros included.

    With g = gcd(size, stride), each window is w = size/g whole blocks of g
    samples, one every stride/g blocks: a running max first takes each
    block's maximum, then one over each window's w blocks. Pool2's (10, 2)
    takes 1 + 4 combines per output, not 9.
    """
    x = np.ascontiguousarray(x)
    l = x.shape[-1]
    if size > l:
        raise ValueError(f"pool size {size} exceeds length {l}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = x.reshape(-1, l)
    g = math.gcd(size, stride)
    hop, w = stride // g, size // g                     # in blocks
    n = 1 + (l - size) // stride
    nb = (n - 1) * hop + w                              # blocks the windows cover
    y = np.empty((len(rows), n), x.dtype)
    off = np.empty((len(rows), n), pool_offset_dtype(size)) if offsets else None
    # about _POOL_CHUNK window elements (or samples read, if more) at a time,
    # so that a chunk's rows stay in cache
    step = max(1, _POOL_CHUNK // max(n * size, nb * g))
    spaced = [slice(j, j + (n - 1) * hop + 1, hop) for j in range(w)]  # window i's j-th block
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        block_max = np.empty((len(chunk), nb), x.dtype)
        block_at = None if off is None else np.empty(block_max.shape, off.dtype)
        _running_max([chunk[:, j:j + (nb - 1) * g + 1:g] for j in range(g)], block_max, block_at)
        top = y[start:start + step]
        if off is None:
            _running_max([block_max[:, j] for j in spaced], top)
            continue
        at = off[start:start + step]
        _running_max([block_max[:, j] for j in spaced], top, at, [block_at[:, j] for j in spaced], g)
        if math.isnan(top.max()):  # no value exceeds a NaN: point those at their first NaN
            nan = np.isnan(top)
            at[nan] = np.isnan(_windows(chunk, size, stride)[nan]).argmax(axis=1)
    shape = (*x.shape[:-1], n)
    return y.reshape(shape), None if off is None else off.reshape(shape)


def _running_max(columns: list, top: np.ndarray, at: np.ndarray | None = None,
                 inner: list | None = None, unit: int = 1) -> None:
    """Write into `top` the maximum over `columns`, a list of arrays of its
    shape, and into `at`, if given, the index of the first column that holds
    it; or, given each column's own offsets `inner` (below `unit`), the
    offset j*unit + inner[j] of that first column j.
    """
    np.copyto(top, columns[0])
    first = 1  # the first column the loop below folds in
    if at is None:
        for column in columns[1:]:
            # a NaN wins; on a tie (-0.0 and 0.0) maximum returns its second
            # operand, so the earlier value stays
            np.maximum(column, top, out=top)
        return
    if inner is not None:
        np.copyto(at, inner[0])
    elif len(columns) == 1:
        at.fill(0)
    else:  # offsets start at 0, so after column 1 they are its strict rise
        np.greater(columns[1], top, out=at)
        np.maximum(columns[1], top, out=top)
        first = 2
    rise, scaled = np.empty(top.shape, bool), np.empty_like(at)
    for j in range(first, len(columns)):
        np.greater(columns[j], top, out=rise)  # strictly: a tie keeps the first index
        np.maximum(columns[j], top, out=top)   # as in the values-only loop above
        # every earlier offset is below j*unit, so the last rise is the
        # largest offset: no masked write
        if inner is None:
            np.multiply(rise, j, out=scaled, dtype=scaled.dtype)
        else:
            np.add(inner[j], j * unit, out=scaled, dtype=scaled.dtype)
            scaled *= rise
        np.maximum(at, scaled, out=at)


def maxpool1d_backward(offsets: np.ndarray, grad_y: np.ndarray, input_length: int,
                       stride: int) -> np.ndarray:
    """Scatter pooled gradients back to their maxima, summing overlaps.

    `offsets` and `stride` are as :func:`maxpool1d` gave and took. Each of a
    row's n offsets must be below input_length - (n-1)*stride, the reach of
    its last window, so that no gradient leaves its row; ValueError otherwise.
    """
    off = offsets.reshape(-1, offsets.shape[-1])
    n = off.shape[1]
    if off.size and (off.min() < 0 or off.max() >= input_length - (n - 1) * stride):
        raise ValueError("pool offset out of range")
    g = grad_y.reshape(off.shape)
    grad_x = np.zeros((off.shape[0], input_length), dtype=grad_y.dtype)
    flat = grad_x.reshape(-1)
    # one flat index takes np.add.at's fast path; forming it for about
    # _POOL_CHUNK outputs at a time keeps it small (blocks share no row)
    step = max(1, _POOL_CHUNK // max(1, n))
    for start in range(0, len(off), step):
        index = _flat_index(off[start:start + step].astype(np.intp), start, stride, input_length)
        np.add.at(flat, index.ravel(), g[start:start + step].ravel())
    return grad_x.reshape(*offsets.shape[:-1], input_length)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    """grad_y where x > 0, else 0; x is ReLU's input or output, > 0 at the same places."""
    return np.where(x > 0, grad_y, 0)


def stack(signals: np.ndarray) -> np.ndarray:
    """Reinterpret F filtered signals (..., F, L) as a single 2D stack (..., 1, F, L)."""
    return signals[..., None, :, :]


def unstack(stacked: np.ndarray) -> np.ndarray:
    """Inverse of :func:`stack`; also the gradient route (values untouched)."""
    return stacked[..., 0, :, :]


def conv2d_fullheight(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate (..., 1, H, L) stacks with F full-height kernels (F, H, K).

    The kernel height must equal the stack height; the correlation slides only
    along the time axis, giving (..., F, 1, L-K+1).
    """
    h, l = x.shape[-2:]
    f, kh, k = kernels.shape
    if kh != h:
        raise ValueError(f"kernel height {kh} != input height {h}")
    y = _correlate(x.reshape(-1, h, l), kernels, bias)
    return y.reshape(*x.shape[:-3], f, 1, y.shape[-1])


def conv2d_fullheight_backward(
    x: np.ndarray, kernels: np.ndarray, grad_y: np.ndarray,
    sums: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for :func:`conv2d_fullheight`; grad_y has shape (..., F, 1, P).

    Returns (grad_x, grad_kernels, grad_bias). `sums`, the (grad_kernels,
    grad_bias) of earlier windows, are carried on: each window's share is
    added in order, so a batch taken a few windows at a time sums bit for bit
    as one taken whole.

    grad_x is one product, written into the im2col copy once the kernel
    gradient has spent it, and then K overlap-adds.
    """
    h, l = x.shape[-2:]
    f, _, k = kernels.shape
    p = l - k + 1
    g = grad_y[..., 0, :].reshape(-1, f, p)                         # (N, F, P)
    n, lead = len(g), int(sums is not None)
    # a buffer of this call's own (a reshape may return the read-only window
    # view itself), so that grad_x's product can be written into it
    cols = np.empty((n, p, h, k), x.dtype)                          # (N, P, H, K)
    np.copyto(cols, np.swapaxes(_windows(x.reshape(n, h, l), k), -2, -3))
    # a leading slot holds the carried sums: one sum over axis 0 then adds
    # each window's share to them in order
    per_window = np.empty((lead + n, f, h * k), np.result_type(g, cols))
    np.matmul(g, cols.reshape(n, p, h * k), out=per_window[lead:])
    row_sums = np.empty((lead + n, f), g.dtype)
    g.sum(axis=-1, out=row_sums[lead:])
    if sums is not None:
        per_window[0], row_sums[0] = sums[0].reshape(f, h * k), sums[1]
    grad_kernels, grad_bias = per_window.sum(axis=0).reshape(f, h, k), row_sums.sum(axis=0)
    product = cols.reshape(n, h * k, p)
    np.matmul(kernels.reshape(f, h * k).T, g, out=product)
    product = product.reshape(n, h, k, p)
    grad_x = np.zeros((n, h, l), x.dtype)
    for j in range(k):
        grad_x[..., j:j + p] += product[:, :, j]
    return grad_x.reshape(x.shape), grad_kernels, grad_bias


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map y = W x + b for x (..., N), W (M, N), b (M,)."""
    return x @ weights.T + bias


class OuterGrad:
    """The weight gradient g.T @ x of a dense layer, kept as its factors
    g (N, M) and x (N, K).

    `tile` forms one block of the (M, K) product, so an update can stream the
    gradient through the cache without the whole product ever existing;
    `np.asarray` forms all of it. BLAS may order a tile's N-term sums
    differently from the whole product's, so the two can differ by the
    rounding of an N-term dot product; at N=1 they are bit-identical.
    """

    def __init__(self, g: np.ndarray, x: np.ndarray):
        self.g, self.x = g, x

    @property
    def shape(self) -> tuple[int, int]:
        return self.g.shape[1], self.x.shape[1]

    def tile(self, rows: slice, cols: slice) -> np.ndarray:
        return self.g[:, rows].T @ self.x[:, cols]

    def bounded(self) -> bool:
        """Whether the factors alone show every entry of the product finite:
        they are finite and N * max|g| * max|x| is below a quarter of the
        dtype's maximum, which leaves room for the rounding of each sum. A
        NaN or infinity in a factor, or a larger bound, gives False."""
        def peak(a):  # max|a| without an |a| temporary; NaN if a holds one
            return float(max(a.max(initial=0), -a.min(initial=0)))
        bound = len(self.g) * peak(self.g) * peak(self.x)
        return bound < float(np.finfo(np.result_type(self.g, self.x)).max) / 4  # not if NaN

    def __array__(self, dtype=None, copy=None):
        full = self.g.T @ self.x
        return full if dtype is None else full.astype(dtype, copy=False)


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, OuterGrad, np.ndarray]:
    """Gradients for :func:`dense`; the weight gradient, summed over the
    batch, is returned as its factors (see :class:`OuterGrad`)."""
    grad_x = grad_y @ weights
    g, x = np.atleast_2d(grad_y), np.atleast_2d(x)
    return grad_x, OuterGrad(g, x), g.sum(axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis, at 64-bit whatever the logit precision.

    It is a handful of values and the probabilities must sum to 1 tightly.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax outputs `probs` (..., C) against integer labels.

    Returns (loss, grad_logits) with grad_logits = (probs - onehot(labels)) / N,
    the gradient of the mean over N windows with respect to the logits. The
    probability is clamped at 1e-300 so a saturated softmax gives a large finite loss.
    """
    labels = np.asarray(labels, dtype=np.intp)
    picked = np.take_along_axis(probs, labels[..., None], axis=-1)
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    return loss, (probs - np.eye(probs.shape[-1])[labels]) / labels.size


def finite_diff_check(
    f,
    point: np.ndarray,
    analytic_grad: np.ndarray,
    eps: float = 1e-5,
    mask: np.ndarray | None = None,
) -> float:
    """Max relative error between an analytic gradient and central differences.

    `f` maps an array with `point`'s shape to a scalar. The relative error per
    coordinate is |a - n| / max(|a|, |n|, eps). Coordinates where `mask` is
    False are skipped (used to exclude ReLU/max-pool tie points).
    """
    point = np.asarray(point, dtype=np.float64)
    flat = point.ravel()
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(point)
        flat[i] = orig - eps
        f_minus = f(point)
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * eps)
    analytic = np.asarray(analytic_grad, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), eps)
    rel = np.abs(analytic - numeric) / denom
    if mask is not None:
        rel = rel[np.asarray(mask).ravel()]
    return float(rel.max()) if rel.size else 0.0


def assert_finite(name: str, *arrays: np.ndarray) -> None:
    """Raise FloatingPointError if any value is NaN or infinite."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite values in {name}")
