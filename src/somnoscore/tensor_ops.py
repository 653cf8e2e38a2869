"""Dense-tensor primitives for the scoring network.

Forward and backward kernels for valid-extent 1D/2D cross-correlation,
max-pooling, ReLU, dense layers, softmax cross-entropy and the L2 penalty,
plus a central finite-difference checker used as the gradient oracle in the
test suite. Kernels take leading batch axes (one window is a batch of one);
backward kernels sum parameter gradients over the batch. Convolutions use the
im2col layout of Chellapilla, Puri & Simard (2006): one matrix product per window.

Conventions, fixed so that learned-filter analysis stays meaningful:
  - convolutions are cross-correlations (kernels are templates, never flipped)
  - only "valid" extents, unit stride/dilation for convolution
  - max-pool ties break to the first (lowest) index
  - ReLU subgradient at exactly 0 is 0
  - trailing pool remainder beyond the last full window is dropped
"""

from __future__ import annotations

import numpy as np


def _windows(x: np.ndarray, size: int, stride: int = 1) -> np.ndarray:
    """Read-only view of the length-`size` windows along x's last axis, one
    every `stride` samples: shape (..., 1 + (L-size)//stride, size)."""
    x = np.ascontiguousarray(x)
    n, b = 1 + (x.shape[-1] - size) // stride, x.itemsize
    win = np.ndarray((*x.shape[:-1], n, size), x.dtype, x, 0, (*x.strides[:-1], stride * b, b))
    win.flags.writeable = False
    return win


def conv1d_valid(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate signals x (..., L) with F kernels of length K.

    Returns y (..., F, L-K+1) with y[..., f, i] = bias[f] + sum_j x[..., i+j] * kernels[f, j].
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    k, l = kernels.shape[1], x.shape[-1]
    if k > l:
        raise ValueError(f"kernel length {k} exceeds signal length {l}")
    cols = _windows(x, k)                        # (..., L-K+1, K)
    return np.matmul(kernels, np.swapaxes(cols, -1, -2)) + bias[:, None]


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


def maxpool1d(x: np.ndarray, size: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool each row of x (..., L) with the given window size and stride.

    Returns (y, indices): y has shape (..., 1 + (L-size)//stride); indices
    holds, for every pooled output, the index within its row of x of its
    maximum (first occurrence on ties), as needed to route gradients back.
    """
    x = np.asarray(x)
    l = x.shape[-1]
    if size > l:
        raise ValueError(f"pool size {size} exceeds length {l}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = x.reshape(-1, l)
    arg = _windows(rows, size, stride).argmax(axis=2)   # first max on ties
    indices = arg + np.arange(0, arg.shape[1] * stride, stride)
    y = rows[np.arange(len(rows))[:, None], indices]
    shape = (*x.shape[:-1], arg.shape[1])
    return y.reshape(shape), indices.reshape(shape)


def maxpool1d_backward(indices: np.ndarray, grad_y: np.ndarray, input_length: int) -> np.ndarray:
    """Scatter pooled gradients back to argmax positions, summing overlaps."""
    if indices.size and (indices.min() < 0 or indices.max() >= input_length):
        raise ValueError("pool index out of range")
    idx = indices.reshape(-1, indices.shape[-1])
    grad_x = np.zeros((idx.shape[0], input_length), dtype=grad_y.dtype)
    rows = np.repeat(np.arange(idx.shape[0]), idx.shape[1])
    np.add.at(grad_x, (rows, idx.ravel()), grad_y.ravel())
    return grad_x.reshape(*indices.shape[:-1], input_length)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
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
    if k > l:
        raise ValueError(f"kernel length {k} exceeds signal length {l}")
    cols = np.swapaxes(_windows(x[..., 0, :, :], k), -2, -3)      # (..., P, H, K)
    cols = cols.reshape(*cols.shape[:-2], h * k)
    y = np.matmul(kernels.reshape(f, h * k), np.swapaxes(cols, -1, -2)) + bias[:, None]
    return y[..., None, :]


def conv2d_fullheight_backward(
    x: np.ndarray, kernels: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for :func:`conv2d_fullheight`; grad_y has shape (..., F, 1, P)."""
    h, l = x.shape[-2:]
    f, _, k = kernels.shape
    p = l - k + 1
    g = grad_y[..., 0, :]                                           # (..., F, P)
    cols = np.swapaxes(_windows(x[..., 0, :, :], k), -2, -3)      # (..., P, H, K)
    cols = cols.reshape(*cols.shape[:-2], h * k)
    grad_kernels = np.matmul(g, cols).reshape(-1, f, h * k).sum(axis=0)
    grad_bias = g.reshape(-1, f, p).sum(axis=(0, 2))
    grad_x = np.zeros_like(x)
    for j in range(k):
        grad_x[..., 0, :, j:j + p] += np.matmul(kernels[:, :, j].T, g)
    return grad_x, grad_kernels.reshape(f, h, k), grad_bias


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map y = W x + b for x (..., N), W (M, N), b (M,)."""
    return x @ weights.T + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for :func:`dense`; the weight gradient is one GEMM over the batch."""
    grad_x = grad_y @ weights
    g, x = np.atleast_2d(grad_y), np.atleast_2d(x)
    return grad_x, g.T @ x, g.sum(axis=0)


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


def l2_penalty(weights: list[np.ndarray], lam: float) -> float:
    """Quadratic weight penalty (lam/2) * sum w^2; `model.sgd_step` applies its
    gradient lam*w.

    Callers pass weight tensors only; biases are exempt from decay.
    """
    return 0.5 * lam * float(sum(np.vdot(w, w).real for w in weights))


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
