"""Dense-tensor primitives for the scoring network.

Forward and backward kernels for valid-extent 1D/2D cross-correlation,
max-pooling, ReLU, dense layers, softmax cross-entropy and L2 weight decay,
plus a central finite-difference checker used as the gradient oracle in the
test suite.

Conventions, fixed so that learned-filter analysis stays meaningful:
  - convolutions are cross-correlations (kernels are templates, never flipped)
  - only "valid" extents, unit stride/dilation for convolution
  - max-pool ties break to the first (lowest) index
  - ReLU subgradient at exactly 0 is 0
  - trailing pool remainder beyond the last full window is dropped
"""

from __future__ import annotations

import numpy as np


def _windows1d(x: np.ndarray, size: int) -> np.ndarray:
    """All length-`size` sliding windows of a 1D array, shape (L-size+1, size)."""
    return np.lib.stride_tricks.sliding_window_view(x, size)


def conv1d_valid(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate a single signal of length L with F kernels of length K.

    Returns y of shape (F, L-K+1) with y[f, i] = bias[f] + sum_j x[i+j] * kernels[f, j].
    """
    x = np.asarray(x)
    kernels = np.asarray(kernels)
    (f, k), l = kernels.shape, x.shape[0]
    if k > l:
        raise ValueError(f"kernel length {k} exceeds signal length {l}")
    cols = _windows1d(x, k)                      # (L-K+1, K)
    return kernels @ cols.T + bias[:, None]


def conv1d_backward(
    x: np.ndarray, kernels: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_y * conv1d_valid(x, kernels, bias)).

    Returns (grad_x, grad_kernels, grad_bias).
    """
    f, k = kernels.shape
    l = x.shape[0]
    p = l - k + 1
    if grad_y.shape != (f, p):
        raise ValueError(f"grad_y shape {grad_y.shape} inconsistent with ({f}, {p})")
    cols = _windows1d(x, k)                      # (P, K)
    grad_kernels = grad_y @ cols                 # (F, K)
    grad_bias = grad_y.sum(axis=1)
    grad_x = np.zeros_like(x)
    for j in range(k):
        grad_x[j:j + p] += kernels[:, j] @ grad_y
    return grad_x, grad_kernels, grad_bias


def maxpool1d(x: np.ndarray, size: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Max-pool each row of x (F, L) with the given window size and stride.

    Returns (y, indices): y has shape (F, 1 + (L-size)//stride); indices holds,
    for every pooled output, the column index in x of its maximum (first
    occurrence on ties), as needed to route gradients back.
    """
    x = np.asarray(x)
    f, l = x.shape
    if size > l:
        raise ValueError(f"pool size {size} exceeds length {l}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_out = 1 + (l - size) // stride
    win = np.lib.stride_tricks.sliding_window_view(x, size, axis=1)[:, ::stride, :]
    win = win[:, :n_out, :]
    arg = win.argmax(axis=2)                     # (F, n_out), first max on ties
    starts = np.arange(n_out) * stride
    indices = starts[None, :] + arg
    y = np.take_along_axis(x, indices, axis=1)
    return y, indices


def maxpool1d_backward(indices: np.ndarray, grad_y: np.ndarray, input_length: int) -> np.ndarray:
    """Scatter pooled gradients back to argmax positions, summing overlaps."""
    f, n_out = indices.shape
    if indices.size and (indices.min() < 0 or indices.max() >= input_length):
        raise ValueError("pool index out of range")
    grad_x = np.zeros((f, input_length), dtype=grad_y.dtype)
    rows = np.repeat(np.arange(f), n_out)
    np.add.at(grad_x, (rows, indices.ravel()), grad_y.ravel())
    return grad_x


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_y: np.ndarray) -> np.ndarray:
    return np.where(x > 0, grad_y, 0)


def stack(signals: np.ndarray) -> np.ndarray:
    """Reinterpret F filtered signals (F, L) as a single 2D stack (1, F, L)."""
    f, l = signals.shape
    return signals.reshape(1, f, l)


def unstack(stacked: np.ndarray) -> np.ndarray:
    """Inverse of :func:`stack`; also the gradient route (values untouched)."""
    _, f, l = stacked.shape
    return stacked.reshape(f, l)


def conv2d_fullheight(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Cross-correlate a (1, H, L) stack with F full-height kernels (F, H, K).

    The kernel height must equal the stack height; the correlation slides only
    along the time axis, giving (F, 1, L-K+1).
    """
    _, h, l = x.shape
    f, kh, k = kernels.shape
    if kh != h:
        raise ValueError(f"kernel height {kh} != input height {h}")
    if k > l:
        raise ValueError(f"kernel length {k} exceeds signal length {l}")
    p = l - k + 1
    cols = np.lib.stride_tricks.sliding_window_view(x[0], (h, k))  # (1, P, H, K)
    cols = cols.reshape(p, h * k)
    y = kernels.reshape(f, h * k) @ cols.T + bias[:, None]
    return y.reshape(f, 1, p)


def conv2d_fullheight_backward(
    x: np.ndarray, kernels: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for :func:`conv2d_fullheight`; grad_y has shape (F, 1, P)."""
    _, h, l = x.shape
    f, _, k = kernels.shape
    p = l - k + 1
    g = grad_y.reshape(f, p)
    cols = np.lib.stride_tricks.sliding_window_view(x[0], (h, k)).reshape(p, h * k)
    grad_kernels = (g @ cols).reshape(f, h, k)
    grad_bias = g.sum(axis=1)
    grad_x = np.zeros_like(x)
    for j in range(k):
        grad_x[0, :, j:j + p] += kernels[:, :, j].T @ g
    return grad_x, grad_kernels, grad_bias


def dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map y = W x + b for x (N,), W (M, N), b (M,)."""
    return weights @ x + bias


def dense_backward(
    x: np.ndarray, weights: np.ndarray, grad_y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grad_x = weights.T @ grad_y
    grad_weights = np.outer(grad_y, x)
    grad_bias = grad_y.copy()
    return grad_x, grad_weights, grad_bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax, at 64-bit whatever the logit precision.

    It is a handful of values and the probabilities must sum to 1 tightly.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def cross_entropy(probs: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of softmax output `probs` against one integer label.

    Returns (loss, grad_logits) with grad_logits = probs - onehot(label), the
    gradient with respect to the logits that produced `probs`. The probability
    is clamped at 1e-300 so a saturated softmax gives a large finite loss.
    """
    loss = float(-np.log(max(probs[label], 1e-300)))
    grad = probs.copy()
    grad[label] -= 1.0
    return loss, grad


def l2_penalty(weights: list[np.ndarray], lam: float) -> tuple[float, list[np.ndarray]]:
    """Quadratic weight penalty (lam/2) * sum w^2 and its per-tensor gradient lam*w.

    Callers pass weight tensors only; biases are exempt from decay.
    """
    penalty = 0.5 * lam * float(sum(np.vdot(w, w).real for w in weights))
    grads = [lam * w for w in weights]
    return penalty, grads


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
    """Checked-mode guard: raise if any value is NaN or infinite."""
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise FloatingPointError(f"non-finite values in {name}")
