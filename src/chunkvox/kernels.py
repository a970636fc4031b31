"""Dense float32 primitives used by every model component.

All tensors in the engine are C-contiguous ``numpy.float32`` arrays.  The
helpers here are thin shape-checked wrappers over numpy/BLAS so the rest of
the codebase never calls numpy reduction APIs with silently-broadcasting
arguments.  Accumulations happen in at least 32-bit precision (BLAS
accumulates matmuls in float32 registers; reductions that feed scalar
metrics use float64 at the call sites that need it).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

DTYPE = np.float32


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two 2-D float32 arrays.

    Args:
        a: Array of shape ``[n, k]``.
        b: Array of shape ``[k, m]``.

    Returns:
        ``a @ b`` with shape ``[n, m]``.

    Raises:
        ShapeError: If either input is not 2-D or the inner dimensions differ.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D inputs, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    return np.matmul(a, b)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Normalize each row of ``x`` to zero mean / unit variance, then affine.

    Args:
        x: Array of shape ``[t, d]``; each of the ``t`` rows is normalized
            independently over its ``d`` features.
        gamma: Per-feature gain, shape ``[d]``.
        beta: Per-feature shift, shape ``[d]``.
        eps: Variance floor added before the square root.

    Returns:
        Array of shape ``[t, d]``.
    """
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects [t, d] input, got shape {x.shape}")
    d = x.shape[1]
    if d == 0:
        raise ShapeError("layer_norm: feature dimension is zero")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match d={d}"
        )
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + DTYPE(eps))
    return (centered * inv) * gamma + beta


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along ``axis``.

    ``-inf`` entries act as masks and map to exactly 0.0 in the output.

    Raises:
        DomainError: If a slice along ``axis`` holds NaN or ``+inf``, or has
            every entry masked (the distribution would be undefined).
    """
    x = np.asarray(x, dtype=DTYPE)
    peak = np.max(x, axis=axis, keepdims=True)
    if not np.all(np.isfinite(peak)):
        # np.max propagates NaN, so a NaN row is told apart from a masked one here.
        if np.isnan(peak).any():
            raise DomainError("softmax: a row holds NaN")
        if np.isposinf(peak).any():
            raise DomainError("softmax: a row holds +inf")
        raise DomainError("softmax: a row has every position masked")
    z = np.exp(x - peak)
    return z / np.sum(z, axis=axis, keepdims=True)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, DTYPE(0.0))


def leaky_relu(x: np.ndarray, alpha: float = 0.1) -> np.ndarray:
    """Leaky rectifier with negative-side slope ``alpha``, ``0 < alpha <= 1``.

    Computed as ``max(x, alpha * x)``: one compare pass and no mask.  In that
    range it equals ``where(x >= 0, x, alpha * x)`` bit for bit, -0.0, +-inf
    and NaN included.  ``alpha = 0`` is outside it because ``0 * inf`` is NaN.

    Raises:
        DomainError: If ``alpha`` is outside ``(0, 1]``.
    """
    if not 0 < alpha <= 1:
        raise DomainError(f"leaky_relu slope {alpha} outside (0, 1]")
    return np.maximum(x, DTYPE(alpha) * x)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)

