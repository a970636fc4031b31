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


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product of two 2-D, or two stacked 3-D, float32 arrays.

    Args:
        a: Array of shape ``[n, k]`` or ``[batch, n, k]``.
        b: Array of shape ``[k, m]`` or ``[batch, k, m]``.
        out: Optional destination of the result's shape; a strided view
            with unit stride along its rows still goes to BLAS.

    Returns:
        ``a @ b`` with shape ``[n, m]`` or ``[batch, n, m]``.

    Raises:
        ShapeError: If the inputs are not both 2-D or both 3-D, or their
            batch or inner dimensions differ.
    """
    if a.ndim != b.ndim or a.ndim not in (2, 3):
        raise ShapeError(f"matmul expects two 2-D or two 3-D inputs, got {a.shape} and {b.shape}")
    if a.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul batch dimensions differ: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    return np.matmul(a, b, out=out)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Normalize each row of ``x`` to zero mean / unit variance, then affine.

    Two passes over the rows: the mean, then the variance of the centred
    rows.  Both are ``np.add.reduce`` divided by ``d``, the sums ``np.mean``
    takes without its Python wrapper, so the result equals the textbook
    ``np.mean`` formula bit for bit.  The centred rows are the output
    buffer; the scale, gain and shift are applied to it in place.

    Args:
        x: Array of shape ``[t, d]``; each of the ``t`` rows is normalized
            independently over its ``d`` features.
        gamma: Per-feature gain, shape ``[d]``.
        beta: Per-feature shift, shape ``[d]``.
        eps: Variance floor added before the square root.
        out: Optional ``[t, d]`` destination; it may be ``x`` itself.

    Returns:
        Array of shape ``[t, d]`` (``out`` when given).
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
    mean = np.add.reduce(x, axis=1, keepdims=True)
    mean /= d
    centered = np.subtract(x, mean, out=out)
    var = np.add.reduce(centered * centered, axis=1, keepdims=True)
    var /= d
    var += DTYPE(eps)
    inv = 1.0 / np.sqrt(var, out=var)
    centered *= inv
    centered *= gamma
    centered += beta
    return centered


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically-stable softmax along ``axis``.

    ``-inf`` entries act as masks and map to exactly 0.0 in the output.  The
    shifted logits are the only full-size temporary: exp and the division
    run in place on it.  That temporary is ``out`` when given, which may be
    ``x`` itself; otherwise ``x`` is left unchanged.

    Raises:
        DomainError: If a slice along ``axis`` holds NaN or ``+inf``, or has
            every entry masked (the distribution would be undefined).
            ``out`` is not written then.
    """
    x = np.asarray(x, dtype=DTYPE)
    peak = np.maximum.reduce(x, axis=axis, keepdims=True)
    if not np.isfinite(peak).all():
        # np.max propagates NaN, so a NaN row is told apart from a masked one here.
        if np.isnan(peak).any():
            raise DomainError("softmax: a row holds NaN")
        if np.isposinf(peak).any():
            raise DomainError("softmax: a row holds +inf")
        raise DomainError("softmax: a row has every position masked")
    z = np.subtract(x, peak, out=out)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=axis, keepdims=True)
    return z


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, 0)``; ``out`` may be ``x`` itself."""
    return np.maximum(x, DTYPE(0.0), out=out)


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
