"""Causal 1-D convolutions with exact offline/streaming equivalence.

Layout conventions:
  * activations are ``[channels, length]`` float32 arrays;
  * convolution kernels are ``[out_channels, in_channels, kernel_size]`` for
    both plain and transposed layers;
  * kernels a model is built with are stored tap-major (:func:`tap_major`):
    the ``[out, in, taps]`` view of a C-contiguous ``[out, taps, in]`` array,
    so the per-tap matrix ``w[:, :, j]`` has unit inner stride and goes to
    BLAS without a copy; any other layout computes the same values, slower;
  * biases are ``[out_channels]``.

A plain causal layer left-pads by ``dilation * (kernel_size - 1)`` so output
frame ``t`` depends only on input frames ``<= t`` (for stride 1).  A causal
transposed layer left-pads its *input* by ``kernel_size // stride - 1``
frames, then trims ``stride`` columns from the head of the raw overlap-add
whenever that pad is nonzero, and keeps exactly ``length * stride`` output
columns; with ``kernel_size == 2 * stride`` this is the same as trimming one
stride from each end of the padded result.

``natural`` pad mode defers padding to the network level: no layer pads at
all, real preceding frames are prepended to the slice instead, and every
transposed layer trims ``stride`` columns from both ends of its raw output.
``natural_pad_forward`` implements that whole-network discipline.

Streaming evaluation (``*_step``) feeds arbitrary chunk splits through one
rule for both layer types: the carried state is the tail of the padded input
seen so far, each chunk reruns the layer over ``[history; chunk]``, and the
output columns the chunk completes are emitted.  Concatenated outputs equal
the offline result up to float associativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import DTYPE

PAD_MODES = ("constant", "replicate", "natural")


@dataclass(frozen=True)
class ConvSpec:
    """Static description of one causal convolution layer.

    Attributes:
        in_channels: Input channel count.
        out_channels: Output channel count.
        kernel_size: Kernel taps.
        stride: Hop for plain layers, upsampling factor for transposed ones.
        dilation: Tap spacing; transposed layers must use 1.
        transposed: Whether the layer upsamples via transposed convolution.
        pad_mode: ``"constant"``, ``"replicate"``, or ``"natural"``.
        pad_value: Fill value for ``constant`` padding.
    """

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    dilation: int = 1
    transposed: bool = False
    pad_mode: str = "constant"
    pad_value: float = 0.0

    def __post_init__(self) -> None:
        for field in ("in_channels", "out_channels", "kernel_size", "stride", "dilation"):
            if getattr(self, field) < 1:
                raise ConfigError(f"ConvSpec.{field} must be >= 1, got {getattr(self, field)}")
        if self.pad_mode not in PAD_MODES:
            raise ConfigError(f"ConvSpec.pad_mode {self.pad_mode!r} not in {PAD_MODES}")
        if self.transposed:
            if self.dilation != 1:
                raise ConfigError("transposed layers do not support dilation")
            if self.kernel_size < self.stride:
                raise ConfigError(
                    f"transposed kernel_size {self.kernel_size} < stride {self.stride} "
                    "would leave output gaps"
                )


def left_context(spec: ConvSpec) -> int:
    """Input frames of history the layer needs before its first clean output."""
    if spec.transposed:
        return spec.kernel_size // spec.stride - 1
    return spec.dilation * (spec.kernel_size - 1)


@dataclass(frozen=True)
class ConvState:
    """Carried streaming state for one layer: the input history.

    ``buf`` is the tail of the padded input fed so far, or ``None`` before a
    stream's first frame.  A stride-1 plain layer keeps ``left_context``
    frames; a transposed layer keeps at most ``max(pad - 1, 0) + (kernel_size
    - 1) // stride`` frames, the ones its unfinished output columns still
    need.  ``skip`` counts input frames a strided plain layer still owes its
    last output hop.  States are immutable; ``*_step`` returns an updated
    copy, so distinct states never alias each other's progress.
    """

    buf: np.ndarray | None = None
    skip: int = 0


def tap_major(w: np.ndarray) -> np.ndarray:
    """``w`` as float32 ``[out, in, taps]``, stored C-contiguous as ``[out, taps, in]``."""
    return np.ascontiguousarray(np.swapaxes(w, 1, 2), dtype=DTYPE).swapaxes(1, 2)


def _check_kernel(spec: ConvSpec, w: np.ndarray, b: np.ndarray) -> None:
    want = (spec.out_channels, spec.in_channels, spec.kernel_size)
    if w.shape != want:
        raise ShapeError(f"kernel shape {w.shape} does not match spec {want}")
    if b.shape != (spec.out_channels,):
        raise ShapeError(f"bias shape {b.shape} does not match ({spec.out_channels},)")


def _check_input(spec: ConvSpec, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[0] != spec.in_channels:
        raise ShapeError(
            f"input shape {x.shape} does not match [{spec.in_channels}, length]"
        )


def _pad_left(x: np.ndarray, pad: int, spec: ConvSpec) -> np.ndarray:
    if pad == 0:
        return x
    if spec.pad_mode != "constant":
        # ``natural`` layers replicate too, at the absolute start of a stream.
        if x.shape[1] == 0:
            raise ShapeError("cannot replicate-pad an empty sequence")
        fill = np.repeat(x[:, :1], pad, axis=1)
    else:
        fill = np.full((x.shape[0], pad), spec.pad_value, dtype=DTYPE)
    return np.concatenate([fill, x], axis=1)


def _conv_valid(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec) -> np.ndarray:
    """Valid-mode strided convolution; returns ``[out_channels, n_out]``."""
    span = spec.dilation * (spec.kernel_size - 1) + 1
    n = x.shape[1]
    if n < span:
        return np.zeros((spec.out_channels, 0), dtype=DTYPE)
    n_out = (n - span) // spec.stride + 1
    stop = spec.stride * (n_out - 1) + 1
    acc = w[:, :, 0] @ x[:, :stop : spec.stride]
    for j in range(1, spec.kernel_size):
        off = j * spec.dilation
        acc += w[:, :, j] @ x[:, off : off + stop : spec.stride]
    if b is not None:
        acc += b[:, None]
    return acc


def _tconv_raw(x: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Overlap-add scatter of a transposed convolution, no pad/trim/bias.

    Output column ``i * stride + j`` accumulates ``w[:, :, j] @ x[:, i]``;
    length is ``(m - 1) * stride + kernel_size`` for ``m`` input frames.
    Taps ``j < stride`` write the disjoint columns ``j, j + stride, ...``,
    which cover ``[0, m * stride)``, so they assign; only the tail past
    ``m * stride`` starts at zero, and the later taps add (``kernel_size >=
    stride``, as :class:`ConvSpec` enforces).
    """
    m = x.shape[1]
    k, s = spec.kernel_size, spec.stride
    raw = np.empty((spec.out_channels, (m - 1) * s + k), dtype=DTYPE)
    raw[:, m * s :] = 0
    for j in range(k):
        cols = slice(j, j + (m - 1) * s + 1, s)
        if j < s:
            raw[:, cols] = w[:, :, j] @ x
        else:
            raw[:, cols] += w[:, :, j] @ x
    return raw


def causal_conv1d_offline(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> np.ndarray:
    """Whole-sequence causal convolution.

    Args:
        x: Input ``[in_channels, length]``.
        w: Kernel ``[out_channels, in_channels, kernel_size]``.
        b: Bias ``[out_channels]``.
        spec: Layer description; must not be transposed and must use
            ``constant`` or ``replicate`` padding (``natural`` layers are
            evaluated through :func:`natural_pad_forward`).

    Returns:
        ``[out_channels, ceil(length / stride)]`` output.
    """
    if spec.transposed:
        raise ConfigError("causal_conv1d_offline called with a transposed spec")
    if spec.pad_mode == "natural":
        raise ConfigError("natural-pad layers are evaluated via natural_pad_forward")
    _check_input(spec, x)
    _check_kernel(spec, w, b)
    if x.shape[1] == 0:
        return np.zeros((spec.out_channels, 0), dtype=DTYPE)
    xp = _pad_left(x, left_context(spec), spec)
    return _conv_valid(xp, w, b, spec)


def causal_tconv1d_offline(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> np.ndarray:
    """Whole-sequence causal transposed convolution.

    Left-pads the input by ``kernel_size // stride - 1`` frames, trims
    ``stride`` columns from the head of the raw overlap-add when that pad is
    nonzero, and keeps exactly ``length * stride`` columns, so the output
    length law ``out = length * stride`` holds for every ``kernel_size >=
    stride`` and sample ``t`` depends only on input frames ``<= t // stride``.
    """
    if not spec.transposed:
        raise ConfigError("causal_tconv1d_offline called with a non-transposed spec")
    if spec.pad_mode == "natural":
        raise ConfigError("natural-pad layers are evaluated via natural_pad_forward")
    _check_input(spec, x)
    _check_kernel(spec, w, b)
    length = x.shape[1]
    if length == 0:
        return np.zeros((spec.out_channels, 0), dtype=DTYPE)
    pad = left_context(spec)
    raw = _tconv_raw(_pad_left(x, pad, spec), w, spec)
    head = spec.stride if pad > 0 else 0
    out = raw[:, head : head + length * spec.stride]
    return out + b[:, None]


def init_conv_state(spec: ConvSpec) -> ConvState:
    """Fresh streaming state for ``spec``: no history yet.

    The left pad is materialized with the stream's first frame, so every pad
    mode, and both layer types, start the same way.
    """
    return ConvState()


def _extend(state: ConvState, chunk: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The carried history followed by ``chunk``; a stream's first chunk is left-padded."""
    if state.buf is None:
        return _pad_left(chunk, left_context(spec), spec)
    return np.concatenate([state.buf, chunk], axis=1)


def causal_conv1d_step(
    state: ConvState,
    chunk: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    spec: ConvSpec,
    commit: int | None = None,
) -> tuple[ConvState, np.ndarray]:
    """Feed one chunk through a plain causal layer.

    Concatenating the outputs over any chunking of a sequence equals the
    offline result up to float associativity.  Empty chunks are legal and
    produce empty output.

    With ``commit`` (stride 1 only, ``0 <= commit <= width``) the output
    still covers the whole chunk, but the returned state is the one that
    feeding only the first ``commit`` frames would leave: the frames after
    them are a peek that never enters the history.

    Returns:
        ``(next_state, out)`` with ``out`` of shape ``[out_channels, n_out]``.
    """
    if spec.transposed:
        raise ConfigError("causal_conv1d_step called with a transposed spec")
    _check_input(spec, chunk)
    _check_kernel(spec, w, b)
    if commit is not None:
        if spec.stride != 1:
            raise ConfigError(f"commit needs stride 1, got stride {spec.stride}")
        if not 0 <= commit <= chunk.shape[1]:
            raise ConfigError(f"commit {commit} outside [0, {chunk.shape[1]}]")
    if chunk.shape[1] == 0:
        return state, np.zeros((spec.out_channels, 0), dtype=DTYPE)
    skip = state.skip
    if skip:
        # Frames still owed to a previous output hop (stride > chunk sizes).
        drop = min(skip, chunk.shape[1])
        chunk = chunk[:, drop:]
        skip -= drop
        if chunk.shape[1] == 0:
            return ConvState(buf=state.buf, skip=skip), np.zeros(
                (spec.out_channels, 0), dtype=DTYPE
            )
    x = _extend(state, chunk, spec)
    out = _conv_valid(x, w, b, spec)
    if commit is not None:
        if commit == 0:
            return state, out
        # At stride 1 the history is exactly left_context frames.
        return ConvState(buf=x[:, commit : commit + left_context(spec)]), out
    owed = out.shape[1] * spec.stride
    drop = min(owed, x.shape[1])
    return ConvState(buf=x[:, drop:], skip=skip + owed - drop), out


def causal_tconv1d_step(
    state: ConvState, chunk: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> tuple[ConvState, np.ndarray]:
    """Feed one chunk through a causal transposed layer.

    Reruns the overlap-add over ``[history; chunk]`` and emits the ``stride``
    columns of each new frame.  Those columns read at most ``max(pad - 1, 0)
    + (kernel_size - 1) // stride`` earlier padded input frames, which the
    state keeps, so concatenated streaming output equals the offline result
    up to float associativity.
    """
    if not spec.transposed:
        raise ConfigError("causal_tconv1d_step called with a non-transposed spec")
    _check_input(spec, chunk)
    _check_kernel(spec, w, b)
    n = chunk.shape[1]
    if n == 0:
        return state, np.zeros((spec.out_channels, 0), dtype=DTYPE)
    s = spec.stride
    # Frame i of x owns raw block i - shift: the offline path pads ``pad`` frames
    # and trims one block of ``stride`` columns from the head.
    shift = max(left_context(spec) - 1, 0)
    x = _extend(state, chunk, spec)
    h = x.shape[1] - n - shift
    out = _tconv_raw(x, w, spec)[:, h * s : (h + n) * s] + b[:, None]
    keep = shift + (spec.kernel_size - 1) // s
    return ConvState(buf=x[:, max(x.shape[1] - keep, 0) :]), out


def conv_step(
    state: ConvState, chunk: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> tuple[ConvState, np.ndarray]:
    """Dispatch to the plain or transposed streaming step."""
    if spec.transposed:
        return causal_tconv1d_step(state, chunk, w, b, spec)
    return causal_conv1d_step(state, chunk, w, b, spec)


def conv_offline(x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Dispatch to the plain or transposed offline evaluation."""
    if spec.transposed:
        return causal_tconv1d_offline(x, w, b, spec)
    return causal_conv1d_offline(x, w, b, spec)


Layer = tuple[ConvSpec, np.ndarray, np.ndarray]


def total_upsampling(net: list[Layer]) -> int:
    """Product of the strides of the transposed layers in ``net``."""
    factor = 1
    for spec, _, _ in net:
        if spec.transposed:
            factor *= spec.stride
    return factor


def required_history(net: list[Layer], slice_len: int) -> int:
    """Preceding frames a natural-mode net needs ahead of a slice.

    Runs the length bookkeeping backwards through the stack: a plain layer
    consuming ``n`` outputs needs ``(n - 1) * stride + dilation * (kernel - 1)
    + 1`` inputs; a transposed layer producing ``n`` columns after trimming
    ``stride`` from both ends of the raw overlap-add needs
    ``ceil((n + 3 * stride - kernel) / stride)`` inputs.  The result is the
    smallest conservative ``P`` such that evaluating the unpadded network on
    ``P + slice_len`` frames yields at least ``slice_len *
    total_upsampling(net)`` columns, with the needed region tail-aligned and
    free of edge effects.  Monotone (non-decreasing) in ``slice_len``.
    """
    if not net:
        raise ConfigError("required_history needs a nonempty layer stack")
    if slice_len < 1:
        raise ShapeError(f"slice_len must be >= 1, got {slice_len}")
    need = slice_len * total_upsampling(net)
    for spec, _, _ in reversed(net):
        if spec.transposed:
            k, s = spec.kernel_size, spec.stride
            need = max(math.ceil((need + 3 * s - k) / s), 1)
        else:
            need = (need - 1) * spec.stride + spec.dilation * (spec.kernel_size - 1) + 1
    return max(need - slice_len, 0)


def natural_pad_forward(
    z_full: np.ndarray, slice_start: int, slice_len: int, net: list[Layer]
) -> tuple[np.ndarray, bool]:
    """Evaluate a slice of a latent sequence through an unpadded network.

    Instead of padding each layer, the slice is extended on the left with
    ``required_history`` real preceding frames of ``z_full``; when the slice
    sits too close to the sequence start, the missing history is filled by
    replicating the first frame.  Every layer runs in valid mode (transposed
    layers trim ``stride`` columns from both ends of their raw overlap-add)
    and the final output keeps the last ``slice_len * total_upsampling(net)``
    columns, which match the tail-aligned region of the offline forward pass
    of the whole sequence.

    Args:
        z_full: Full latent sequence ``[channels, total_len]``.
        slice_start: First frame of the slice.
        slice_len: Slice length in frames, ``>= 1``.
        net: Stack of ``(spec, weight, bias)`` layers, all with
            ``pad_mode == "natural"``.

    Returns:
        ``(out, replicated)`` where ``out`` has exactly ``slice_len *
        total_upsampling(net)`` columns and ``replicated`` reports whether
        the start-of-sequence fallback fired.
    """
    if not net:
        raise ConfigError("natural_pad_forward needs a nonempty layer stack")
    for spec, w, b in net:
        if spec.pad_mode != "natural":
            raise ConfigError("natural_pad_forward requires every layer to use natural padding")
        _check_kernel(spec, w, b)
    total = z_full.shape[1]
    if slice_len < 1:
        raise ShapeError(f"slice_len must be >= 1, got {slice_len}")
    if slice_start < 0 or slice_start + slice_len > total:
        raise ShapeError(
            f"slice [{slice_start}, {slice_start + slice_len}) outside sequence of {total}"
        )
    _check_input(net[0][0], z_full)

    history = required_history(net, slice_len)
    missing = max(history - slice_start, 0)
    window = z_full[:, max(slice_start - history, 0) : slice_start + slice_len]
    if missing:
        window = np.concatenate([np.repeat(z_full[:, :1], missing, axis=1), window], axis=1)

    x = window
    for spec, w, b in net:
        if spec.transposed:
            s = spec.stride
            raw = _tconv_raw(x, w, spec)
            if raw.shape[1] <= 2 * s:
                raise ShapeError("natural-mode transposed layer ran out of history")
            x = raw[:, s:-s] + b[:, None]
        else:
            x = _conv_valid(x, w, b, spec)
    target = slice_len * total_upsampling(net)
    if x.shape[1] < target:
        raise ShapeError(
            f"natural forward produced {x.shape[1]} columns, needs {target}; "
            "history bookkeeping violated"
        )
    return np.ascontiguousarray(x[:, x.shape[1] - target :]), missing > 0


def natural_to_padded(net: list[Layer]) -> list[Layer]:
    """Reference view of a natural-mode net with per-layer replicate padding.

    The whole-sequence forward pass of this padded stack is the oracle that
    ``natural_pad_forward`` slices must match on their tail region.
    """
    return [(replace(spec, pad_mode="replicate"), w, b) for spec, w, b in net]


def net_offline(x: np.ndarray, net: list[Layer]) -> np.ndarray:
    """Run a whole sequence through a stack of padded causal layers."""
    for spec, w, b in net:
        x = conv_offline(x, w, b, spec)
    return x


def net_stream_init(net: list[Layer]) -> list[ConvState]:
    return [init_conv_state(spec) for spec, _, _ in net]


def net_stream_step(
    states: list[ConvState], chunk: np.ndarray, net: list[Layer]
) -> tuple[list[ConvState], np.ndarray]:
    """Feed one chunk through a stack of streaming causal layers."""
    if len(states) != len(net):
        raise ShapeError(f"{len(states)} states for {len(net)} layers")
    out = chunk
    nxt: list[ConvState] = []
    for state, (spec, w, b) in zip(states, net):
        state, out = conv_step(state, out, w, b, spec)
        nxt.append(state)
    return nxt, out
