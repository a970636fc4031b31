"""Causal 1-D convolutions with exact offline/streaming equivalence.

Layout conventions:
  * activations are ``[channels, length]`` float32 arrays;
  * convolution kernels are ``[out_channels, in_channels, kernel_size]`` for
    both plain and transposed layers;
  * kernels a model is built with are stored tap-major (:func:`tap_major`):
    the ``[out, in, taps]`` view of a C-contiguous ``[out, taps, in]`` array,
    so the per-tap matrix ``w[:, :, j]`` has unit inner stride and goes to
    BLAS without a copy; any other layout computes the same values, slower.
    Weight files store each kernel this way, and
    :func:`chunkvox.modelio.load_weights` reads it unchanged into its one
    buffer, where ``[out, taps, in]`` is also the contiguous ``[out, taps *
    in]`` matrix of a one-GEMM-per-conv layout, so building a model from a
    file copies none; in-memory kernels are copied once;
  * biases are ``[out_channels]``.

A plain causal layer left-pads by ``dilation * (kernel_size - 1)`` so output
frame ``t`` depends only on input frames ``<= t`` (for stride 1).  A causal
transposed layer left-pads its *input* by ``pad = kernel_size // stride - 1``
frames and emits one block of ``stride`` columns per input frame: tap ``j =
q * stride + r`` adds ``w[:, :, j] @ x[t - shift - q]`` to column ``r`` of
frame ``t``'s block, with ``shift = max(pad - 1, 0)``; frames ``-pad .. -1``
are the pad, and frames before it add nothing.  So sample ``t`` depends only
on input frames ``<= t // stride``.

Each layer type has one evaluation, its streaming step (``*_step``), with
one rule for both: the carried state is the tail of the padded input seen
so far, and each chunk runs the layer over ``[history; chunk]`` for just the
output columns the chunk completes.  An offline evaluation (``*_offline``)
is a fresh stream's one chunk, so the outputs of any chunking concatenate
to it up to float associativity.

Natural padding, giving each chunk real preceding frames in place of zeros,
is therefore what every stream already does: padding (``replicate`` or
zeros) stands in for history only at a stream's start, and after that each
layer's ``ConvState`` carries the real frames.  :func:`natural_pad_forward`
is the stateless form of the same rule for one slice of a sequence: it
prepends :func:`required_history` real frames and runs the slice as a fresh
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .kernels import DTYPE

PAD_MODES = ("constant", "replicate")


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
        pad_mode: ``"constant"`` (zeros) or ``"replicate"`` (the first frame).
    """

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    dilation: int = 1
    transposed: bool = False
    pad_mode: str = "constant"

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


def history(spec: ConvSpec) -> int:
    """Padded input frames before a chunk that the chunk's output columns read.

    This is the history a stream carries in ``ConvState.buf``.  A stride-1
    plain layer reads ``left_context`` frames; a transposed layer's columns
    for frame ``i`` read frames ``i - history .. i``.  A plain layer with
    stride above 1 has none that fits every position, since its output phase
    depends on the absolute frame index.
    """
    if spec.transposed:
        return max(left_context(spec) - 1, 0) + (spec.kernel_size - 1) // spec.stride
    if spec.stride != 1:
        raise ConfigError(f"history of a plain layer needs stride 1, got stride {spec.stride}")
    return left_context(spec)


@dataclass(frozen=True)
class ConvState:
    """Carried streaming state for one layer: the input history.

    ``buf`` is the tail of the padded input fed so far, or ``None`` before a
    stream's first frame.  It is a copy, so a caller that reuses its chunk
    buffer cannot rewrite it, and it pins no more than the tail.  A stride-1
    plain layer keeps ``history(spec)`` frames; a transposed layer keeps at
    most that many, the ones its unfinished output columns still need.
    ``skip`` counts input frames a strided plain layer still owes its last
    output hop.  States are immutable; ``*_step`` returns an updated
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


# Input columns up to which a transposed conv runs as one stacked GEMM.  On the
# default generator's four upsamplers (2-vCPU x86-64, OpenBLAS), one GEMM of
# every tap took 0.20-0.89x the time of a GEMM per tap at 1-256 columns (1.02x
# at the 8-channel up.3's 256), and 1.0-2.6x at 512 columns and more, where
# its overlap-add of short strided rows costs more than the calls it saves.
STACKED_MAX_COLS = 256


def _tconv_cols(x: np.ndarray, w: np.ndarray, spec: ConvSpec, h: int, n: int) -> np.ndarray:
    """Overlap-add blocks ``h .. h + n - 1`` of a transposed convolution, no bias.

    Block ``c`` is the ``stride`` columns that frame ``h + c`` of ``x`` starts:
    tap ``j = q * stride + r`` writes its column ``r`` from frame ``h + c - q``,
    so it skips the blocks below ``max(q - h, 0)``, which no frame feeds, and
    taps with ``q >= h + n`` feed none.  The ``q == 0`` taps cover every
    column and assign (``kernel_size >= stride``, as :class:`ConvSpec`
    enforces); later taps add, in order of ``q``.  Up to
    ``STACKED_MAX_COLS`` blocks run as :func:`_tconv_cols_stacked`, more as
    :func:`_tconv_cols_per_tap`; each sums a column's taps in the same order.
    """
    cols = _tconv_cols_stacked if n <= STACKED_MAX_COLS else _tconv_cols_per_tap
    return cols(x, w, spec, h, n)


def _tconv_cols_per_tap(
    x: np.ndarray, w: np.ndarray, spec: ConvSpec, h: int, n: int
) -> np.ndarray:
    """:func:`_tconv_cols` as one ``[out, in] @ [in, n]`` GEMM per tap."""
    s = spec.stride
    out = np.empty((spec.out_channels, n * s), dtype=DTYPE)
    for j in range(min(spec.kernel_size, (h + n) * s)):
        q, r = divmod(j, s)
        if q == 0:
            out[:, r::s] = w[:, :, j] @ x[:, h : h + n]
        else:
            c0 = max(q - h, 0)
            out[:, c0 * s + r :: s] += w[:, :, j] @ x[:, h + c0 - q : h + n - q]
    return out


def _tconv_cols_stacked(
    x: np.ndarray, w: np.ndarray, spec: ConvSpec, h: int, n: int
) -> np.ndarray:
    """:func:`_tconv_cols` as one GEMM of every tap, then ``ceil(k / stride)`` adds.

    A tap-major kernel's ``[out, taps, in]`` storage is the ``[out * taps,
    in]`` matrix, so the GEMM reads it in place.  Its product over the frames
    the blocks read holds each tap's row for each frame; the taps of one
    ``q`` form one shifted ``[out, n, stride]`` block of the output.
    """
    s, k, cout = spec.stride, spec.kernel_size, spec.out_channels
    lo = max(h - (k - 1) // s, 0)
    y = (w.swapaxes(1, 2).reshape(cout * k, -1) @ x[:, lo : h + n]).reshape(cout, k, -1)
    out = np.empty((cout, n, s), dtype=DTYPE)
    out[...] = y[:, :s, h - lo : h + n - lo].transpose(0, 2, 1)
    for q in range(1, min(math.ceil(k / s), h + n)):
        c0, taps = max(q - h, 0), min(s, k - q * s)
        rows = y[:, q * s : q * s + taps, h + c0 - q - lo : h + n - q - lo]
        out[:, c0:, :taps] += rows.transpose(0, 2, 1)
    return out.reshape(cout, n * s)


def init_conv_state(spec: ConvSpec) -> ConvState:
    """Fresh streaming state for ``spec``: no history yet.

    The left pad is materialized with the stream's first frame, so every pad
    mode, and both layer types, start the same way.
    """
    return ConvState()


def _extend(state: ConvState, chunk: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The carried history followed by ``chunk``; a stream's first chunk is left-padded."""
    if state.buf is not None:
        return np.concatenate([state.buf, chunk], axis=1)
    pad = left_context(spec)
    if pad == 0:
        return chunk
    if spec.pad_mode == "replicate":
        fill = np.repeat(chunk[:, :1], pad, axis=1)
    else:
        fill = np.zeros((chunk.shape[0], pad), dtype=DTYPE)
    return np.concatenate([fill, chunk], axis=1)


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
    one-chunk result up to float associativity.  Empty chunks are legal and
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
        return ConvState(buf=x[:, commit : commit + history(spec)].copy()), out
    owed = out.shape[1] * spec.stride
    drop = min(owed, x.shape[1])
    return ConvState(buf=x[:, drop:].copy(), skip=skip + owed - drop), out


def causal_tconv1d_step(
    state: ConvState, chunk: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> tuple[ConvState, np.ndarray]:
    """Feed one chunk through a causal transposed layer.

    Computes the overlap-add over ``[history; chunk]`` only for the
    ``stride`` columns of each new frame.  Those columns read at most
    :func:`history` earlier padded input frames, which the state keeps, so
    concatenated output equals the one-chunk result up to float
    associativity.
    """
    if not spec.transposed:
        raise ConfigError("causal_tconv1d_step called with a non-transposed spec")
    _check_input(spec, chunk)
    _check_kernel(spec, w, b)
    n = chunk.shape[1]
    if n == 0:
        return state, np.zeros((spec.out_channels, 0), dtype=DTYPE)
    # The chunk's frame i emits the block started by frame i - shift.
    shift = max(left_context(spec) - 1, 0)
    x = _extend(state, chunk, spec)
    out = _tconv_cols(x, w, spec, x.shape[1] - n - shift, n)
    out += b[:, None]
    return ConvState(buf=x[:, max(x.shape[1] - history(spec), 0) :].copy()), out


def conv_step(
    state: ConvState, chunk: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> tuple[ConvState, np.ndarray]:
    """Dispatch to the plain or transposed streaming step."""
    if spec.transposed:
        return causal_tconv1d_step(state, chunk, w, b, spec)
    return causal_conv1d_step(state, chunk, w, b, spec)


def causal_conv1d_offline(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec
) -> np.ndarray:
    """Whole-sequence causal convolution: a fresh stream fed ``x`` as one chunk.

    Args:
        x: Input ``[in_channels, length]``.
        w: Kernel ``[out_channels, in_channels, kernel_size]``.
        b: Bias ``[out_channels]``.
        spec: Layer description; must not be transposed.

    Returns:
        ``[out_channels, ceil(length / stride)]`` output.
    """
    return causal_conv1d_step(ConvState(), x, w, b, spec)[1]


def conv_offline(x: np.ndarray, w: np.ndarray, b: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Whole-sequence evaluation of either layer type: a fresh stream's one chunk."""
    return conv_step(ConvState(), x, w, b, spec)[1]


Layer = tuple[ConvSpec, np.ndarray, np.ndarray]


def total_upsampling(net: list[Layer]) -> int:
    """Product of the strides of the transposed layers in ``net``."""
    factor = 1
    for spec, _, _ in net:
        if spec.transposed:
            factor *= spec.stride
    return factor


def required_history(net: list[Layer]) -> int:
    """Latent frames of history a slice needs for exact output: the stack's receptive field.

    Folds :func:`history` backwards through the stack: ``h`` frames needed at
    a plain layer's output are ``h + history`` at its input; at a transposed
    layer's output they are ``ceil(h / stride) + history`` input frames.
    Raises :class:`ConfigError` for an empty stack or a strided plain layer.
    """
    if not net:
        raise ConfigError("required_history needs a nonempty layer stack")
    need = 0
    for spec, _, _ in reversed(net):
        if spec.transposed:
            need = math.ceil(need / spec.stride)
        need += history(spec)
    return need


def natural_pad_forward(
    z_full: np.ndarray, slice_start: int, slice_len: int, net: list[Layer]
) -> np.ndarray:
    """Evaluate a slice of a latent sequence with real preceding frames as its padding.

    The slice is extended on the left by ``required_history(net)`` frames of
    ``z_full``, stopping at frame 0, and the window runs through
    :func:`net_offline`, a fresh stream with the layers' own padding.  The
    last ``slice_len * total_upsampling(net)`` columns equal the offline
    output of the whole sequence for the slice's frames, near the start too,
    where the window starts at frame 0 just as the whole sequence does.

    Args:
        z_full: Full latent sequence ``[channels, total_len]``.
        slice_start: First frame of the slice.
        slice_len: Slice length in frames, ``>= 1``.
        net: Stack of ``(spec, weight, bias)`` layers; plain ones need stride 1.

    Returns:
        ``[out_channels, slice_len * total_upsampling(net)]`` output.
    """
    hist = required_history(net)
    _check_input(net[0][0], z_full)
    total = z_full.shape[1]
    if slice_len < 1:
        raise ShapeError(f"slice_len must be >= 1, got {slice_len}")
    if slice_start < 0 or slice_start + slice_len > total:
        raise ShapeError(
            f"slice [{slice_start}, {slice_start + slice_len}) outside sequence of {total}"
        )
    first = max(slice_start - hist, 0)
    out = net_offline(z_full[:, first : slice_start + slice_len], net)
    return out[:, out.shape[1] - slice_len * total_upsampling(net) :]


def net_offline(x: np.ndarray, net: list[Layer]) -> np.ndarray:
    """Run a whole sequence through a stack of padded causal layers as one chunk."""
    return net_stream_step(net_stream_init(net), x, net)[1]


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
