"""Chunkwise streaming attention decoder.

Frames are processed in fixed-size chunks.  For chunk ``i`` with body ``C``
(``chunk_size`` frames, time-major ``[frames, hidden]``) and lookahead ``R``
(the next ``right_context`` frames), each layer makes one pass over
``X = [C; R]``:

  * keys and values sit side by side in one ``[rows, 2 * hidden]`` K|V
    array, in row order: the cached projections of the previous chunks'
    last ``left_context`` body frames, then projections of the raw ``X``,
    then projections of the memory bank; ``X`` and the bank go through
    each projection together, written straight into the array;
  * the queries are the layer-normed ``X`` plus one summary query, the mean
    of raw ``C``; a single attention call serves all of them, with every
    head in one batched product, one softmax and one product with the
    values;
  * the summary row of the attention output, without residual, is the
    memory vector that layer ``n + 1`` consumes at chunk ``i + 1``;
  * the other rows get a residual from ``X``, then one feed-forward block
    with post-residual layer norm;
  * the left cache becomes the last ``left_context`` K|V rows of the
    previous cache and the body, which are adjacent in the array;
  * an optional causal smoothing layer (conv -> norm, twice) runs once over
    ``X``; each conv's carried state is cut at the end of the body, so
    lookahead frames are smoothed but never enter committed history.

The emitted sequence is the concatenation of the chunk bodies; lookahead
outputs are consumed only inside the layer stack.  With ``chunk_size >=
sequence length``, no lookahead, and no memory, the arithmetic degenerates
to full self-attention (see :func:`full_attention_oracle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .convs import ConvSpec, ConvState, causal_conv1d_offline, causal_conv1d_step
from .errors import ConfigError, SequencingError, ShapeError, check_shapes
from .kernels import DTYPE, layer_norm, matmul, relu, softmax

# Query rows per attention block in full_attention_layer: a t-frame sequence
# holds at most ATTENTION_BLOCK * t scores per head, all heads at once, 9.8 MB
# for two heads at 4,800 frames.  Sequences this short or shorter run as one
# block.
ATTENTION_BLOCK = 256


@dataclass(frozen=True)
class ChunkConfig:
    """Decoder hyperparameters.

    Attributes:
        chunk_size: Frames committed per chunk.
        left_context: Cached key/value frames attended from earlier chunks.
        right_context: Lookahead frames peeked past the chunk boundary.
        num_layers: Attention layers in the stack.
        hidden: Model width.
        ffn_hidden: Feed-forward inner width.
        num_heads: Attention heads; must divide ``hidden``.
        memory_slots: Memory-bank capacity per layer; 0 disables the bank.
        smooth_kernel: Kernel size of the causal smoothing convolutions.
        use_smooth: Whether the smoothing layer runs at all.
    """

    chunk_size: int = 20
    left_context: int = 10
    right_context: int = 4
    num_layers: int = 4
    hidden: int = 192
    ffn_hidden: int = 768
    num_heads: int = 2
    memory_slots: int = 4
    smooth_kernel: int = 3
    use_smooth: bool = True

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.left_context < 0 or self.right_context < 0 or self.memory_slots < 0:
            raise ConfigError("left_context, right_context, memory_slots must be >= 0")
        if self.num_layers < 1 or self.hidden < 1 or self.ffn_hidden < 1:
            raise ConfigError("num_layers, hidden, ffn_hidden must be >= 1")
        if self.num_heads < 1 or self.hidden % self.num_heads != 0:
            raise ConfigError(
                f"num_heads {self.num_heads} must divide hidden {self.hidden}"
            )
        if self.smooth_kernel < 1:
            raise ConfigError(f"smooth_kernel must be >= 1, got {self.smooth_kernel}")


def _tensor(name: str, *dims: str):
    """A weight stored as ``decoder.{layer}.{name}``, shaped by the named
    :class:`ChunkConfig` fields in order."""
    return field(metadata={"tensor": name, "dims": dims})


@dataclass
class SmoothWeights:
    """Parameters of one causal smoothing layer (conv -> norm, twice)."""

    conv1_w: np.ndarray = _tensor("smooth.conv1.weight", "hidden", "hidden", "smooth_kernel")
    conv1_b: np.ndarray = _tensor("smooth.conv1.bias", "hidden")
    norm1_gamma: np.ndarray = _tensor("smooth.norm1.gamma", "hidden")
    norm1_beta: np.ndarray = _tensor("smooth.norm1.beta", "hidden")
    conv2_w: np.ndarray = _tensor("smooth.conv2.weight", "hidden", "hidden", "smooth_kernel")
    conv2_b: np.ndarray = _tensor("smooth.conv2.bias", "hidden")
    norm2_gamma: np.ndarray = _tensor("smooth.norm2.gamma", "hidden")
    norm2_beta: np.ndarray = _tensor("smooth.norm2.beta", "hidden")


@dataclass
class AttentionLayerWeights:
    """Parameters of one decoder layer.

    Projections are stored input-major (``y = x @ w``); convolution kernels
    inside ``smooth`` follow the ``[out, in, taps]`` convention.
    """

    w_q: np.ndarray = _tensor("w_q", "hidden", "hidden")
    w_k: np.ndarray = _tensor("w_k", "hidden", "hidden")
    w_v: np.ndarray = _tensor("w_v", "hidden", "hidden")
    w_out: np.ndarray = _tensor("w_out", "hidden", "hidden")
    attn_norm_gamma: np.ndarray = _tensor("attn_norm.gamma", "hidden")
    attn_norm_beta: np.ndarray = _tensor("attn_norm.beta", "hidden")
    ffn_w1: np.ndarray = _tensor("ffn.w1", "hidden", "ffn_hidden")
    ffn_b1: np.ndarray = _tensor("ffn.b1", "ffn_hidden")
    ffn_w2: np.ndarray = _tensor("ffn.w2", "ffn_hidden", "hidden")
    ffn_b2: np.ndarray = _tensor("ffn.b2", "hidden")
    ffn_norm_gamma: np.ndarray = _tensor("ffn_norm.gamma", "hidden")
    ffn_norm_beta: np.ndarray = _tensor("ffn_norm.beta", "hidden")
    smooth: SmoothWeights | None = None

    @classmethod
    def from_tensors(cls, cfg: ChunkConfig, tensors, layer: int) -> AttentionLayerWeights:
        """Bind layer ``layer``'s weights to ``tensors`` by their names in the file."""
        attention, smoothing = (
            {f: tensors[name] for f, name, _ in rows} for rows in _layer_tensors(cfg)[layer]
        )
        return cls(**attention, smooth=SmoothWeights(**smoothing) if smoothing else None)


# Cached: every full-mode synth builds a DecoderStream, which checks every layer.
@lru_cache(maxsize=8)
def _layer_tensors(cfg: ChunkConfig):
    """Per layer, ``(field, tensor name, shape)`` for each attention weight,
    then for each smoothing weight (none when smoothing is off)."""

    def rows(cls):
        return [
            (f.name, m["tensor"], tuple(getattr(cfg, d) for d in m["dims"]))
            for f in fields(cls)
            if (m := f.metadata)
        ]

    parts = (rows(AttentionLayerWeights), rows(SmoothWeights) if cfg.use_smooth else [])
    return tuple(
        tuple(tuple((f, f"decoder.{i}.{name}", shape) for f, name, shape in part) for part in parts)
        for i in range(cfg.num_layers)
    )


def decoder_tensor_shapes(cfg: ChunkConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes for a decoder of this config."""
    layers = _layer_tensors(cfg)
    return {name: shape for layer in layers for rows in layer for _, name, shape in rows}


@dataclass
class _LayerState:
    """Per-layer streaming caches.

    ``kv_left`` holds the key projections of the last ``left_context`` body
    frames in its first ``hidden`` columns and their value projections in
    the rest.  ``memory`` is the bank, oldest first, one ``[1, hidden]``
    row per entry.  ``smooth`` is the ``(conv1, conv2)`` history of the
    smoothing layer, or None when smoothing is off.
    """

    kv_left: np.ndarray
    memory: list[np.ndarray] = field(default_factory=list)
    smooth: tuple[ConvState, ConvState] | None = None


# Cached: every smoothing call reads its conv spec from here.
@lru_cache(maxsize=8)
def _smooth_conv_spec(cfg: ChunkConfig) -> ConvSpec:
    return ConvSpec(cfg.hidden, cfg.hidden, cfg.smooth_kernel, pad_mode="constant")


def init_decoder_state(cfg: ChunkConfig) -> list[_LayerState]:
    """One fresh state per layer: empty cache and bank, no smoothing history."""
    empty = np.zeros((0, 2 * cfg.hidden), dtype=DTYPE)
    smooth = (ConvState(), ConvState()) if cfg.use_smooth else None
    return [_LayerState(kv_left=empty, smooth=smooth) for _ in range(cfg.num_layers)]


def summary_vector(chunk: np.ndarray) -> np.ndarray:
    """Mean of the chunk body frames, shape ``[hidden]``."""
    if chunk.ndim != 2 or chunk.shape[0] == 0:
        raise ShapeError(f"summary_vector needs a nonempty [frames, hidden] chunk, got {chunk.shape}")
    # The sum np.mean takes, without its Python wrapper; equal bit for bit.
    return np.add.reduce(chunk, axis=0) / chunk.shape[0]


def _mha(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, w_out: np.ndarray, num_heads: int
) -> np.ndarray:
    """Multi-head scaled dot-product attention with output projection.

    ``q`` is ``[tq, d]`` and is scaled by ``1/sqrt(dh)`` in place; ``k`` and
    ``v`` are ``[tk, d]`` and may be column views of one K|V array.  All
    heads go through one batched product for the scores, one softmax in
    place on them, and one batched product with the values, which lands
    each head in its columns of the ``[tq, d]`` input to ``w_out``.  The
    ``[h, tq, tk]`` scores are the one large temporary.
    """
    heads = (-1, num_heads, q.shape[1] // num_heads)
    q *= DTYPE(1.0 / np.sqrt(heads[2]))
    scores = matmul(q.reshape(heads).transpose(1, 0, 2), k.reshape(heads).transpose(1, 2, 0))
    probs = softmax(scores, axis=-1, out=scores)
    out = np.empty_like(q)
    matmul(probs, v.reshape(heads).transpose(1, 0, 2), out=out.reshape(heads).transpose(1, 0, 2))
    return matmul(out, w_out)


def _ffn_block(h: np.ndarray, w: AttentionLayerWeights) -> np.ndarray:
    """Feed-forward with residual and post-residual layer norm; ``h`` is kept."""
    inner = matmul(h, w.ffn_w1)
    inner += w.ffn_b1
    relu(inner, out=inner)
    y = matmul(inner, w.ffn_w2)
    y += h
    y += w.ffn_b2
    return layer_norm(y, w.ffn_norm_gamma, w.ffn_norm_beta, out=y)


def causal_smooth_layer(
    chunk: np.ndarray,
    state: tuple[ConvState, ConvState],
    w: SmoothWeights,
    cfg: ChunkConfig,
    commit: int | None = None,
) -> tuple[np.ndarray, tuple[ConvState, ConvState]]:
    """Run the two causal conv -> layer-norm stages over one chunk.

    ``state`` is the ``(conv1, conv2)`` pair of carried conv histories.
    Returns the smoothed chunk and the advanced pair; feeding chunks in
    sequence reproduces the offline evaluation of the same stack.  With
    ``commit`` the whole chunk is smoothed but the state advances over its
    first ``commit`` frames only (see :func:`causal_conv1d_step`).
    """
    if chunk.shape[0] == 0:
        return chunk, state
    spec = _smooth_conv_spec(cfg)
    s1, y = causal_conv1d_step(state[0], chunk.T, w.conv1_w, w.conv1_b, spec, commit)
    y = _norm_frames(y, w.norm1_gamma, w.norm1_beta)
    s2, y2 = causal_conv1d_step(state[1], y.T, w.conv2_w, w.conv2_b, spec, commit)
    return _norm_frames(y2, w.norm2_gamma, w.norm2_beta), (s1, s2)


def _norm_frames(y: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Layer-norm a conv's ``[hidden, frames]`` output into ``[frames, hidden]`` rows.

    The rows are made contiguous first.  Normalizing the strided transpose
    in place reduces each row across ``hidden`` short runs, and at chunk
    sizes that took 1.7x as long as the copy and a contiguous norm.
    """
    rows = np.ascontiguousarray(y.T)
    return layer_norm(rows, gamma, beta, out=rows)


def _smooth_offline(x: np.ndarray, w: SmoothWeights, cfg: ChunkConfig) -> np.ndarray:
    spec = _smooth_conv_spec(cfg)
    if x.shape[0] == 0:
        return x
    y = causal_conv1d_offline(x.T, w.conv1_w, w.conv1_b, spec)
    y = _norm_frames(y, w.norm1_gamma, w.norm1_beta)
    y2 = causal_conv1d_offline(y.T, w.conv2_w, w.conv2_b, spec)
    return _norm_frames(y2, w.norm2_gamma, w.norm2_beta)


def chunk_attention_layer(
    body: np.ndarray,
    lookahead: np.ndarray,
    state: list[_LayerState],
    layer: int,
    w: AttentionLayerWeights,
    cfg: ChunkConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """One decoder layer over one chunk.

    Args:
        body: Raw chunk frames ``[n, hidden]``, ``n >= 1``.
        lookahead: Raw right-context frames ``[r, hidden]``, possibly empty.
        state: One streaming state per layer; ``state[layer]``'s key/value
            cache is advanced in place.
        layer: Index into ``state``.
        w: Layer parameters.
        cfg: Decoder configuration.

    Returns:
        ``(out, memory_vec)``: ``out`` is ``[n + r, hidden]``, the body
        outputs then the lookahead outputs; ``memory_vec`` is the
        summary-attention output destined for layer ``layer + 1`` at the
        next chunk.
    """
    if body.shape[0] == 0:
        raise ShapeError("chunk body must contain at least one frame")
    if body.shape[1] != cfg.hidden or lookahead.shape[1] != cfg.hidden:
        raise ShapeError(
            f"chunk width {body.shape[1]}/{lookahead.shape[1]} does not match hidden {cfg.hidden}"
        )
    ls = state[layer]
    n, nr, d = body.shape[0], body.shape[0] + lookahead.shape[0], cfg.hidden
    left = ls.kv_left.shape[0]

    # Key/value rows: left cache, then [body; lookahead], then the memory bank.
    src = np.concatenate([body, lookahead, *ls.memory])
    x = src[:nr]
    kv = np.empty((left + src.shape[0], 2 * d), dtype=DTYPE)
    kv[:left] = ls.kv_left
    matmul(src, w.w_k, out=kv[left:, :d])
    matmul(src, w.w_v, out=kv[left:, d:])

    # Query rows: the layer-normed [body; lookahead], then the summary query.
    queries = np.empty((nr + 1, d), dtype=DTYPE)
    layer_norm(x, w.attn_norm_gamma, w.attn_norm_beta, out=queries[:nr])
    queries[nr] = summary_vector(x[:n])
    attn = _mha(matmul(queries, w.w_q), kv[:, :d], kv[:, d:], w.w_out, cfg.num_heads)

    if cfg.left_context > 0:
        # The cached rows and the body rows are adjacent in kv.
        ls.kv_left = kv[max(0, left + n - cfg.left_context) : left + n].copy()

    # The last row answers the summary query: the memory vector, no residual.
    h = attn[:nr]
    h += x
    return _ffn_block(h, w), attn[nr]


class DecoderStream:
    """Incremental driver for the chunkwise decoder.

    :meth:`feed` buffers frames and runs every chunk whose
    ``chunk_size + right_context`` frames are buffered, returning their
    committed body outputs; the chunk cuts do not depend on how the frames
    were split across calls.  :meth:`finish` drains the tail, where the
    final chunks run with partial or empty lookahead; feeding or finishing
    after it raises :class:`SequencingError`.  A chunk that raises leaves
    the layer caches half-advanced, so the stream is poisoned: every later
    call raises :class:`SequencingError` naming that error.

    The weights are checked against :func:`decoder_tensor_shapes` under
    their weight-file names, so a misshapen array raises
    :class:`ConfigError` here instead of broadcasting into wrong audio.
    ``state`` holds one :class:`_LayerState` per layer.
    """

    def __init__(self, cfg: ChunkConfig, weights: list[AttentionLayerWeights]):
        if len(weights) != cfg.num_layers:
            raise ConfigError(f"{len(weights)} weight sets for {cfg.num_layers} layers")
        bound = {
            name: getattr(part, f).shape
            for w, rows in zip(weights, _layer_tensors(cfg))
            for part, part_rows in zip((w, w.smooth), rows)
            if part is not None
            for f, name, _ in part_rows
        }
        check_shapes(bound, decoder_tensor_shapes(cfg))
        self.cfg = cfg
        self.weights = weights
        self.state = init_decoder_state(cfg)
        self._buf = np.zeros((0, cfg.hidden), dtype=DTYPE)
        self._finished = False
        self._failure: BaseException | None = None

    def feed(self, frames: np.ndarray) -> list[np.ndarray]:
        """Buffer ``[n, hidden]`` frames; return the body output of every chunk
        whose body and full lookahead are now buffered."""
        if frames.ndim != 2 or frames.shape[1] != self.cfg.hidden:
            raise ShapeError(
                f"frames shape {frames.shape} does not match [n, {self.cfg.hidden}]"
            )
        return self._drain(frames, self.cfg.chunk_size + self.cfg.right_context)

    def finish(self) -> list[np.ndarray]:
        """Mark the stream done and flush it; the last chunks may run with
        partial or empty lookahead, and the very last may be short."""
        return self._drain(None, 1)

    def _drain(self, frames: np.ndarray | None, need: int) -> list[np.ndarray]:
        """Buffer ``frames`` (None finishes the stream), then run one chunk at
        a time while ``need`` frames are buffered."""
        if self._failure is not None:
            raise SequencingError(
                "decoder stream is unusable after a failed chunk: "
                f"{type(self._failure).__name__}: {self._failure}"
            ) from self._failure
        if self._finished:
            raise SequencingError("finish called twice" if frames is None else "feed after finish")
        if frames is None:
            self._finished = True
        elif frames.shape[0]:
            self._buf = np.concatenate([self._buf, frames.astype(DTYPE, copy=False)], axis=0)
        outs = []
        try:
            while self._buf.shape[0] >= need:
                outs.append(self._run_chunk())
        except BaseException as exc:
            self._failure = exc
            raise
        return outs

    def _run_chunk(self) -> np.ndarray:
        """Run the chunk at the head of the buffer, then drop its body frames."""
        cfg = self.cfg
        x = self._buf[: cfg.chunk_size + cfg.right_context]
        n = min(cfg.chunk_size, x.shape[0])
        new_memories = []
        for i, w in enumerate(self.weights):
            x, mem = chunk_attention_layer(x[:n], x[n:], self.state, i, w, cfg)
            if cfg.use_smooth:
                ls = self.state[i]
                assert w.smooth is not None and ls.smooth is not None
                # Committed conv history only ever contains body frames.
                x, ls.smooth = causal_smooth_layer(x, ls.smooth, w.smooth, cfg, commit=n)
            new_memories.append(mem)
        if cfg.memory_slots > 0:
            for i, mem in enumerate(new_memories[:-1]):
                bank = self.state[i + 1].memory
                bank.append(mem[None])
                del bank[: max(0, len(bank) - cfg.memory_slots)]
        self._buf = self._buf[n:]
        return x[:n]


def chunkstream_decode(
    frames: np.ndarray, cfg: ChunkConfig, weights: list[AttentionLayerWeights]
) -> np.ndarray:
    """Decode a whole sequence chunk by chunk; output is ``[t, hidden]``."""
    stream = DecoderStream(cfg, weights)
    outs = stream.feed(frames)
    outs += stream.finish()
    if not outs:
        return np.zeros((0, cfg.hidden), dtype=DTYPE)
    out = np.concatenate(outs, axis=0)
    if out.shape[0] != frames.shape[0]:
        raise ShapeError(
            f"decoded {out.shape[0]} frames from {frames.shape[0]} inputs"
        )
    return out


def full_attention_layer(
    x: np.ndarray, w: AttentionLayerWeights, cfg: ChunkConfig, block: int = ATTENTION_BLOCK
) -> np.ndarray:
    """One decoder layer over a whole sequence, every query over every frame.

    The twin of :func:`chunk_attention_layer` without chunks, memory bank or
    cache.  Keys and values are projected once over all ``t`` rows; the
    queries then run in blocks of at most ``block`` rows, each through layer
    norm, attention over all keys, residual and feed-forward, so no
    temporary holds more than ``block * t`` scores per head.  Softmax is per row, so
    only BLAS rounding can tell block sizes apart.  Smoothing is not applied
    here.
    """
    t = x.shape[0]
    # Blocks of equal size: a one-row remainder would go to BLAS gemv and
    # round differently from the rows of a wider block.
    size = max(1, math.ceil(t / max(1, math.ceil(t / block))))
    keys = matmul(x, w.w_k)
    vals = matmul(x, w.w_v)
    out = np.empty((t, cfg.hidden), dtype=DTYPE)
    for lo in range(0, t, size):
        rows = x[lo : lo + size]
        xn = layer_norm(rows, w.attn_norm_gamma, w.attn_norm_beta)
        h = _mha(matmul(xn, w.w_q), keys, vals, w.w_out, cfg.num_heads)
        h += rows
        out[lo : lo + size] = _ffn_block(h, w)
    return out


def full_attention_oracle(
    frames: np.ndarray, cfg: ChunkConfig, weights: list[AttentionLayerWeights]
) -> np.ndarray:
    """Quadratic full self-attention evaluation of the same layer stack.

    No chunking, no memory bank, no key/value cache: every query attends over
    every frame.  Each layer is one :func:`full_attention_layer`, whose
    query blocks keep memory at ``O(ATTENTION_BLOCK * t)`` rather than
    ``O(t^2)``, then one offline smoothing pass over the whole sequence.
    Doubles as the non-streaming decoding path and as the reference the
    streaming decoder must match when its chunk covers the whole sequence
    with no lookahead and no memory.
    """
    if len(weights) != cfg.num_layers:
        raise ConfigError(f"{len(weights)} weight sets for {cfg.num_layers} layers")
    if frames.ndim != 2 or frames.shape[1] != cfg.hidden:
        raise ShapeError(f"frames shape {frames.shape} does not match [t, {cfg.hidden}]")
    x = frames.astype(DTYPE, copy=False)
    if x.shape[0] == 0:
        return x
    for w in weights:
        x = full_attention_layer(x, w, cfg)
        if cfg.use_smooth:
            assert w.smooth is not None
            x = _smooth_offline(x, w.smooth, cfg)
    return x
