"""Chunkwise streaming attention decoder.

Frames are processed in fixed-size chunks.  For chunk ``i`` with body ``C``
(``chunk_size`` frames, time-major ``[frames, hidden]``) and lookahead ``R``
(the next ``right_context`` frames), each layer makes one pass over
``X = [C; R]``:

  * keys/values concatenate, in order: projections of the memory bank, the
    cached key/value projections of the previous chunks' last
    ``left_context`` frames, and projections of the raw ``X``; the memory
    bank and ``X`` go through each projection together;
  * the queries are the layer-normed ``X`` plus one summary query, the mean
    of raw ``C``; a single attention call serves all of them;
  * the summary row of the attention output, without residual, is the
    memory vector that layer ``n + 1`` consumes at chunk ``i + 1``;
  * the other rows get a residual from ``X``, then one feed-forward block
    with post-residual layer norm;
  * the body rows' key/value projections become the left cache;
  * an optional causal smoothing layer (conv -> norm, twice) runs over the
    body with committed state, and over the lookahead from that state with
    the advanced state dropped, so lookahead never leaks into committed
    history.

The emitted sequence is the concatenation of the chunk bodies; lookahead
outputs are consumed only inside the layer stack.  With ``chunk_size >=
sequence length``, no lookahead, and no memory, the arithmetic degenerates
to full self-attention (see :func:`full_attention_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convs import ConvSpec, ConvState, causal_conv1d_offline, causal_conv1d_step, init_conv_state
from .errors import ConfigError, SequencingError, ShapeError
from .kernels import DTYPE, layer_norm, matmul, relu, softmax


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


@dataclass
class SmoothWeights:
    """Parameters of one causal smoothing layer (conv -> norm, twice)."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    norm1_gamma: np.ndarray
    norm1_beta: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    norm2_gamma: np.ndarray
    norm2_beta: np.ndarray


@dataclass
class AttentionLayerWeights:
    """Parameters of one decoder layer.

    Projections are stored input-major (``y = x @ w``); convolution kernels
    inside ``smooth`` follow the ``[out, in, taps]`` convention.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_out: np.ndarray
    attn_norm_gamma: np.ndarray
    attn_norm_beta: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray
    ffn_norm_gamma: np.ndarray
    ffn_norm_beta: np.ndarray
    smooth: SmoothWeights | None = None

    def check(self, cfg: ChunkConfig, layer: int) -> list[str]:
        """Collect human-readable shape problems (empty list when clean)."""
        d, f = cfg.hidden, cfg.ffn_hidden
        want = {
            "w_q": (d, d),
            "w_k": (d, d),
            "w_v": (d, d),
            "w_out": (d, d),
            "attn_norm_gamma": (d,),
            "attn_norm_beta": (d,),
            "ffn_w1": (d, f),
            "ffn_b1": (f,),
            "ffn_w2": (f, d),
            "ffn_b2": (d,),
            "ffn_norm_gamma": (d,),
            "ffn_norm_beta": (d,),
        }
        problems = [
            f"layer {layer}: {name} has shape {getattr(self, name).shape}, wants {shape}"
            for name, shape in want.items()
            if getattr(self, name).shape != shape
        ]
        if cfg.use_smooth:
            if self.smooth is None:
                problems.append(f"layer {layer}: smoothing enabled but weights missing")
            else:
                k = cfg.smooth_kernel
                smooth_want = {
                    "conv1_w": (d, d, k),
                    "conv1_b": (d,),
                    "norm1_gamma": (d,),
                    "norm1_beta": (d,),
                    "conv2_w": (d, d, k),
                    "conv2_b": (d,),
                    "norm2_gamma": (d,),
                    "norm2_beta": (d,),
                }
                problems += [
                    f"layer {layer}: smooth.{name} has shape "
                    f"{getattr(self.smooth, name).shape}, wants {shape}"
                    for name, shape in smooth_want.items()
                    if getattr(self.smooth, name).shape != shape
                ]
        return problems


@dataclass
class SmoothState:
    conv1: ConvState
    conv2: ConvState


@dataclass
class _LayerState:
    """Per-layer streaming caches."""

    k_left: np.ndarray
    v_left: np.ndarray
    memory: list[np.ndarray] = field(default_factory=list)
    smooth: SmoothState | None = None


@dataclass
class DecoderState:
    """Streaming state across the whole layer stack."""

    layers: list[_LayerState]


def _smooth_conv_spec(cfg: ChunkConfig) -> ConvSpec:
    return ConvSpec(cfg.hidden, cfg.hidden, cfg.smooth_kernel, pad_mode="constant")


def init_decoder_state(cfg: ChunkConfig) -> DecoderState:
    empty = np.zeros((0, cfg.hidden), dtype=DTYPE)
    spec = _smooth_conv_spec(cfg)
    layers = []
    for _ in range(cfg.num_layers):
        smooth = (
            SmoothState(conv1=init_conv_state(spec), conv2=init_conv_state(spec))
            if cfg.use_smooth
            else None
        )
        layers.append(_LayerState(k_left=empty, v_left=empty, smooth=smooth))
    return DecoderState(layers=layers)


def summary_vector(chunk: np.ndarray) -> np.ndarray:
    """Mean of the chunk body frames, shape ``[hidden]``."""
    if chunk.ndim != 2 or chunk.shape[0] == 0:
        raise ShapeError(f"summary_vector needs a nonempty [frames, hidden] chunk, got {chunk.shape}")
    return chunk.mean(axis=0)


def _mha(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, w_out: np.ndarray, num_heads: int
) -> np.ndarray:
    """Multi-head scaled dot-product attention with output projection."""
    tq, d = q.shape
    dh = d // num_heads
    scale = DTYPE(1.0 / np.sqrt(dh))
    out = np.empty((tq, d), dtype=DTYPE)
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = matmul(q[:, sl], k[:, sl].T) * scale
        out[:, sl] = matmul(softmax(scores, axis=-1), v[:, sl])
    return matmul(out, w_out)


def _ffn_block(h: np.ndarray, w: AttentionLayerWeights) -> np.ndarray:
    """Feed-forward with residual and post-residual layer norm."""
    inner = relu(matmul(h, w.ffn_w1) + w.ffn_b1)
    return layer_norm(h + matmul(inner, w.ffn_w2) + w.ffn_b2, w.ffn_norm_gamma, w.ffn_norm_beta)


def causal_smooth_layer(
    chunk: np.ndarray, state: SmoothState, w: SmoothWeights, cfg: ChunkConfig
) -> tuple[np.ndarray, SmoothState]:
    """Run the two causal conv -> layer-norm stages over one chunk.

    Returns the smoothed chunk and the advanced state; feeding chunks in
    sequence reproduces the offline evaluation of the same stack.
    """
    spec = _smooth_conv_spec(cfg)
    if chunk.shape[0] == 0:
        return chunk, state
    s1, y = causal_conv1d_step(state.conv1, chunk.T, w.conv1_w, w.conv1_b, spec)
    y = layer_norm(y.T, w.norm1_gamma, w.norm1_beta)
    s2, y2 = causal_conv1d_step(state.conv2, y.T, w.conv2_w, w.conv2_b, spec)
    out = layer_norm(y2.T, w.norm2_gamma, w.norm2_beta)
    return out, SmoothState(conv1=s1, conv2=s2)


def _smooth_offline(x: np.ndarray, w: SmoothWeights, cfg: ChunkConfig) -> np.ndarray:
    spec = _smooth_conv_spec(cfg)
    if x.shape[0] == 0:
        return x
    y = causal_conv1d_offline(x.T, w.conv1_w, w.conv1_b, spec)
    y = layer_norm(y.T, w.norm1_gamma, w.norm1_beta)
    y2 = causal_conv1d_offline(y.T, w.conv2_w, w.conv2_b, spec)
    return layer_norm(y2.T, w.norm2_gamma, w.norm2_beta)


def chunk_attention_layer(
    body: np.ndarray,
    lookahead: np.ndarray,
    state: DecoderState,
    layer: int,
    w: AttentionLayerWeights,
    cfg: ChunkConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One decoder layer over one chunk.

    Args:
        body: Raw chunk frames ``[n, hidden]``, ``n >= 1``.
        lookahead: Raw right-context frames ``[r, hidden]``, possibly empty.
        state: Whole-stack streaming state; this layer's key/value cache is
            advanced in place.
        layer: Index into ``state.layers``.
        w: Layer parameters.
        cfg: Decoder configuration.

    Returns:
        ``(body_out, lookahead_out, memory_vec)`` where ``memory_vec`` is the
        summary-attention output destined for layer ``layer + 1`` at the next
        chunk.
    """
    if body.shape[0] == 0:
        raise ShapeError("chunk body must contain at least one frame")
    if body.shape[1] != cfg.hidden or lookahead.shape[1] != cfg.hidden:
        raise ShapeError(
            f"chunk width {body.shape[1]}/{lookahead.shape[1]} does not match hidden {cfg.hidden}"
        )
    ls = state.layers[layer]
    n, m = body.shape[0], len(ls.memory)

    x = np.concatenate([body, lookahead], axis=0)
    src = np.vstack([*ls.memory, x])
    k_src = matmul(src, w.w_k)
    v_src = matmul(src, w.w_v)
    keys = np.concatenate([k_src[:m], ls.k_left, k_src[m:]], axis=0)
    vals = np.concatenate([v_src[:m], ls.v_left, v_src[m:]], axis=0)

    xn = layer_norm(x, w.attn_norm_gamma, w.attn_norm_beta)
    queries = matmul(np.vstack([xn, summary_vector(body)]), w.w_q)
    attn = _mha(queries, keys, vals, w.w_out, cfg.num_heads)

    if cfg.left_context > 0:
        ls.k_left = np.concatenate([ls.k_left, k_src[m : m + n]], axis=0)[-cfg.left_context :]
        ls.v_left = np.concatenate([ls.v_left, v_src[m : m + n]], axis=0)[-cfg.left_context :]

    # The last row answers the summary query: the memory vector, no residual.
    out = _ffn_block(attn[:-1] + x, w)
    return out[:n], out[n:], attn[-1]


class DecoderStream:
    """Incremental driver for the chunkwise decoder.

    Frames are buffered with :meth:`push`; :meth:`pop_chunk` processes one
    chunk as soon as ``chunk_size + right_context`` frames are buffered and
    returns its committed body output.  :meth:`finish` drains the tail, where
    the final chunks run with partial or empty lookahead.
    """

    def __init__(self, cfg: ChunkConfig, weights: list[AttentionLayerWeights]):
        if len(weights) != cfg.num_layers:
            raise ConfigError(f"{len(weights)} weight sets for {cfg.num_layers} layers")
        problems = [p for i, w in enumerate(weights) for p in w.check(cfg, i)]
        if problems:
            raise ConfigError("; ".join(problems))
        self.cfg = cfg
        self.weights = weights
        self.state = init_decoder_state(cfg)
        self._buf = np.zeros((0, cfg.hidden), dtype=DTYPE)
        self._finished = False

    def push(self, frames: np.ndarray) -> None:
        """Buffer frames; no processing happens here."""
        if self._finished:
            raise SequencingError("push after finish")
        if frames.ndim != 2 or frames.shape[1] != self.cfg.hidden:
            raise ShapeError(
                f"frames shape {frames.shape} does not match [n, {self.cfg.hidden}]"
            )
        if frames.shape[0]:
            self._buf = np.concatenate([self._buf, frames.astype(DTYPE, copy=False)], axis=0)

    def pop_chunk(self) -> np.ndarray | None:
        """Process one full-lookahead chunk if enough frames are buffered."""
        cfg = self.cfg
        if self._buf.shape[0] < cfg.chunk_size + cfg.right_context:
            return None
        return self._process()

    def feed(self, frames: np.ndarray) -> list[np.ndarray]:
        """Push frames and return every chunk output that became ready."""
        self.push(frames)
        outs = []
        while (out := self.pop_chunk()) is not None:
            outs.append(out)
        return outs

    def finish(self) -> list[np.ndarray]:
        """Flush buffered frames; the last chunk may be short with no lookahead."""
        if self._finished:
            raise SequencingError("finish called twice")
        self._finished = True
        outs = []
        while self._buf.shape[0] > 0:
            outs.append(self._process())
        return outs

    def _process(self) -> np.ndarray:
        """Run the chunk at the head of the buffer, then drop its body frames."""
        cfg = self.cfg
        body = self._buf[: cfg.chunk_size]
        look = self._buf[cfg.chunk_size : cfg.chunk_size + cfg.right_context]
        n = body.shape[0]
        new_memories = []
        for i, w in enumerate(self.weights):
            body, look, mem = chunk_attention_layer(body, look, self.state, i, w, cfg)
            if cfg.use_smooth:
                ls = self.state.layers[i]
                assert w.smooth is not None and ls.smooth is not None
                body, ls.smooth = causal_smooth_layer(body, ls.smooth, w.smooth, cfg)
                # Peek: the state advanced over the lookahead is dropped, so
                # committed conv history only ever contains body frames.
                look, _ = causal_smooth_layer(look, ls.smooth, w.smooth, cfg)
            new_memories.append(mem)
        if cfg.memory_slots > 0:
            for i, mem in enumerate(new_memories[:-1]):
                bank = self.state.layers[i + 1].memory
                bank.append(mem)
                del bank[: max(0, len(bank) - cfg.memory_slots)]
        self._buf = self._buf[n:]
        return body


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


def full_attention_oracle(
    frames: np.ndarray, cfg: ChunkConfig, weights: list[AttentionLayerWeights]
) -> np.ndarray:
    """Quadratic full self-attention evaluation of the same layer stack.

    No chunking, no memory bank, no key/value cache: every query attends over
    every frame.  Doubles as the non-streaming decoding path and as the
    reference the streaming decoder must match when its chunk covers the
    whole sequence with no lookahead and no memory.
    """
    if len(weights) != cfg.num_layers:
        raise ConfigError(f"{len(weights)} weight sets for {cfg.num_layers} layers")
    if frames.ndim != 2 or frames.shape[1] != cfg.hidden:
        raise ShapeError(f"frames shape {frames.shape} does not match [t, {cfg.hidden}]")
    x = frames.astype(DTYPE, copy=False)
    if x.shape[0] == 0:
        return x
    for w in weights:
        xn = layer_norm(x, w.attn_norm_gamma, w.attn_norm_beta)
        keys = matmul(x, w.w_k)
        vals = matmul(x, w.w_v)
        x = _mha(matmul(xn, w.w_q), keys, vals, w.w_out, cfg.num_heads) + x
        x = _ffn_block(x, w)
        if cfg.use_smooth:
            assert w.smooth is not None
            x = _smooth_offline(x, w.smooth, cfg)
    return x
