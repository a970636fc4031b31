"""A float64 reference of the chunkwise decoder, written apart from chunkvox.

It walks the chunk schedule one chunk at a time with plain loops: every
attention row and head is its own softmax, every smoothing output frame is
an explicit sum over taps, and the caches hold raw rows rather than
projections.  It shares no code with ``chunkvox.decoder`` or
``chunkvox.kernels``; only the weights and the config come from there.

The schedule, per chunk of ``n`` body frames and ``r`` lookahead frames
(``r`` shrinks at the end of the sequence), for each layer in turn:

* keys and values: the layer's memory bank, then its last ``left_context``
  body inputs from earlier chunks, then the chunk's ``n + r`` inputs;
* queries: each input row layer-normed, plus the mean of the raw body
  inputs as a summary query whose output, without residual, joins the next
  layer's memory bank after the chunk;
* residual, then feed-forward with residual and post-norm;
* smoothing (conv -> norm, twice) over the ``n + r`` rows, with each conv
  reading zero padding and then the committed inputs of earlier chunks'
  bodies only.

The body rows of the last layer are the chunk's output.
"""

from __future__ import annotations

import math

import numpy as np

EPS = 1e-5


def _norm(row: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    mu = sum(row) / len(row)
    var = sum((v - mu) ** 2 for v in row) / len(row)
    return (row - mu) / math.sqrt(var + EPS) * gamma + beta


def _attend(query: np.ndarray, keys: list, values: list, heads: int) -> np.ndarray:
    """One query row against the key and value rows, head by head."""
    d = len(query)
    dh = d // heads
    out = np.zeros(d)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = [float(query[cols] @ k[cols]) / math.sqrt(dh) for k in keys]
        top = max(logits)
        weights = [math.exp(s - top) for s in logits]
        total = sum(weights)
        for a, v in zip(weights, values):
            out[cols] += a / total * v[cols]
    return out


def _causal_conv(history: list, rows: list, w: np.ndarray, b: np.ndarray) -> list:
    """Outputs for ``rows``: tap ``j`` of frame ``t`` reads frame ``t - (k-1) + j``
    of ``history + rows``, and zeros before the first frame."""
    k = w.shape[2]
    seq = history + rows
    first = len(history)
    out = []
    for t in range(first, len(seq)):
        acc = b.copy()
        for j in range(k):
            src = t - (k - 1) + j
            if src >= 0:
                acc += w[:, :, j] @ seq[src]
        out.append(acc)
    return out


class _Layer:
    def __init__(self, w) -> None:
        f64 = lambda a: np.asarray(a, dtype=np.float64)
        self.p = {name: f64(v) for name, v in vars(w).items() if name != "smooth"}
        self.s = None if w.smooth is None else {n: f64(v) for n, v in vars(w.smooth).items()}
        self.memory: list = []  # raw memory vectors, oldest first
        self.left: list = []  # raw body inputs of earlier chunks
        self.hist1: list = []  # committed inputs of the first smoothing conv
        self.hist2: list = []  # committed inputs of the second

    def step(self, rows: list, n: int, cfg) -> tuple[list, np.ndarray]:
        p = self.p
        sources = self.memory + self.left + rows
        keys = [v @ p["w_k"] for v in sources]
        values = [v @ p["w_v"] for v in sources]
        queries = [_norm(v, p["attn_norm_gamma"], p["attn_norm_beta"]) for v in rows]
        queries.append(sum(rows[:n]) / n)
        heads = cfg.num_heads
        attended = [_attend(q @ p["w_q"], keys, values, heads) @ p["w_out"] for q in queries]
        out = []
        for v, a in zip(rows, attended):
            h = v + a
            inner = np.maximum(h @ p["ffn_w1"] + p["ffn_b1"], 0.0)
            y = h + inner @ p["ffn_w2"] + p["ffn_b2"]
            out.append(_norm(y, p["ffn_norm_gamma"], p["ffn_norm_beta"]))
        if cfg.left_context:
            self.left = (self.left + rows[:n])[-cfg.left_context :]
        if self.s is not None:
            s = self.s
            c1 = _causal_conv(self.hist1, out, s["conv1_w"], s["conv1_b"])
            z1 = [_norm(v, s["norm1_gamma"], s["norm1_beta"]) for v in c1]
            c2 = _causal_conv(self.hist2, z1, s["conv2_w"], s["conv2_b"])
            self.hist1 += out[:n]
            self.hist2 += z1[:n]
            out = [_norm(v, s["norm2_gamma"], s["norm2_beta"]) for v in c2]
        return out, attended[-1]


def reference_decode(frames: np.ndarray, cfg, weights) -> np.ndarray:
    """Decode ``frames`` ``[t, hidden]`` chunk by chunk in float64."""
    layers = [_Layer(w) for w in weights]
    x = [np.asarray(v, dtype=np.float64) for v in frames]
    out = []
    start = 0
    while start < len(x):
        n = min(cfg.chunk_size, len(x) - start)
        rows = x[start : start + n + cfg.right_context]
        memories = []
        for layer in layers:
            rows, memory = layer.step(rows, n, cfg)
            memories.append(memory)
        if cfg.memory_slots:
            for layer, memory in zip(layers[1:], memories):
                layer.memory = (layer.memory + [memory])[-cfg.memory_slots :]
        out += rows[:n]
        start += n
    return np.array(out).reshape(len(x), cfg.hidden)
