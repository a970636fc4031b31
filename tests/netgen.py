"""Shared generators for randomized convolution test cases.

The naive evaluators here are deliberately written as per-frame Python
loops so they form an independent oracle for the vectorized production
code.
"""

import numpy as np

from chunkvox.convs import ConvSpec, left_context
from chunkvox.decoder import AttentionLayerWeights, SmoothWeights

F32 = np.float32


def rand_smooth_weights(rng, cfg):
    d, k = cfg.hidden, cfg.smooth_kernel
    u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape).astype(F32)
    return SmoothWeights(
        conv1_w=u(d, d, k),
        conv1_b=u(d),
        norm1_gamma=(1.0 + rng.uniform(-0.1, 0.1, size=d)).astype(F32),
        norm1_beta=u(d),
        conv2_w=u(d, d, k),
        conv2_b=u(d),
        norm2_gamma=(1.0 + rng.uniform(-0.1, 0.1, size=d)).astype(F32),
        norm2_beta=u(d),
    )


def rand_layer_weights(rng, cfg):
    """Uniform(-0.1, 0.1) decoder layer params; norm gains near one."""
    d, f = cfg.hidden, cfg.ffn_hidden
    u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape).astype(F32)
    return AttentionLayerWeights(
        w_q=u(d, d),
        w_k=u(d, d),
        w_v=u(d, d),
        w_out=u(d, d),
        attn_norm_gamma=(1.0 + rng.uniform(-0.1, 0.1, size=d)).astype(F32),
        attn_norm_beta=u(d),
        ffn_w1=u(d, f),
        ffn_b1=u(f),
        ffn_w2=u(f, d),
        ffn_b2=u(d),
        ffn_norm_gamma=(1.0 + rng.uniform(-0.1, 0.1, size=d)).astype(F32),
        ffn_norm_beta=u(d),
        smooth=rand_smooth_weights(rng, cfg) if cfg.use_smooth else None,
    )


def rand_decoder_weights(rng, cfg):
    return [rand_layer_weights(rng, cfg) for _ in range(cfg.num_layers)]


def rand_posterior_weights(rng, cfg):
    from chunkvox.acoustic import PosteriorWeights

    u = lambda *shape: rng.uniform(-0.1, 0.1, size=shape).astype(F32)
    layers = []
    cin = cfg.in_channels
    for _ in range(cfg.num_layers):
        layers.append(
            (
                u(cfg.hidden_channels, cin, cfg.kernel_size),
                u(cfg.hidden_channels),
                (1.0 + rng.uniform(-0.1, 0.1, size=cfg.hidden_channels)).astype(F32),
                u(cfg.hidden_channels),
            )
        )
        cin = cfg.hidden_channels
    return PosteriorWeights(
        layers=layers,
        out_w=u(2 * cfg.latent_dim, cfg.hidden_channels, 1),
        out_b=u(2 * cfg.latent_dim),
    )


def rand_conv_case(rng, transposed=False, pad_mode="constant", max_ch=5, max_len=40):
    """Draw one random (spec, w, b, x) quadruple."""
    cin = int(rng.integers(1, max_ch))
    cout = int(rng.integers(1, max_ch))
    if transposed:
        stride = int(rng.integers(1, 5))
        kernel = stride * int(rng.integers(1, 4)) + int(rng.integers(0, stride))
        kernel = max(kernel, stride)
        spec = ConvSpec(cin, cout, kernel, stride=stride, transposed=True, pad_mode=pad_mode)
    else:
        kernel = int(rng.integers(1, 6))
        stride = int(rng.integers(1, 4))
        dilation = int(rng.integers(1, 4))
        spec = ConvSpec(cin, cout, kernel, stride=stride, dilation=dilation, pad_mode=pad_mode)
    w = rng.normal(size=(cout, cin, kernel)).astype(F32)
    b = rng.normal(size=(cout,)).astype(F32)
    x = rng.normal(size=(cin, int(rng.integers(1, max_len)))).astype(F32)
    return spec, w, b, x


def random_chunking(rng, length, allow_empty=True):
    """Split ``length`` frames into random contiguous chunk sizes."""
    sizes = []
    left = length
    while left > 0:
        take = int(rng.integers(0 if (allow_empty and sizes) else 1, min(left, 9) + 1))
        if take == 0 and not allow_empty:
            take = 1
        sizes.append(take)
        left -= take
    if not sizes:
        sizes = [0]
    return sizes


def naive_causal_conv(x, w, b, spec):
    """Per-frame reference for the plain causal convolution."""
    cin, length = x.shape
    cout, _, k = w.shape
    pad = left_context(spec)
    cols = []
    for t in range(pad):
        if spec.pad_mode == "replicate":
            cols.append(x[:, 0])
        else:
            cols.append(np.zeros(cin, dtype=F32))
    for t in range(length):
        cols.append(x[:, t])
    xp = np.stack(cols, axis=1) if cols else x
    n_out = 0 if length == 0 else (length - 1) // spec.stride + 1
    out = np.zeros((cout, n_out), dtype=F32)
    for t in range(n_out):
        acc = np.zeros(cout, dtype=F32)
        for j in range(k):
            acc = acc + w[:, :, j] @ xp[:, t * spec.stride + j * spec.dilation]
        out[:, t] = acc + b
    return out


def naive_causal_tconv(x, w, b, spec):
    """Per-frame reference for the causal transposed convolution."""
    cin, length = x.shape
    cout, _, k = w.shape
    s = spec.stride
    pad = left_context(spec)
    if length == 0:
        return np.zeros((cout, 0), dtype=F32)
    if pad:
        if spec.pad_mode == "replicate":
            fill = np.repeat(x[:, :1], pad, axis=1)
        else:
            fill = np.zeros((cin, pad), dtype=F32)
        xp = np.concatenate([fill, x], axis=1)
    else:
        xp = x
    raw = naive_tconv_raw(xp, w, s)
    head = s if pad else 0
    return raw[:, head : head + length * s] + b[:, None]


def naive_tconv_raw(x, w, stride):
    """Per-frame overlap-add of a transposed convolution: no pad, trim or bias."""
    cout, _, k = w.shape
    m = x.shape[1]
    raw = np.zeros((cout, (m - 1) * stride + k), dtype=F32)
    for i in range(m):
        for j in range(k):
            raw[:, i * stride + j] += w[:, :, j] @ x[:, i]
    return raw


def rand_natural_net(rng, channels, n_layers=None):
    """Random stride-1 stack with replicate padding; transposed layers use kernel = 2 * stride."""
    if n_layers is None:
        n_layers = int(rng.integers(1, 5))
    net = []
    cin = channels
    for _ in range(n_layers):
        cout = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            s = int(rng.integers(2, 4))
            spec = ConvSpec(cin, cout, 2 * s, stride=s, transposed=True, pad_mode="replicate")
        else:
            k = int(rng.integers(1, 5))
            dil = int(rng.integers(1, 3))
            spec = ConvSpec(cin, cout, k, dilation=dil, pad_mode="replicate")
        w = rng.normal(size=(cout, cin, spec.kernel_size)).astype(F32) * 0.5
        b = rng.normal(size=(cout,)).astype(F32) * 0.1
        net.append((spec, w, b))
        cin = cout
    return net
