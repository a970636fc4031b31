"""Tests for the chunkwise streaming attention decoder."""

import dataclasses

import numpy as np
import pytest
from netgen import rand_decoder_weights, rand_smooth_weights

from chunkvox.decoder import (
    ChunkConfig,
    DecoderStream,
    causal_smooth_layer,
    chunk_attention_layer,
    chunkstream_decode,
    full_attention_oracle,
    init_decoder_state,
    summary_vector,
    _smooth_offline,
)
from chunkvox.errors import ConfigError, SequencingError, ShapeError
from chunkvox.kernels import layer_norm, matmul, relu, softmax

F32 = np.float32

SMALL = ChunkConfig(
    chunk_size=5,
    left_context=4,
    right_context=2,
    num_layers=2,
    hidden=16,
    ffn_hidden=24,
    num_heads=2,
    memory_slots=3,
    smooth_kernel=3,
)


def rand_frames(rng, t, d):
    return rng.normal(size=(t, d)).astype(F32) * 0.5


class TestChunkConfig:
    def test_defaults_are_valid(self):
        cfg = ChunkConfig()
        assert cfg.chunk_size == 20
        assert cfg.left_context == 10
        assert cfg.right_context == 4
        assert cfg.num_layers == 4
        assert cfg.hidden == 192
        assert cfg.ffn_hidden == 768
        assert cfg.num_heads == 2
        assert cfg.memory_slots == 4

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            ChunkConfig(chunk_size=0)
        with pytest.raises(ConfigError):
            ChunkConfig(left_context=-1)
        with pytest.raises(ConfigError):
            ChunkConfig(hidden=10, num_heads=3)
        with pytest.raises(ConfigError):
            ChunkConfig(memory_slots=-1)


class TestSummaryVector:
    def test_mean_of_rows(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F32)
        np.testing.assert_allclose(summary_vector(x), [2.0, 3.0])

    def test_empty_chunk_raises(self):
        with pytest.raises(ShapeError):
            summary_vector(np.zeros((0, 4), F32))


class TestSmoothLayer:
    def test_stream_matches_offline_across_chunks(self):
        rng = np.random.default_rng(0)
        cfg = dataclasses.replace(SMALL, hidden=8)
        w = rand_smooth_weights(rng, cfg)
        x = rand_frames(rng, 23, 8)
        state = init_decoder_state(cfg).layers[0].smooth
        outs = []
        pos = 0
        for n in (5, 1, 7, 0, 10):
            out, state = causal_smooth_layer(x[pos : pos + n], state, w, cfg)
            outs.append(out)
            pos += n
        got = np.concatenate(outs, axis=0)
        want = _smooth_offline(x, w, cfg)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_peek_does_not_advance_committed_state(self):
        """Smoothing lookahead frames on a copied state must leave the
        committed-body stream identical to a lookahead-free run."""
        import copy

        rng = np.random.default_rng(1)
        cfg = dataclasses.replace(SMALL, hidden=8)
        w = rand_smooth_weights(rng, cfg)
        x = rand_frames(rng, 15, 8)
        state = init_decoder_state(cfg).layers[0].smooth
        outs = []
        for start in (0, 5, 10):
            body = x[start : start + 5]
            out, state = causal_smooth_layer(body, state, w, cfg)
            outs.append(out)
            peek = x[start + 5 : start + 7]
            if peek.shape[0]:
                causal_smooth_layer(peek, copy.deepcopy(state), w, cfg)
        got = np.concatenate(outs, axis=0)
        np.testing.assert_allclose(got, _smooth_offline(x, w, cfg), atol=1e-6)


class TestFullAttentionOracle:
    def test_single_frame_is_identity_weighted(self):
        """With one frame the softmax is a singleton, so attention returns
        that frame's value projection (manual closed form)."""
        rng = np.random.default_rng(2)
        cfg = ChunkConfig(
            chunk_size=1,
            left_context=0,
            right_context=0,
            num_layers=1,
            hidden=8,
            ffn_hidden=12,
            num_heads=2,
            memory_slots=0,
            use_smooth=False,
        )
        w = rand_decoder_weights(rng, cfg)
        x = rand_frames(rng, 1, 8)
        got = full_attention_oracle(x, cfg, w)
        attn = matmul(matmul(x, w[0].w_v), w[0].w_out) + x
        inner = relu(matmul(attn, w[0].ffn_w1) + w[0].ffn_b1)
        want = layer_norm(
            attn + matmul(inner, w[0].ffn_w2) + w[0].ffn_b2,
            w[0].ffn_norm_gamma,
            w[0].ffn_norm_beta,
        )
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_manual_two_frame_attention(self):
        """Full attention over two frames re-derived with raw softmax math."""
        rng = np.random.default_rng(3)
        cfg = ChunkConfig(
            chunk_size=2,
            left_context=0,
            right_context=0,
            num_layers=1,
            hidden=4,
            ffn_hidden=4,
            num_heads=1,
            memory_slots=0,
            use_smooth=False,
        )
        w = rand_decoder_weights(rng, cfg)[0]
        x = rand_frames(rng, 2, 4)
        xn = layer_norm(x, w.attn_norm_gamma, w.attn_norm_beta)
        q = xn @ w.w_q
        k = x @ w.w_k
        v = x @ w.w_v
        scores = (q @ k.T) / np.sqrt(4.0, dtype=F32)
        probs = softmax(scores.astype(F32), axis=-1)
        attn = (probs @ v) @ w.w_out + x
        inner = relu(attn @ w.ffn_w1 + w.ffn_b1)
        want = layer_norm(
            attn + inner @ w.ffn_w2 + w.ffn_b2, w.ffn_norm_gamma, w.ffn_norm_beta
        )
        got = full_attention_oracle(x, cfg, [w])
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_empty_sequence(self):
        rng = np.random.default_rng(4)
        cfg = dataclasses.replace(SMALL, use_smooth=False)
        w = rand_decoder_weights(rng, cfg)
        out = full_attention_oracle(np.zeros((0, 16), F32), cfg, w)
        assert out.shape == (0, 16)


class TestDegenerateEquivalence:
    def test_stream_equals_full_attention_when_chunk_covers_all(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            t = int(rng.integers(1, 33))
            cfg = ChunkConfig(
                chunk_size=max(t, 1),
                left_context=int(rng.integers(0, 8)),
                right_context=0,
                num_layers=int(rng.integers(1, 4)),
                hidden=16,
                ffn_hidden=24,
                num_heads=int(rng.choice([1, 2, 4])),
                memory_slots=0,
                smooth_kernel=3,
                use_smooth=bool(rng.integers(0, 2)),
            )
            w = rand_decoder_weights(rng, cfg)
            x = rand_frames(rng, t, cfg.hidden)
            got = chunkstream_decode(x, cfg, w)
            want = full_attention_oracle(x, cfg, w)
            np.testing.assert_allclose(got, want, atol=1e-5)


class TestStreamingBehavior:
    def test_output_frame_count_matches_input(self):
        rng = np.random.default_rng(6)
        w = rand_decoder_weights(rng, SMALL)
        for t in (1, 3, 5, 6, 7, 12, 23, 40):
            x = rand_frames(rng, t, SMALL.hidden)
            out = chunkstream_decode(x, SMALL, w)
            assert out.shape == (t, SMALL.hidden)

    def test_first_chunk_needs_body_plus_lookahead_frames(self):
        rng = np.random.default_rng(7)
        w = rand_decoder_weights(rng, SMALL)
        stream = DecoderStream(SMALL, w)
        need = SMALL.chunk_size + SMALL.right_context
        for t in range(need - 1):
            stream.push(rand_frames(rng, 1, SMALL.hidden))
            assert stream.pop_chunk() is None
        stream.push(rand_frames(rng, 1, SMALL.hidden))
        out = stream.pop_chunk()
        assert out is not None and out.shape == (SMALL.chunk_size, SMALL.hidden)

    def test_committed_chunks_are_bitwise_immune_to_later_frames(self):
        """Chunk i sees only its body, lookahead, and earlier state; editing
        any later frame must not change it even in the last bit."""
        rng = np.random.default_rng(8)
        w = rand_decoder_weights(rng, SMALL)
        t = 30
        x = rand_frames(rng, t, SMALL.hidden)
        base = chunkstream_decode(x, SMALL, w)
        horizon = SMALL.chunk_size + SMALL.right_context
        for frame in (horizon, horizon + 3, t - 1):
            x2 = x.copy()
            x2[frame] += 1.0
            other = chunkstream_decode(x2, SMALL, w)
            assert np.array_equal(base[: SMALL.chunk_size], other[: SMALL.chunk_size])

    def test_lookahead_frames_do_influence_current_chunk(self):
        rng = np.random.default_rng(9)
        w = rand_decoder_weights(rng, SMALL)
        x = rand_frames(rng, 30, SMALL.hidden)
        base = chunkstream_decode(x, SMALL, w)
        x2 = x.copy()
        x2[SMALL.chunk_size] += 1.0  # first lookahead frame of chunk 0
        other = chunkstream_decode(x2, SMALL, w)
        assert not np.allclose(base[: SMALL.chunk_size], other[: SMALL.chunk_size])

    def test_sequencing_errors(self):
        rng = np.random.default_rng(10)
        w = rand_decoder_weights(rng, SMALL)
        stream = DecoderStream(SMALL, w)
        stream.push(rand_frames(rng, 3, SMALL.hidden))
        stream.finish()
        with pytest.raises(SequencingError):
            stream.push(rand_frames(rng, 1, SMALL.hidden))
        with pytest.raises(SequencingError):
            stream.finish()

    def test_bad_frame_width_rejected(self):
        rng = np.random.default_rng(11)
        w = rand_decoder_weights(rng, SMALL)
        stream = DecoderStream(SMALL, w)
        with pytest.raises(ShapeError):
            stream.push(np.zeros((4, SMALL.hidden + 1), F32))

    def test_wrong_layer_count_rejected(self):
        rng = np.random.default_rng(12)
        w = rand_decoder_weights(rng, SMALL)
        with pytest.raises(ConfigError):
            DecoderStream(SMALL, w[:1])

    def test_shape_problems_enumerated(self):
        rng = np.random.default_rng(13)
        w = rand_decoder_weights(rng, SMALL)
        w[0].w_q = np.zeros((3, 3), F32)
        w[1].ffn_b1 = np.zeros(5, F32)
        with pytest.raises(ConfigError) as err:
            DecoderStream(SMALL, w)
        assert "w_q" in str(err.value) and "ffn_b1" in str(err.value)


def _ln(x, gamma, beta):
    c = x - x.mean(axis=1, keepdims=True)
    return c / np.sqrt((c * c).mean(axis=1, keepdims=True) + 1e-5) * gamma + beta


def _attend(q, keys, vals, w_out, heads):
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = q[:, sl] @ keys[:, sl].T / np.sqrt(dh)
        p = np.exp(s - s.max(axis=1, keepdims=True))
        outs.append(p / p.sum(axis=1, keepdims=True) @ vals[:, sl])
    return np.concatenate(outs, axis=1) @ w_out


def three_call_layer(body, look, mem, k_left, v_left, w, cfg):
    """The layer as separate body, lookahead and summary attention calls and
    separate body and lookahead feed-forward calls, in float64."""
    w = {k: v.astype(np.float64) for k, v in vars(w).items() if k != "smooth"}
    body, look, mem = (a.astype(np.float64) for a in (body, look, mem))
    keys = np.concatenate([mem @ w["w_k"], k_left, body @ w["w_k"], look @ w["w_k"]])
    vals = np.concatenate([mem @ w["w_v"], v_left, body @ w["w_v"], look @ w["w_v"]])

    def attend(q):
        return _attend(q @ w["w_q"], keys, vals, w["w_out"], cfg.num_heads)

    def attn_ffn(x):
        h = attend(_ln(x, w["attn_norm_gamma"], w["attn_norm_beta"])) + x
        inner = np.maximum(h @ w["ffn_w1"] + w["ffn_b1"], 0.0)
        return _ln(h + inner @ w["ffn_w2"] + w["ffn_b2"], w["ffn_norm_gamma"], w["ffn_norm_beta"])

    memory_vec = attend(body.mean(axis=0, keepdims=True))[0]
    k_new = np.concatenate([k_left, body @ w["w_k"]])[-cfg.left_context :]
    v_new = np.concatenate([v_left, body @ w["w_v"]])[-cfg.left_context :]
    return attn_ffn(body), attn_ffn(look), memory_vec, k_new, v_new


class TestChunkLayer:
    @pytest.mark.parametrize("n, r", [(5, 2), (3, 1), (2, 0)])
    def test_one_pass_matches_three_call_formulation(self, n, r):
        """Layer 1 after two chunks has a memory bank and a full left cache;
        every output and the advanced cache match the per-part evaluation."""
        rng = np.random.default_rng(21)
        w = rand_decoder_weights(rng, SMALL)
        stream = DecoderStream(SMALL, w)
        stream.feed(rand_frames(rng, 2 * SMALL.chunk_size + SMALL.right_context, SMALL.hidden))
        ls = stream.state.layers[1]
        assert len(ls.memory) == 2 and ls.k_left.shape[0] == SMALL.left_context
        body = rand_frames(rng, n, SMALL.hidden)
        look = rand_frames(rng, r, SMALL.hidden)
        want = three_call_layer(
            body, look, np.stack(ls.memory), ls.k_left.copy(), ls.v_left.copy(), w[1], SMALL
        )
        got = chunk_attention_layer(body, look, stream.state, 1, w[1], SMALL)
        assert got[0].shape == (n, SMALL.hidden) and got[1].shape == (r, SMALL.hidden)
        for g, x in zip((*got, ls.k_left, ls.v_left), want):
            np.testing.assert_allclose(g, x, atol=1e-5)


class TestKeyValueCache:
    def test_cache_holds_projections_of_last_left_context_frames(self):
        rng = np.random.default_rng(14)
        cfg = dataclasses.replace(SMALL, use_smooth=False, memory_slots=0)
        w = rand_decoder_weights(rng, cfg)
        x = rand_frames(rng, cfg.chunk_size + cfg.right_context, cfg.hidden)
        stream = DecoderStream(cfg, w)
        stream.feed(x)
        body = x[: cfg.chunk_size]
        want_k = body[-cfg.left_context :] @ w[0].w_k
        want_v = body[-cfg.left_context :] @ w[0].w_v
        np.testing.assert_allclose(stream.state.layers[0].k_left, want_k, atol=1e-6)
        np.testing.assert_allclose(stream.state.layers[0].v_left, want_v, atol=1e-6)

    def test_cache_accumulates_across_small_chunks(self):
        """left_context larger than chunk_size pulls frames from several
        earlier chunks."""
        rng = np.random.default_rng(15)
        cfg = ChunkConfig(
            chunk_size=3,
            left_context=7,
            right_context=0,
            num_layers=1,
            hidden=8,
            ffn_hidden=8,
            num_heads=1,
            memory_slots=0,
            use_smooth=False,
        )
        w = rand_decoder_weights(rng, cfg)
        x = rand_frames(rng, 9, cfg.hidden)
        stream = DecoderStream(cfg, w)
        stream.feed(x)
        stream.finish()
        want_k = x[2:9] @ w[0].w_k
        np.testing.assert_allclose(stream.state.layers[0].k_left, want_k, atol=1e-6)

    def test_zero_left_context_keeps_cache_empty(self):
        rng = np.random.default_rng(16)
        cfg = dataclasses.replace(SMALL, left_context=0, use_smooth=False)
        w = rand_decoder_weights(rng, cfg)
        stream = DecoderStream(cfg, w)
        stream.feed(rand_frames(rng, 14, cfg.hidden))
        assert stream.state.layers[0].k_left.shape == (0, cfg.hidden)

    def test_left_context_influences_later_chunks(self):
        rng = np.random.default_rng(17)
        base_cfg = dataclasses.replace(SMALL, memory_slots=0, use_smooth=False)
        no_lc = dataclasses.replace(base_cfg, left_context=0)
        w = rand_decoder_weights(rng, base_cfg)
        x = rand_frames(rng, 2 * base_cfg.chunk_size + base_cfg.right_context, base_cfg.hidden)
        with_cache = chunkstream_decode(x, base_cfg, w)
        without = chunkstream_decode(x, no_lc, w)
        cs = base_cfg.chunk_size
        np.testing.assert_allclose(with_cache[:cs], without[:cs], atol=1e-6)
        assert not np.allclose(with_cache[cs:], without[cs:])


class TestMemoryBank:
    def test_bank_is_fifo_capped_at_memory_slots(self):
        rng = np.random.default_rng(18)
        cfg = dataclasses.replace(SMALL, memory_slots=2, use_smooth=False, right_context=0)
        w = rand_decoder_weights(rng, cfg)
        stream = DecoderStream(cfg, w)
        x = rand_frames(rng, cfg.chunk_size * 6, cfg.hidden)
        seen = []
        for i in range(6):
            stream.feed(x[i * cfg.chunk_size : (i + 1) * cfg.chunk_size])
            seen.append(len(stream.state.layers[1].memory))
        assert seen == [1, 2, 2, 2, 2, 2]
        assert stream.state.layers[0].memory == []

    def test_memory_first_affects_second_chunk(self):
        """The bank is filled after a chunk completes, so chunk 0 is memory
        free and chunk 1 is the first consumer."""
        rng = np.random.default_rng(19)
        cfg_mem = dataclasses.replace(SMALL, use_smooth=False, right_context=0)
        cfg_off = dataclasses.replace(cfg_mem, memory_slots=0)
        w = rand_decoder_weights(rng, cfg_mem)
        x = rand_frames(rng, cfg_mem.chunk_size * 3, cfg_mem.hidden)
        with_mem = chunkstream_decode(x, cfg_mem, w)
        without = chunkstream_decode(x, cfg_off, w)
        cs = cfg_mem.chunk_size
        np.testing.assert_array_equal(with_mem[:cs], without[:cs])
        assert not np.allclose(with_mem[cs : 2 * cs], without[cs : 2 * cs])

    def test_single_layer_stack_never_consumes_memory(self):
        """Layer n feeds layer n+1; with one layer there is no consumer."""
        rng = np.random.default_rng(20)
        cfg_mem = dataclasses.replace(
            SMALL, num_layers=1, use_smooth=False, right_context=0, memory_slots=4
        )
        cfg_off = dataclasses.replace(cfg_mem, memory_slots=0)
        w = rand_decoder_weights(rng, cfg_mem)
        x = rand_frames(rng, cfg_mem.chunk_size * 4, cfg_mem.hidden)
        np.testing.assert_array_equal(
            chunkstream_decode(x, cfg_mem, w), chunkstream_decode(x, cfg_off, w)
        )
