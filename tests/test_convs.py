"""Tests for causal convolutions: offline math, streaming, natural-padding slices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from netgen import (
    naive_causal_conv,
    naive_causal_tconv,
    naive_tconv_raw,
    rand_conv_case,
    rand_natural_net,
    random_chunking,
)

from chunkvox import convs
from chunkvox.convs import (
    ConvSpec,
    ConvState,
    causal_conv1d_offline,
    causal_conv1d_step,
    causal_tconv1d_step,
    conv_offline,
    conv_step,
    init_conv_state,
    left_context,
    natural_pad_forward,
    net_offline,
    net_stream_init,
    net_stream_step,
    required_history,
    tap_major,
    total_upsampling,
)
from chunkvox.errors import ConfigError, ShapeError
from chunkvox.modelio import default_config
from chunkvox.vocoder import _node_specs

F32 = np.float32


def stream_layer(x, w, b, spec, sizes):
    """Run one layer chunk-by-chunk and concatenate the outputs."""
    state = init_conv_state(spec)
    outs = []
    pos = 0
    for n in sizes:
        state, out = conv_step(state, x[:, pos : pos + n], w, b, spec)
        outs.append(out)
        pos += n
    assert pos == x.shape[1]
    return np.concatenate(outs, axis=1)


class TestConvSpec:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ConfigError):
            ConvSpec(0, 1, 3)
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 3, stride=0)

    def test_rejects_transposed_kernel_below_stride(self):
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 2, stride=3, transposed=True)

    def test_rejects_transposed_dilation(self):
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 4, stride=2, dilation=2, transposed=True)

    def test_left_context(self):
        assert left_context(ConvSpec(1, 1, 3, dilation=2)) == 4
        assert left_context(ConvSpec(1, 1, 4, stride=2, transposed=True)) == 1
        assert left_context(ConvSpec(1, 1, 2, stride=2, transposed=True)) == 0


class TestOfflineConv:
    def test_identity_kernel_passthrough(self):
        x = np.array([[1.0, -2.0, 3.0]], dtype=F32)
        w = np.ones((1, 1, 1), dtype=F32)
        b = np.zeros(1, dtype=F32)
        out = causal_conv1d_offline(x, w, b, ConvSpec(1, 1, 1))
        np.testing.assert_array_equal(out, x)

    def test_two_tap_moving_sum_zero_pad(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=F32)
        w = np.ones((1, 1, 2), dtype=F32)
        b = np.zeros(1, dtype=F32)
        out = causal_conv1d_offline(x, w, b, ConvSpec(1, 1, 2))
        np.testing.assert_array_equal(out, [[1.0, 3.0, 5.0, 7.0]])

    def test_two_tap_moving_sum_replicate_pad(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=F32)
        w = np.ones((1, 1, 2), dtype=F32)
        b = np.zeros(1, dtype=F32)
        out = causal_conv1d_offline(x, w, b, ConvSpec(1, 1, 2, pad_mode="replicate"))
        np.testing.assert_array_equal(out, [[2.0, 3.0, 5.0, 7.0]])

    def test_output_length_is_ceil_len_over_stride(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            spec, w, b, x = rand_conv_case(rng)
            out = causal_conv1d_offline(x, w, b, spec)
            expect = (x.shape[1] - 1) // spec.stride + 1
            assert out.shape == (spec.out_channels, expect)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            pad_mode = "replicate" if rng.random() < 0.5 else "constant"
            spec, w, b, x = rand_conv_case(rng, pad_mode=pad_mode)
            got = causal_conv1d_offline(x, w, b, spec)
            want = naive_causal_conv(x, w, b, spec)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_empty_input(self):
        spec = ConvSpec(2, 3, 3)
        out = causal_conv1d_offline(
            np.zeros((2, 0), F32), np.zeros((3, 2, 3), F32), np.zeros(3, F32), spec
        )
        assert out.shape == (3, 0)

    def test_shape_mismatches_raise(self):
        spec = ConvSpec(2, 3, 3)
        with pytest.raises(ShapeError):
            causal_conv1d_offline(
                np.zeros((4, 5), F32), np.zeros((3, 2, 3), F32), np.zeros(3, F32), spec
            )
        with pytest.raises(ShapeError):
            causal_conv1d_offline(
                np.zeros((2, 5), F32), np.zeros((3, 2, 4), F32), np.zeros(3, F32), spec
            )

    def test_causality_prefix_bitwise(self):
        """Perturbing frame t leaves outputs at earlier frames bitwise intact."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            spec, w, b, x = rand_conv_case(rng)
            if x.shape[1] < 2:
                continue
            t = int(rng.integers(1, x.shape[1]))
            x2 = x.copy()
            x2[:, t] += 1.0
            a = causal_conv1d_offline(x, w, b, spec)
            b_ = causal_conv1d_offline(x2, w, b, spec)
            # output u reads padded frames up to u * stride, i.e. inputs <= u * stride
            safe = (t - 1) // spec.stride + 1
            assert np.array_equal(a[:, :safe], b_[:, :safe])


class TestOfflineTconv:
    def test_unit_kernel_duplicates_frames(self):
        x = np.array([[1.0, 2.0, 3.0]], dtype=F32)
        spec = ConvSpec(1, 1, 2, stride=2, transposed=True)
        out = conv_offline(x, np.ones((1, 1, 2), F32), np.zeros(1, F32), spec)
        np.testing.assert_array_equal(out, [[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]])

    def test_k4_s2_shape_rule(self):
        """kernel 4 / stride 2: pad one frame, trim one stride from each end."""
        x = np.array([[1.0, 10.0]], dtype=F32)
        w = np.arange(4, dtype=F32).reshape(1, 1, 4)  # taps 0,1,2,3
        spec = ConvSpec(1, 1, 4, stride=2, transposed=True, pad_mode="constant")
        out = conv_offline(x, w, np.zeros(1, F32), spec)
        # padded input [0, 1, 10]; raw[j + 2i] += tap_j * x_i ->
        # raw = [0,0, 0+0,1+0, 2+0+0*1... ] worked by hand below
        # raw positions: i=0 (x=0): 0,1,2,3 ; i=1 (x=1): +2..5 taps; i=2 (x=10): +4..7
        # raw = [0, 0, 0, 1, 2+0, 3+10, 20, 30]
        # trim stride=2 head, keep 4: [0, 1, 2, 13]
        np.testing.assert_array_equal(out, [[0.0, 1.0, 2.0, 13.0]])
        assert out.shape[1] == x.shape[1] * spec.stride

    def test_length_law_holds_for_all_kernels(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            spec, w, b, x = rand_conv_case(rng, transposed=True)
            out = conv_offline(x, w, b, spec)
            assert out.shape == (spec.out_channels, x.shape[1] * spec.stride)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            pad_mode = "replicate" if rng.random() < 0.5 else "constant"
            spec, w, b, x = rand_conv_case(rng, transposed=True, pad_mode=pad_mode)
            got = conv_offline(x, w, b, spec)
            want = naive_causal_tconv(x, w, b, spec)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_sample_causality(self):
        """Output sample t depends only on input frames <= t // stride."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec, w, b, x = rand_conv_case(rng, transposed=True)
            if x.shape[1] < 2:
                continue
            t = int(rng.integers(1, x.shape[1]))
            x2 = x.copy()
            x2[:, t] += 1.0
            a = conv_offline(x, w, b, spec)
            c = conv_offline(x2, w, b, spec)
            assert np.array_equal(a[:, : t * spec.stride], c[:, : t * spec.stride])

    def test_empty_input(self):
        spec = ConvSpec(1, 2, 4, stride=2, transposed=True)
        out = conv_offline(
            np.zeros((1, 0), F32), np.zeros((2, 1, 4), F32), np.zeros(2, F32), spec
        )
        assert out.shape == (2, 0)


class TestStreaming:
    def test_conv_stream_matches_offline(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            pad_mode = "replicate" if rng.random() < 0.5 else "constant"
            spec, w, b, x = rand_conv_case(rng, pad_mode=pad_mode)
            sizes = random_chunking(rng, x.shape[1])
            got = stream_layer(x, w, b, spec, sizes)
            want = causal_conv1d_offline(x, w, b, spec)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_tconv_stream_matches_offline(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            pad_mode = "replicate" if rng.random() < 0.5 else "constant"
            spec, w, b, x = rand_conv_case(rng, transposed=True, pad_mode=pad_mode)
            sizes = random_chunking(rng, x.shape[1])
            got = stream_layer(x, w, b, spec, sizes)
            want = conv_offline(x, w, b, spec)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_tconv_emits_stride_samples_per_frame(self):
        rng = np.random.default_rng(8)
        spec, w, b, x = rand_conv_case(rng, transposed=True)
        state = init_conv_state(spec)
        for t in range(x.shape[1]):
            state, out = causal_tconv1d_step(state, x[:, t : t + 1], w, b, spec)
            assert out.shape[1] == spec.stride

    def test_single_frame_chunks_match_offline(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec, w, b, x = rand_conv_case(rng)
            got = stream_layer(x, w, b, spec, [1] * x.shape[1])
            np.testing.assert_allclose(got, causal_conv1d_offline(x, w, b, spec), atol=1e-6)

    def test_empty_chunks_are_noops(self):
        spec = ConvSpec(1, 1, 3)
        w = np.ones((1, 1, 3), dtype=F32)
        b = np.zeros(1, dtype=F32)
        state = init_conv_state(spec)
        state, out = causal_conv1d_step(state, np.zeros((1, 0), F32), w, b, spec)
        assert out.shape == (1, 0)

    def test_states_do_not_alias(self):
        """Two streams advanced from a shared prefix state stay independent."""
        spec = ConvSpec(1, 1, 3, pad_mode="constant")
        w = np.ones((1, 1, 3), dtype=F32)
        b = np.zeros(1, dtype=F32)
        state0 = init_conv_state(spec)
        state0, _ = causal_conv1d_step(state0, np.array([[1.0, 2.0]], F32), w, b, spec)
        _, out_a = causal_conv1d_step(state0, np.array([[3.0]], F32), w, b, spec)
        _, out_b = causal_conv1d_step(state0, np.array([[3.0]], F32), w, b, spec)
        np.testing.assert_array_equal(out_a, out_b)

    @pytest.mark.parametrize("k, s", [(3, 2), (5, 3), (7, 4)])
    @pytest.mark.parametrize("pad_mode", ["constant", "replicate"])
    def test_state_owns_its_history(self, k, s, pad_mode):
        """A caller reusing its chunk buffer does not rewrite a stream's history.

        With ``s < k < 2s`` a transposed layer pads nothing, so a stream's
        first chunk is the whole padded input the state's history comes from.
        """
        rng = np.random.default_rng(k * s)
        spec = ConvSpec(2, 3, k, stride=s, transposed=True, pad_mode=pad_mode)
        w = rng.normal(size=(3, 2, k)).astype(F32)
        b = rng.normal(size=3).astype(F32)
        x = rng.normal(size=(2, 9)).astype(F32)
        chunk = x[:, :4].copy()
        state, out1 = conv_step(init_conv_state(spec), chunk, w, b, spec)
        chunk[:] = 100.0
        _, out2 = conv_step(state, x[:, 4:], w, b, spec)
        got = np.concatenate([out1, out2], axis=1)
        np.testing.assert_allclose(got, conv_offline(x, w, b, spec), atol=1e-5)

    def test_stacked_net_stream_matches_offline(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            c0 = int(rng.integers(1, 4))
            net = []
            cin = c0
            for _ in range(int(rng.integers(2, 5))):
                spec, w, b, _ = rand_conv_case(rng, transposed=bool(rng.integers(0, 2)))
                spec = ConvSpec(
                    cin,
                    spec.out_channels,
                    spec.kernel_size,
                    stride=spec.stride,
                    dilation=spec.dilation,
                    transposed=spec.transposed,
                    pad_mode="constant",
                )
                w = rng.normal(size=(spec.out_channels, cin, spec.kernel_size)).astype(F32) * 0.4
                b = rng.normal(size=(spec.out_channels,)).astype(F32) * 0.1
                net.append((spec, w, b))
                cin = spec.out_channels
            x = rng.normal(size=(c0, int(rng.integers(4, 30)))).astype(F32)
            states = net_stream_init(net)
            outs = []
            pos = 0
            for n in random_chunking(rng, x.shape[1]):
                states, out = net_stream_step(states, x[:, pos : pos + n], net)
                outs.append(out)
                pos += n
            got = np.concatenate(outs, axis=1)
            want = net_offline(x, net)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-4)


class TestVocoderShapes:
    """The default generator's transposed layers at their real widths; the
    property test below draws strides up to 4 only."""

    FRAMES = 67

    @pytest.mark.parametrize("pad_mode", ["constant", "replicate"])
    @pytest.mark.parametrize("name, stride", [("up.0", 8), ("up.1", 8), ("up.2", 4), ("up.3", 2)])
    def test_any_chunking_matches_naive(self, name, stride, pad_mode):
        spec = dict(_node_specs(default_config().generator, pad_mode))[name]
        assert (spec.stride, spec.kernel_size) == (stride, 2 * stride)
        rng = np.random.default_rng(stride * spec.in_channels)
        shape = (spec.out_channels, spec.in_channels, spec.kernel_size)
        w = tap_major(rng.normal(size=shape) / np.sqrt(spec.in_channels))
        b = rng.normal(size=spec.out_channels).astype(F32)
        x = rng.normal(size=(spec.in_channels, self.FRAMES)).astype(F32)
        want = naive_causal_tconv(x, w, b, spec)
        for width in (self.FRAMES, 1, 3, 20, 64):
            sizes = [width] * (self.FRAMES // width) + [self.FRAMES % width]
            got = stream_layer(x, w, b, spec, sizes)
            np.testing.assert_allclose(got, want, atol=1e-5, err_msg=f"width {width}")


FORMULATIONS = [convs._tconv_cols_per_tap, convs._tconv_cols_stacked]


@pytest.mark.parametrize("cols", FORMULATIONS, ids=["per_tap", "stacked"])
class TestTconvFormulations:
    """Each transposed-conv formulation against the per-frame loops, whatever
    the shape rule would pick for the call."""

    # (k, s): k = s and k < 2s pad nothing (h = 0), k = 5, s = 2 is not a
    # multiple of its stride, and (16, 8) / (8, 4) are the generator's.
    KERNELS = [(1, 1), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 3), (8, 4), (16, 8)]
    LENGTHS = [1, 2, 7, convs.STACKED_MAX_COLS, convs.STACKED_MAX_COLS + 1]

    @pytest.mark.parametrize("pad_mode", ["constant", "replicate"])
    def test_fresh_stream_matches_naive(self, cols, pad_mode):
        rng = np.random.default_rng(41)
        for k, s in self.KERNELS:
            spec = ConvSpec(3, 2, k, stride=s, transposed=True, pad_mode=pad_mode)
            w = rng.normal(size=(2, 3, k)).astype(F32)
            b = rng.normal(size=2).astype(F32)
            for n in self.LENGTHS:
                x = rng.normal(size=(3, n)).astype(F32)
                xp = convs._extend(ConvState(), x, spec)
                h = xp.shape[1] - n - max(left_context(spec) - 1, 0)
                assert h == (1 if left_context(spec) else 0)
                got = cols(xp, tap_major(w), spec, h, n) + b[:, None]
                want = naive_causal_tconv(x, w, b, spec)
                np.testing.assert_allclose(got, want, atol=1e-5, err_msg=f"k={k} s={s} n={n}")

    def test_every_block_range_matches_naive_overlap_add(self, cols):
        rng = np.random.default_rng(42)
        for k, s in self.KERNELS:
            spec = ConvSpec(3, 2, k, stride=s, transposed=True)
            w = rng.normal(size=(2, 3, k)).astype(F32)
            x = rng.normal(size=(3, 9)).astype(F32)
            raw = naive_tconv_raw(x, w, s)
            for h in range(x.shape[1]):
                for n in range(1, x.shape[1] - h + 1):
                    got = cols(x, w, spec, h, n)
                    np.testing.assert_allclose(
                        got, raw[:, h * s : (h + n) * s], atol=1e-5, err_msg=f"k={k} s={s} h={h} n={n}"
                    )

    @pytest.mark.parametrize("name", ["up.0", "up.1", "up.2", "up.3"])
    def test_generator_layers_either_side_of_the_rule(self, cols, name):
        spec = dict(_node_specs(default_config().generator, "replicate"))[name]
        rng = np.random.default_rng(spec.in_channels)
        shape = (spec.out_channels, spec.in_channels, spec.kernel_size)
        w = tap_major(rng.normal(size=shape) / np.sqrt(spec.in_channels))
        b = rng.normal(size=spec.out_channels).astype(F32)
        for n in (convs.STACKED_MAX_COLS, convs.STACKED_MAX_COLS + 1):
            x = rng.normal(size=(spec.in_channels, n)).astype(F32)
            xp = convs._extend(ConvState(), x, spec)
            got = cols(xp, w, spec, 1, n) + b[:, None]
            np.testing.assert_allclose(got, naive_causal_tconv(x, w, b, spec), atol=1e-5)


def test_shape_rule_stacks_up_to_the_bound(monkeypatch):
    picked = []
    for f in FORMULATIONS:
        monkeypatch.setattr(convs, f.__name__, lambda *a, f=f: picked.append(f.__name__))
    spec = ConvSpec(2, 2, 4, stride=2, transposed=True)
    w = np.zeros((2, 2, 4), F32)
    bound = convs.STACKED_MAX_COLS
    for n in (1, bound, bound + 1, 4 * bound):
        convs._tconv_cols(np.zeros((2, n + 1), F32), w, spec, 1, n)
    stacked, per_tap = "_tconv_cols_stacked", "_tconv_cols_per_tap"
    assert picked == [stacked, stacked, per_tap, per_tap]


class TestTimeMajorRows:
    """The time-major form of a stride-1 step against the per-frame loops, at
    every width up to one past the rule's bound, with and without ``commit``."""

    WIDTHS = range(1, convs.TIME_MAJOR_MAX_ROWS + 2)

    @staticmethod
    def layer(rng, cin, cout, k, dilation=1, pad_mode="constant"):
        spec = ConvSpec(cin, cout, k, dilation=dilation, pad_mode=pad_mode)
        w = tap_major(rng.normal(size=(cout, cin, k)) / np.sqrt(cin * k))
        return spec, w, rng.normal(size=cout).astype(F32)

    @staticmethod
    def rows_view(x):
        """``x`` as the decoder passes chunks: the transpose of time-major rows."""
        return np.ascontiguousarray(x.T).T

    @pytest.mark.parametrize("pad_mode", ["constant", "replicate"])
    @pytest.mark.parametrize("hidden", [8, 192])
    def test_each_width_and_commit_matches_naive(self, hidden, pad_mode):
        """Each call's output is the naive output at its frames, and the state
        it leaves carries on from its ``commit`` point as a fresh prefix would."""
        rng = np.random.default_rng(hidden)
        for k in range(1, 6):
            for dilation in (1, 2):
                spec, w, b = self.layer(rng, hidden, hidden, k, dilation, pad_mode)
                x = rng.normal(size=(hidden, 24)).astype(F32)
                want = naive_causal_conv(x, w, b, spec)
                primed, _ = causal_conv1d_step(ConvState(), x[:, :5], w, b, spec)
                for start, state in ((0, ConvState()), (5, primed)):
                    for n in self.WIDTHS:
                        for commit in (None, 0, n // 2, n):
                            chunk = self.rows_view(x[:, start : start + n])
                            got_state, got = causal_conv1d_step(state, chunk, w, b, spec, commit)
                            at = f"k={k} d={dilation} start={start} n={n} commit={commit}"
                            np.testing.assert_allclose(got, want[:, start : start + n], atol=1e-5, err_msg=at)
                            go = start + (n if commit is None else commit)
                            _, after = causal_conv1d_step(got_state, x[:, go : go + 3], w, b, spec)
                            np.testing.assert_allclose(after, want[:, go : go + 3], atol=1e-5, err_msg=at)

    @pytest.mark.parametrize("hidden", [8, 192])
    def test_streams_crossing_the_rule_match_naive(self, hidden):
        """History left by one form feeds the other: widths alternate across
        the bound, committed like the decoder's body and lookahead."""
        rng = np.random.default_rng(100 + hidden)
        bound = convs.TIME_MAJOR_MAX_ROWS
        for k, dilation in ((3, 1), (5, 2)):
            spec, w, b = self.layer(rng, hidden, hidden, k, dilation)
            x = rng.normal(size=(hidden, 80)).astype(F32)
            want = naive_causal_conv(x, w, b, spec)
            state, start = ConvState(), 0
            plan = [(1, None), (bound + 3, None), (2, None), (bound + 1, 2), (bound, 4), (20, 20)]
            plan += [(4, 2), (bound + 2, bound), (3, 3), (24, 20), (bound - 1, 0), (2, None)]
            for n, commit in plan:
                chunk = x[:, start : start + n]
                if n % 2:
                    chunk = self.rows_view(chunk)
                state, got = causal_conv1d_step(state, chunk, w, b, spec, commit)
                np.testing.assert_allclose(got, want[:, start : start + n], atol=1e-5, err_msg=f"{start} {n}")
                start += n if commit is None else commit

    @pytest.mark.parametrize("shape", [(192, 192, 3), (192, 64, 7), (8, 8, 5)])
    def test_same_bits_as_the_per_tap_form(self, shape):
        """Each tap's GEMM is the per-tap one with its operands swapped, so on
        the decoder's smoothing and the vocoder's ``pre`` shapes the rows
        carry the per-tap form's bits, from either input layout."""
        rng = np.random.default_rng(shape[2])
        spec, w, b = self.layer(rng, shape[0], shape[1], shape[2])
        state = ConvState(buf=rng.normal(size=(shape[0], convs.history(spec))).astype(F32))
        for n in range(1, convs.TIME_MAJOR_MAX_ROWS + 1):
            x = rng.normal(size=(shape[0], n)).astype(F32)
            want = convs._conv_valid(convs._extend(state, x, spec), w, b, spec)
            for chunk in (x, self.rows_view(x)):
                _, got = causal_conv1d_step(state, chunk, w, b, spec)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("hidden", [8, 192])
    def test_committed_rows_equal_a_body_only_call_bitwise(self, hidden):
        """A committed call gives its body rows and state as a call over the
        body alone, at every width the rule sends to the time-major form.
        Bodies have at least two frames: a one-row product goes to BLAS gemv,
        which rounds differently from a row of a wider GEMM."""
        rng = np.random.default_rng(200 + hidden)
        spec, w, b = self.layer(rng, hidden, hidden, 3)
        x = rng.normal(size=(hidden, 4 + convs.TIME_MAJOR_MAX_ROWS)).astype(F32)
        state, _ = causal_conv1d_step(ConvState(), x[:, :4], w, b, spec)
        for n in range(2, convs.TIME_MAJOR_MAX_ROWS + 1):
            chunk = self.rows_view(x[:, 4 : 4 + n])
            for commit in range(2, n + 1):
                got_state, got = causal_conv1d_step(state, chunk, w, b, spec, commit)
                want_state, want = causal_conv1d_step(state, chunk[:, :commit], w, b, spec)
                np.testing.assert_array_equal(got[:, :commit], want)
                np.testing.assert_array_equal(got_state.buf, want_state.buf)


def test_time_major_rule_up_to_the_bound(monkeypatch):
    """The form follows the chunk's width alone; strided layers keep the per-tap form."""
    picked = []
    for name in ("_conv_rows", "_conv_valid"):
        real = getattr(convs, name)
        monkeypatch.setattr(convs, name, lambda *a, name=name, real=real: picked.append(name) or real(*a))
    plain, strided = ConvSpec(2, 2, 3), ConvSpec(2, 2, 3, stride=2)
    w, b = np.zeros((2, 2, 3), F32), np.zeros(2, F32)
    bound = convs.TIME_MAJOR_MAX_ROWS
    for spec, n, commit in ((plain, 1, None), (plain, bound, 1), (plain, bound + 1, None),
                            (plain, bound + 1, 2), (strided, 1, None)):
        causal_conv1d_step(ConvState(), np.zeros((2, n), F32), w, b, spec, commit)
    rows, per_tap = "_conv_rows", "_conv_valid"
    assert picked == [rows, rows, per_tap, per_tap, per_tap]


@st.composite
def streamed_layers(draw):
    """A random plain or transposed layer, its input and a chunking of it."""
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pad_mode = draw(st.sampled_from(["constant", "replicate"]))
    if draw(st.booleans()):
        s = draw(st.integers(1, 4))
        k = draw(st.integers(s, 5 * s))
        spec = ConvSpec(cin, cout, k, stride=s, transposed=True, pad_mode=pad_mode)
    else:
        k = draw(st.integers(1, 5))
        s, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        spec = ConvSpec(cin, cout, k, stride=s, dilation=d, pad_mode=pad_mode)
    # Small chunks, empty ones too, so a history can outgrow the first padded chunk.
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w = rng.normal(size=(cout, cin, k)).astype(F32)
    b = rng.normal(size=cout).astype(F32)
    x = rng.normal(size=(cin, sum(sizes))).astype(F32)
    return spec, w, b, x, sizes


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(streamed_layers())
def check_streaming_laws(case):
    spec, w, b, x, sizes = case
    pad = left_context(spec)
    if spec.transposed:
        # Padded input frames the unfinished output columns still read.
        keep = max(pad - 1, 0) + (spec.kernel_size - 1) // spec.stride
    state = init_conv_state(spec)
    outs, fed = [], 0
    for n in sizes:
        state, out = conv_step(state, x[:, fed : fed + n], w, b, spec)
        outs.append(out)
        fed += n
        if fed == 0:
            assert state.buf is None
        elif spec.transposed:
            assert state.buf.shape[1] == min(keep, pad + fed)
        elif spec.stride == 1:
            assert state.buf.shape[1] == pad
    naive = naive_causal_tconv if spec.transposed else naive_causal_conv
    np.testing.assert_allclose(np.concatenate(outs, axis=1), naive(x, w, b, spec), atol=1e-5)
    # Slice law: each chunk, evaluated statelessly with real history, is its offline columns.
    net = [(spec, w, b)]
    if not spec.transposed and spec.stride != 1:
        with pytest.raises(ConfigError, match="stride"):
            natural_pad_forward(x, 0, x.shape[1], net)
        return
    up = total_upsampling(net)
    want = conv_offline(x, w, b, spec)
    start = 0
    for n in filter(None, sizes):
        got = natural_pad_forward(x, start, n, net)
        np.testing.assert_allclose(got, want[:, start * up : (start + n) * up], atol=1e-5)
        start += n


class TestStreamingLaws:
    def test_history_is_bounded_and_output_matches_naive(self):
        # Called from a plain test, not collected as one: on a failing @given
        # test item the hypothesis pytest plugin imports a module that raises a
        # DeprecationWarning, and warnings-as-errors turns that into an
        # internal error that stops the whole run.
        check_streaming_laws()


class TestCommit:
    """``commit`` cuts the carried state inside a chunk; outputs are unchanged."""

    @pytest.mark.parametrize("dilation", [1, 3])
    @pytest.mark.parametrize("pad_mode", ["constant", "replicate"])
    def test_state_is_cut_at_commit(self, dilation, pad_mode):
        rng = np.random.default_rng(11 + dilation)
        spec = ConvSpec(4, 3, 3, dilation=dilation, pad_mode=pad_mode)
        w = rng.normal(size=(3, 4, 3)).astype(F32)
        b = rng.normal(size=3).astype(F32)
        x = rng.normal(size=(4, 13)).astype(F32)
        fresh = init_conv_state(spec)
        primed, _ = causal_conv1d_step(fresh, x[:, :6], w, b, spec)
        chunk = x[:, 6:]
        n = chunk.shape[1]
        for state in (fresh, primed):
            _, want_out = causal_conv1d_step(state, chunk, w, b, spec)
            for commit in range(n + 1):
                got_state, got_out = causal_conv1d_step(state, chunk, w, b, spec, commit)
                np.testing.assert_array_equal(got_out, want_out)
                want_state, _ = causal_conv1d_step(state, chunk[:, :commit], w, b, spec)
                assert got_state.skip == want_state.skip == 0
                np.testing.assert_array_equal(got_state.buf, want_state.buf)

    def test_committed_state_streams_on_like_the_prefix(self):
        """Peeking past the commit point never changes later outputs."""
        rng = np.random.default_rng(12)
        spec, w, b, x = rand_conv_case(rng)
        spec = ConvSpec(spec.in_channels, spec.out_channels, spec.kernel_size, dilation=2)
        state = init_conv_state(spec)
        outs = []
        for start in range(0, x.shape[1], 4):
            commit = min(4, x.shape[1] - start)
            state, out = causal_conv1d_step(state, x[:, start : start + 7], w, b, spec, commit)
            outs.append(out[:, :4])
        got = np.concatenate(outs, axis=1)
        np.testing.assert_allclose(got, causal_conv1d_offline(x, w, b, spec), atol=1e-6)

    def test_stride_other_than_one_rejected(self):
        spec = ConvSpec(1, 1, 3, stride=2)
        w = np.ones((1, 1, 3), dtype=F32)
        b = np.zeros(1, dtype=F32)
        with pytest.raises(ConfigError, match="stride"):
            causal_conv1d_step(init_conv_state(spec), np.ones((1, 4), F32), w, b, spec, 2)

    def test_commit_out_of_range_rejected(self):
        spec = ConvSpec(1, 1, 3)
        w = np.ones((1, 1, 3), dtype=F32)
        b = np.zeros(1, dtype=F32)
        for commit in (-1, 5):
            with pytest.raises(ConfigError, match="commit"):
                causal_conv1d_step(init_conv_state(spec), np.ones((1, 4), F32), w, b, spec, commit)


class TestTapMajor:
    def test_equal_values_and_unit_stride_per_tap(self):
        rng = np.random.default_rng(13)
        for shape in [(5, 4, 3), (1, 6, 7), (6, 2, 1), (3, 3, 16)]:
            w = rng.normal(size=shape).astype(F32)
            t = tap_major(w)
            assert t.shape == w.shape and t.dtype == np.float32
            np.testing.assert_array_equal(t, w)
            for j in range(shape[2]):
                assert t[:, :, j].strides[1] == t.itemsize
            assert tap_major(t) is not t and np.shares_memory(tap_major(t), t)


def free_nan_block(shape):
    """Allocate and free a NaN block, so a following ``np.empty`` of that size
    most likely gets the same memory back, and an unwritten column reads NaN."""
    block = np.full(shape, np.nan, dtype=F32)
    del block


class TestNoUninitialisedReads:
    """Conv accumulators assign their first taps into fresh memory."""

    GRID = [
        (k, s, m)
        for s in (1, 2, 4)
        for k in sorted({s, s + 1, 2 * s, 3 * s})
        for m in (1, 2, 5)
    ]

    @pytest.mark.parametrize("pad_mode", ["constant", "replicate"])
    def test_tconv_offline_matches_naive(self, pad_mode):
        rng = np.random.default_rng(31)
        for k, s, m in self.GRID:
            spec = ConvSpec(3, 2, k, stride=s, transposed=True, pad_mode=pad_mode)
            w = rng.normal(size=(2, 3, k)).astype(F32)
            b = rng.normal(size=2).astype(F32)
            x = rng.normal(size=(3, m)).astype(F32)
            free_nan_block((2, m * s))
            got = conv_offline(x, w, b, spec)
            assert np.isfinite(got).all(), (k, s, m)
            np.testing.assert_allclose(got, naive_causal_tconv(x, w, b, spec), atol=1e-5)

    @pytest.mark.parametrize("pad_mode", ["constant", "replicate"])
    def test_single_tap_conv_matches_naive(self, pad_mode):
        rng = np.random.default_rng(33)
        for stride in (1, 2, 3):
            for length in (1, 2, 7):
                spec = ConvSpec(3, 2, 1, stride=stride, pad_mode=pad_mode)
                w = rng.normal(size=(2, 3, 1)).astype(F32)
                b = rng.normal(size=2).astype(F32)
                x = rng.normal(size=(3, length)).astype(F32)
                free_nan_block((2, (length - 1) // stride + 1))
                got = causal_conv1d_offline(x, w, b, spec)
                assert np.isfinite(got).all(), (stride, length)
                np.testing.assert_allclose(got, naive_causal_conv(x, w, b, spec), atol=1e-6)


def single_layer(spec):
    w = np.zeros((spec.out_channels, spec.in_channels, spec.kernel_size), F32)
    return [(spec, w, np.zeros(spec.out_channels, F32))]


class TestRequiredHistory:
    def test_single_conv_k4(self):
        assert required_history(single_layer(ConvSpec(1, 1, 4))) == 3

    def test_identity_layer_needs_nothing(self):
        assert required_history(single_layer(ConvSpec(1, 1, 1))) == 0

    def test_conv_then_upsample_stack(self):
        conv = single_layer(ConvSpec(1, 1, 4))
        tconv = single_layer(ConvSpec(1, 1, 4, stride=2, transposed=True))
        # backward: a tconv k4 s2 reads 1 frame before each frame; the conv 3 more
        assert required_history(conv + tconv) == 4

    def test_empty_net_rejected(self):
        with pytest.raises(ConfigError):
            required_history([])


class TestNaturalPadding:
    def make_two_layer_net(self, rng):
        conv = ConvSpec(1, 1, 4, pad_mode="replicate")
        tconv = ConvSpec(1, 1, 4, stride=2, transposed=True, pad_mode="replicate")
        wc = rng.normal(size=(1, 1, 4)).astype(F32)
        bc = rng.normal(size=(1,)).astype(F32) * 0.1
        wt = rng.normal(size=(1, 1, 4)).astype(F32)
        bt = rng.normal(size=(1,)).astype(F32) * 0.1
        return [(conv, wc, bc), (tconv, wt, bt)]

    def test_len2_slice_yields_exactly_4_samples(self):
        rng = np.random.default_rng(12)
        net = self.make_two_layer_net(rng)
        z = rng.normal(size=(1, 30)).astype(F32)
        out = natural_pad_forward(z, 10, 2, net)
        assert out.shape == (1, 4)
        np.testing.assert_allclose(out, net_offline(z, net)[:, 10 * 2 : 12 * 2], atol=1e-6)

    def test_degenerate_whole_sequence_slice(self):
        """A slice over the whole sequence is the offline pass of conv stacks
        with an optional final upsampler."""
        rng = np.random.default_rng(13)
        for _ in range(10):
            n_convs = int(rng.integers(1, 4))
            net = []
            cin = 2
            for _ in range(n_convs):
                cout = int(rng.integers(1, 4))
                k = int(rng.integers(1, 5))
                dil = int(rng.integers(1, 3))
                spec = ConvSpec(cin, cout, k, dilation=dil, pad_mode="replicate")
                net.append(
                    (
                        spec,
                        rng.normal(size=(cout, cin, k)).astype(F32) * 0.5,
                        rng.normal(size=(cout,)).astype(F32) * 0.1,
                    )
                )
                cin = cout
            if rng.random() < 0.7:
                s = int(rng.integers(2, 4))
                spec = ConvSpec(cin, 2, 2 * s, stride=s, transposed=True, pad_mode="replicate")
                net.append(
                    (
                        spec,
                        rng.normal(size=(2, cin, 2 * s)).astype(F32) * 0.5,
                        rng.normal(size=(2,)).astype(F32) * 0.1,
                    )
                )
            t = int(rng.integers(3, 20))
            z = rng.normal(size=(2, t)).astype(F32)
            out = natural_pad_forward(z, 0, t, net)
            want = net_offline(z, net)
            assert out.shape == want.shape
            np.testing.assert_allclose(out, want, atol=1e-4)

    def test_degenerate_slice_tail_matches_for_general_nets(self):
        """For arbitrary stacks the whole-sequence slice agrees with the
        offline pass on every column."""
        rng = np.random.default_rng(23)
        for _ in range(15):
            net = rand_natural_net(rng, channels=2)
            t = int(rng.integers(8, 24))
            z = rng.normal(size=(2, t)).astype(F32)
            out = natural_pad_forward(z, 0, t, net)
            want = net_offline(z, net)
            assert out.shape == want.shape
            np.testing.assert_allclose(out, want, atol=1e-4)

    def test_interior_slices_match_offline_tail_region(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            net = rand_natural_net(rng, channels=3)
            up = total_upsampling(net)
            slice_len = int(rng.integers(1, 6))
            hist = required_history(net)
            total = hist + slice_len + int(rng.integers(0, 10))
            z = rng.normal(size=(3, total)).astype(F32)
            start = int(rng.integers(hist, total - slice_len + 1))
            out = natural_pad_forward(z, start, slice_len, net)
            assert out.shape[1] == slice_len * up
            want = net_offline(z, net)
            region = want[:, start * up : (start + slice_len) * up]
            np.testing.assert_allclose(out, region, atol=1e-4)

    def test_replicate_fallback_flag_near_start(self):
        """Closer to the start than the history, the window stops at frame 0
        and the layers' replicate padding stands in for the missing frames,
        exactly as in the offline pass."""
        rng = np.random.default_rng(15)
        net = self.make_two_layer_net(rng)
        z = rng.normal(size=(1, 20)).astype(F32)
        want = net_offline(z, net)
        for start in range(required_history(net) + 1):
            out = natural_pad_forward(z, start, 2, net)
            assert out.shape == (1, 4)
            np.testing.assert_allclose(out, want[:, 2 * start : 2 * start + 4], atol=1e-6)

    def test_consecutive_slices_tile_the_offline_output(self):
        """Adjacent interior slices concatenate into the offline region."""
        rng = np.random.default_rng(16)
        net = self.make_two_layer_net(rng)
        z = rng.normal(size=(1, 40)).astype(F32)
        up = total_upsampling(net)
        want = net_offline(z, net)
        pieces = [natural_pad_forward(z, start, 4, net) for start in (8, 12, 16, 20)]
        got = np.concatenate(pieces, axis=1)
        np.testing.assert_allclose(got, want[:, 8 * up : 24 * up], atol=1e-5)

    def test_out_of_bounds_slice_rejected(self):
        rng = np.random.default_rng(17)
        net = self.make_two_layer_net(rng)
        z = rng.normal(size=(1, 10)).astype(F32)
        with pytest.raises(ShapeError):
            natural_pad_forward(z, 9, 2, net)
        with pytest.raises(ShapeError):
            natural_pad_forward(z, -1, 2, net)
        with pytest.raises(ShapeError):
            natural_pad_forward(z[0], 4, 2, net)


class TestDispatchers:
    def test_wrong_direction_raises(self):
        spec_t = ConvSpec(1, 1, 4, stride=2, transposed=True)
        spec_c = ConvSpec(1, 1, 3)
        z = np.zeros((1, 4), F32)
        with pytest.raises(ConfigError):
            causal_conv1d_offline(z, np.zeros((1, 1, 4), F32), np.zeros(1, F32), spec_t)
        with pytest.raises(ConfigError):
            causal_tconv1d_step(
                init_conv_state(spec_c), z, np.zeros((1, 1, 3), F32), np.zeros(1, F32), spec_c
            )
