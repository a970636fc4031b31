"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import numpy as np
import pytest

import run
from spans import TARGETS, Recorder, Span, Target, conv_cost, layer_metrics, percentile, self_times
from workloads import WORKLOADS, make_pool

run.import_chunkvox()
from chunkvox import vocoder  # noqa: E402
from chunkvox.acoustic import parse_score  # noqa: E402
from chunkvox.convs import ConvSpec, init_conv_state  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_scores(name):
    a, b = make_pool(name, 5, 40), make_pool(name, 5, 40)
    assert a == b
    assert a != make_pool(name, 6, 40)
    scores = [parse_score(r.text) for r in a]
    lo, hi = WORKLOADS[name].frames
    assert all(lo <= s.total_frames <= hi for s in scores)
    pitch_free = sum(s.notes is None for s in scores)
    assert pitch_free == round(WORKLOADS[name].pitch_free_share * 40)


def test_pool_prefixes_cover_the_length_range():
    lo, hi = WORKLOADS["live-phrase"].frames
    lengths = [parse_score(r.text).total_frames for r in make_pool("live-phrase", 3, 100)]
    for m in (10, 30, 70):
        mean = sum(lengths[:m]) / m
        assert abs(mean - (lo + hi) / 2) < (hi - lo) * 0.1


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.5) == 50
    assert percentile(values[:99], 0.9) is None
    assert percentile(values[:20], 0.5) == 10
    assert percentile(values[:19], 0.5) is None
    assert percentile([], 0.5) is None


def _tree() -> Recorder:
    """synth(0-100 ms) -> score_to_frames(0-10), feed(10-60) -> layer(15-55)
    -> matmul(20-30), stream(60-90); times in ms, audio 2 s."""
    ms = 1_000_000
    rec = Recorder()
    rec.wrapped = [t.span for t in TARGETS]
    rec.spans = [
        Span(-1, 0, "synth", 0, 100 * ms),
        Span(0, 0, "score_to_frames", 0, 10 * ms),
        Span(0, 0, "decoder.feed", 10 * ms, 60 * ms),
        Span(2, 0, "decoder.layer", 15 * ms, 55 * ms),
        Span(3, 0, "decoder.matmul", 20 * ms, 30 * ms),
        Span(0, 0, "vocoder.stream", 60 * ms, 90 * ms, (44100,)),
    ]
    return rec


def test_self_time_and_attribution_on_a_span_tree():
    rec = _tree()
    assert [t // 1_000_000 for t in self_times(rec.spans)] == [10, 10, 10, 30, 10, 30]
    m = layer_metrics(rec, audio_s=2.0, num_layers=1, hop=512, sample_rate=44100)
    assert m["pipeline.synth.ms"] == (50.0, "ms/audio_s")
    assert m["pipeline.unattributed.ms"][0] == pytest.approx(5.0)
    assert m["decoder.chunk.ms"][0] == pytest.approx(25.0)
    assert m["decoder.chunk.attn_ffn.ms"][0] == pytest.approx(20.0)
    assert m["decoder.matmul.ms"][0] == pytest.approx(5.0)
    assert m["decoder.chunks"][0] == pytest.approx(0.5)
    assert m["vocoder.frames_per_call"][0] == pytest.approx(44100 / 512)
    assert m["decoder.full.ms"][0] == 0.0


def test_conv_flops_and_bytes_match_a_hand_count():
    plain = ConvSpec(64, 32, 3, dilation=3)
    # 20 output columns, each 32 channels x (64 inputs x 3 taps) multiply-adds.
    assert conv_cost(plain, 20) == (2 * 20 * 32 * 64 * 3, 4 * (64 * 20 + 32 * 20 + 32 * 64 * 3 + 32))
    up = ConvSpec(64, 32, 16, stride=8, transposed=True)
    # 20 input frames, each scattered into 32 channels x 16 taps from 64 inputs.
    assert conv_cost(up, 20) == (2 * 20 * 32 * 16 * 64, 4 * (64 * 20 + 32 * 160 + 32 * 64 * 16 + 32))


def test_conv_wrapper_counts_the_call_it_saw():
    spec = ConvSpec(8, 4, 16, stride=8, transposed=True)
    w = np.zeros((4, 8, 16), dtype=np.float32)
    b = np.zeros(4, dtype=np.float32)
    rec = Recorder([t for t in TARGETS if t.span == "vocoder.conv_step"])
    rec.install()
    try:
        vocoder.conv_step(init_conv_state(spec), np.ones((8, 5), dtype=np.float32), w, b, spec)
    finally:
        rec.uninstall()
    assert vocoder.conv_step.__name__ == "conv_step"
    (span,) = rec.finished()
    assert span.extra == (1, *conv_cost(spec, 5))


def test_missing_wrap_target_is_reported_not_fatal():
    rec = Recorder(
        [
            Target("synth", "chunkvox.pipeline", "synth"),
            Target("decoder.full", "chunkvox.pipeline", "renamed_oracle"),
            Target("decoder.feed", "chunkvox.pipeline", "DecoderStream.renamed_feed"),
            Target("vocoder.stream", "chunkvox.no_such_module", "stream"),
        ]
    )
    assert rec.wrapped == ["synth"]
    assert rec.missing == [
        "chunkvox.pipeline.renamed_oracle",
        "chunkvox.pipeline.DecoderStream.renamed_feed",
        "chunkvox.no_such_module.stream",
    ]
    rec.spans = [Span(-1, 0, "synth", 0, 10**6)]
    m = layer_metrics(rec, audio_s=1.0, num_layers=4, hop=512, sample_rate=44100)
    assert m["pipeline.synth.ms"][0] == pytest.approx(1.0)
    assert "decoder.full.ms" not in m and "decoder.chunk.ms" not in m
    assert "stream.gap_ms_p90" not in m


def test_output_checks():
    good = np.full(2 * 512, 0.5, dtype=np.float32)
    assert run.check_wav(good, 2) is None
    assert "shape" in run.check_wav(good, 3)
    bad = good.copy()
    bad[7] = np.nan
    assert run.check_wav(bad, 2) == "non-finite samples"
    bad[7] = -1.0
    assert "max |x|" in run.check_wav(bad, 2)


def test_a_raising_request_counts_as_failed_and_the_loop_goes_on():
    class Broken:
        @staticmethod
        def synth(*args, **kwargs):
            raise RuntimeError("decoder exploded")

    client = run.Client(Broken, bundle=None, mode="full")
    log = run.closed_loop(client, [(parse_score("1\t60\t2\n"), 0)], seconds=0, min_requests=3)
    assert [ok for *_, ok in log] == [False, False, False]
    assert (client.attempted, client.failed) == (3, 3)
    assert "decoder exploded" in client.errors[0]


def test_traced_runs_send_each_score_once_traced_and_once_not():
    # Pairs of the same score; the traced one alternates between second and first.
    turns = [run.traced_turn(i) for i in range(8)]
    assert turns == [False, True, True, False, False, True, True, False]


def test_closed_loop_stops_on_a_whole_step():
    class Broken:
        @staticmethod
        def synth(*args, **kwargs):
            raise RuntimeError("decoder exploded")

    client = run.Client(Broken, bundle=None, mode="full")
    pool = [(parse_score("1\t60\t2\n"), 0)]
    log = run.closed_loop(client, pool, seconds=0, min_requests=3, step=2)
    assert len(log) == 4
