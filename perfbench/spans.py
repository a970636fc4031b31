"""Outside-in span tracing for the chunkvox benchmark.

The recorder wraps public chunkvox names where their caller looks them up
(``chunkvox.pipeline.full_attention_oracle`` because ``synth`` reads it from
``chunkvox.pipeline``, not the definition in ``chunkvox.decoder``), so the
program itself carries no tracing code.  Each call becomes a span with a
name, start and end on ``time.perf_counter_ns``, the request it belongs to
and the span that was open when it began.  Spans stay in memory until the
run ends.  A target that a refactor renamed is listed as missing; the
metrics that need it are left out of the report rather than read as zero.

Time metrics are inclusive milliseconds per second of audio synthesised;
self times come from :func:`self_times`.  The conv FLOP and byte figures
are computed from the conv specs and input widths, not measured.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple


def conv_cost(spec, width: int) -> tuple[int, int]:
    """Nominal (FLOPs, bytes) of one conv call.

    ``width`` is the output width of a plain conv and the input width of a
    transposed one; each of those columns costs ``cin * cout * kernel``
    multiply-adds.  Bytes count one float32 read of the input, weights and
    bias and one write of the output.
    """
    cin, cout, k = spec.in_channels, spec.out_channels, spec.kernel_size
    if spec.transposed:
        n_in, n_out = width, width * spec.stride
        columns = n_in
    else:
        n_out = width
        n_in = width * spec.stride
        columns = n_out
    flops = 2 * cin * cout * k * columns
    nbytes = 4 * (cin * n_in + cout * n_out + cout * cin * k + cout)
    return flops, nbytes


def _conv_note(spec, out) -> tuple:
    width = out.shape[1] // spec.stride if spec.transposed else out.shape[1]
    return (int(spec.transposed), *conv_cost(spec, width))


def _note_conv_offline(args, kwargs, out) -> tuple:
    return _conv_note(args[3] if len(args) > 3 else kwargs["spec"], out)


def _note_conv_step(args, kwargs, out) -> tuple:
    return _conv_note(args[4] if len(args) > 4 else kwargs["spec"], out[1])


def _note_offline_samples(args, kwargs, out) -> tuple:
    return (out.shape[0],)


def _note_stream_samples(args, kwargs, out) -> tuple:
    return (out[1].shape[0],)


@dataclass(frozen=True)
class Target:
    """A name to wrap: ``attr`` may be ``Class.method``."""

    span: str
    module: str
    attr: str
    note: Callable | None = None


TARGETS = (
    Target("synth", "chunkvox.pipeline", "synth"),
    Target("score_to_frames", "chunkvox.pipeline", "score_to_frames"),
    Target("decoder.full", "chunkvox.pipeline", "full_attention_oracle"),
    Target("decoder.feed", "chunkvox.pipeline", "DecoderStream.feed"),
    Target("decoder.finish", "chunkvox.pipeline", "DecoderStream.finish"),
    Target("decoder.layer", "chunkvox.decoder", "chunk_attention_layer"),
    Target("decoder.smooth", "chunkvox.decoder", "causal_smooth_layer"),
    Target("decoder.smooth_conv_step", "chunkvox.decoder", "causal_conv1d_step"),
    Target("decoder.smooth_conv_offline", "chunkvox.decoder", "causal_conv1d_offline"),
    Target("decoder.matmul", "chunkvox.decoder", "matmul"),
    Target("decoder.softmax", "chunkvox.decoder", "softmax"),
    Target("vocoder.offline", "chunkvox.vocoder", "Generator.offline", _note_offline_samples),
    Target("vocoder.stream", "chunkvox.vocoder", "Generator.stream", _note_stream_samples),
    Target("vocoder.conv_offline", "chunkvox.vocoder", "conv_offline", _note_conv_offline),
    Target("vocoder.conv_step", "chunkvox.vocoder", "conv_step", _note_conv_step),
    Target("vocoder.leaky_relu", "chunkvox.vocoder", "leaky_relu"),
    Target("vocoder.tanh", "chunkvox.vocoder", "tanh"),
    Target("modelio.load_model", "chunkvox.modelio", "load_model"),
    Target("modelio.load_weights", "chunkvox.modelio", "load_weights"),
    Target("modelio.build_bundle", "chunkvox.modelio", "build_bundle"),
)


class Span(NamedTuple):
    parent: int  # index of the enclosing span, -1 at the top
    request: int  # -1 outside a request (model loading)
    name: str
    start_ns: int
    end_ns: int
    extra: tuple = ()

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Finds the targets, swaps span wrappers in and out, and keeps the spans."""

    def __init__(self, targets=TARGETS) -> None:
        self.spans: list[Span | None] = []
        self.request = -1
        self.missing: list[str] = []
        self.wrapped: list[str] = []
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        for t in targets:
            *path, leaf = t.attr.split(".")
            try:
                owner = importlib.import_module(t.module)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            self._swaps.append((owner, leaf, fn, self._wrap(t.span, fn, t.note)))
            self.wrapped.append(t.span)

    def install(self) -> None:
        for owner, leaf, _, wrapper in self._swaps:
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, fn, _ in reversed(self._swaps):
            setattr(owner, leaf, fn)

    def _wrap(self, name: str, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = note(args, kwargs, out) if note is not None else ()
            spans[sid] = Span(parent, self.request, name, start, end, extra)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def finished(self) -> list[Span]:
        """Spans of calls that returned; a call that raised leaves none."""
        return [s for s in self.spans if s is not None]

    def write(self, path, header: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# {header}\n# id\tparent\trequest\tname\tstart_ns\tend_ns\textra\n")
            for i, s in enumerate(self.spans):
                if s is not None:
                    extra = ",".join(str(v) for v in s.extra)
                    f.write(f"{i}\t{s.parent}\t{s.request}\t{s.name}\t{s.start_ns}\t{s.end_ns}\t{extra}\n")


def self_times(spans: list[Span | None]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another, so their durations add up
    to the part of the parent's interval they cover.
    """
    out = [s.ns if s is not None else 0 for s in spans]
    for s in spans:
        if s is not None and s.parent >= 0:
            out[s.parent] -= s.ns
    return out


def percentile(values, q: float, beyond: int = 10):
    """Nearest-rank ``q`` quantile, or None with fewer than ``beyond`` samples above it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < beyond:
        return None
    return sorted(values)[max(rank, 1) - 1]


# (metric, unit, spans it needs); ``ms/audio_s`` sums inclusive time.
LAYER_METRICS = (
    ("modelio.load_weights.ms", "ms", ("modelio.load_weights",)),
    ("modelio.build_bundle.ms", "ms", ("modelio.build_bundle",)),
    ("pipeline.synth.ms", "ms/audio_s", ("synth",)),
    ("pipeline.score_to_frames.ms", "ms/audio_s", ("score_to_frames",)),
    ("pipeline.unattributed.ms", "ms/audio_s", ("synth",)),
    ("decoder.full.ms", "ms/audio_s", ("decoder.full",)),
    ("decoder.chunk.ms", "ms/audio_s", ("decoder.feed", "decoder.finish")),
    ("decoder.chunk.attn_ffn.ms", "ms/audio_s", ("decoder.layer",)),
    ("decoder.chunk.smooth.ms", "ms/audio_s", ("decoder.smooth",)),
    ("decoder.smooth_conv.ms", "ms/audio_s", ("decoder.smooth_conv_step", "decoder.smooth_conv_offline")),
    ("decoder.matmul.ms", "ms/audio_s", ("decoder.matmul",)),
    ("decoder.matmul.calls", "1/audio_s", ("decoder.matmul",)),
    ("decoder.softmax.ms", "ms/audio_s", ("decoder.softmax",)),
    ("decoder.chunks", "1/audio_s", ("decoder.layer",)),
    ("vocoder.offline.ms", "ms/audio_s", ("vocoder.offline",)),
    ("vocoder.stream.ms", "ms/audio_s", ("vocoder.stream",)),
    ("vocoder.stream.calls", "1/audio_s", ("vocoder.stream",)),
    ("vocoder.frames_per_call", "frames", ("vocoder.offline", "vocoder.stream")),
    ("vocoder.conv.plain.ms", "ms/audio_s", ("vocoder.conv_offline", "vocoder.conv_step")),
    ("vocoder.conv.transposed.ms", "ms/audio_s", ("vocoder.conv_offline", "vocoder.conv_step")),
    ("vocoder.conv.calls", "1/audio_s", ("vocoder.conv_offline", "vocoder.conv_step")),
    ("vocoder.act.ms", "ms/audio_s", ("vocoder.leaky_relu", "vocoder.tanh")),
    ("vocoder.conv.gflop", "GFLOP/audio_s", ("vocoder.conv_offline", "vocoder.conv_step")),
    ("vocoder.conv.mbytes", "MB/audio_s", ("vocoder.conv_offline", "vocoder.conv_step")),
    ("vocoder.conv.gflops", "GFLOP/s", ("vocoder.conv_offline", "vocoder.conv_step")),
    ("stream.gap_ms_p90", "ms", ("synth", "vocoder.offline", "vocoder.stream")),
    ("stream.rt_slack_ms_min", "ms", ("synth", "vocoder.offline", "vocoder.stream")),
)


def _emissions(spans: list[Span], sample_rate: int) -> tuple[list[float], list[float]]:
    """Gaps between successive audio emissions, and real-time slack.

    An emission is the end of a ``Generator.stream`` or ``Generator.offline``
    call.  The slack of emission ``i >= 1`` of a request is (first audio +
    audio already emitted - emit time), all from the ``synth`` call's start:
    how long before a listener who started at first audio would run dry.
    """
    starts = {s.request: s.start_ns for s in spans if s.name == "synth"}
    emitted = defaultdict(list)
    for s in spans:
        if s.name in ("vocoder.stream", "vocoder.offline") and s.request in starts:
            emitted[s.request].append((s.end_ns, s.extra[0]))
    gaps, slack = [], []
    for req, events in emitted.items():
        first = events[0][0] - starts[req]
        audio_ns = events[0][1] / sample_rate * 1e9
        for (prev, _), (end, samples) in zip(events, events[1:]):
            gaps.append((end - prev) / 1e6)
            slack.append((first + audio_ns - (end - starts[req])) / 1e6)
            audio_ns += samples / sample_rate * 1e9
    return gaps, slack


def time_per_name(rec: Recorder, audio_s: float) -> tuple[dict, dict]:
    """Inclusive and self ms per second of audio, by span name, over requests."""
    incl, own = defaultdict(float), defaultdict(float)
    for s, self_ns in zip(rec.spans, self_times(rec.spans)):
        if s is not None and s.request >= 0:
            incl[s.name] += s.ns / 1e6 / audio_s
            own[s.name] += self_ns / 1e6 / audio_s
    return incl, own


def layer_metrics(
    rec: Recorder, audio_s: float, num_layers: int, hop: int, sample_rate: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans.

    ``audio_s`` is the audio synthesised inside traced ``synth`` calls.  A
    metric whose spans were not all wrapped is left out; one whose spans
    wrapped but never ran (full attention in ``full`` mode, stream gaps when
    each request emits once) reads 0.
    """
    spans = rec.finished()
    incl, own = time_per_name(rec, audio_s)
    calls = defaultdict(int)
    setup = defaultdict(list)
    gflop = mbytes = 0.0
    conv_ns = [0, 0]  # plain, transposed
    samples = 0
    for s in spans:
        if s.request < 0:
            setup[s.name].append(s.ns / 1e6)
            continue
        calls[s.name] += 1
        if s.name in ("vocoder.conv_offline", "vocoder.conv_step"):
            transposed, flops, nbytes = s.extra
            conv_ns[transposed] += s.ns
            gflop += flops / 1e9
            mbytes += nbytes / 1e6
        elif s.name in ("vocoder.offline", "vocoder.stream"):
            samples += s.extra[0]
    gaps, slack = _emissions(spans, sample_rate)

    def per_audio(count: float) -> float:
        return count / audio_s

    conv_calls = calls["vocoder.conv_offline"] + calls["vocoder.conv_step"]
    emissions = calls["vocoder.offline"] + calls["vocoder.stream"]
    values = {
        "modelio.load_weights.ms": statistics.median(setup["modelio.load_weights"] or [0.0]),
        "modelio.build_bundle.ms": statistics.median(setup["modelio.build_bundle"] or [0.0]),
        "pipeline.unattributed.ms": own["synth"],
        "decoder.matmul.calls": per_audio(calls["decoder.matmul"]),
        "decoder.chunks": per_audio(calls["decoder.layer"] / num_layers),
        "vocoder.stream.calls": per_audio(calls["vocoder.stream"]),
        "vocoder.frames_per_call": samples / hop / emissions if emissions else 0.0,
        "vocoder.conv.plain.ms": conv_ns[0] / 1e6 / audio_s,
        "vocoder.conv.transposed.ms": conv_ns[1] / 1e6 / audio_s,
        "vocoder.conv.calls": per_audio(conv_calls),
        "vocoder.conv.gflop": per_audio(gflop),
        "vocoder.conv.mbytes": per_audio(mbytes),
        "vocoder.conv.gflops": gflop / (sum(conv_ns) / 1e9) if sum(conv_ns) else 0.0,
        "stream.gap_ms_p90": percentile(gaps, 0.9) or 0.0,
        "stream.rt_slack_ms_min": min(slack) if slack else 0.0,
    }
    out = {}
    for metric, unit, needs in LAYER_METRICS:
        if any(n not in rec.wrapped for n in needs):
            continue
        value = values[metric] if metric in values else sum(incl[n] for n in needs)
        out[metric] = (value, unit)
    return out
