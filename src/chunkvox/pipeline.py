"""End-to-end synthesis: score in, waveform out, with timing metrics.

The three decoding modes are schedules of one chunk loop,
:func:`synth_chunks`: decoded blocks go through the prior, take the
seeded noise rows at their frame offset, and are vocoded into audio.
The mode only picks how blocks are decoded and vocoded:

* ``parallel``: one full self-attention block and one offline vocoder
  pass.  Nothing is incremental, so time to first audio equals total
  processing time.
* ``semi``: one full self-attention block, vocoded ``chunk_size`` frames
  at a time; audio exists as soon as the first chunk is vocoded.
* ``full``: the chunkwise streaming decoder emits ``chunk_size`` blocks,
  each vocoded as it arrives; both latency and memory stay bounded by
  the chunk geometry.

All modes consume the same seeded noise rows in frame order, so their
outputs are comparable sample for sample.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time
import wave
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .acoustic import ScoreSequence, length_regulate
from .convs import ConvSpec, conv_offline, conv_step, init_conv_state
from .decoder import DecoderStream, chunkstream_decode, full_attention_oracle
from .errors import ConfigError, DomainError, ShapeError
from .kernels import DTYPE
from .modelio import PROBE_PREFIX, ModelBundle

MODES = ("parallel", "semi", "full")
VERIFY_CHECKS = (
    "conv_streaming",
    "causality",
    "length_laws",
    "attention_degenerate",
    "padding_probe",
)
_F0_SCALE = 8.0


def note_to_hz(note: int) -> float:
    """Equal-tempered pitch for a note id; id 0 is a rest at 0 Hz."""
    if note < 0:
        raise DomainError(f"note id must be >= 0, got {note}")
    if note == 0:
        return 0.0
    return 440.0 * 2.0 ** ((note - 69) / 12.0)


def score_to_frames(score: ScoreSequence, bundle: ModelBundle) -> np.ndarray:
    """Embed and length-regulate a score into decoder input frames.

    Each entry's phoneme embedding (plus note embedding when the score is
    pitched) fills ``hidden - 1`` channels; the last channel carries the
    frame-level pitch curve as ``log1p(hz) / 8`` so it is O(1) and exactly
    zero for rests and for pitch-free scores.

    Returns:
        ``[total_frames, hidden]`` float32 frames.
    """
    cfg = bundle.config
    bad = [p for p in score.phonemes if p >= cfg.frontend.phoneme_vocab]
    if bad:
        raise DomainError(f"phoneme ids {bad} outside vocabulary {cfg.frontend.phoneme_vocab}")
    entry_vecs = bundle.phoneme_embed[list(score.phonemes)]
    if score.notes is not None:
        bad = [m for m in score.notes if m >= cfg.frontend.note_vocab]
        if bad:
            raise DomainError(f"note ids {bad} outside vocabulary {cfg.frontend.note_vocab}")
        entry_vecs = entry_vecs + bundle.note_embed[list(score.notes)]
        hz = np.array([note_to_hz(m) for m in score.notes], dtype=DTYPE)
    else:
        hz = np.zeros(len(score.phonemes), dtype=DTYPE)
    body = length_regulate(entry_vecs.astype(DTYPE), score.durations)
    pitch = length_regulate(hz[:, None], score.durations)
    pitch = np.log1p(pitch) / DTYPE(_F0_SCALE)
    return np.concatenate([body, pitch], axis=1).astype(DTYPE)


def _prior_split(decoded: np.ndarray, bundle: ModelBundle) -> tuple[np.ndarray, np.ndarray]:
    latent = bundle.config.latent_dim
    out = decoded @ bundle.prior_w + bundle.prior_b
    return out[:, :latent], np.exp(out[:, latent:])


@dataclass(frozen=True)
class StreamMetrics:
    """Timing facts for one synthesis run.

    ``latency_s`` is the processing time until the first audio samples
    exist; in parallel mode that is the entire run by definition.
    """

    mode: str
    frames: int
    samples: int
    sample_rate: int
    latency_s: float
    process_time_s: float

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.latency_s < 0 or self.process_time_s < 0:
            raise DomainError("timings must be >= 0")
        if self.latency_s > self.process_time_s * 1.0000001 + 1e-9:
            raise DomainError("first audio cannot appear after processing ends")

    @property
    def audio_s(self) -> float:
        return self.samples / self.sample_rate

    @property
    def rtf(self) -> float:
        """Processing seconds per second of audio (lower is faster)."""
        return self.process_time_s / self.audio_s if self.audio_s > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "frames": self.frames,
            "samples": self.samples,
            "sample_rate": self.sample_rate,
            "audio_s": self.audio_s,
            "latency_s": self.latency_s,
            "process_time_s": self.process_time_s,
            "rtf": self.rtf,
        }


def synth_chunks(
    score: ScoreSequence, bundle: ModelBundle, mode: str = "full", eps_seed: int = 0
) -> Iterator[np.ndarray]:
    """Synthesize a score as a stream of audio chunks.

    The mode is checked, the score embedded and the noise drawn before this
    returns; decoding and vocoding happen as the iterator is consumed.  The
    chunks concatenate to exactly ``total_frames * hop`` samples.  ``parallel``
    yields one chunk; ``semi`` and ``full`` yield one per ``chunk_size``
    frames.  Arguments are as for :func:`synth`.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    frames = score_to_frames(score, bundle)
    rng = np.random.default_rng(eps_seed)
    eps = rng.standard_normal((frames.shape[0], bundle.config.latent_dim)).astype(DTYPE)
    return _chunk_loop(frames, eps, bundle, mode)


def _decoded_blocks(frames: np.ndarray, bundle: ModelBundle, mode: str) -> Iterator[np.ndarray]:
    cfg = bundle.config.chunk
    if mode != "full":
        yield full_attention_oracle(frames, cfg, bundle.decoder_weights)
        return
    stream = DecoderStream(cfg, bundle.decoder_weights)
    for lo in range(0, frames.shape[0], cfg.chunk_size):
        yield from stream.feed(frames[lo : lo + cfg.chunk_size])
    yield from stream.finish()


def _chunk_loop(
    frames: np.ndarray, eps: np.ndarray, bundle: ModelBundle, mode: str
) -> Iterator[np.ndarray]:
    gen = bundle.generator
    step = bundle.config.chunk.chunk_size
    state = None if mode == "parallel" else gen.create_state()
    done = index = 0
    for decoded in _decoded_blocks(frames, bundle, mode):
        mu, sigma = _prior_split(decoded, bundle)
        z = (mu + sigma * eps[done : done + decoded.shape[0]]).T
        done += decoded.shape[0]
        if mode == "parallel":
            yield _finite(gen.offline(z), index)
            index += 1
        else:
            for lo in range(0, z.shape[1], step):
                state, audio = gen.stream(state, z[:, lo : lo + step])
                yield _finite(audio, index)
                index += 1


def _finite(audio: np.ndarray, index: int) -> np.ndarray:
    """``audio``, once every sample of it is known to be finite."""
    if not np.isfinite(audio).all():
        first = int(np.argmin(np.isfinite(audio)))
        raise DomainError(
            f"audio chunk {index} holds a non-finite sample: {audio[first]} at sample {first}"
        )
    return audio


def synth(
    score: ScoreSequence, bundle: ModelBundle, mode: str = "full", eps_seed: int = 0
) -> tuple[np.ndarray, StreamMetrics]:
    """Synthesize a waveform from a score.

    Args:
        score: Parsed score; frame count fixes the output length exactly.
        bundle: Loaded model.
        mode: One of ``parallel``, ``semi``, ``full``.
        eps_seed: Seeds the latent noise; the same seed gives every mode
            the same noise rows, making their outputs directly comparable.

    Returns:
        ``(wav, metrics)`` where ``wav`` has exactly
        ``total_frames * hop`` samples in ``(-1, 1)``.
    """
    chunks = synth_chunks(score, bundle, mode, eps_seed)
    start = time.perf_counter()
    latency = None
    parts = []
    for audio in chunks:
        if latency is None and audio.size:
            latency = time.perf_counter() - start
        parts.append(audio)
    wav = np.concatenate(parts)
    total = time.perf_counter() - start

    t, hop = score.total_frames, bundle.generator.hop
    if wav.shape != (t * hop,):
        raise ShapeError(f"synthesized {wav.shape[0]} samples for {t} frames at hop {hop}")
    metrics = StreamMetrics(
        mode=mode,
        frames=t,
        samples=wav.shape[0],
        sample_rate=bundle.config.mel.sample_rate,
        latency_s=total if mode == "parallel" else latency,
        process_time_s=total,
    )
    return wav, metrics


def write_wav(wav: np.ndarray, sample_rate: int, path: str) -> None:
    """Write mono 16-bit PCM; values clip to [-1, 1] and round to nearest.

    Raises:
        ShapeError: If ``wav`` is not 1-D.
        DomainError: If any sample is NaN or infinite; no file is written.
    """
    if wav.ndim != 1:
        raise ShapeError(f"waveform must be 1-D, got shape {wav.shape}")
    bad = np.flatnonzero(~np.isfinite(wav))
    if bad.size:
        raise DomainError(
            f"waveform has {bad.size} non-finite samples, the first at index {bad[0]}"
        )
    pcm = np.rint(np.clip(wav, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(path, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(pcm.tobytes())


def read_wav(path: str) -> tuple[np.ndarray, int]:
    """Read mono 16-bit PCM back to float32 in [-1, 1]."""
    with wave.open(path, "rb") as f:
        if f.getnchannels() != 1 or f.getsampwidth() != 2:
            raise ShapeError("expected mono 16-bit PCM")
        rate = f.getframerate()
        pcm = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2")
    return (pcm.astype(DTYPE) / DTYPE(32767.0)), rate


def bench(
    scores: list[ScoreSequence],
    bundle: ModelBundle,
    modes: tuple[str, ...] = MODES,
    repeats: int = 5,
    warmup: int = 1,
    seed: int = 0,
) -> dict:
    """Latency and throughput comparison across decoding modes.

    Every (mode, score) pair runs ``warmup`` unmeasured passes, then
    ``repeats`` measured ones; per-mode numbers are medians over all
    measured runs of all scores.
    """
    if not scores:
        raise ConfigError("bench needs at least one score")
    if repeats < 1 or warmup < 0:
        raise ConfigError("repeats must be >= 1 and warmup >= 0")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}")
    results = {}
    for mode in modes:
        latencies, processes, rtfs = [], [], []
        for score in scores:
            for _ in range(warmup):
                synth(score, bundle, mode=mode, eps_seed=seed)
            for _ in range(repeats):
                _, m = synth(score, bundle, mode=mode, eps_seed=seed)
                latencies.append(m.latency_s)
                processes.append(m.process_time_s)
                rtfs.append(m.rtf)
        results[mode] = {
            "median_latency_s": statistics.median(latencies),
            "median_process_time_s": statistics.median(processes),
            "median_rtf": statistics.median(rtfs),
            "runs": len(latencies),
        }
    return {
        "machine": f"{platform.machine()} {platform.system()}",
        "python": sys.version.split()[0],
        "repeats": repeats,
        "warmup": warmup,
        "scores": len(scores),
        "modes": results,
    }


def _verify_conv_streaming(bundle: ModelBundle) -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(6):
        transposed = trial % 2 == 1
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4)) if transposed else int(rng.integers(1, 3))
        kernel = stride * int(rng.integers(1, 3)) + (int(rng.integers(0, stride)) if transposed else int(rng.integers(0, 3)))
        kernel = max(kernel, stride if transposed else 1)
        spec = ConvSpec(
            cin, cout, kernel, stride=stride, transposed=transposed,
            pad_mode="replicate" if trial % 3 else "constant",
        )
        w = rng.uniform(-1, 1, (cout, cin, kernel)).astype(DTYPE)
        b = rng.uniform(-1, 1, cout).astype(DTYPE)
        x = rng.uniform(-1, 1, (cin, 23)).astype(DTYPE)
        want = conv_offline(x, w, b, spec)
        state = init_conv_state(spec)
        outs = []
        lo = 0
        while lo < x.shape[1]:
            width = int(rng.integers(1, 5))
            state, y = conv_step(state, x[:, lo : lo + width], w, b, spec)
            outs.append(y)
            lo += width
        got = np.concatenate(outs, axis=1)
        if got.shape != want.shape:
            return False, f"trial {trial}: streamed shape {got.shape}, offline {want.shape}"
        if want.size:
            worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-5
    return ok, f"max |stream - offline| = {worst:.2e} over 6 random layers"


def _verify_causality(bundle: ModelBundle) -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    gen = bundle.generator
    z = rng.uniform(-1, 1, (bundle.config.latent_dim, 6)).astype(DTYPE)
    z2 = z.copy()
    z2[:, -1] += DTYPE(1.0)
    a, b = gen.offline(z), gen.offline(z2)
    keep = 5 * gen.hop
    if not np.array_equal(a[:keep], b[:keep]):
        return False, "past vocoder samples changed when a future frame changed"
    if np.array_equal(a[keep:], b[keep:]):
        return False, "perturbed frame had no effect at all"
    return True, f"first {keep} samples bit-identical under future-frame perturbation"


def _verify_length_laws(bundle: ModelBundle) -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    gen = bundle.generator
    for frames in (1, 3, 7):
        z = rng.uniform(-1, 1, (bundle.config.latent_dim, frames)).astype(DTYPE)
        got = gen.offline(z).shape[0]
        if got != frames * gen.hop:
            return False, f"{frames} frames gave {got} samples, wanted {frames * gen.hop}"
    pc = bundle.config.posterior
    feats = rng.uniform(-1, 1, (pc.in_channels, 9)).astype(DTYPE)
    post = bundle.posterior.encode(feats)
    if post.mu.shape != (9, pc.latent_dim):
        return False, f"posterior shape {post.mu.shape} for 9 frames"
    return True, f"sample count is frames * {gen.hop}; posterior is frame-aligned"


def _verify_attention_degenerate(bundle: ModelBundle) -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    cfg = bundle.config.chunk
    t = 6
    frames = rng.uniform(-1, 1, (t, cfg.hidden)).astype(DTYPE)
    degenerate = replace(
        cfg, chunk_size=t + 2, left_context=0, right_context=0, memory_slots=0
    )
    got = chunkstream_decode(frames, degenerate, bundle.decoder_weights)
    want = full_attention_oracle(frames, degenerate, bundle.decoder_weights)
    diff = float(np.abs(got - want).max())
    return diff <= 1e-5, f"single-chunk stream vs full attention: max diff {diff:.2e}"


def _verify_padding_probe(bundle: ModelBundle) -> tuple[bool, str] | None:
    z = bundle.tensors.get(PROBE_PREFIX + "z")
    want = bundle.tensors.get(PROBE_PREFIX + "wav")
    if z is None or want is None:
        return None
    got = bundle.generator.offline(np.asarray(z, dtype=DTYPE))
    if got.shape != want.shape:
        return False, f"probe waveform shape {got.shape}, stored {want.shape}"
    diff = float(np.abs(got - np.asarray(want, dtype=DTYPE)).max())
    return diff <= 1e-5, f"stored vs recomputed probe waveform: max diff {diff:.2e}"


def verify(bundle: ModelBundle, checks: tuple[str, ...] = VERIFY_CHECKS) -> list[dict]:
    """Run runtime self-checks against a loaded bundle.

    Returns one report entry per requested check with ``status`` of
    ``pass``, ``fail``, or ``skip`` (a check whose preconditions are
    absent, such as the padding probe on a file without probe tensors).
    """
    runners = {
        "conv_streaming": _verify_conv_streaming,
        "causality": _verify_causality,
        "length_laws": _verify_length_laws,
        "attention_degenerate": _verify_attention_degenerate,
        "padding_probe": _verify_padding_probe,
    }
    unknown = [c for c in checks if c not in runners]
    if unknown:
        raise ConfigError(f"unknown checks {unknown}, expected among {VERIFY_CHECKS}")
    report = []
    for check in checks:
        outcome = runners[check](bundle)
        if outcome is None:
            report.append({"check": check, "status": "skip", "detail": "probe tensors absent"})
        else:
            passed, detail = outcome
            report.append(
                {"check": check, "status": "pass" if passed else "fail", "detail": detail}
            )
    return report
