"""End-to-end synthesis: score in, waveform out, with timing metrics.

The three decoding modes are schedules of one chunk loop,
:func:`synth_chunks`: decoded blocks are cut into vocoder tiles, and each
tile goes through the prior, takes the next rows of the seeded noise and
is vocoded into audio by the streaming vocoder.  The mode only picks how
blocks are decoded and how the vocoder's output is cut:

* ``parallel``: one full self-attention block, vocoded in tiles of
  ``PARALLEL_TILE`` frames into one buffer that is yielded once.  Nothing
  is emitted early, so time to first audio equals total processing time.
* ``semi``: one full self-attention block, vocoded ``chunk_size`` frames
  at a time.
* ``full``: the chunkwise streaming decoder emits ``chunk_size`` blocks,
  each vocoded as it arrives; both latency and memory stay bounded by
  the chunk geometry.

In ``semi`` and ``full`` the first decoded frame is vocoded and yielded
alone, then the rest of its block: first audio waits for one frame of the
causal vocoder, its unit, not for a whole chunk.  The vocoder's output does
not depend on how its input is cut, so this moves audio only by float
association.

All modes consume the same seeded noise rows in frame order, so their
outputs are comparable sample for sample.  Memory grows linearly with
the score in every mode: full attention works in row blocks (see
:func:`chunkvox.decoder.full_attention_layer`), and the prior, the noise
and the vocoder work in tiles or chunks, so only the input frames, the
decoder's rows and the output span the whole score.
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
from .decoder import DecoderStream, chunkstream_decode, full_attention_oracle
from .errors import ChunkvoxError, ConfigError, DomainError, ShapeError
from .kernels import DTYPE
from .modelio import PROBE_PREFIX, ModelBundle

MODES = ("parallel", "semi", "full")
# Longest score synthesized, in frames: about 3.4 hours at hop 512 and
# 44.1 kHz.  Every mode embeds the whole score up front, so a longer one is
# refused before anything is allocated.
MAX_FRAMES = 1 << 20
_F0_SCALE = 8.0
# Latent frames per Generator.stream call in parallel mode: the vocoder's
# temporaries span at most 64 * hop samples per node, whatever the score's
# length.  Tiles of chunk_size (20) frames would pay the per-call cost
# three times as often.
PARALLEL_TILE = 64


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
    if score.total_frames > MAX_FRAMES:
        raise DomainError(
            f"score has {score.total_frames} frames, more than the {MAX_FRAMES} a synthesis takes"
        )
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
    exist; in parallel mode that is the entire run by definition, and in
    ``semi`` and ``full`` the time to vocode the first decoded frame.  Both
    ``latency_s`` and ``process_time_s`` start after :func:`score_to_frames`
    has embedded and length-regulated the score, so they leave that step out.

    ``min_slack_s`` is the worst real-time slack: the minimum, over every
    emission after the first, of first audio plus the audio already emitted
    minus the emission's time.  A listener who starts playing at first audio
    runs dry when it is negative.  It is None for a single emission.
    """

    mode: str
    frames: int
    samples: int
    sample_rate: int
    latency_s: float
    process_time_s: float
    min_slack_s: float | None = None

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
            "min_slack_s": self.min_slack_s,
        }


def synth_chunks(
    score: ScoreSequence, bundle: ModelBundle, mode: str = "full", eps_seed: int = 0
) -> Iterator[np.ndarray]:
    """Synthesize a score as a stream of audio chunks.

    The mode is checked and the score embedded before this returns;
    decoding, the noise draw and vocoding happen as the iterator is
    consumed.  The noise is drawn one vocoder tile at a time from one
    generator seeded with ``eps_seed``; since split draws equal one whole
    draw, frame ``t`` takes the same noise row in every mode.  The chunks
    concatenate to exactly ``total_frames * hop`` samples.  ``parallel``
    yields one chunk.  ``semi`` and ``full`` yield the first frame's ``hop``
    samples alone, then the rest of the first ``chunk_size`` block, then one
    chunk per ``chunk_size`` frames: ``ceil(frames / chunk_size)`` chunks,
    plus one when the first block has more than one frame.  Arguments are as
    for :func:`synth`.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
    if eps_seed < 0:
        raise ConfigError(f"noise seed must be >= 0, got {eps_seed}")
    frames = score_to_frames(score, bundle)
    return _chunk_loop(frames, np.random.default_rng(eps_seed), bundle, mode)


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
    frames: np.ndarray, rng: np.random.Generator, bundle: ModelBundle, mode: str
) -> Iterator[np.ndarray]:
    gen, latent = bundle.generator, bundle.config.latent_dim
    if mode == "parallel":
        tile, wav = PARALLEL_TILE, np.empty(frames.shape[0] * gen.hop, dtype=DTYPE)
    else:
        tile, wav = bundle.config.chunk.chunk_size, None
    states = gen.create_state()
    done = index = 0
    for decoded in _decoded_blocks(frames, bundle, mode):
        cuts = list(range(0, decoded.shape[0], tile)) + [decoded.shape[0]]
        if wav is None and done == 0 and cuts[1] > 1:
            cuts.insert(1, 1)  # first audio after one vocoded frame
        for lo, hi in zip(cuts, cuts[1:]):
            mu, sigma = _prior_split(decoded[lo:hi], bundle)
            eps = rng.standard_normal((mu.shape[0], latent)).astype(DTYPE)
            states, audio = gen.stream(states, (mu + sigma * eps).T)
            if wav is None:
                yield _finite(audio, index)
                index += 1
            else:
                start = (done + lo) * gen.hop
                wav[start : start + audio.shape[0]] = audio
        done += decoded.shape[0]
    if wav is not None:
        yield _finite(wav, 0)


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
        ``total_frames * hop`` samples in ``(-1, 1)``.  The clock behind
        ``metrics`` starts after :func:`score_to_frames`, so no timing
        counts embedding the score; it is read once per chunk.
    """
    chunks = synth_chunks(score, bundle, mode, eps_seed)
    rate = bundle.config.mel.sample_rate
    start = time.perf_counter()
    latency = slack = None
    parts = []
    for audio in chunks:
        now = time.perf_counter() - start
        if latency is None:
            latency = ahead = now
        else:
            slack = ahead - now if slack is None else min(slack, ahead - now)
        ahead += audio.shape[0] / rate
        parts.append(audio)
    wav = parts[0] if len(parts) == 1 else np.concatenate(parts)
    total = time.perf_counter() - start

    t, hop = score.total_frames, bundle.generator.hop
    if wav.shape != (t * hop,):
        raise ShapeError(f"synthesized {wav.shape[0]} samples for {t} frames at hop {hop}")
    metrics = StreamMetrics(
        mode=mode,
        frames=t,
        samples=wav.shape[0],
        sample_rate=rate,
        latency_s=total if mode == "parallel" else latency,
        process_time_s=total,
        min_slack_s=slack,
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
    # Opened first, so a bad path fails before any wave writer exists.
    with open(path, "wb") as raw, wave.open(raw, "wb") as f:
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


def _check_selection(
    caller: str, what: str, picked: tuple[str, ...], known: tuple[str, ...]
) -> None:
    """Reject an empty selection, an unknown name, and a name picked twice."""
    if not picked:
        raise ConfigError(f"{caller} needs at least one {what}, expected among {known}")
    unknown = [p for p in picked if p not in known]
    if unknown:
        raise ConfigError(f"unknown {what}s {unknown}, expected among {known}")
    repeated = sorted({p for p in picked if picked.count(p) > 1})
    if repeated:
        raise ConfigError(f"{caller} {what}s {repeated} picked more than once")


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
    measured runs of all scores.  ``median_min_slack_s`` is over the runs
    that emitted more than once, and None when none did.
    """
    if not scores:
        raise ConfigError("bench needs at least one score")
    _check_selection("bench", "mode", modes, MODES)
    if repeats < 1 or warmup < 0:
        raise ConfigError("repeats must be >= 1 and warmup >= 0")
    results = {}
    for mode in modes:
        latencies, processes, rtfs, slacks = [], [], [], []
        for score in scores:
            for _ in range(warmup):
                synth(score, bundle, mode=mode, eps_seed=seed)
            for _ in range(repeats):
                _, m = synth(score, bundle, mode=mode, eps_seed=seed)
                latencies.append(m.latency_s)
                processes.append(m.process_time_s)
                rtfs.append(m.rtf)
                if m.min_slack_s is not None:
                    slacks.append(m.min_slack_s)
        results[mode] = {
            "median_latency_s": statistics.median(latencies),
            "median_process_time_s": statistics.median(processes),
            "median_rtf": statistics.median(rtfs),
            "median_min_slack_s": statistics.median(slacks) if slacks else None,
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
    gen = bundle.generator
    z = rng.uniform(-1, 1, (bundle.config.latent_dim, 23)).astype(DTYPE)
    want = gen.offline(z)
    states, parts, lo = gen.create_state(), [], 0
    while lo < z.shape[1]:
        width = int(rng.integers(1, 5))
        states, audio = gen.stream(states, z[:, lo : lo + width])
        parts.append(audio)
        lo += width
    got = np.concatenate(parts)
    if got.shape != want.shape:
        return False, f"streamed {got.shape[0]} samples, offline {want.shape[0]}"
    diff = float(np.abs(got - want).max())
    return diff <= 1e-5, f"generator streamed in 1-4 frame chunks vs offline: max diff {diff:.2e}"


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


def _verify_length_laws(bundle: ModelBundle) -> tuple[bool | None, str]:
    rng = np.random.default_rng(11)
    gen = bundle.generator
    for frames in (1, 3, 7):
        z = rng.uniform(-1, 1, (bundle.config.latent_dim, frames)).astype(DTYPE)
        got = gen.offline(z).shape[0]
        if got != frames * gen.hop:
            return False, f"{frames} frames gave {got} samples, wanted {frames * gen.hop}"
    if bundle.posterior is None:
        return None, (
            f"sample count is frames * {gen.hop}; posterior not checked: "
            "load the model with load_model(..., posterior=True)"
        )
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


def _verify_padding_probe(bundle: ModelBundle) -> tuple[bool | None, str]:
    z = bundle.tensors.get(PROBE_PREFIX + "z")
    want = bundle.tensors.get(PROBE_PREFIX + "wav")
    if z is None or want is None:
        return None, "probe tensors absent"
    got = bundle.generator.offline(np.asarray(z, dtype=DTYPE))
    if got.shape != want.shape:
        return False, f"probe waveform shape {got.shape}, stored {want.shape}"
    diff = float(np.abs(got - np.asarray(want, dtype=DTYPE)).max())
    return diff <= 1e-5, f"stored vs recomputed probe waveform: max diff {diff:.2e}"


def _verify_finite(bundle: ModelBundle) -> tuple[bool, str]:
    bad = [name for name, tensor in bundle.tensors.items() if not np.isfinite(tensor).all()]
    if bad:
        return False, f"non-finite values in {', '.join(bad)}"
    unread = "" if bundle.posterior is not None else "; the posterior's were not loaded"
    return True, f"all {len(bundle.tensors)} tensors finite{unread}"


_CHECKS = {
    "conv_streaming": _verify_conv_streaming,
    "causality": _verify_causality,
    "length_laws": _verify_length_laws,
    "attention_degenerate": _verify_attention_degenerate,
    "padding_probe": _verify_padding_probe,
    "finite": _verify_finite,
}
VERIFY_CHECKS = tuple(_CHECKS)


def verify(bundle: ModelBundle, checks: tuple[str, ...] = VERIFY_CHECKS) -> list[dict]:
    """Run runtime self-checks against a loaded bundle.

    Returns one report entry per requested check with ``status`` of
    ``pass``, ``fail``, or ``skip`` (a check whose preconditions are
    absent: the padding probe on a file without probe tensors, or
    ``length_laws`` on a bundle loaded without its posterior encoder).  A
    check that raises a ``ChunkvoxError`` fails with the error as its detail,
    so one bad tensor cannot stop the rest of the report.
    """
    _check_selection("verify", "check", checks, VERIFY_CHECKS)
    report = []
    for check in checks:
        try:
            passed, detail = _CHECKS[check](bundle)
        except ChunkvoxError as exc:  # e.g. non-finite weights reaching a kernel's guard
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        status = "skip" if passed is None else "pass" if passed else "fail"
        report.append({"check": check, "status": status, "detail": detail})
    return report
