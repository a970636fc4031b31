"""Seeded score generators for the chunkvox benchmark workloads.

A workload is a decoding mode, a chunk geometry and a range of score
lengths.  Scores come out as the three-column TSV text that
``chunkvox.acoustic.parse_score`` reads, so a run drives the real parser
and both frontend branches: pitched notes and pitch-free ``-`` scores.

Lengths are drawn by jittered stratification: a pool of ``n`` requests
holds one length from each of ``n`` equal slices of the range, and the
slices are visited in golden-ratio order, so that every prefix of the pool
also spreads over the whole range.  A time-bounded run measures a prefix
of its last pass; this way the seed changes the exact lengths, the content
and the order but hardly the length mix, which keeps the medians of
different seeds close.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PHONEME_VOCAB = 64
NOTE_RANGE = (45, 82)  # MIDI A2..A5, inside the default 128-note vocabulary
REST_SHARE = 0.1
ENTRY_FRAMES = (3, 30)


@dataclass(frozen=True)
class Workload:
    """Generation parameters of one workload.

    Attributes:
        mode: ``synth`` mode for every request.
        frames: Inclusive range of total frames per score.
        pitch_free_share: Share of the pool written with ``-`` notes.
        chunk: Chunk geometry overrides applied like the CLI's
            ``--chunk-size/--left-context/--right-context``; empty keeps the
            config's 20 / 10 / 4.
    """

    mode: str
    frames: tuple[int, int]
    pitch_free_share: float
    chunk: dict = field(default_factory=dict)


# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    "offline-song": Workload(mode="parallel", frames=(600, 1200), pitch_free_share=0.0),
    "live-phrase": Workload(mode="full", frames=(40, 400), pitch_free_share=0.2),
    "low-latency": Workload(
        mode="full",
        frames=(40, 200),
        pitch_free_share=0.2,
        chunk={"chunk_size": 4, "left_context": 8, "right_context": 2},
    ),
}


@dataclass(frozen=True)
class Request:
    """One ``synth`` call: score text plus the seed of its noise rows."""

    text: str
    eps_seed: int


def score_text(rng: np.random.Generator, frames: int, pitched: bool, label: str) -> str:
    """A random score of exactly ``frames`` frames as TSV text."""
    lo, hi = ENTRY_FRAMES
    durations = []
    left = frames
    while left > 0:
        d = int(rng.integers(lo, hi + 1))
        if left - d < lo:
            d = left
        durations.append(d)
        left -= d
    lines = [f"# {label}: {frames} frames, {'pitched' if pitched else 'pitch-free'}"]
    for d in durations:
        phoneme = int(rng.integers(0, PHONEME_VOCAB))
        if not pitched:
            note = "-"
        elif rng.random() < REST_SHARE:
            note = "0"
        else:
            note = str(int(rng.integers(NOTE_RANGE[0], NOTE_RANGE[1] + 1)))
        lines.append(f"{phoneme}\t{note}\t{d}")
    return "\n".join(lines) + "\n"


def make_pool(name: str, seed: int, n: int) -> list[Request]:
    """``n`` requests of workload ``name``; the same seed gives the same pool."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng([seed, sum(name.encode())])
    lo, hi = wl.frames
    span = hi - lo + 1
    lengths = [lo + int((i + rng.random()) * span / n) for i in range(n)]
    phase, share = rng.random(), wl.pitch_free_share
    order = np.argsort([(j * _GOLDEN + phase) % 1.0 for j in range(n)])
    pool = []
    for slot, stratum in enumerate(np.argsort(order)):
        # Evenly spaced pitch-free slots: a Beatty sequence with a seeded phase.
        pitched = int((slot + 1) * share + phase) == int(slot * share + phase)
        label = f"{name} seed {seed} request {slot}"
        text = score_text(rng, lengths[stratum], pitched, label)
        pool.append(Request(text=text, eps_seed=int(rng.integers(0, 2**31))))
    return pool


_GOLDEN = (5**0.5 - 1) / 2
