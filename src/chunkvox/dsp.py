"""Spectral analysis and objective metrics.

Everything is built from first principles on the rfft: a centered
magnitude STFT with a periodic Hann window, an area-normalized triangular
mel filterbank, natural-log compression with a fixed floor, and the
distance metrics used to score synthesized audio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .kernels import DTYPE


@dataclass(frozen=True)
class MelConfig:
    """Mel analysis parameters.

    ``win_length`` and ``fmax`` default to ``n_fft`` and ``sample_rate / 2``
    when given as None.
    """

    sample_rate: int = 44100
    n_fft: int = 2048
    hop: int = 512
    win_length: int | None = None
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float | None = None
    log_floor: float = 1e-5

    def __post_init__(self) -> None:
        for field in ("fmin", "fmax", "log_floor"):
            value = getattr(self, field)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"MelConfig.{field} must be finite, got {value}")
        if min(self.sample_rate, self.n_fft, self.hop, self.n_mels) < 1:
            raise ConfigError("sample_rate, n_fft, hop, n_mels must be >= 1")
        if self.win() > self.n_fft:
            raise ConfigError(f"win_length {self.win()} exceeds n_fft {self.n_fft}")
        if self.fmin < 0 or self.top() <= self.fmin:
            raise ConfigError(f"need 0 <= fmin < fmax, got [{self.fmin}, {self.top()}]")
        if self.top() > self.sample_rate / 2:
            raise ConfigError("fmax exceeds Nyquist")
        if self.log_floor <= 0:
            raise ConfigError("log_floor must be > 0")

    def win(self) -> int:
        return self.n_fft if self.win_length is None else self.win_length

    def top(self) -> float:
        return self.sample_rate / 2 if self.fmax is None else self.fmax


def _hann(n: int) -> np.ndarray:
    # Periodic window, the STFT convention.
    i = np.arange(n, dtype=np.float64)
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * i / n)).astype(DTYPE)


def _hz_to_mel(hz):
    """Break-point mel scale: linear below 1 kHz, log above."""
    hz = np.asarray(hz, dtype=np.float64)
    mel = hz * 3.0 / 200.0
    log_region = hz >= 1000.0
    mel = np.where(
        log_region, 15.0 + np.log(np.maximum(hz, 1e-12) / 1000.0) * (27.0 / np.log(6.4)), mel
    )
    return mel


def _mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    hz = mel * 200.0 / 3.0
    log_region = mel >= 15.0
    hz = np.where(log_region, 1000.0 * np.exp(np.log(6.4) * (mel - 15.0) / 27.0), hz)
    return hz


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular filters on rfft bins, area-normalized per band.

    Returns:
        ``[n_mels, n_fft // 2 + 1]`` float32 matrix.
    """
    n_bins = cfg.n_fft // 2 + 1
    fft_hz = np.arange(n_bins, dtype=np.float64) * cfg.sample_rate / cfg.n_fft
    mel_pts = np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.top()), cfg.n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fb = np.zeros((cfg.n_mels, n_bins), dtype=np.float64)
    for m in range(cfg.n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_hz - lo) / max(center - lo, 1e-12)
        down = (hi - fft_hz) / max(hi - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        fb[m] *= 2.0 / (hi - lo)  # equal-area normalization
    return fb.astype(DTYPE)


def stft_magnitude(wav: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Centered magnitude STFT, ``[n_fft // 2 + 1, frames]``.

    The signal is reflect-padded by ``n_fft // 2`` on both sides (degrading
    to zero padding when the signal is too short to reflect), giving
    ``len(wav) // hop + 1`` frames; a signal shorter than one window still
    produces a single padded frame.
    """
    if wav.ndim != 1:
        raise ShapeError(f"waveform must be 1-D, got shape {wav.shape}")
    x = wav.astype(np.float64)
    half = cfg.n_fft // 2
    if x.size >= 2 and half <= x.size - 1:
        x = np.pad(x, (half, half), mode="reflect")
    else:
        x = np.pad(x, (half, half))
    n_frames = wav.size // cfg.hop + 1
    win = np.zeros(cfg.n_fft, dtype=np.float64)
    w = _hann(cfg.win()).astype(np.float64)
    off = (cfg.n_fft - cfg.win()) // 2
    win[off : off + cfg.win()] = w
    frames = np.stack(
        [x[t * cfg.hop : t * cfg.hop + cfg.n_fft] * win for t in range(n_frames)], axis=1
    )
    return np.abs(np.fft.rfft(frames, axis=0)).astype(DTYPE)


def mel_spectrogram(wav: np.ndarray, cfg: MelConfig) -> np.ndarray:
    """Log-mel magnitude spectrogram, ``[n_mels, frames]``.

    Natural log with the configured floor: silence maps every bin to
    ``log(log_floor)``.
    """
    mag = stft_magnitude(wav, cfg)
    mel = mel_filterbank(cfg) @ mag
    return np.log(np.maximum(mel, DTYPE(cfg.log_floor)))


def mcd(a: np.ndarray, b: np.ndarray) -> float:
    """Mel-cepstral distortion in dB between ``[frames, dims]`` tracks.

    Coefficient 0 (energy) is excluded; per frame the distance is
    ``(10 / ln 10) * sqrt(2 * sum_d (a_d - b_d)^2)`` over ``d >= 1``,
    averaged across frames.
    """
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"mcd inputs must share a [frames, dims] shape, got {a.shape}/{b.shape}")
    if a.shape[0] == 0 or a.shape[1] < 2:
        raise ShapeError("mcd needs >= 1 frame and >= 2 coefficients")
    diff = a[:, 1:].astype(np.float64) - b[:, 1:].astype(np.float64)
    per_frame = np.sqrt(2.0 * np.sum(diff**2, axis=1))
    return float((10.0 / math.log(10.0)) * per_frame.mean())


def f0_metrics(pred: np.ndarray, ref: np.ndarray) -> tuple[float, float, float]:
    """Pitch metrics over two Hz tracks with 0 marking unvoiced frames.

    Returns:
        ``(rmse, corr, uv_error)``: root-mean-square error in Hz and Pearson
        correlation over commonly-voiced frames, plus the fraction of frames
        whose voicing decisions disagree.  ``rmse``/``corr`` are NaN when no
        frame is voiced in both tracks (and ``corr`` additionally when either
        track is constant there and the tracks differ).
    """
    if pred.shape != ref.shape or pred.ndim != 1:
        raise ShapeError(f"f0 tracks must share a 1-D shape, got {pred.shape}/{ref.shape}")
    if pred.size == 0:
        raise ShapeError("f0 tracks are empty")
    if np.any(pred < 0) or np.any(ref < 0):
        raise DomainError("f0 must be >= 0 (0 marks unvoiced)")
    vp = pred > 0
    vr = ref > 0
    uv_error = float(np.mean(vp != vr))
    both = vp & vr
    if not np.any(both):
        return math.nan, math.nan, uv_error
    x = pred[both].astype(np.float64)
    y = ref[both].astype(np.float64)
    rmse = float(np.sqrt(np.mean((x - y) ** 2)))
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float((dx**2).sum()) * float((dy**2).sum()))
    if denom == 0.0:
        corr = 1.0 if rmse == 0.0 else math.nan
    else:
        corr = float((dx * dy).sum() / denom)
    return rmse, corr, uv_error


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error between equal-shape arrays."""
    if a.shape != b.shape:
        raise ShapeError(f"mse inputs differ in shape: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ShapeError("mse needs nonempty inputs")
    return float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))


def recon_loss(reference: np.ndarray, synthesized: np.ndarray, cfg: MelConfig) -> float:
    """Mean absolute log-mel distance between two waveforms.

    The shorter spectrogram sets the compared frame count so off-by-one
    frame bookkeeping between pipelines cannot crash the objective.
    """
    mel_a = mel_spectrogram(reference, cfg)
    mel_b = mel_spectrogram(synthesized, cfg)
    n = min(mel_a.shape[1], mel_b.shape[1])
    if n == 0:
        raise ShapeError("no overlapping frames to compare")
    return float(
        np.abs(mel_a[:, :n].astype(np.float64) - mel_b[:, :n].astype(np.float64)).mean()
    )
