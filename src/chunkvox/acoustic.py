"""Score handling, length regulation, and the variational front end.

The training-time objective bookkeeping lives here too: the distance terms
between predicted and reference acoustic features, the diagonal-Gaussian KL
divergence between posterior and prior, and the aggregate loss report.
Scalar reductions accumulate in float64 so closed-form identities hold to
tight tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convs import ConvSpec, ConvState, causal_conv1d_step, init_conv_state
from .errors import ConfigError, DomainError, FormatError, ShapeError, check_shapes
from .kernels import DTYPE, layer_norm, relu


@dataclass(frozen=True)
class ScoreSequence:
    """A musical score or phoneme sequence with frame-level durations.

    Attributes:
        phonemes: Symbol ids, one per score entry.
        notes: Note ids aligned with ``phonemes``, or None for plain
            text-to-speech scores that carry no pitch.
        durations: Frames per entry; individual zeros are allowed, the total
            must be positive.
    """

    phonemes: tuple[int, ...]
    notes: tuple[int, ...] | None
    durations: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.phonemes)
        if n == 0:
            raise FormatError("score has no entries")
        if len(self.durations) != n or (self.notes is not None and len(self.notes) != n):
            raise FormatError("score columns have mismatched lengths")
        if any(d < 0 for d in self.durations):
            raise FormatError("durations must be >= 0")
        if sum(self.durations) == 0:
            raise FormatError("score has zero total duration")
        if any(p < 0 for p in self.phonemes):
            raise FormatError("phoneme ids must be >= 0")
        if self.notes is not None and any(m < 0 for m in self.notes):
            raise FormatError("note ids must be >= 0")

    @property
    def total_frames(self) -> int:
        return sum(self.durations)


def parse_score(text: str) -> ScoreSequence:
    """Parse the three-column score format.

    One entry per line: ``phoneme<TAB>note_id<TAB>duration_frames``, each
    field ASCII decimal digits; the note column is ``-`` for every line of a
    pitch-free score.  A leading or trailing tab adds an empty field.  Blank
    lines and ``#`` comments are skipped.

    Raises:
        FormatError: On malformed lines, mixed pitched/unpitched rows, or an
            empty score.
    """
    phonemes: list[int] = []
    notes: list[int] = []
    durations: list[int] = []
    has_notes: bool | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # Split before stripping, so a leading or trailing tab adds a field.
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 3 tab-separated fields, got {len(parts)}")
        phonemes.append(_decimal(parts[0].lstrip(), lineno, "phoneme"))
        durations.append(_decimal(parts[2].rstrip(), lineno, "duration"))
        pitched = parts[1] != "-"
        if has_notes is None:
            has_notes = pitched
        elif has_notes != pitched:
            raise FormatError(f"line {lineno}: mixed pitched and unpitched entries")
        if pitched:
            notes.append(_decimal(parts[1], lineno, "note id"))
    if not phonemes:
        raise FormatError("score has no entries")
    return ScoreSequence(
        phonemes=tuple(phonemes),
        notes=tuple(notes) if has_notes else None,
        durations=tuple(durations),
    )


def _decimal(field: str, lineno: int, what: str) -> int:
    """``field`` as an int; only ASCII decimal digits are accepted, not the
    signs, underscores, spaces or other scripts' digits ``int`` also reads."""
    if not (field.isascii() and field.isdigit()):
        raise FormatError(f"line {lineno}: {what} {field!r} is not a decimal integer")
    return int(field)


def load_score(path: str) -> ScoreSequence:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"score {path} is not UTF-8: {exc.reason}") from exc
    return parse_score(text)


def length_regulate(vectors: np.ndarray, durations) -> np.ndarray:
    """Repeat row ``i`` of ``vectors`` ``durations[i]`` times.

    Args:
        vectors: ``[entries, width]`` per-entry embeddings.
        durations: Per-entry frame counts (zeros drop the entry).

    Returns:
        ``[sum(durations), width]`` frame-level sequence.
    """
    durations = np.asarray(durations, dtype=np.int64)
    if vectors.ndim != 2 or vectors.shape[0] != durations.shape[0]:
        raise ShapeError(
            f"{vectors.shape[0] if vectors.ndim == 2 else '?'} vectors for "
            f"{durations.shape[0]} durations"
        )
    if np.any(durations < 0):
        raise DomainError("durations must be >= 0")
    if int(durations.sum()) == 0:
        raise DomainError("total duration is zero")
    return np.repeat(vectors, durations, axis=0)


@dataclass(frozen=True)
class GaussianParams:
    """Diagonal Gaussian per frame: ``mu``/``sigma`` are ``[frames, dim]``."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        if self.mu.shape != self.sigma.shape or self.mu.ndim != 2:
            raise ShapeError(
                f"mu {self.mu.shape} and sigma {self.sigma.shape} must be equal 2-D shapes"
            )
        if self.sigma.size and not np.all(self.sigma > 0):
            raise DomainError("sigma must be strictly positive")


def sample_latent(params: GaussianParams, eps: np.ndarray) -> np.ndarray:
    """Reparameterized draw ``mu + sigma * eps``."""
    if eps.shape != params.mu.shape:
        raise ShapeError(f"eps shape {eps.shape} does not match {params.mu.shape}")
    return params.mu + params.sigma * eps


def kl_gaussian(q: GaussianParams, p: GaussianParams) -> float:
    """KL(q || p) between per-frame diagonal Gaussians, averaged over frames.

    Per frame the closed form sums over dimensions::

        ln(sigma_p / sigma_q) + (sigma_q^2 + (mu_q - mu_p)^2) / (2 sigma_p^2) - 1/2
    """
    if q.mu.shape != p.mu.shape:
        raise ShapeError(f"posterior {q.mu.shape} and prior {p.mu.shape} shapes differ")
    if q.mu.shape[0] == 0:
        raise ShapeError("kl_gaussian needs at least one frame")
    mq = q.mu.astype(np.float64)
    sq = q.sigma.astype(np.float64)
    mp = p.mu.astype(np.float64)
    sp = p.sigma.astype(np.float64)
    per_dim = np.log(sp / sq) + (sq**2 + (mq - mp) ** 2) / (2.0 * sp**2) - 0.5
    return float(per_dim.sum(axis=1).mean())


@dataclass(frozen=True)
class PosteriorConfig:
    """Shape of the reference-encoder conv stack."""

    mcep_dim: int = 80
    hidden_channels: int = 192
    num_layers: int = 3
    kernel_size: int = 5
    latent_dim: int = 192

    def __post_init__(self) -> None:
        if min(self.mcep_dim, self.hidden_channels, self.num_layers, self.latent_dim) < 1:
            raise ConfigError("posterior dimensions must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")

    @property
    def in_channels(self) -> int:
        # mcep rows plus one pitch channel
        return self.mcep_dim + 1


# Cached: every encode call reads its conv specs from here.
@lru_cache(maxsize=8)
def _posterior_tensors(cfg: PosteriorConfig):
    """``(tensor name, shape)`` pairs of each conv layer, in the order of a
    ``PosteriorWeights.layers`` tuple, then of the head (``out_w``, ``out_b``)."""
    h, k, out = cfg.hidden_channels, cfg.kernel_size, 2 * cfg.latent_dim
    cins = [cfg.in_channels] + [h] * (cfg.num_layers - 1)
    layers = tuple(
        (
            (f"posterior.{i}.weight", (h, cin, k)),
            (f"posterior.{i}.bias", (h,)),
            (f"posterior.{i}.norm.gamma", (h,)),
            (f"posterior.{i}.norm.beta", (h,)),
        )
        for i, cin in enumerate(cins)
    )
    return layers, (("posterior.out.weight", (out, h, 1)), ("posterior.out.bias", (out,)))


def posterior_tensor_shapes(cfg: PosteriorConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes for a posterior encoder of this config."""
    layers, head = _posterior_tensors(cfg)
    return {name: shape for rows in (*layers, head) for name, shape in rows}


@dataclass
class PosteriorWeights:
    """Conv stack parameters: ``layers`` of (w, b, gamma, beta), then a
    pointwise head emitting concatenated mean and log-sigma."""

    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    out_w: np.ndarray
    out_b: np.ndarray

    @classmethod
    def from_tensors(cls, cfg: PosteriorConfig, tensors) -> PosteriorWeights:
        """Bind every weight to ``tensors`` by its name in the file."""
        layers, head = _posterior_tensors(cfg)
        out_w, out_b = (tensors[name] for name, _ in head)
        return cls([tuple(tensors[name] for name, _ in rows) for rows in layers], out_w, out_b)


def acoustic_channels(mcep: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Stack reference features channel-wise: ``[mcep_dim + 1, frames]``.

    ``mcep`` is ``[frames, mcep_dim]``; ``f0`` is ``[frames]`` in Hz and is
    compressed with ``log1p`` so the channel is O(1) and zero for unvoiced.
    """
    if mcep.ndim != 2 or f0.ndim != 1 or mcep.shape[0] != f0.shape[0]:
        raise ShapeError(f"mcep {mcep.shape} and f0 {f0.shape} do not align")
    if np.any(f0 < 0):
        raise DomainError("f0 must be >= 0")
    return np.concatenate(
        [mcep.T.astype(DTYPE), np.log1p(f0.astype(DTYPE))[None, :]], axis=0
    )


class PosteriorEncoder:
    """Reference encoder producing per-frame posterior Gaussians.

    A stack of 1-D convolutions (causal or symmetric per ``causal``) with
    frame-wise layer norm and relu, closed by a pointwise head whose output
    splits into mean and log-sigma; sigma is ``exp`` of the latter.  The
    weights are checked against :func:`posterior_tensor_shapes` under their
    weight-file names.
    """

    def __init__(self, cfg: PosteriorConfig, weights: PosteriorWeights, causal: bool):
        if len(weights.layers) != cfg.num_layers:
            raise ConfigError(f"posterior has {len(weights.layers)} layers, wants {cfg.num_layers}")
        layers, head = _posterior_tensors(cfg)
        arrays = (*weights.layers, (weights.out_w, weights.out_b))
        bound = {
            name: arr.shape
            for part, rows in zip(arrays, (*layers, head))
            for arr, (name, _) in zip(part, rows)
        }
        check_shapes(bound, posterior_tensor_shapes(cfg))
        self.cfg = cfg
        self.weights = weights
        self.causal = causal

    def _conv_specs(self) -> list[ConvSpec]:
        layers, _ = _posterior_tensors(self.cfg)
        return [ConvSpec(cin, cout, k, pad_mode="constant") for (_, (cout, cin, k)), *_ in layers]

    def _split(self, head_out: np.ndarray) -> GaussianParams:
        d = self.cfg.latent_dim
        mu = head_out[:d].T
        sigma = np.exp(head_out[d:].T)
        return GaussianParams(mu=np.ascontiguousarray(mu), sigma=np.ascontiguousarray(sigma))

    def _features(self, feats: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if feats.ndim != 2 or feats.shape[0] != cfg.in_channels:
            raise ShapeError(f"features {feats.shape} do not match [{cfg.in_channels}, frames]")
        return feats.astype(DTYPE, copy=False)

    def encode(self, feats: np.ndarray) -> GaussianParams:
        """Whole-sequence encoding of ``[in_channels, frames]`` features: a
        fresh stream's one chunk, every layer symmetric unless causal."""
        half = 0 if self.causal else (self.cfg.kernel_size - 1) // 2
        return self._run([ConvState()] * self.cfg.num_layers, feats, half)[1]

    def create_state(self) -> list[ConvState]:
        if not self.causal:
            raise ConfigError("streaming requires a causal posterior encoder")
        return [init_conv_state(spec) for spec in self._conv_specs()]

    def encode_step(
        self, states: list[ConvState], feats: np.ndarray
    ) -> tuple[list[ConvState], GaussianParams]:
        """Streaming encoding; concatenated chunks match :meth:`encode`."""
        if not self.causal:
            raise ConfigError("streaming requires a causal posterior encoder")
        return self._run(states, feats, 0)

    def _run(self, states: list[ConvState], feats: np.ndarray, half: int):
        """``(next_states, params)``: each layer a causal step fed ``half`` zero
        frames after the chunk, its first ``half`` outputs dropped, so output
        ``t`` reads frames ``t - half .. t + half``, zeros past either end."""
        x = self._features(feats)
        if len(states) != len(self.weights.layers):
            raise ShapeError(f"{len(states)} states for {len(self.weights.layers)} layers")
        nxt = []
        for state, spec, (w, b, gamma, beta) in zip(
            states, self._conv_specs(), self.weights.layers
        ):
            if half:
                x = np.pad(x, ((0, 0), (0, half)))
            state, x = causal_conv1d_step(state, x, w, b, spec)
            x = x[:, half:]
            if x.shape[1]:
                x = relu(layer_norm(x.T, gamma, beta)).T
            nxt.append(state)
        head = self.weights.out_w[:, :, 0] @ x + self.weights.out_b[:, None]
        return nxt, self._split(head)


def am_losses(
    pred_f0: np.ndarray,
    gt_f0: np.ndarray,
    pred_mcep: np.ndarray,
    gt_mcep: np.ndarray,
    pred_logdur: np.ndarray,
    gt_dur: np.ndarray,
) -> tuple[float, float, float]:
    """Acoustic-model distances: (f0 MAE, mcep MAE, log-duration MSE).

    Durations are compared in the ``log(d + 1)`` domain; predictions arrive
    already log-transformed, references as raw frame counts.
    """
    if pred_f0.shape != gt_f0.shape or pred_mcep.shape != gt_mcep.shape:
        raise ShapeError("f0/mcep prediction and reference shapes differ")
    if pred_logdur.shape != gt_dur.shape:
        raise ShapeError("duration prediction and reference shapes differ")
    if pred_f0.size == 0 or pred_mcep.size == 0 or pred_logdur.size == 0:
        raise ShapeError("loss terms need nonempty inputs")
    if np.any(gt_dur < 0):
        raise DomainError("reference durations must be >= 0")
    l_f0 = float(np.abs(pred_f0.astype(np.float64) - gt_f0.astype(np.float64)).mean())
    l_mcep = float(np.abs(pred_mcep.astype(np.float64) - gt_mcep.astype(np.float64)).mean())
    diff = pred_logdur.astype(np.float64) - np.log(gt_dur.astype(np.float64) + 1.0)
    l_dur = float((diff**2).mean())
    return l_f0, l_mcep, l_dur


@dataclass(frozen=True)
class LossReport:
    """Aggregated training objective.

    ``l_am`` and ``total`` are derived, so the bookkeeping identities
    ``l_am == l_f0 + l_mcep + l_dur`` and ``total == l_recon + l_am + l_kl +
    adversarial terms`` hold by construction.  Adversarial generator terms
    are optional externally-supplied scalars.
    """

    l_f0: float
    l_mcep: float
    l_dur: float
    l_kl: float
    l_recon: float
    l_adv_g: float | None = None
    l_fm_g: float | None = None

    def __post_init__(self) -> None:
        for name in ("l_f0", "l_mcep", "l_dur", "l_kl", "l_recon"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise DomainError(f"{name} must be finite and >= 0, got {value}")

    @property
    def l_am(self) -> float:
        return self.l_f0 + self.l_mcep + self.l_dur

    @property
    def total(self) -> float:
        return (
            self.l_recon
            + self.l_am
            + self.l_kl
            + (self.l_adv_g or 0.0)
            + (self.l_fm_g or 0.0)
        )

