"""Model serialization: weight container, config schema, bundle assembly.

Weight files are a flat named-tensor container:

    magic   4 bytes  b"CSSW"
    version u32      1
    count   u32      number of tensors
    per tensor:
        name_len u16, name utf-8 bytes
        ndim     u8,  dims u32 * ndim
        data     float32 little-endian, C order

All integers are little-endian.  Configs are explicit JSON with no hidden
defaults: every section and key must be present (``null`` selects the
documented derived value where one exists, e.g. mel ``fmax``).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .acoustic import PosteriorConfig, PosteriorEncoder, PosteriorWeights
from .decoder import AttentionLayerWeights, ChunkConfig, SmoothWeights
from .dsp import MelConfig
from .errors import ConfigError, FormatError
from .kernels import DTYPE
from .vocoder import Generator, GeneratorConfig, generator_tensor_shapes

WEIGHT_MAGIC = b"CSSW"
WEIGHT_VERSION = 1
CONFIG_VERSION = 1
PROBE_PREFIX = "__probe."
_PROBE_SEED = 0xC0FFEE


def save_weights(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write a named-tensor container."""
    blob = bytearray()
    blob += struct.pack("<4sII", WEIGHT_MAGIC, WEIGHT_VERSION, len(tensors))
    for name, tensor in tensors.items():
        raw = name.encode("utf-8")
        if not raw or len(raw) > 0xFFFF:
            raise FormatError(f"tensor name {name!r} has invalid length")
        arr = np.asarray(tensor, dtype="<f4")
        if arr.ndim > 0xFF:
            raise FormatError(f"tensor {name!r} has too many dimensions")
        blob += struct.pack("<H", len(raw)) + raw
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes(order="C")
    with open(path, "wb") as f:
        f.write(blob)


def load_weights(path: str) -> dict[str, np.ndarray]:
    """Read a named-tensor container, validating structure byte-exactly."""
    with open(path, "rb") as f:
        blob = f.read()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"truncated weight file while reading {what}")
        out = blob[off : off + n]
        off += n
        return out

    magic, version, count = struct.unpack("<4sII", take(12, "header"))
    if magic != WEIGHT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {WEIGHT_MAGIC!r}")
    if version != WEIGHT_VERSION:
        raise FormatError(f"unsupported weight file version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = take(name_len, "name").decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        n_items = 1
        for d in dims:
            n_items *= d
        data = take(4 * n_items, f"data of {name!r}")
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        tensors[name] = np.frombuffer(data, dtype="<f4").reshape(dims).astype(DTYPE)
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after last tensor")
    return tensors


@dataclass(frozen=True)
class ModeFlags:
    """Ablation switches that change the computation graph.

    ``natural_padding=True`` makes :func:`build_bundle` give every generator
    conv ``replicate`` padding (``False`` gives ``constant``).  It does not
    select :func:`chunkvox.convs.natural_pad_forward`, which, like
    ``required_history``, no synthesis path calls.
    """

    causal_posterior: bool = True
    natural_padding: bool = True
    smooth_layer: bool = True


@dataclass(frozen=True)
class FrontendConfig:
    """Score embedding tables."""

    phoneme_vocab: int = 64
    note_vocab: int = 128

    def __post_init__(self) -> None:
        if self.phoneme_vocab < 1 or self.note_vocab < 1:
            raise ConfigError("vocabulary sizes must be >= 1")


@dataclass(frozen=True)
class ModelConfig:
    flags: ModeFlags
    frontend: FrontendConfig
    chunk: ChunkConfig
    generator: GeneratorConfig
    posterior: PosteriorConfig
    mel: MelConfig

    def __post_init__(self) -> None:
        if self.chunk.hidden < 2:
            raise ConfigError("hidden must be >= 2 (one channel is reserved for pitch)")
        if self.mel.hop != self.generator.hop:
            raise ConfigError(
                f"mel hop {self.mel.hop} does not equal generator hop {self.generator.hop}"
            )
        if self.chunk.use_smooth != self.flags.smooth_layer:
            raise ConfigError("chunk.use_smooth must mirror flags.smooth_layer")

    @property
    def embed_dim(self) -> int:
        return self.chunk.hidden - 1

    @property
    def latent_dim(self) -> int:
        return self.generator.latent_dim


def default_config() -> ModelConfig:
    """Full-size deployment configuration with randomization-friendly vocabularies."""
    flags = ModeFlags()
    return ModelConfig(
        flags=flags,
        frontend=FrontendConfig(),
        chunk=ChunkConfig(use_smooth=flags.smooth_layer),
        generator=GeneratorConfig(),
        posterior=PosteriorConfig(),
        mel=MelConfig(),
    )


def _section(obj: dict, name: str, keys: tuple[str, ...]) -> dict:
    if name not in obj:
        raise FormatError(f"config missing section {name!r}")
    section = obj[name]
    if not isinstance(section, dict):
        raise FormatError(f"config section {name!r} is not an object")
    missing = [k for k in keys if k not in section]
    unknown = [k for k in section if k not in keys]
    if missing or unknown:
        raise FormatError(
            f"config section {name!r}: missing keys {missing}, unknown keys {unknown}"
        )
    return section


def config_to_json(cfg: ModelConfig) -> dict:
    return {
        "version": CONFIG_VERSION,
        "flags": {
            "causal_posterior": cfg.flags.causal_posterior,
            "natural_padding": cfg.flags.natural_padding,
            "smooth_layer": cfg.flags.smooth_layer,
        },
        "frontend": {
            "phoneme_vocab": cfg.frontend.phoneme_vocab,
            "note_vocab": cfg.frontend.note_vocab,
        },
        "chunk": {
            "chunk_size": cfg.chunk.chunk_size,
            "left_context": cfg.chunk.left_context,
            "right_context": cfg.chunk.right_context,
            "num_layers": cfg.chunk.num_layers,
            "hidden": cfg.chunk.hidden,
            "ffn_hidden": cfg.chunk.ffn_hidden,
            "num_heads": cfg.chunk.num_heads,
            "memory_slots": cfg.chunk.memory_slots,
            "smooth_kernel": cfg.chunk.smooth_kernel,
        },
        "generator": {
            "latent_dim": cfg.generator.latent_dim,
            "base_channels": cfg.generator.base_channels,
            "upsample_strides": list(cfg.generator.upsample_strides),
            "upsample_kernels": (
                None
                if cfg.generator.upsample_kernels is None
                else list(cfg.generator.upsample_kernels)
            ),
            "resblock_kernel_sizes": list(cfg.generator.resblock_kernel_sizes),
            "resblock_dilations": [list(d) for d in cfg.generator.resblock_dilations],
            "io_kernel": cfg.generator.io_kernel,
        },
        "posterior": {
            "mcep_dim": cfg.posterior.mcep_dim,
            "hidden_channels": cfg.posterior.hidden_channels,
            "num_layers": cfg.posterior.num_layers,
            "kernel_size": cfg.posterior.kernel_size,
            "latent_dim": cfg.posterior.latent_dim,
        },
        "mel": {
            "sample_rate": cfg.mel.sample_rate,
            "n_fft": cfg.mel.n_fft,
            "hop": cfg.mel.hop,
            "win_length": cfg.mel.win_length,
            "n_mels": cfg.mel.n_mels,
            "fmin": cfg.mel.fmin,
            "fmax": cfg.mel.fmax,
            "log_floor": cfg.mel.log_floor,
        },
    }


def config_from_json(obj: dict) -> ModelConfig:
    if not isinstance(obj, dict):
        raise FormatError("config root is not an object")
    version = obj.get("version")
    if version != CONFIG_VERSION:
        raise FormatError(f"unsupported config version {version!r}")
    known = ("version", "flags", "frontend", "chunk", "generator", "posterior", "mel")
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise FormatError(f"unknown config sections {unknown}")
    flags_j = _section(obj, "flags", ("causal_posterior", "natural_padding", "smooth_layer"))
    front_j = _section(obj, "frontend", ("phoneme_vocab", "note_vocab"))
    chunk_j = _section(
        obj,
        "chunk",
        (
            "chunk_size",
            "left_context",
            "right_context",
            "num_layers",
            "hidden",
            "ffn_hidden",
            "num_heads",
            "memory_slots",
            "smooth_kernel",
        ),
    )
    gen_j = _section(
        obj,
        "generator",
        (
            "latent_dim",
            "base_channels",
            "upsample_strides",
            "upsample_kernels",
            "resblock_kernel_sizes",
            "resblock_dilations",
            "io_kernel",
        ),
    )
    post_j = _section(
        obj, "posterior", ("mcep_dim", "hidden_channels", "num_layers", "kernel_size", "latent_dim")
    )
    mel_j = _section(
        obj,
        "mel",
        ("sample_rate", "n_fft", "hop", "win_length", "n_mels", "fmin", "fmax", "log_floor"),
    )
    try:
        flags = ModeFlags(**flags_j)
        return ModelConfig(
            flags=flags,
            frontend=FrontendConfig(**front_j),
            chunk=ChunkConfig(use_smooth=flags.smooth_layer, **chunk_j),
            generator=GeneratorConfig(
                latent_dim=gen_j["latent_dim"],
                base_channels=gen_j["base_channels"],
                upsample_strides=tuple(gen_j["upsample_strides"]),
                upsample_kernels=(
                    None
                    if gen_j["upsample_kernels"] is None
                    else tuple(gen_j["upsample_kernels"])
                ),
                resblock_kernel_sizes=tuple(gen_j["resblock_kernel_sizes"]),
                resblock_dilations=tuple(tuple(d) for d in gen_j["resblock_dilations"]),
                io_kernel=gen_j["io_kernel"],
            ),
            posterior=PosteriorConfig(**post_j),
            mel=MelConfig(**mel_j),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise FormatError(f"config values malformed: {exc}") from exc


def save_config(path: str, cfg: ModelConfig) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config_to_json(cfg), f, indent=2)
        f.write("\n")


def load_config(path: str) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"config is not valid JSON: {exc}") from exc
    return config_from_json(obj)


def tensor_manifest(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor a bundle requires, by name and shape."""
    d = cfg.chunk.hidden
    f = cfg.chunk.ffn_hidden
    e = cfg.embed_dim
    shapes: dict[str, tuple[int, ...]] = {
        "frontend.phoneme_embed": (cfg.frontend.phoneme_vocab, e),
        "frontend.note_embed": (cfg.frontend.note_vocab, e),
        "prior.weight": (d, 2 * cfg.latent_dim),
        "prior.bias": (2 * cfg.latent_dim,),
    }
    for i in range(cfg.chunk.num_layers):
        p = f"decoder.{i}."
        shapes[p + "w_q"] = (d, d)
        shapes[p + "w_k"] = (d, d)
        shapes[p + "w_v"] = (d, d)
        shapes[p + "w_out"] = (d, d)
        shapes[p + "attn_norm.gamma"] = (d,)
        shapes[p + "attn_norm.beta"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
        shapes[p + "ffn_norm.gamma"] = (d,)
        shapes[p + "ffn_norm.beta"] = (d,)
        if cfg.flags.smooth_layer:
            k = cfg.chunk.smooth_kernel
            shapes[p + "smooth.conv1.weight"] = (d, d, k)
            shapes[p + "smooth.conv1.bias"] = (d,)
            shapes[p + "smooth.norm1.gamma"] = (d,)
            shapes[p + "smooth.norm1.beta"] = (d,)
            shapes[p + "smooth.conv2.weight"] = (d, d, k)
            shapes[p + "smooth.conv2.bias"] = (d,)
            shapes[p + "smooth.norm2.gamma"] = (d,)
            shapes[p + "smooth.norm2.beta"] = (d,)
    cin = cfg.posterior.in_channels
    for i in range(cfg.posterior.num_layers):
        p = f"posterior.{i}."
        shapes[p + "weight"] = (cfg.posterior.hidden_channels, cin, cfg.posterior.kernel_size)
        shapes[p + "bias"] = (cfg.posterior.hidden_channels,)
        shapes[p + "norm.gamma"] = (cfg.posterior.hidden_channels,)
        shapes[p + "norm.beta"] = (cfg.posterior.hidden_channels,)
        cin = cfg.posterior.hidden_channels
    shapes["posterior.out.weight"] = (2 * cfg.posterior.latent_dim, cfg.posterior.hidden_channels, 1)
    shapes["posterior.out.bias"] = (2 * cfg.posterior.latent_dim,)
    shapes.update(generator_tensor_shapes(cfg.generator))
    return shapes


def make_random_tensors(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform(-0.1, 0.1) weights; norm gains are centered at one."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in tensor_manifest(cfg).items():
        values = rng.uniform(-0.1, 0.1, size=shape).astype(DTYPE)
        if name.endswith(".gamma"):
            values = values + DTYPE(1.0)
        tensors[name] = values
    return tensors


@dataclass
class ModelBundle:
    """Config plus every executable component built from a tensor dict."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    decoder_weights: list[AttentionLayerWeights]
    prior_w: np.ndarray
    prior_b: np.ndarray
    generator: Generator
    posterior: PosteriorEncoder
    phoneme_embed: np.ndarray
    note_embed: np.ndarray


def build_bundle(cfg: ModelConfig, tensors: dict[str, np.ndarray]) -> ModelBundle:
    """Assemble a bundle, enumerating every missing or misshapen tensor."""
    manifest = tensor_manifest(cfg)
    problems = []
    for name, shape in manifest.items():
        if name not in tensors:
            problems.append(f"missing tensor {name}")
        elif tuple(tensors[name].shape) != shape:
            problems.append(f"tensor {name} has shape {tuple(tensors[name].shape)}, wants {shape}")
    if problems:
        raise ConfigError("; ".join(problems))

    t = {name: np.asarray(tensors[name], dtype=DTYPE) for name in manifest}
    decoder_weights = []
    for i in range(cfg.chunk.num_layers):
        p = f"decoder.{i}."
        smooth = None
        if cfg.flags.smooth_layer:
            smooth = SmoothWeights(
                conv1_w=t[p + "smooth.conv1.weight"],
                conv1_b=t[p + "smooth.conv1.bias"],
                norm1_gamma=t[p + "smooth.norm1.gamma"],
                norm1_beta=t[p + "smooth.norm1.beta"],
                conv2_w=t[p + "smooth.conv2.weight"],
                conv2_b=t[p + "smooth.conv2.bias"],
                norm2_gamma=t[p + "smooth.norm2.gamma"],
                norm2_beta=t[p + "smooth.norm2.beta"],
            )
        decoder_weights.append(
            AttentionLayerWeights(
                w_q=t[p + "w_q"],
                w_k=t[p + "w_k"],
                w_v=t[p + "w_v"],
                w_out=t[p + "w_out"],
                attn_norm_gamma=t[p + "attn_norm.gamma"],
                attn_norm_beta=t[p + "attn_norm.beta"],
                ffn_w1=t[p + "ffn.w1"],
                ffn_b1=t[p + "ffn.b1"],
                ffn_w2=t[p + "ffn.w2"],
                ffn_b2=t[p + "ffn.b2"],
                ffn_norm_gamma=t[p + "ffn_norm.gamma"],
                ffn_norm_beta=t[p + "ffn_norm.beta"],
                smooth=smooth,
            )
        )
    posterior_weights = PosteriorWeights(
        layers=[
            (
                t[f"posterior.{i}.weight"],
                t[f"posterior.{i}.bias"],
                t[f"posterior.{i}.norm.gamma"],
                t[f"posterior.{i}.norm.beta"],
            )
            for i in range(cfg.posterior.num_layers)
        ],
        out_w=t["posterior.out.weight"],
        out_b=t["posterior.out.bias"],
    )
    generator = Generator(
        cfg.generator,
        t,
        pad_mode="replicate" if cfg.flags.natural_padding else "constant",
    )
    return ModelBundle(
        config=cfg,
        tensors=dict(tensors),
        decoder_weights=decoder_weights,
        prior_w=t["prior.weight"],
        prior_b=t["prior.bias"],
        generator=generator,
        posterior=PosteriorEncoder(
            cfg.posterior, posterior_weights, causal=cfg.flags.causal_posterior
        ),
        phoneme_embed=t["frontend.phoneme_embed"],
        note_embed=t["frontend.note_embed"],
    )


def load_model(config_path: str, weights_path: str) -> ModelBundle:
    cfg = load_config(config_path)
    tensors = load_weights(weights_path)
    return build_bundle(cfg, tensors)


def probe_tensors(bundle: ModelBundle) -> dict[str, np.ndarray]:
    """Deterministic generator probe frozen into saved weight files.

    ``verify`` recomputes the probe waveform under the loaded config; any
    graph-changing edit (for example flipping the padding flag) mismatches.
    """
    rng = np.random.default_rng(_PROBE_SEED)
    z = rng.normal(size=(bundle.config.latent_dim, 8)).astype(DTYPE)
    return {PROBE_PREFIX + "z": z, PROBE_PREFIX + "wav": bundle.generator.offline(z)}


def make_random_model(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Random tensors plus the embedded probe pair."""
    tensors = make_random_tensors(cfg, seed)
    bundle = build_bundle(cfg, tensors)
    tensors.update(probe_tensors(bundle))
    return tensors
