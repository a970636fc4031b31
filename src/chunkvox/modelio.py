"""Model serialization: weight container, config schema, bundle assembly.

Weight files are a flat named-tensor container:

    magic   4 bytes  b"CSSW"
    version u32      2
    count   u32      number of tensors
    per tensor:
        name_len u16, name utf-8 bytes
        ndim     u8,  dims u32 * ndim
        data     float32 little-endian, C order (3-D: tap-major, below)

All integers are little-endian.  Dims are the logical shape.  Every 3-D
tensor is a conv kernel ``[out, in, taps]``, and version 2 stores its data as
the C-order ``[out, taps, in]`` array that :func:`chunkvox.convs.tap_major`
lays out, the way the convolutions read it; version 1 stored it in plain C
order.  :func:`save_weights` writes version 2.  :func:`load_weights` reads
either into one float32 buffer, the arena, with every kernel tap-major, so a
loaded model holds each weight once; :func:`load_model` passes over the
posterior encoder's data unless asked for it.  Each component names and
shapes its own tensors: ``decoder.*`` in :mod:`chunkvox.decoder` (the fields
of ``AttentionLayerWeights`` and ``SmoothWeights``), ``posterior.*`` in
:mod:`chunkvox.acoustic` and ``generator.*`` in :mod:`chunkvox.vocoder`;
this module names only the ``frontend.*`` and ``prior.*`` tensors.

Configs are explicit JSON with no hidden defaults: every section and key
must be present, with a value of its field's type (``null`` only where the
field allows None, where it selects the documented derived value, e.g. mel
``fmax``).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, fields
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .acoustic import PosteriorConfig, PosteriorEncoder, PosteriorWeights, posterior_tensor_shapes
from .convs import tap_major
from .decoder import AttentionLayerWeights, ChunkConfig, decoder_tensor_shapes
from .dsp import MelConfig
from .errors import ConfigError, FormatError, check_shapes
from .kernels import DTYPE
from .vocoder import Generator, GeneratorConfig, generator_tensor_shapes

WEIGHT_MAGIC = b"CSSW"
WEIGHT_VERSION = 2
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
        blob += (np.swapaxes(arr, 1, 2) if arr.ndim == 3 else arr).tobytes(order="C")
    with open(path, "wb") as f:
        f.write(blob)


def load_weights(
    path: str, skip: dict[str, tuple[int, ...]] | None = None
) -> dict[str, np.ndarray]:
    """Read a version 1 or 2 named-tensor container, validating structure
    byte-exactly.

    The tensor headers are checked first, each tensor's data passed over;
    then each tensor is read from the file in one ``preadv`` into its slot of
    one float32 arena, packed back to back, and returned as a read-only view.
    The arena holds exactly the tensors returned and every float of it is
    written; every view is aligned for BLAS, which views at the container's
    own byte offsets would not be.  A 3-D tensor's slot holds it tap-major
    (``[out, taps, in]``: version 2 stores it so, and a version-1 kernel is
    re-laid in place after its read), and its view is the ``[out, in, taps]``
    one, so :func:`build_bundle` binds every kernel without a copy.  Values
    and shapes are the file's either way.

    Each tensor named in ``skip`` must be in the file with the shape ``skip``
    gives it (``ConfigError``, naming every one missing or misshapen, after
    the file's structure has passed); its header is checked like any other,
    its data is never read, and it is left out of the result.
    """
    skip = skip or {}
    shapes: dict[str, tuple[int, ...]] = {}  # every tensor's dims, by name
    kept: list[tuple[str, tuple[int, ...], int]] = []  # name, dims, file offset
    with open(path, "rb") as f:
        size = left = os.fstat(f.fileno()).st_size

        def take(n: int, what: str) -> int:
            """Check that ``n`` more bytes exist and account for them."""
            nonlocal left
            if n > left:
                raise FormatError(f"truncated weight file while reading {what}")
            left -= n
            return n

        def read(n: int, what: str) -> bytes:
            data = f.read(take(n, what))
            if len(data) != n:  # the file shrank while being read
                raise FormatError(f"truncated weight file while reading {what}")
            return data

        def unpack(fmt: str, what: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt), what))

        magic, version, count = unpack("<4sII", "header")
        if magic != WEIGHT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {WEIGHT_MAGIC!r}")
        if version not in (1, WEIGHT_VERSION):
            raise FormatError(f"unsupported weight file version {version}")
        for index in range(count):
            (name_len,) = unpack("<H", "name length")
            try:
                name = read(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"name of tensor {index} is not valid UTF-8: {exc.reason}") from exc
            (ndim,) = unpack("<B", "rank")
            dims = unpack(f"<{ndim}I", "dims")
            nbytes = take(4 * math.prod(dims), f"data of {name!r}")
            if name in shapes:
                raise FormatError(f"duplicate tensor name {name!r}")
            shapes[name] = dims
            if name not in skip:
                kept.append((name, dims, size - left - nbytes))
            f.seek(nbytes, os.SEEK_CUR)
        if left:
            raise FormatError(f"{left} trailing bytes after last tensor")
        # After every structural check, as build_bundle checks the tensors it binds.
        check_shapes(shapes, skip)

        arena = np.empty(sum(math.prod(dims) for _, dims, _ in kept), dtype="<f4")
        tensors: dict[str, np.ndarray] = {}
        used = 0
        for name, dims, offset in kept:
            slot = arena[used : used + math.prod(dims)]
            used += slot.size
            if os.preadv(f.fileno(), [slot], offset) != slot.nbytes:
                raise FormatError(f"truncated weight file while reading data of {name!r}")
            if len(dims) == 3:
                if version == 1:
                    slot[:] = np.swapaxes(slot.reshape(dims), 1, 2).ravel()
                arr = slot.reshape(dims[0], dims[2], dims[1]).transpose(0, 2, 1)
            else:
                arr = slot.reshape(dims)
            arr.flags.writeable = False
            tensors[name] = arr
    return tensors


@dataclass(frozen=True)
class ModeFlags:
    """Ablation switches that change the computation graph.

    ``natural_padding=True`` makes :func:`build_bundle` give every generator
    conv ``replicate`` padding (``False`` gives zeros).  Padding stands in
    for missing history only at a stream's start: after that each conv's
    ``ConvState`` carries the real preceding frames, in every mode.
    :func:`chunkvox.convs.natural_pad_forward` is the stateless form of that
    rule for one slice; no synthesis path calls it.
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


# The config file's sections in file order.  Each section's keys are its
# class's fields in declaration order, except chunk.use_smooth, which mirrors
# flags.smooth_layer and is not stored.
_SECTIONS = {
    "flags": ModeFlags,
    "frontend": FrontendConfig,
    "chunk": ChunkConfig,
    "generator": GeneratorConfig,
    "posterior": PosteriorConfig,
    "mel": MelConfig,
}


def _accepts(hint):
    """A test of whether a JSON value, arrays already tuples, has type ``hint``:
    a bool is never a number, and an int is also a float."""
    if get_origin(hint) is UnionType:
        options = [_accepts(arg) for arg in get_args(hint)]
        return lambda value: any(ok(value) for ok in options)
    if get_origin(hint) is tuple:  # tuple[X, ...]
        item = _accepts(get_args(hint)[0])
        return lambda value: type(value) is tuple and all(map(item, value))
    exact = (int, float) if hint is float else (hint,)
    return lambda value: type(value) in exact


# Each section's keys, each with its value test and the annotation it tests.
_KEYS = {
    name: {
        f.name: (_accepts(get_type_hints(cls)[f.name]), f.type)
        for f in fields(cls)
        if (name, f.name) != ("chunk", "use_smooth")
    }
    for name, cls in _SECTIONS.items()
}


def _as_json(value):
    """Tuples, nested or not, as JSON lists."""
    return [_as_json(v) for v in value] if isinstance(value, tuple) else value


def _from_json(value):
    """JSON lists, nested or not, as the tuples the config classes hold."""
    return tuple(_from_json(v) for v in value) if isinstance(value, list) else value


def _section(obj: dict, name: str) -> dict:
    if name not in obj:
        raise FormatError(f"config missing section {name!r}")
    section = obj[name]
    if not isinstance(section, dict):
        raise FormatError(f"config section {name!r} is not an object")
    keys = _KEYS[name]
    missing = [k for k in keys if k not in section]
    unknown = [k for k in section if k not in keys]
    if missing or unknown:
        raise FormatError(
            f"config section {name!r}: missing keys {missing}, unknown keys {unknown}"
        )
    values = {}
    for key, (accepts, annotation) in keys.items():
        value = values[key] = _from_json(section[key])
        if not accepts(value):
            raise FormatError(f"config {name}.{key} must be {annotation}, got {section[key]!r}")
    return values


def config_to_json(cfg: ModelConfig) -> dict:
    obj: dict = {"version": CONFIG_VERSION}
    for name, keys in _KEYS.items():
        section = getattr(cfg, name)
        obj[name] = {key: _as_json(getattr(section, key)) for key in keys}
    return obj


def config_from_json(obj: dict) -> ModelConfig:
    if not isinstance(obj, dict):
        raise FormatError("config root is not an object")
    version = obj.get("version")
    if type(version) is not int or version != CONFIG_VERSION:  # true and 1.0 equal 1 too
        raise FormatError(f"unsupported config version {version!r}")
    unknown = [k for k in obj if k != "version" and k not in _SECTIONS]
    if unknown:
        raise FormatError(f"unknown config sections {unknown}")
    sections = {name: _section(obj, name) for name in _SECTIONS}
    parts: dict = {}
    try:
        for name, cls in _SECTIONS.items():
            values = sections[name]
            if name == "chunk":
                values["use_smooth"] = parts["flags"].smooth_layer
            parts[name] = cls(**values)
        return ModelConfig(**parts)
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
        except UnicodeDecodeError as exc:
            raise FormatError(f"config {path} is not UTF-8: {exc.reason}") from exc
    return config_from_json(obj)


def tensor_manifest(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor a bundle requires, by name and shape."""
    e = cfg.embed_dim
    return {
        "frontend.phoneme_embed": (cfg.frontend.phoneme_vocab, e),
        "frontend.note_embed": (cfg.frontend.note_vocab, e),
        "prior.weight": (cfg.chunk.hidden, 2 * cfg.latent_dim),
        "prior.bias": (2 * cfg.latent_dim,),
        **decoder_tensor_shapes(cfg.chunk),
        **posterior_tensor_shapes(cfg.posterior),
        **generator_tensor_shapes(cfg.generator),
    }


def make_random_tensors(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform(-0.1, 0.1) weights; norm gains are centered at one."""
    if seed < 0:
        raise ConfigError(f"model seed must be >= 0, got {seed}")
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
    """Config plus every executable component built from a tensor dict.

    ``posterior`` is None when the bundle was built for synthesis only, as
    :func:`load_model` builds it by default: synthesis runs the prior path
    and never reads the posterior encoder.  A bundle from that default
    holds no ``posterior.*`` tensor in ``tensors`` either.
    """

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    decoder_weights: list[AttentionLayerWeights]
    prior_w: np.ndarray
    prior_b: np.ndarray
    generator: Generator
    posterior: PosteriorEncoder | None
    phoneme_embed: np.ndarray
    note_embed: np.ndarray


def build_bundle(
    cfg: ModelConfig, tensors: dict[str, np.ndarray], posterior: bool = True
) -> ModelBundle:
    """Assemble a bundle, enumerating every missing or misshapen tensor.

    With ``posterior=False`` the ``posterior.*`` tensors are neither required
    nor bound, and the bundle's ``posterior`` is None.
    """
    skipped = {} if posterior else posterior_tensor_shapes(cfg.posterior)
    manifest = {n: s for n, s in tensor_manifest(cfg).items() if n not in skipped}
    check_shapes({name: t.shape for name, t in tensors.items()}, manifest)

    # Every 3-D tensor in the manifest is a conv kernel.  Loaded kernels are
    # tap-major already and pass through as views; in-memory ones are copied.
    t = {
        name: tap_major(tensors[name]) if len(shape) == 3 else np.asarray(tensors[name], dtype=DTYPE)
        for name, shape in manifest.items()
    }
    encoder = None
    if posterior:
        weights = PosteriorWeights.from_tensors(cfg.posterior, t)
        encoder = PosteriorEncoder(cfg.posterior, weights, causal=cfg.flags.causal_posterior)
    return ModelBundle(
        config=cfg,
        tensors=dict(tensors),
        decoder_weights=[
            AttentionLayerWeights.from_tensors(cfg.chunk, t, i) for i in range(cfg.chunk.num_layers)
        ],
        prior_w=t["prior.weight"],
        prior_b=t["prior.bias"],
        generator=Generator(
            cfg.generator, t, pad_mode="replicate" if cfg.flags.natural_padding else "constant"
        ),
        posterior=encoder,
        phoneme_embed=t["frontend.phoneme_embed"],
        note_embed=t["frontend.note_embed"],
    )


def load_model(config_path: str, weights_path: str, posterior: bool = False) -> ModelBundle:
    """Load a config and its weight file into a bundle.

    By default only what synthesis reads is loaded: the ``posterior.*``
    tensors are found by their headers and checked against the config's
    manifest (name, shape, data present, named once), then passed over
    unread, and the bundle has no posterior encoder.  ``posterior=True``
    loads every tensor and builds the encoder too; ``chunkvox verify`` does,
    for its ``length_laws`` check.
    """
    cfg = load_config(config_path)
    skip = {} if posterior else posterior_tensor_shapes(cfg.posterior)
    tensors = load_weights(weights_path, skip=skip)
    return build_bundle(cfg, tensors, posterior=posterior)


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
