"""Causal upsampling waveform generator.

Latent frames ``[latent_dim, frames]`` become audio through a pre-conv, a
cascade of leaky-relu -> causal transposed conv -> residual-block stages,
and a post-conv squashed by tanh.  Every convolution is causal, so the
generator streams: fed chunk by chunk it emits exactly ``frames * hop``
samples and reproduces its own offline output up to float associativity.

Channel widths halve at each upsampling stage starting from
``base_channels``; the hop (samples per latent frame) is the product of the
stage strides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convs import (
    ConvSpec,
    ConvState,
    conv_offline,
    conv_step,
    init_conv_state,
)
from .errors import ConfigError, ShapeError
from .kernels import DTYPE, leaky_relu, tanh

LEAKY_SLOPE = 0.1


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator hyperparameters.

    Attributes:
        latent_dim: Input channel count.
        base_channels: Width after the pre-conv; halves per stage and must
            stay divisible down the cascade.
        upsample_strides: Per-stage upsampling factors; their product is the
            hop.
        upsample_kernels: Transposed-conv kernel sizes, default ``2 *
            stride``.
        resblock_kernel_sizes: One residual branch per entry, averaged.
        resblock_dilations: Dilation ladder inside each branch.
        io_kernel: Kernel of the pre and post convolutions.
    """

    latent_dim: int = 192
    base_channels: int = 64
    upsample_strides: tuple[int, ...] = (8, 8, 4, 2)
    upsample_kernels: tuple[int, ...] | None = None
    resblock_kernel_sizes: tuple[int, ...] = (3,)
    resblock_dilations: tuple[tuple[int, ...], ...] = ((1, 3),)
    io_kernel: int = 7

    def __post_init__(self) -> None:
        if self.latent_dim < 1 or self.base_channels < 1 or self.io_kernel < 1:
            raise ConfigError("latent_dim, base_channels, io_kernel must be >= 1")
        if not self.upsample_strides or any(s < 1 for s in self.upsample_strides):
            raise ConfigError("upsample_strides must be nonempty positive integers")
        kernels = self.kernels()
        if len(kernels) != len(self.upsample_strides):
            raise ConfigError("upsample_kernels and upsample_strides lengths differ")
        for k, s in zip(kernels, self.upsample_strides):
            if k < s:
                raise ConfigError(f"upsample kernel {k} < stride {s}")
        if not self.resblock_kernel_sizes or len(self.resblock_kernel_sizes) != len(
            self.resblock_dilations
        ):
            raise ConfigError("resblock kernel and dilation lists must align and be nonempty")
        if self.base_channels % (1 << len(self.upsample_strides)) != 0:
            raise ConfigError(
                f"base_channels {self.base_channels} not divisible by "
                f"2^{len(self.upsample_strides)} stages"
            )

    def kernels(self) -> tuple[int, ...]:
        if self.upsample_kernels is not None:
            return self.upsample_kernels
        return tuple(2 * s for s in self.upsample_strides)

    @property
    def hop(self) -> int:
        out = 1
        for s in self.upsample_strides:
            out *= s
        return out

    def stage_channels(self, stage: int) -> int:
        return self.base_channels >> stage


@dataclass
class _Node:
    """One convolution in traversal order."""

    name: str
    spec: ConvSpec
    w: np.ndarray
    b: np.ndarray


@dataclass
class GeneratorState:
    """Streaming state: one ConvState per node, in traversal order."""

    states: list[ConvState] = field(default_factory=list)


def generator_tensor_shapes(cfg: GeneratorConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes for a generator of this config."""
    shapes: dict[str, tuple[int, ...]] = {
        "generator.pre.weight": (cfg.base_channels, cfg.latent_dim, cfg.io_kernel),
        "generator.pre.bias": (cfg.base_channels,),
    }
    kernels = cfg.kernels()
    for i, _ in enumerate(cfg.upsample_strides):
        cin, cout = cfg.stage_channels(i), cfg.stage_channels(i + 1)
        shapes[f"generator.up.{i}.weight"] = (cout, cin, kernels[i])
        shapes[f"generator.up.{i}.bias"] = (cout,)
        for bidx, (k, dils) in enumerate(
            zip(cfg.resblock_kernel_sizes, cfg.resblock_dilations)
        ):
            for j, _d in enumerate(dils):
                shapes[f"generator.res.{i}.{bidx}.{j}.weight"] = (cout, cout, k)
                shapes[f"generator.res.{i}.{bidx}.{j}.bias"] = (cout,)
    last = cfg.stage_channels(len(cfg.upsample_strides))
    shapes["generator.post.weight"] = (1, last, cfg.io_kernel)
    shapes["generator.post.bias"] = (1,)
    return shapes


class Generator:
    """Executable generator graph over a flat named-tensor mapping."""

    def __init__(self, cfg: GeneratorConfig, tensors, pad_mode: str = "replicate"):
        if pad_mode not in ("constant", "replicate"):
            raise ConfigError(f"generator pad_mode {pad_mode!r} must be constant or replicate")
        self.cfg = cfg
        self.pad_mode = pad_mode
        shapes = generator_tensor_shapes(cfg)
        problems = []
        for name, shape in shapes.items():
            if name not in tensors:
                problems.append(f"missing tensor {name}")
            elif tuple(tensors[name].shape) != shape:
                problems.append(
                    f"tensor {name} has shape {tuple(tensors[name].shape)}, wants {shape}"
                )
        if problems:
            raise ConfigError("; ".join(problems))
        self._nodes = self._build_nodes(tensors)

    def _build_nodes(self, tensors) -> list[_Node]:
        cfg, pad = self.cfg, self.pad_mode
        nodes = [
            _Node(
                "pre",
                ConvSpec(cfg.latent_dim, cfg.base_channels, cfg.io_kernel, pad_mode=pad),
                np.asarray(tensors["generator.pre.weight"], dtype=DTYPE),
                np.asarray(tensors["generator.pre.bias"], dtype=DTYPE),
            )
        ]
        kernels = cfg.kernels()
        for i, stride in enumerate(cfg.upsample_strides):
            cin, cout = cfg.stage_channels(i), cfg.stage_channels(i + 1)
            nodes.append(
                _Node(
                    f"up.{i}",
                    ConvSpec(
                        cin, cout, kernels[i], stride=stride, transposed=True, pad_mode=pad
                    ),
                    np.asarray(tensors[f"generator.up.{i}.weight"], dtype=DTYPE),
                    np.asarray(tensors[f"generator.up.{i}.bias"], dtype=DTYPE),
                )
            )
            for bidx, (k, dils) in enumerate(
                zip(cfg.resblock_kernel_sizes, cfg.resblock_dilations)
            ):
                for j, dil in enumerate(dils):
                    nodes.append(
                        _Node(
                            f"res.{i}.{bidx}.{j}",
                            ConvSpec(cout, cout, k, dilation=dil, pad_mode=pad),
                            np.asarray(tensors[f"generator.res.{i}.{bidx}.{j}.weight"], dtype=DTYPE),
                            np.asarray(tensors[f"generator.res.{i}.{bidx}.{j}.bias"], dtype=DTYPE),
                        )
                    )
        last = cfg.stage_channels(len(cfg.upsample_strides))
        nodes.append(
            _Node(
                "post",
                ConvSpec(last, 1, cfg.io_kernel, pad_mode=pad),
                np.asarray(tensors["generator.post.weight"], dtype=DTYPE),
                np.asarray(tensors["generator.post.bias"], dtype=DTYPE),
            )
        )
        return nodes

    @property
    def hop(self) -> int:
        return self.cfg.hop

    def _check_latents(self, z: np.ndarray) -> np.ndarray:
        if z.ndim != 2 or z.shape[0] != self.cfg.latent_dim:
            raise ShapeError(f"latents {z.shape} do not match [{self.cfg.latent_dim}, frames]")
        return z.astype(DTYPE, copy=False)

    def _walk(self, z: np.ndarray, step_states: list[ConvState] | None):
        """Shared offline/streaming traversal.

        With ``step_states`` None every node runs offline; otherwise each
        node advances its ConvState in order.  Both paths execute the same
        arithmetic on the same node sequence.
        """
        cfg = self.cfg
        cursor = iter(range(len(self._nodes)))

        def run(x: np.ndarray) -> np.ndarray:
            idx = next(cursor)
            node = self._nodes[idx]
            if step_states is None:
                return conv_offline(x, node.w, node.b, node.spec)
            state, out = conv_step(step_states[idx], x, node.w, node.b, node.spec)
            step_states[idx] = state
            return out

        x = run(z)  # pre
        for i, _stride in enumerate(cfg.upsample_strides):
            x = run(leaky_relu(x, LEAKY_SLOPE))  # upsample
            acc = None
            for k, dils in zip(cfg.resblock_kernel_sizes, cfg.resblock_dilations):
                branch = x
                for _ in dils:
                    branch = branch + run(leaky_relu(branch, LEAKY_SLOPE))
                acc = branch if acc is None else acc + branch
            x = acc / DTYPE(len(cfg.resblock_kernel_sizes))
        x = run(leaky_relu(x, LEAKY_SLOPE))  # post
        return tanh(x)[0]

    def offline(self, z: np.ndarray) -> np.ndarray:
        """Whole-sequence synthesis: ``[latent_dim, frames] -> [frames * hop]``."""
        z = self._check_latents(z)
        if z.shape[1] == 0:
            return np.zeros(0, dtype=DTYPE)
        return self._walk(z, None)

    def create_state(self) -> GeneratorState:
        return GeneratorState(states=[init_conv_state(node.spec) for node in self._nodes])

    def stream(self, state: GeneratorState, z_chunk: np.ndarray) -> tuple[GeneratorState, np.ndarray]:
        """Feed latent frames; returns exactly ``frames * hop`` samples."""
        z_chunk = self._check_latents(z_chunk)
        if len(state.states) != len(self._nodes):
            raise ShapeError("generator state does not match this graph")
        if z_chunk.shape[1] == 0:
            return state, np.zeros(0, dtype=DTYPE)
        states = list(state.states)
        wav = self._walk(z_chunk, states)
        return GeneratorState(states=states), wav

