"""Streaming singing-voice synthesizer with chunkwise attention decoding.

The top level holds the synthesis API; everything else is importable from
its submodule (``convs``, ``decoder``, ``vocoder``, ``acoustic``, ``dsp``,
``kernels``, ``modelio``, ``pipeline``).
"""

from .acoustic import ScoreSequence, load_score
from .errors import (
    ChunkvoxError,
    ConfigError,
    DomainError,
    FormatError,
    SequencingError,
    ShapeError,
)
from .modelio import ModelBundle, load_model
from .pipeline import MODES, StreamMetrics, synth, synth_chunks, write_wav

__version__ = "0.1.0"

__all__ = [
    "ChunkvoxError",
    "ConfigError",
    "DomainError",
    "FormatError",
    "MODES",
    "ModelBundle",
    "ScoreSequence",
    "SequencingError",
    "ShapeError",
    "StreamMetrics",
    "load_model",
    "load_score",
    "synth",
    "synth_chunks",
    "write_wav",
]
