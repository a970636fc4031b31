"""The chunk decoder against the float64 reference in ``reference_model``.

Criterion 4 compares two paths that share ``_mha``, ``layer_norm``,
``softmax`` and the smoothing conv, so a bug in one of those kernels passes
it; the reference shares none of them.  It runs with memory, lookahead,
left cache and smoothing all on, in the benchmark's geometries and in a
lookahead longer than the chunk.
"""

import dataclasses

import numpy as np
import pytest
from reference_model import reference_decode

from chunkvox.decoder import chunkstream_decode
from chunkvox.modelio import build_bundle, default_config, make_random_model

from test_modelio import tiny_config

GEOMETRIES = [(20, 10, 4), (4, 8, 2), (7, 0, 0), (5, 3, 9)]

# Largest |float32 decoder - float64 reference| per geometry, 45 frames of
# U(-1, 1) input, seed-7 random model; outputs reach |3.5|:
#   tiny_config() (hidden 8, 2 layers): 7.8e-7 .. 1.2e-6
#   default_config() (hidden 192, 4 layers): 2.1e-6 .. 3.3e-6
# The tolerances leave about 4x headroom over that float32 rounding.
CASES = {"tiny": (tiny_config, 5e-6), "default": (default_config, 1.5e-5)}


@pytest.fixture(scope="module", params=sorted(CASES))
def model(request):
    make_cfg, tol = CASES[request.param]
    cfg = make_cfg()
    bundle = build_bundle(cfg, make_random_model(cfg, seed=7))
    return cfg.chunk, bundle.decoder_weights, tol


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: "-".join(map(str, g)))
def test_chunk_decoder_matches_float64_reference(model, geometry):
    chunk_cfg, weights, tol = model
    c, left, right = geometry
    cfg = dataclasses.replace(chunk_cfg, chunk_size=c, left_context=left, right_context=right)
    assert cfg.memory_slots > 0 and cfg.use_smooth
    frames = np.random.default_rng(1).uniform(-1, 1, (45, cfg.hidden)).astype(np.float32)
    got = chunkstream_decode(frames, cfg, weights)
    want = reference_decode(frames, cfg, weights)
    assert got.shape == want.shape
    err = float(np.abs(got - want).max())
    assert err <= tol, f"max |decoder - reference| {err:.2e} > {tol:.1e}"
