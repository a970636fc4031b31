#!/usr/bin/env python3
"""Record the reference waveforms that ``run.py`` checks outputs against.

    python3 perfbench/record_reference.py

For each workload it writes one fixed check score (48 frames, from
``CHECK_SEED``), its noise seed and the waveform the current code
synthesises for it into ``perfbench/reference.npz``.  Re-record only when a
change is meant to alter the audio, and say so in that change.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import run
from workloads import WORKLOADS, score_text

CHECK_SEED = 2024
CHECK_FRAMES = 48
# One frontend branch each; live-phrase covers the pitch-free one.
PITCHED = {"offline-song": True, "live-phrase": False, "low-latency": True}


def main() -> int:
    run.import_chunkvox()
    from chunkvox import modelio, pipeline
    from chunkvox.acoustic import parse_score

    model_dir = run.OUT / f"model-{os.getpid()}"
    arrays = {}
    try:
        run.OUT.mkdir(exist_ok=True)
        run.write_model(model_dir)
        for i, (name, wl) in enumerate(WORKLOADS.items()):
            bundle = run.load_bundle(modelio, model_dir, wl.chunk)
            rng = np.random.default_rng([CHECK_SEED, i])
            text = score_text(rng, CHECK_FRAMES, PITCHED[name], f"{name} check score")
            wav, _ = pipeline.synth(parse_score(text), bundle, mode=wl.mode, eps_seed=CHECK_SEED)
            problem = run.check_wav(wav, CHECK_FRAMES)
            if problem:
                raise SystemExit(f"{name}: reference output fails its own check: {problem}")
            arrays[f"{name}.text"] = np.array(text)
            arrays[f"{name}.eps_seed"] = np.array(CHECK_SEED)
            arrays[f"{name}.wav"] = wav
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    np.savez_compressed(run.REFERENCE, **arrays)
    print(f"wrote {run.REFERENCE.name}: {', '.join(WORKLOADS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
