#!/usr/bin/env python3
"""chunkvox benchmark driver.

    python3 perfbench/run.py --workload live-phrase --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

One client sends ``chunkvox.pipeline.synth`` requests in a closed loop: the
next request goes out when the previous one returns.  There is one process,
no worker threads, and BLAS at its default thread count.  The model is
``default_config()`` with ``make_random_model(seed=7)``, written to disk by
a child process and read back with ``chunkvox.modelio.load_model``, so that
set-up goes through the real loader and model generation does not count in
this process's peak RSS.

Every request is checked: exactly ``frames * 512`` samples, all finite,
``max |x| < 1``.  Fixed check scores must also reproduce the waveforms in
``reference.npz`` within ``REF_TOL``.  A request that raises or fails a
check counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` sends every
score twice, once with the span wrappers of ``spans.py`` installed and once
without, and prints the per-layer metrics of the traced requests and the
tracing overhead against the untraced ones; the spans go to
``perfbench/out``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spans import Recorder, layer_metrics, percentile, time_per_name
from workloads import WORKLOADS, make_pool

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.npz"

MODEL_SEED = 7
HOP = 512
SAMPLE_RATE = 44100
POOL = 100  # requests generated per run; the loop cycles through them
MIN_MEASURED = 100  # so that p90 has 10 samples beyond it
WARMUP_S = 3.0  # unmeasured requests first, until BLAS threads and allocator settle
SETUP_REPEATS = 101  # loads of about 8 ms each; setup_s is their median
TRACED_SETUP_REPEATS = 5
# Largest |wav - reference| accepted: the seed's oracle tolerance between two
# evaluation orders of the same arithmetic (chunked vs full attention,
# streaming vs offline transposed conv, semi vs parallel).  On the seed the
# check scores reproduce bit for bit across BLAS thread counts and semi
# differs from parallel by 1.5e-8, while a chunk geometry off by one frame of
# lookahead moves samples by 5e-4 to 2e-3.  A 0.1% scaling of one decoder
# weight matrix moves them by 0.9e-5 to 1.5e-5, at the edge of this bound.
REF_TOL = 1e-5


def import_chunkvox():
    """Import chunkvox from this checkout's ``src``, or exit nonzero."""
    if not (SRC / "chunkvox" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no chunkvox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chunkvox

    if Path(chunkvox.__file__).resolve().parent != (SRC / "chunkvox").resolve():
        raise SystemExit(f"run.py: imported chunkvox from {chunkvox.__file__}, not {SRC}")
    return chunkvox


def _write_model(model_dir: str) -> None:
    import_chunkvox()
    from chunkvox import modelio

    cfg = modelio.default_config()
    modelio.save_config(os.path.join(model_dir, "model.json"), cfg)
    modelio.save_weights(
        os.path.join(model_dir, "model.cssw"), modelio.make_random_model(cfg, seed=MODEL_SEED)
    )


def write_model(model_dir: Path) -> None:
    """Write the benchmark model from a child process and wait for it."""
    model_dir.mkdir(parents=True, exist_ok=True)
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; run._write_model(sys.argv[2])"
    subprocess.run([sys.executable, "-c", code, str(HERE), str(model_dir)], check=True, timeout=120)


def load_bundle(modelio, model_dir: Path, chunk: dict):
    """``load_model`` plus chunk overrides applied the way the CLI applies them."""
    bundle = modelio.load_model(str(model_dir / "model.json"), str(model_dir / "model.cssw"))
    if chunk:
        cfg = replace(bundle.config, chunk=replace(bundle.config.chunk, **chunk))
        bundle = replace(bundle, config=cfg)
    return bundle


def check_wav(wav, frames: int) -> str | None:
    """Why an output is wrong, or None when it passes."""
    if not isinstance(wav, np.ndarray) or wav.shape != (frames * HOP,):
        return f"shape {getattr(wav, 'shape', None)}, want ({frames * HOP},)"
    if not np.all(np.isfinite(wav)):
        return "non-finite samples"
    peak = float(np.abs(wav).max())
    if peak >= 1.0:
        return f"max |x| = {peak} >= 1"
    return None


@dataclass
class Result:
    wall_s: float
    wav: np.ndarray | None
    first_audio_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.wav is not None


class Client:
    """Sends requests, checks every output and counts failures."""

    def __init__(self, pipeline, bundle, mode: str):
        self.pipeline, self.bundle, self.mode = pipeline, bundle, mode
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)
            print(f"request failed: {why}", file=sys.stderr)

    def send(self, score, eps_seed: int) -> Result:
        self.attempted += 1
        start = time.perf_counter()
        try:
            # Looked up on every call so that installed span wrappers apply.
            wav, m = self.pipeline.synth(score, self.bundle, mode=self.mode, eps_seed=eps_seed)
        except Exception:  # a failed request is counted; the run goes on
            self.fail(traceback.format_exc(limit=3))
            return Result(time.perf_counter() - start, None)
        wall = time.perf_counter() - start
        problem = check_wav(wav, score.total_frames)
        if problem:
            self.fail(problem)
            return Result(wall, None)
        # synth starts its clock after score_to_frames and the noise draw,
        # which a caller waits for too.
        first = wall - m.process_time_s + m.latency_s
        return Result(wall, wav, first)


def closed_loop(
    client: Client, pool, seconds: float, min_requests: int, on_request=None, step: int = 1
) -> list:
    """Send pool requests back to back for ``seconds`` and at least ``min_requests``.

    The loop stops only after a whole multiple of ``step`` requests.
    Returns one ``(frames, wall_s, first_audio_s, ok)`` row per request.
    """
    log = []
    start = time.perf_counter()
    while len(log) % step or len(log) < min_requests or time.perf_counter() - start < seconds:
        score, eps_seed = pool[len(log) % len(pool)]
        if on_request is not None:
            on_request(len(log))
        r = client.send(score, eps_seed)
        log.append((score.total_frames, r.wall_s, r.first_audio_s, r.ok))
    return log


def traced_turn(i: int) -> bool:
    """Whether request ``i`` of a traced run is traced.

    Requests come in pairs of the same score; the traced one goes second in
    even pairs and first in odd ones, so neither half always meets the score
    with warm caches.
    """
    return (i + i // 2) % 2 == 1


def throughput(log) -> tuple[float, float]:
    """Audio seconds of the logged requests, and per second they took."""
    audio = sum(frames * HOP / SAMPLE_RATE for frames, _, _, ok in log if ok)
    return audio, audio / sum(wall for _, wall, _, _ in log)


def check_references(client: Client, parse_score, name: str) -> float:
    """Synthesize the stored check score; return the max deviation."""
    with np.load(REFERENCE) as ref:
        text, eps_seed, want = str(ref[f"{name}.text"]), int(ref[f"{name}.eps_seed"]), ref[f"{name}.wav"]
    r = client.send(parse_score(text), eps_seed)
    if not r.ok:
        return float("inf")
    diff = float(np.abs(r.wav - want).max()) if r.wav.shape == want.shape else float("inf")
    if diff > REF_TOL:
        client.fail(f"reference {name}: max |wav - reference| = {diff:.3g} > {REF_TOL}")
    return diff


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads or "library default (no thread variable set)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "seed": seed,
    }


def end_to_end(log: list, setup: list[float], client: Client) -> dict:
    """The metrics ``BENCHMARK.json`` bounds.

    First audio is a mean, not a median: host contention comes in bursts that
    slow a third to two thirds of a run's requests by about 40%, so the
    median jumps between the two modes from run to run while the mean moves
    with the share of slow requests.  Over ten seeds on a 2-vCPU VM the
    quartile spread of the median reached 0.27, that of the mean 0.17.
    """
    first_ms = [first * 1000 for _, _, first, ok in log if ok]
    return {
        "first_audio_ms_mean": (statistics.fmean(first_ms), "ms"),
        "audio_s_per_s": (throughput(log)[1], "s/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - client.failed / client.attempted, "fraction"),
    }


def unbounded(log: list) -> dict:
    """Percentiles kept in the report beside the bounded metrics."""
    first_ms = [first * 1000 for _, _, first, ok in log if ok]
    wall_ms = [wall * 1000 for _, wall, _, ok in log if ok]
    return {
        "first_audio_ms_p50": percentile(first_ms, 0.5),
        "first_audio_ms_p90": percentile(first_ms, 0.9),
        "process_ms_p50": percentile(wall_ms, 0.5),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_chunkvox()
    from chunkvox import modelio, pipeline
    from chunkvox.acoustic import parse_score

    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    model_dir = OUT / f"model-{os.getpid()}"
    try:
        write_model(model_dir)
        setup = []
        for _ in range(SETUP_REPEATS):
            bundle = None  # one model alive at a time, as in a process that loads once
            start = time.perf_counter()
            bundle = load_bundle(modelio, model_dir, wl.chunk)
            setup.append(time.perf_counter() - start)
        pool = [(parse_score(r.text), r.eps_seed) for r in make_pool(name, seed, POOL)]
        client = Client(pipeline, bundle, wl.mode)
        ref_diff = check_references(client, parse_score, name)
        closed_loop(client, pool[::-1], WARMUP_S, 1)
        # The benchmark's own objects (pool, lists) stay out of the program's GC passes.
        gc.collect()
        gc.freeze()

        report = {
            "workload": name,
            "mode": wl.mode,
            "frames": list(wl.frames),
            "pitch_free_share": wl.pitch_free_share,
            "chunk": {
                k: getattr(bundle.config.chunk, k)
                for k in ("chunk_size", "left_context", "right_context")
            },
            "seconds": seconds,
            "trace": int(trace),
            "env": environment(seed),
            "reference_max_diff": ref_diff,
        }
        if not trace:
            log = closed_loop(client, pool, seconds, MIN_MEASURED)
            metrics = end_to_end(log, setup, client)
            correct = client.failed == 0
            report["measured_requests"] = len(log)
            report["unbounded"] = unbounded(log)
            report["requests"] = {"columns": ["frames", "wall_s", "first_audio_s", "ok"], "rows": log}
        else:
            rec = Recorder()
            try:
                rec.install()
                for _ in range(TRACED_SETUP_REPEATS):
                    load_bundle(modelio, model_dir, wl.chunk)

                def on_request(i: int) -> None:
                    rec.request = i
                    if traced_turn(i):
                        rec.install()
                    else:
                        rec.uninstall()

                # Each score twice in a row, once traced and once not, so both
                # halves cover the same scores and the same host contention.
                paired = [entry for entry in pool for _ in range(2)]
                log = closed_loop(client, paired, seconds, 2, on_request, step=2)
            finally:
                rec.uninstall()
            _, untraced = throughput([row for i, row in enumerate(log) if not traced_turn(i)])
            traced_audio, traced = throughput([row for i, row in enumerate(log) if traced_turn(i)])
            metrics = layer_metrics(
                rec, traced_audio, bundle.config.chunk.num_layers, HOP, SAMPLE_RATE
            )
            metrics["trace.overhead_frac"] = (1 - traced / untraced, "fraction")
            correct = client.failed == 0
            if rec.missing:
                print(f"wrap targets missing: {', '.join(rec.missing)}", file=sys.stderr)
            report.update(trace_report(rec, traced_audio, len(log) // 2, name, seed))
        report["errors"] = client.errors
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    return {
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": report["metrics"],
    }


def trace_report(rec: Recorder, audio_s: float, requests: int, name: str, seed: int) -> dict:
    """Coverage and self times to print beside the per-layer metrics."""
    spans_path = OUT / f"spans-{name}.tsv"
    rec.write(spans_path, f"workload={name} seed={seed} clock=perf_counter_ns")
    incl, own = time_per_name(rec, audio_s)
    return {
        "missing": rec.missing,
        "spans_file": str(spans_path.relative_to(HERE.parent)),
        "spans": len(rec.spans),
        "traced_requests": requests,
        "synth_ms_per_audio_s": incl["synth"],
        "unattributed_ms_per_audio_s": own["synth"],
        "unattributed_share": own["synth"] / incl["synth"] if incl["synth"] else None,
        "inclusive_ms_per_audio_s": incl,
        "self_ms_per_audio_s": own,
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False,
        )
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':32}" + "".join(f"{w:>16}" for w in results) + "  unit")
    for m in names:
        cells = [results[w]["metrics"].get(m) for w in results]
        unit = next(c["unit"] for c in cells if c)
        print(f"{m:32}" + "".join(f"{c['value']:>16.4f}" if c else f"{'missing':>16}" for c in cells) + f"  {unit}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# env {json.dumps(environment(args.seed))}")
    for k, m in result["metrics"].items():
        print(f"{args.workload:14} {k:32} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
