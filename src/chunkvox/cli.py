"""Command-line entry points.

Subcommands::

    chunkvox make-random-model --config c.json --out w.cssw [--seed N]
                               [--init-config]
    chunkvox synth  --config c.json --weights w.cssw --score s.tsv --out o.wav
                    [--mode full] [--seed N] [--metrics m.json]
                    [--chunk-size N] [--left-context N] [--right-context N]
    chunkvox bench  --config c.json --weights w.cssw --scores DIR
                    [--mode parallel,semi,full] [--repeats N] [--warmup N]
    chunkvox verify --config c.json --weights w.cssw [--checks a,b,...]

Successful runs exit 0 and print JSON on stdout where a report is natural.
Failures print ``{"error": {"type", "message"}}`` on stderr and exit 1.
``verify`` exits 0 even when checks fail; failing checks are report rows,
not crashes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import replace

from .acoustic import load_score
from .errors import ChunkvoxError, ConfigError
from .modelio import (
    default_config,
    load_config,
    load_model,
    make_random_model,
    save_config,
    save_weights,
)
from .pipeline import MODES, VERIFY_CHECKS, bench, synth, verify, write_wav


# ChunkConfig fields that synth can override, each by its own option.
_CHUNK_OVERRIDES = ("chunk_size", "left_context", "right_context")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chunkvox", description="Streaming singing synthesizer")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="model config JSON")
        p.add_argument("--weights", required=True, help="weight container file")

    p = sub.add_parser("make-random-model", help="write a randomly initialized model")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--out", required=True, help="weight container file to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--init-config",
        action="store_true",
        help="write the default config to --config instead of reading it",
    )

    p = sub.add_parser("synth", help="synthesize a waveform from a score")
    add_model_args(p)
    p.add_argument("--score", required=True, help="tab-separated score file")
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics", help="also write timing metrics JSON here")
    for name in _CHUNK_OVERRIDES:
        words = name.split("_")
        p.add_argument("--" + "-".join(words), type=int, help="override config " + " ".join(words))

    p = sub.add_parser("bench", help="compare decoding modes on a directory of scores")
    add_model_args(p)
    p.add_argument("--scores", required=True, help="directory containing score files")
    p.add_argument(
        "--mode",
        default=",".join(MODES),
        help="mode or comma-separated modes to measure (default: all)",
    )
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run runtime self-checks on a model file")
    add_model_args(p)
    p.add_argument(
        "--checks",
        default=",".join(VERIFY_CHECKS),
        help="comma-separated subset of: " + ", ".join(VERIFY_CHECKS),
    )
    return parser


def _load_with_overrides(args: argparse.Namespace):
    bundle = load_model(args.config, args.weights)
    overrides = {k: getattr(args, k) for k in _CHUNK_OVERRIDES if getattr(args, k) is not None}
    if overrides:
        cfg = replace(bundle.config, chunk=replace(bundle.config.chunk, **overrides))
        bundle = replace(bundle, config=cfg)
    return bundle


def _run(args: argparse.Namespace) -> int:
    if args.command == "make-random-model":
        if args.init_config:
            cfg = default_config()
            save_config(args.config, cfg)
        else:
            cfg = load_config(args.config)
        tensors = make_random_model(cfg, seed=args.seed)
        save_weights(args.out, tensors)
        print(json.dumps({"config": args.config, "weights": args.out, "tensors": len(tensors)}))
        return 0

    if args.command == "synth":
        bundle = _load_with_overrides(args)
        score = load_score(args.score)
        wav, metrics = synth(score, bundle, mode=args.mode, eps_seed=args.seed)
        write_wav(wav, bundle.config.mel.sample_rate, args.out)
        if args.metrics:
            with open(args.metrics, "w", encoding="utf-8") as f:
                json.dump(metrics.to_dict(), f, indent=2)
                f.write("\n")
        print(json.dumps({"out": args.out, **metrics.to_dict()}))
        return 0

    if args.command == "bench":
        bundle = load_model(args.config, args.weights)
        paths = sorted(
            p for p in pathlib.Path(args.scores).iterdir() if p.is_file()
        )
        if not paths:
            raise ConfigError(f"no score files in {args.scores}")
        scores = [load_score(str(p)) for p in paths]
        modes = tuple(m for m in args.mode.split(",") if m)
        report = bench(
            scores, bundle, modes=modes, repeats=args.repeats, warmup=args.warmup, seed=args.seed
        )
        report["score_files"] = [p.name for p in paths]
        print(json.dumps(report, indent=2))
        return 0

    if args.command == "verify":
        bundle = load_model(args.config, args.weights, posterior=True)
        checks = tuple(c for c in args.checks.split(",") if c)
        report = verify(bundle, checks)
        print(json.dumps({"checks": report}, indent=2))
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ChunkvoxError as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(
            json.dumps({"error": {"type": "OSError", "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
