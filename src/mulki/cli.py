"""Command-line interface.

    mulki generate --config cfg.json --out stream.json
    mulki pretrain --config cfg.json --stream stream.json --out c0.ckpt
    mulki run      --config cfg.json --stream stream.json --c0 c0.ckpt --out runs/exp
    mulki ablate   --config cfg.json --stream stream.json --c0 c0.ckpt --out runs/ablation
    mulki report   runs/exp/seed_00 runs/exp/seed_01 --out table.csv

Configuration comes from the JSON file plus MULKI_-prefixed environment
overrides (see config module). Exit code 0 on success, 2 on any
configuration, format, or contract error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import metrics
from .config import VARIANTS, ExperimentConfig, apply_variant, load_config
from .encoder import load_checkpoint, save_checkpoint, snapshot
from .errors import ConfigError, MulkiError
from .jsonutil import format_float, write_canonical
from .runner import evaluate_row, pretrain, run_stream, save_run_record
from .taskgen import generate_stream, load_stream, save_stream


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seeds", None):
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            seeds = []
        if not seeds or min(seeds) < 0:
            raise ConfigError(f"--seeds must be a comma-separated list of non-negative integers, got {args.seeds!r}")
        cfg.seeds = seeds
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> str:
    out = args.out or cfg.out_dir
    if not out:
        raise ConfigError("no output location: pass --out or set out_dir in the config")
    return out


def cmd_generate(args) -> int:
    cfg = _load_experiment(args)
    stream = generate_stream(cfg.stream)
    save_stream(stream, args.out)
    print(f"wrote stream with {stream.n_tasks} tasks to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_experiment(args)
    stream = load_stream(args.stream)
    seed = cfg.seeds[0]
    c0 = pretrain(stream, cfg.hyper, seed, cfg.model)
    save_checkpoint(c0, args.out)
    zero_shot = evaluate_row(c0, stream, 0)
    write_canonical({"zero_shot_row": [float(v) for v in zero_shot]}, args.out + ".zeroshot.json")
    print(f"wrote initial checkpoint to {args.out} (seed {seed}, zero-shot row {np.round(zero_shot, 3).tolist()})")
    return 0


def cmd_run(args) -> int:
    cfg = _load_experiment(args)
    cfg.variant = args.variant or cfg.variant
    hyper = apply_variant(cfg.hyper, cfg.variant)
    stream = load_stream(args.stream)
    c0 = snapshot(load_checkpoint(args.c0))
    out_root = _out_dir(args, cfg)
    echo = cfg.echo()
    for seed in cfg.seeds:
        record = run_stream(stream, hyper, seed, c0, config_echo=echo)
        run_dir = os.path.join(out_root, f"seed_{seed:02d}")
        save_run_record(record, run_dir)
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.4f}" for k, v in metrics.summaries(record.matrix).items()))
    print(f"wrote {len(cfg.seeds)} run(s) under {out_root}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_experiment(args)
    names = [v for v in args.variant.split(",") if v] if args.variant else list(VARIANTS)
    arms = [(name, apply_variant(cfg.hyper, name)) for name in names]  # every name checked before any run
    stream = load_stream(args.stream)
    c0 = snapshot(load_checkpoint(args.c0))
    out_root = _out_dir(args, cfg)

    echo = cfg.echo()
    table: dict[str, dict] = {}
    for name, hyper in arms:
        per_seed = {metric: [] for metric in metrics.SUMMARIES}
        for seed in cfg.seeds:
            record = run_stream(stream, hyper, seed, c0, config_echo=echo)
            save_run_record(record, os.path.join(out_root, name, f"seed_{seed:02d}"))
            for metric, value in metrics.summaries(record.matrix).items():
                per_seed[metric].append(value)
        table[name] = {
            metric: {
                "mean": float(np.mean(values)),
                "std": float(np.std(values)),
                "seeds": [float(v) for v in values],
            }
            for metric, values in per_seed.items()
        }
        means = ", ".join(f"{metric}={table[name][metric]['mean']:.4f}" for metric in metrics.SUMMARIES)
        print(f"{name}: {means}")

    write_canonical({"seeds": list(cfg.seeds), "variants": table}, os.path.join(out_root, "ablation.json"))
    header = ["variant"]
    for metric in metrics.SUMMARIES:
        header.extend([f"{metric}_mean", f"{metric}_std"])
    lines = [",".join(header)]
    for name in names:
        row = [name]
        for metric in metrics.SUMMARIES:
            row.append(format_float(table[name][metric]["mean"]))
            row.append(format_float(table[name][metric]["std"]))
        lines.append(",".join(row))
    with open(os.path.join(out_root, "ablation.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote ablation summary under {out_root}")
    return 0


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def cmd_report(args) -> int:
    rows = []
    series = []
    for run_dir in args.run_dirs:
        path = os.path.join(run_dir, "metrics.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"no metrics.json under {run_dir}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}")
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        missing = [name for name in (*metrics.SUMMARIES, "matrix") if name not in doc]
        if missing:
            raise ConfigError(f"{path}: missing key {missing[0]!r}")
        for name in metrics.SUMMARIES:
            if not _is_number(doc[name]):
                raise ConfigError(f"{path}: key {name!r} must be a number, got {doc[name]!r}")
        matrix = doc["matrix"]
        if not isinstance(matrix, list) or not all(isinstance(row, list) and all(map(_is_number, row)) for row in matrix):
            raise ConfigError(f"{path}: key 'matrix' must be a list of number lists")
        rows.append((run_dir, [doc[name] for name in metrics.SUMMARIES]))
        for i, matrix_row in enumerate(matrix):
            for j, value in enumerate(matrix_row, start=1):
                series.append((run_dir, i, j, value))

    lines = [",".join(["run", *metrics.SUMMARIES])]
    for run_dir, values in rows:
        lines.append(",".join([run_dir, *(format_float(float(v)) for v in values)]))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote report for {len(rows)} run(s) to {args.out}")

    if args.series:
        lines = ["run,after_task,task,accuracy"]
        for run_dir, i, j, value in series:
            lines.append(f"{run_dir},{i},{j},{format_float(float(value))}")
        with open(args.series, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote accuracy series to {args.series}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mulki", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic task stream")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", required=True, help="stream JSON path to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="contrastively pretrain the initial model")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--stream", required=True, help="stream JSON path")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--seeds", help="comma-separated seed list (first one is used)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("run", help="run the continual-learning stream")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--stream", required=True, help="stream JSON path")
    p.add_argument("--c0", required=True, help="initial model checkpoint")
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--variant", help="ablation arm to run (default: config variant)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run the ablation grid")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--stream", required=True, help="stream JSON path")
    p.add_argument("--c0", required=True, help="initial model checkpoint")
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--variant", help="comma-separated subset of variants (default: all)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="merge finished runs into one table")
    p.add_argument("run_dirs", nargs="+", help="run directories containing metrics.json")
    p.add_argument("--out", required=True, help="merged CSV path")
    p.add_argument("--series", help="also write per-task accuracy-over-time CSV here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MulkiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
