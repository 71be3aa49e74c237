"""Command-line interface.

    mulki generate --config cfg.json --out stream.bin
    mulki pretrain --config cfg.json --stream stream.bin --out c0.ckpt
    mulki run      --config cfg.json --stream stream.bin --c0 c0.ckpt --out runs/exp
    mulki ablate   --config cfg.json --stream stream.bin --c0 c0.ckpt --out runs/ablation
    mulki report   runs/exp/seed_00 runs/exp/seed_01 --out table.csv

Configuration comes from the JSON file plus MULKI_-prefixed environment
overrides (see config module). Exit code 0 on success, 2 on any
configuration, format, or contract error, and on any path that cannot be
read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import metrics
from .config import VARIANTS, ExperimentConfig, apply_env_overrides, apply_variant, check_seeds, config_from_dict, load_config
from .encoder import load_checkpoint, save_checkpoint, snapshot
from .errors import ConfigError, MulkiError, TrainingDivergedError
from .jsonutil import format_float, is_number, write_canonical, write_lines
from .runner import evaluate_row, pretrain, run_arms, save_run_record, stacks
from .taskgen import generate_stream, load_stream, save_stream


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else config_from_dict(apply_env_overrides({}))
    if getattr(args, "seeds", None):
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s]
        except ValueError:
            raise ConfigError(f"--seeds must be a comma-separated list of integers, got {args.seeds!r}") from None
        cfg.seeds = check_seeds(seeds, "--seeds")
    if args.command != "generate":
        cfg.check_run_bytes()
    return cfg


def _out_dir(args, cfg: ExperimentConfig) -> str:
    out = args.out or cfg.out_dir
    if not out:
        raise ConfigError("no output location: pass --out or set out_dir in the config")
    return out


def _stream_and_c0(args, cfg: ExperimentConfig):
    """Load `--stream` and `--c0`; exit 2 unless c0's dims match the config's model section and the stream."""
    stream = load_stream(args.stream)
    c0 = snapshot(load_checkpoint(args.c0))
    wanted = [(f"model.{name}", name, getattr(cfg.model, name)) for name in ("d_tok", "hidden", "embed_dim")]
    wanted += [("the stream's d_in", "d_in", stream.d_in), ("the stream's vocabulary", "vocab_size", stream.vocab_size)]
    for key, dim, value in wanted:
        if c0.dims[dim] != value:
            raise ConfigError(f"{key} is {value}, but c0 {args.c0} has {dim} {c0.dims[dim]}")
    return stream, c0


def _run_arms(stream, hypers: list, seeds: list, c0, echo: dict, out_dirs: list) -> tuple[list, TrainingDivergedError | None]:
    """Train every arm's `seeds` from `c0` (`runner.run_arms`), save arm a's runs under out_dirs[a]/seed_NN:
    (per arm, the summaries of its saved runs in seed order; the divergence, after which the last arm's list is partial, or None)."""
    try:
        arms, error = run_arms(stream, hypers, seeds, [c0] * len(seeds), config_echo=echo), None
    except TrainingDivergedError as err:
        arms, error = err.records, err
    for out_dir, records in zip(out_dirs, arms):
        for record in records:
            save_run_record(record, os.path.join(out_dir, f"seed_{record.seed:02d}"))
    return [[metrics.summaries(record.matrix) for record in records] for records in arms], error


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
    stream, c0 = _stream_and_c0(args, cfg)
    out_root = _out_dir(args, cfg)
    (runs,), error = _run_arms(stream, [hyper], cfg.seeds, c0, cfg.echo(), [out_root])
    for seed, summaries in zip(cfg.seeds, runs):
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.4f}" for k, v in summaries.items()))
    if error is not None:
        raise error
    print(f"wrote {len(cfg.seeds)} run(s) under {out_root}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_experiment(args)
    names = [v for v in args.variant.split(",") if v] if args.variant else list(VARIANTS)
    if len(set(names)) < len(names):
        raise ConfigError(f"--variant must not repeat an arm, got {args.variant!r}")
    hypers = [apply_variant(cfg.hyper, name) for name in names]  # every name checked before any run
    cfg.check_run_bytes(max(map(len, stacks(hypers)), default=1))
    stream, c0 = _stream_and_c0(args, cfg)
    out_root = _out_dir(args, cfg)

    runs, error = _run_arms(stream, hypers, cfg.seeds, c0, cfg.echo(), [os.path.join(out_root, name) for name in names])
    table: dict[str, dict] = {}
    for name, arm_runs in zip(names, runs if error is None else runs[:-1]):
        table[name] = {}
        for metric in metrics.SUMMARIES:
            values = [float(summaries[metric]) for summaries in arm_runs]
            table[name][metric] = {"mean": float(np.mean(values)), "std": float(np.std(values)), "seeds": values}
        means = ", ".join(f"{metric}={table[name][metric]['mean']:.4f}" for metric in metrics.SUMMARIES)
        print(f"{name}: {means}")
    if error is not None:
        raise error

    write_canonical({"seeds": list(cfg.seeds), "variants": table}, os.path.join(out_root, "ablation.json"))
    columns = [(metric, stat) for metric in metrics.SUMMARIES for stat in ("mean", "std")]
    lines = [",".join(["variant", *(f"{metric}_{stat}" for metric, stat in columns)])]
    lines += [",".join([name, *(format_float(table[name][metric][stat]) for metric, stat in columns)]) for name in names]
    write_lines(lines, os.path.join(out_root, "ablation.csv"))
    print(f"wrote ablation summary under {out_root}")
    return 0


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
        except ValueError as exc:  # not UTF-8, or an integer too long to parse
            raise ConfigError(f"{path}: unreadable JSON ({exc})")
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        missing = [name for name in (*metrics.SUMMARIES, "matrix") if name not in doc]
        if missing:
            raise ConfigError(f"{path}: missing key {missing[0]!r}")
        for name in metrics.SUMMARIES:
            if not is_number(doc[name]):
                raise ConfigError(f"{path}: key {name!r} must be a finite number, got {doc[name]!r}")
        matrix = doc["matrix"]
        if not (
            isinstance(matrix, list)
            and matrix
            and all(isinstance(row, list) and row and len(row) == len(matrix[0]) and all(map(is_number, row)) for row in matrix)
        ):
            raise ConfigError(f"{path}: key 'matrix' must be a non-empty list of equally long, non-empty lists of finite numbers")
        try:
            expected = metrics.summaries(matrix)
        except MulkiError as exc:
            raise ConfigError(f"{path}: key 'matrix': {exc}") from None
        for name, value in expected.items():
            if doc[name] != value:
                raise ConfigError(f"{path}: key {name!r} is {doc[name]!r}, but the matrix gives {value!r}")
        rows.append((run_dir, [doc[name] for name in metrics.SUMMARIES]))
        for i, matrix_row in enumerate(matrix):
            for j, value in enumerate(matrix_row, start=1):
                series.append((run_dir, i, j, value))

    lines = [",".join(["run", *metrics.SUMMARIES])]
    for run_dir, values in rows:
        lines.append(",".join([run_dir, *(format_float(float(v)) for v in values)]))
    write_lines(lines, args.out)
    print(f"wrote report for {len(rows)} run(s) to {args.out}")

    if args.series:
        lines = ["run,after_task,task,accuracy"]
        for run_dir, i, j, value in series:
            lines.append(f"{run_dir},{i},{j},{format_float(float(value))}")
        write_lines(lines, args.series)
        print(f"wrote accuracy series to {args.series}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mulki", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic task stream")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--out", required=True, help="stream file to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pretrain", help="contrastively pretrain the initial model")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--stream", required=True, help="stream file")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--seeds", help="comma-separated seed list (first one is used)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("run", help="run the continual-learning stream")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--stream", required=True, help="stream file")
    p.add_argument("--c0", required=True, help="initial model checkpoint")
    p.add_argument("--out", help="output directory (default: config out_dir)")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--variant", help="ablation arm to run (default: config variant)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run the ablation grid")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--stream", required=True, help="stream file")
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
    except (MulkiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
