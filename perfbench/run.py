"""Outside-in benchmark for mulki.

    python3 perfbench/run.py --workload full_seed --seed 0 --seconds 10 --trace 0

Run from the root of a mulki checkout. For the given seed it derives a
stream seed and run seeds from configs/default.json, then:

1. warms imports and BLAS with the smoke config (untimed);
2. runs the package's own `generate` + `pretrain` stages SETUP_REPS times
   through `mulki.cli.main` in this process (`setup_s` is their median);
3. starts perfbench/worker.py, which repeats the workload's `run` or
   `ablate` command through `mulki.cli.main` until it has made MIN_REPS
   repetitions and spent --seconds seconds (`wall_s` is their median);
4. checks every repetition's outputs and that they are byte-identical;
5. prints a readable report, then one JSON line: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer metrics of one more
   traced set-up and one more traced repetition.

Work files go to .perfbench_work/<workload>/ under the checkout, cleared at
the start of each run. perfbench/NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from common import call_cli, machine_info, source_digest, source_lines, warm_up

SETUP_REPS = 5
MIN_REPS = 2
ABLATION_ITERATIONS = 50  # cut from 300 so one grid repetition lasts about as long as full_seed
TIME_LIMIT_S = 170.0

# The five arms of the acceptance grid (criteria 4-6).
GRID_VARIANTS = ("full", "continual_ft", "only_c0", "only_prev", "average")

# name -> (CLI command, variants, number of run seeds)
WORKLOADS = {
    "full_seed": ("run", ("full",), 1),
    "finetune_seeds": ("run", ("continual_ft",), 3),
    "ablation_grid": ("ablate", GRID_VARIANTS, 2),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_iters_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("transfer", "fraction"),
    ("last", "fraction"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Operations:
    """Attempted operations (CLI stages, seed runs, self-checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems


def _setup(ops: Operations, config: str, out_dir: str, tracer=None):
    """generate + pretrain into out_dir: (wall seconds, (stream, c0)) or None on failure."""
    os.makedirs(out_dir, exist_ok=True)
    stream = os.path.join(out_dir, "stream.json")
    c0 = os.path.join(out_dir, "c0.ckpt")
    wall = 0.0
    for argv in (
        ["generate", "--config", config, "--out", stream],
        ["pretrain", "--config", config, "--stream", stream, "--out", c0],
    ):
        seconds, code, log = call_cli(argv, tracer)
        wall += seconds
        if not ops.record(f"{argv[0]} in {out_dir}", [f"exit code {code}: {log[-2000:]}"] if code else []):
            return None
    return wall, (stream, c0)


def _run_dirs(workload: str, seeds: list) -> list:
    command, variants, _ = WORKLOADS[workload]
    if command == "run":
        return [f"seed_{s:02d}" for s in seeds]
    return [f"{v}/seed_{s:02d}" for v in variants for s in seeds]


def _check_rep(ops, label, rep, workload, seeds, hyper, n_tasks, roundtrip_dir, reference) -> dict:
    """Check one repetition's outputs; returns {run dir: metrics.json} of the runs that wrote one."""
    from checks import check_run_dir

    if not ops.record(f"{label} command", [f"exit code {rep['code']}: {rep['log'][-2000:]}"] if rep["code"] else []):
        return {}
    docs = {}
    for run_dir in _run_dirs(workload, seeds):
        problems, digest, doc = check_run_dir(
            os.path.join(rep["out"], run_dir), n_tasks, hyper["iterations_per_task"], roundtrip_dir
        )
        if digest and reference.setdefault(run_dir, digest) != digest:
            problems.append("metrics.json/checkpoints differ from the first repetition")
        ops.record(f"{label} {run_dir}", problems)
        if doc:
            docs[run_dir] = doc
    if WORKLOADS[workload][0] == "ablate":
        problems = []
        try:
            with open(os.path.join(rep["out"], "ablation.json"), "r", encoding="utf-8") as fh:
                arms = set(json.load(fh)["variants"])
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"ablation.json unreadable ({exc})")
        else:
            if arms != set(GRID_VARIANTS):
                problems.append(f"ablation.json lists {sorted(arms)}")
        if not os.path.isfile(os.path.join(rep["out"], "ablation.csv")):
            problems.append("ablation.csv missing")
        ops.record(f"{label} ablation summary", problems)
    return docs


def _report(machine, lines, ops, metrics, notes) -> None:
    print("# machine: " + json.dumps(machine, sort_keys=True))
    for line in lines + notes:
        print("# " + line)
    for failure in ops.failures:
        print("# FAILED " + failure.replace("\n", "\n#   "))
    width = max((len(name) for name in metrics), default=0)
    for name, entry in metrics.items():
        print(f"# {name:<{width}}  {entry['value']:>14.6g}  {entry['unit']}")
    result = {
        "correct": not ops.failures,
        "attempted": max(ops.attempted, 1),
        "failed": len(ops.failures),
        # A broken program can write NaN; leave such a value out so the line stays JSON.
        "metrics": {name: entry for name, entry in metrics.items() if math.isfinite(entry["value"])},
    }
    print(json.dumps(result, separators=(",", ":")))


def _workload_config(default_config: str, workload: str, seed: int) -> dict:
    _, _, n_seeds = WORKLOADS[workload]
    with open(default_config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    config["stream"]["seed"] = seed
    config["seeds"] = [seed + i for i in range(n_seeds)]
    config["out_dir"] = None
    if workload == "ablation_grid":
        config["hyper"]["iterations_per_task"] = ABLATION_ITERATIONS
    return config


def _measure_setup(ops, config_path, work, reps, trace):
    """`reps` timed set-ups, then one traced set-up if `trace`.

    Returns (timed walls, (stream, c0) or None, inputs digest, traced stats or None).
    """
    from tracer import Tracer

    walls, inputs, inputs_digest, stats = [], None, None, None
    for rep in range(reps + trace):
        tracer = Tracer() if rep == reps else None
        if tracer is not None:
            tracer.install()
        try:
            done = _setup(ops, config_path, os.path.join(work, f"setup_{rep}"), tracer)
        finally:
            if tracer is not None:
                leaked = tracer.restore()
                ops.record("set-up trace restore", [f"not restored: {leaked}"] if leaked else [])
                tracer.dump(os.path.join(work, "spans_setup.json"))
                stats = tracer.stats()
        if done is None:
            continue
        digest = _file_digest(*done[1])
        if inputs is None:
            inputs, inputs_digest = done[1], digest
        ops.record(f"set-up {rep} determinism", [] if digest == inputs_digest else ["stream/c0 differ from the first"])
        if tracer is None:
            walls.append(done[0])
    return walls, inputs, inputs_digest, stats


def _run_worker(ops, spec: dict, work: str, budget: float):
    """Run worker.py on `spec`; its result dict, or None if it failed."""
    spec_path, result_path = os.path.join(work, "worker_spec.json"), os.path.join(work, "worker_result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    try:
        proc = subprocess.run(
            [sys.executable, worker, spec_path, result_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=budget, check=False,
        )
        problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stdout[-2000:]!r}"]
    except subprocess.TimeoutExpired:
        problems = [f"worker exceeded {budget:.0f} s and was stopped"]
    if not ops.record("workload worker", problems):
        return None
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    default_config = os.path.join(root, "configs", "default.json")
    if not os.path.isfile(os.path.join(src, "mulki", "cli.py")) or not os.path.isfile(default_config):
        print(f"error: {root} is not a mulki checkout (no src/mulki/cli.py or configs/default.json)", file=sys.stderr)
        return 2

    # A MULKI_* variable would silently change the workload through config overrides;
    # the worker inherits the cleaned environment.
    for name in [k for k in os.environ if k.startswith("MULKI_")]:
        del os.environ[name]
    sys.path.insert(0, src)
    import layers
    from checks import combined_digest, tree_bytes

    work = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = _workload_config(default_config, args.workload, args.seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    command, variants, _ = WORKLOADS[args.workload]
    seeds, hyper, n_tasks = config["seeds"], config["hyper"], config["stream"]["n_tasks"]
    iterations = hyper["iterations_per_task"] * n_tasks * len(seeds) * len(variants)

    machine = machine_info()
    ops = Operations()
    lines = [f"workload={args.workload} seed={args.seed} run seeds={seeds} trace={args.trace}"]
    if not ops.record("warm-up", warm_up(root, os.path.join(work, "warm"))):
        _report(machine, lines, ops, {}, [])
        return 0

    # A traced run needs one untraced set-up and repetition to compare against;
    # the timed end-to-end run repeats both for steadier medians.
    setup_walls, inputs, inputs_digest, setup_stats = _measure_setup(
        ops, config_path, work, 1 if args.trace else SETUP_REPS, args.trace
    )
    if inputs is None:
        _report(machine, lines, ops, {}, [])
        return 0
    stream, c0 = inputs
    spec = {
        "root": root,
        "src": src,
        "work_dir": work,
        "argv": [command, "--config", config_path, "--stream", stream, "--c0", c0, "--variant", ",".join(variants)],
        "min_reps": 1 if args.trace else MIN_REPS,
        "seconds": 0 if args.trace else args.seconds,
        "trace": bool(args.trace),
    }
    result = _run_worker(ops, spec, work, max(10.0, TIME_LIMIT_S - (time.perf_counter() - started)))
    if result is None:
        _report(machine, lines, ops, {}, [])
        return 0

    roundtrip_dir = os.path.join(work, "roundtrip")
    os.makedirs(roundtrip_dir)
    reference: dict = {}
    reps = result["reps"]
    docs = {}
    for i, rep in enumerate(reps):
        checked = _check_rep(ops, f"rep {i}", rep, args.workload, seeds, hyper, n_tasks, roundtrip_dir, reference)
        docs = docs or checked
    walls = [rep["wall_s"] for rep in reps if rep["code"] == 0]
    lines.append(f"set-up walls s={[round(w, 4) for w in setup_walls]} workload walls s={[round(w, 4) for w in walls]}")
    if not walls:
        _report(machine, lines, ops, {}, [])
        return 0
    lines.append(f"inputs digest (stream.json + c0.ckpt): {inputs_digest}")
    lines.append(f"artifact digest {args.workload} seed={args.seed}: {combined_digest(sorted(reference.items()))}")
    notes: list = []

    if not args.trace:
        def mean_of(key):
            return statistics.fmean(doc[key] for doc in docs.values()) if docs else 0.0

        values = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.median(walls),
            "train_iters_per_s": statistics.median(iterations / w for w in walls),
            "peak_rss_mb": result["peak_rss_mb"],
            "transfer": mean_of("transfer"),
            "last": mean_of("last"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        ratio = len(ops.failures) / max(ops.attempted, 1)
        lines.append(f"fail_ratio = {len(ops.failures)}/{max(ops.attempted, 1)} = {ratio:.6g} ratio")
        _report(machine, lines, ops, metrics, notes)
        return 0

    traced = result["traced"]
    metrics = {}
    if traced is None:
        ops.record("traced rep", ["no traced repetition was made"])
    else:
        _check_rep(ops, "traced rep", traced, args.workload, seeds, hyper, n_tasks, roundtrip_dir, reference)
        ops.record("workload trace restore", [f"not restored: {traced['leaked']}"] if traced["leaked"] else [])
        exact = source_digest(src) == layers.RECORDED_SOURCE
        failures, notes = layers.self_check(args.workload, traced["stats"], iterations, exact)
        ops.record("trace self-check", failures)
        extra = {
            "stream_bytes": os.path.getsize(stream),
            "pretrain_iterations": hyper["pretrain_iterations"],
            "artifact_bytes": tree_bytes(reps[0]["out"]),
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": statistics.median(walls),
            "src_lines": source_lines(src),
        }
        values = layers.per_layer(setup_stats, traced["stats"], iterations, extra)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.METRICS}
    _report(machine, lines, ops, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
