"""Output checks and artifact digests for one workload repetition.

A run directory passes when its metrics are finite and in [0, 1], its
loss log has one row per training iteration, and every task checkpoint
survives a load/save round trip byte for byte. The digest covers
`metrics.json` and the checkpoints, the artifacts a run must reproduce
exactly from its inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os


def _numbers(doc: dict) -> list:
    values = [doc["transfer"], doc["avg"], doc["last"], doc["current_avg"]]
    values.extend(doc["zero_shot_row"])
    for row in doc["matrix"]:
        values.extend(row)
    return values


def check_run_dir(run_dir: str, n_tasks: int, iterations_per_task: int, roundtrip_dir: str) -> tuple[list, str, dict]:
    """(problems, digest, metrics.json contents) for one seed's output directory."""
    from mulki.encoder import load_checkpoint, save_checkpoint

    problems = []
    digest = hashlib.sha256()
    doc: dict = {}
    metrics_path = os.path.join(run_dir, "metrics.json")
    try:
        with open(metrics_path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
        values = _numbers(doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{metrics_path}: unreadable ({exc})"], "", {}
    digest.update(b"metrics.json\0" + raw)
    bad = [v for v in values if not isinstance(v, (int, float)) or not math.isfinite(v) or not 0.0 <= v <= 1.0]
    if bad:
        problems.append(f"{metrics_path}: {len(bad)} value(s) not finite or outside [0, 1]")
    if len(doc["matrix"]) != n_tasks + 1:
        problems.append(f"{metrics_path}: {len(doc['matrix'])} matrix rows, expected {n_tasks + 1}")

    losses_path = os.path.join(run_dir, "losses.csv")
    try:
        with open(losses_path, "r", encoding="utf-8") as fh:
            rows = sum(1 for line in fh if line.strip()) - 1
    except OSError as exc:
        problems.append(f"{losses_path}: unreadable ({exc})")
    else:
        if rows != n_tasks * iterations_per_task:
            problems.append(f"{losses_path}: {rows} rows, expected {n_tasks * iterations_per_task}")

    for i in range(1, n_tasks + 1):
        name = f"task_{i:02d}.ckpt"
        path = os.path.join(run_dir, name)
        copy = os.path.join(roundtrip_dir, name)
        try:
            with open(path, "rb") as fh:
                original = fh.read()
            save_checkpoint(load_checkpoint(path), copy)
            with open(copy, "rb") as fh:
                again = fh.read()
            os.remove(copy)
        except Exception as exc:  # any loader failure is a failed check, reported by name
            problems.append(f"{path}: round trip failed ({type(exc).__name__}: {exc})")
            continue
        if again != original:
            problems.append(f"{path}: load/save round trip changed the bytes")
        digest.update(name.encode() + b"\0" + original)
    return problems, digest.hexdigest(), doc


def tree_bytes(root: str) -> int:
    total = 0
    for base, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def combined_digest(parts: list) -> str:
    """Digest of (label, digest) pairs, in order."""
    h = hashlib.sha256()
    for label, digest in parts:
        h.update(f"{label}={digest}\n".encode())
    return h.hexdigest()
