"""Golden sha256 hashes of the pipeline's artifacts on the shipped configs.

`generate`, `pretrain` and `run --seeds 0 --variant full` on
configs/smoke.json and on configs/default.json must reproduce the
recorded bytes of the framed stream file (saved as stream.json, the name
the hashes are keyed by), c0.ckpt, metrics.json, losses.csv and every task
checkpoint.
Float results depend on the numpy/BLAS stack, so the tests skip (and say
why) on a stack other than the one the hashes were recorded on.

Re-record both entries, only when a change is meant to move the bytes:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from mulki.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {"smoke": ROOT / "configs" / "smoke.json", "default": ROOT / "configs" / "default.json"}
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def numeric_stack() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
    }


def pipeline_hashes(config: Path, work: Path) -> dict:
    """Run the pipeline on `config` under `work`; sha256 of each artifact by name."""
    stream, c0, out = work / "stream.json", work / "c0.ckpt", work / "run"
    base = ["--config", str(config)]
    assert main(["generate", *base, "--out", str(stream)]) == 0
    assert main(["pretrain", *base, "--stream", str(stream), "--out", str(c0)]) == 0
    assert main([
        "run", *base, "--stream", str(stream), "--c0", str(c0), "--out", str(out), "--seeds", "0", "--variant", "full",
    ]) == 0
    run_dir = out / "seed_00"
    paths = [stream, c0, run_dir / "metrics.json", run_dir / "losses.csv", *sorted(run_dir.glob("task_*.ckpt"))]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def check_golden(entry: str, work: Path, monkeypatch) -> None:
    golden = json.loads(GOLDEN.read_text())
    stack = numeric_stack()
    if stack != golden["stack"]:
        pytest.skip(f"golden hashes were recorded on {golden['stack']}, this is {stack}")
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            monkeypatch.delenv(name)
    assert pipeline_hashes(CONFIGS[entry], work) == golden[entry]


def test_smoke_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    check_golden("smoke", tmp_path, monkeypatch)


def test_default_seed0_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    check_golden("default", tmp_path, monkeypatch)


if __name__ == "__main__":
    import tempfile

    doc = {"stack": numeric_stack()}
    for entry, config in CONFIGS.items():
        with tempfile.TemporaryDirectory() as work:
            doc[entry] = pipeline_hashes(config, Path(work))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
