"""Golden sha256 hashes of the smoke pipeline's artifacts.

`generate`, `pretrain` and `run --seeds 0` on configs/smoke.json must
reproduce the recorded bytes of metrics.json, losses.csv and every
task checkpoint. Float results depend on the numpy/BLAS stack, so the
test skips (and says why) on a stack other than the one the hashes were
recorded on.

Re-record, only when a change is meant to move the bytes:

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
SMOKE = ROOT / "configs" / "smoke.json"
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


def smoke_hashes(work: Path) -> dict:
    """Run the smoke pipeline under `work`; sha256 of each artifact by name."""
    stream, c0, out = work / "stream.json", work / "c0.ckpt", work / "run"
    base = ["--config", str(SMOKE)]
    assert main(["generate", *base, "--out", str(stream)]) == 0
    assert main(["pretrain", *base, "--stream", str(stream), "--out", str(c0)]) == 0
    assert main(["run", *base, "--stream", str(stream), "--c0", str(c0), "--out", str(out), "--seeds", "0"]) == 0
    run_dir = out / "seed_00"
    names = ["metrics.json", "losses.csv", *sorted(p.name for p in run_dir.glob("task_*.ckpt"))]
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


def test_smoke_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    stack = numeric_stack()
    if stack != golden["stack"]:
        pytest.skip(f"golden hashes were recorded on {golden['stack']}, this is {stack}")
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            monkeypatch.delenv(name)
    assert smoke_hashes(tmp_path) == golden["smoke"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        doc = {"stack": numeric_stack(), "smoke": smoke_hashes(Path(work))}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
