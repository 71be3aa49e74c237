"""Golden sha256 hashes of the pipeline's artifacts on the shipped configs.

`generate`, `pretrain` and `run --seeds 0 --variant full` on
configs/smoke.json and on configs/default.json must reproduce the
recorded bytes of the framed stream file (saved as stream.json, the name
the hashes are keyed by), c0.ckpt, metrics.json, losses.csv and every task
checkpoint. The `arms` entry pins the other arms on the smoke config:
`ablate --seeds 0 --variant continual_ft,only_c0,only_prev,average`, with
metrics.json, losses.csv and every task checkpoint keyed "<arm>/<file>".
The `ewe` entry is the smoke pipeline with `hyper.ensemble` "ewe" and
`ewe_eta` 2, so the ensemble overwrites the live parameters at iterations
20 and 40 of each task; no arm runs that mode.
Float results depend on the numpy/BLAS stack, so the tests skip (and say
why) on a stack other than the one the hashes were recorded on.

Re-record every entry, only when a change is meant to move the bytes:

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
ARMS = ("continual_ft", "only_c0", "only_prev", "average")


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_artifacts(run_dir: Path) -> list:
    return [run_dir / "metrics.json", run_dir / "losses.csv", *sorted(run_dir.glob("task_*.ckpt"))]


def _stream_and_c0(config: Path, work: Path) -> tuple:
    stream, c0 = work / "stream.json", work / "c0.ckpt"
    base = ["--config", str(config)]
    assert main(["generate", *base, "--out", str(stream)]) == 0
    assert main(["pretrain", *base, "--stream", str(stream), "--out", str(c0)]) == 0
    return stream, c0


def pipeline_hashes(config: Path, work: Path) -> dict:
    """Run the pipeline on `config` under `work`; sha256 of each artifact by name."""
    stream, c0 = _stream_and_c0(config, work)
    out = work / "run"
    assert main([
        "run", "--config", str(config), "--stream", str(stream), "--c0", str(c0), "--out", str(out),
        "--seeds", "0", "--variant", "full",
    ]) == 0
    return {path.name: _sha256(path) for path in [stream, c0, *_run_artifacts(out / "seed_00")]}


def ewe_hashes(config: Path, work: Path) -> dict:
    """`pipeline_hashes` on `config` with the re-centring ensemble, overwriting after every 2nd averaging."""
    raw = json.loads(config.read_text())
    raw["hyper"].update(ensemble="ewe", ewe_eta=2)
    derived = work / "ewe.json"
    derived.write_text(json.dumps(raw))
    return pipeline_hashes(derived, work)


def arm_hashes(config: Path, work: Path) -> dict:
    """`ablate` the non-full arms on `config` under `work`; sha256 of each run artifact as "<arm>/<file>"."""
    stream, c0 = _stream_and_c0(config, work)
    out = work / "ablate"
    assert main([
        "ablate", "--config", str(config), "--stream", str(stream), "--c0", str(c0), "--out", str(out),
        "--seeds", "0", "--variant", ",".join(ARMS),
    ]) == 0
    return {f"{arm}/{path.name}": _sha256(path) for arm in ARMS for path in _run_artifacts(out / arm / "seed_00")}


def check_golden(entry: str, hashes, config: Path, work: Path, monkeypatch) -> None:
    golden = json.loads(GOLDEN.read_text())
    stack = numeric_stack()
    if stack != golden["stack"]:
        pytest.skip(f"golden hashes were recorded on {golden['stack']}, this is {stack}")
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            monkeypatch.delenv(name)
    assert hashes(config, work) == golden[entry]


def test_smoke_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    check_golden("smoke", pipeline_hashes, CONFIGS["smoke"], tmp_path, monkeypatch)


def test_default_seed0_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    check_golden("default", pipeline_hashes, CONFIGS["default"], tmp_path, monkeypatch)


def test_smoke_arms_match_golden_hashes(tmp_path, monkeypatch):
    check_golden("arms", arm_hashes, CONFIGS["smoke"], tmp_path, monkeypatch)


def test_smoke_ewe_matches_golden_hashes(tmp_path, monkeypatch):
    check_golden("ewe", ewe_hashes, CONFIGS["smoke"], tmp_path, monkeypatch)


if __name__ == "__main__":
    import tempfile

    doc = {"stack": numeric_stack()}
    for entry, config in CONFIGS.items():
        with tempfile.TemporaryDirectory() as work:
            doc[entry] = pipeline_hashes(config, Path(work))
    with tempfile.TemporaryDirectory() as work:
        doc["arms"] = arm_hashes(CONFIGS["smoke"], Path(work))
    with tempfile.TemporaryDirectory() as work:
        doc["ewe"] = ewe_hashes(CONFIGS["smoke"], Path(work))
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
