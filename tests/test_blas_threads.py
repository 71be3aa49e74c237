"""A run's bytes do not depend on the BLAS thread count.

A run is a pure function of (stream, hyper, seed, c0), but how many threads
BLAS splits a gemm over is not among those inputs. The smoke pipeline
(`generate`, `pretrain`, `run --seeds 0 --variant full`) runs in this
process, with the threads BLAS started with, and in a subprocess under
OPENBLAS_NUM_THREADS=1; every file it writes must match byte for byte.
The distillation block runs each teacher-stacked matmul as one gemm per
slice, so changing the call shapes must not move a bit either way. If a
BLAS splits a small gemm differently by thread count, this test names the
file that moved.
"""

import os
import subprocess
import sys
from pathlib import Path

from mulki.cli import main

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "configs" / "smoke.json"


def _pipeline_argv(work: Path) -> list:
    stream, c0, base = str(work / "stream.bin"), str(work / "c0.ckpt"), ["--config", str(SMOKE)]
    return [
        ["generate", *base, "--out", stream],
        ["pretrain", *base, "--stream", stream, "--out", c0],
        ["run", *base, "--stream", stream, "--c0", c0, "--out", str(work / "run"), "--seeds", "0", "--variant", "full"],
    ]


def _files(work: Path) -> dict:
    return {str(path.relative_to(work)): path.read_bytes() for path in sorted(work.rglob("*")) if path.is_file()}


def test_smoke_run_under_one_blas_thread_writes_the_bytes_of_the_run_in_process(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            monkeypatch.delenv(name)
    here, there = tmp_path / "in_process", tmp_path / "one_thread"
    here.mkdir()
    there.mkdir()
    for argv in _pipeline_argv(here):
        assert main(argv) == 0

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    script = "import sys; from mulki.cli import main; sys.exit(max(main(argv) for argv in %r))" % (_pipeline_argv(there),)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    ours, theirs = _files(here), _files(there)
    assert ours.keys() == theirs.keys()
    assert [name for name in ours if ours[name] != theirs[name]] == []
