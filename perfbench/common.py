"""Helpers shared by the benchmark's parent process and its workload worker."""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import platform
import time
import traceback

from tracer import ROOT


def call_cli(argv: list, tracer=None) -> tuple[float, int, str]:
    """Run `mulki.cli.main(argv)` in this process: (wall seconds, exit code, captured output).

    With a tracer, the call is the root span of the trace.
    """
    from mulki import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        span = tracer.open(ROOT) if tracer is not None else None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation; keep the traceback for the report
            traceback.print_exc(file=captured)
            code = -1
        wall = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
    return wall, code, captured.getvalue()


def warm_up(root: str, work_dir: str) -> list:
    """Load every module and spin up BLAS with a smoke-sized pipeline, untimed.

    Returns the problems found: a failed stage ends the warm-up.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(256, 256))
    for _ in range(4):
        a = np.tanh(a @ a.T)
    os.makedirs(work_dir, exist_ok=True)
    config = os.path.join(root, "configs", "smoke.json")
    stream = os.path.join(work_dir, "stream.json")
    c0 = os.path.join(work_dir, "c0.ckpt")
    for argv in (
        ["generate", "--config", config, "--out", stream],
        ["pretrain", "--config", config, "--stream", stream, "--out", c0],
        ["run", "--config", config, "--stream", stream, "--c0", c0, "--out", os.path.join(work_dir, "run")],
    ):
        _, code, log = call_cli(argv)
        if code != 0:
            return [f"warm-up {argv[0]} exit code {code}: {log[-2000:]}"]
    return []


def _blas_threads() -> int | None:
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def source_files(src: str) -> list:
    return sorted(glob.glob(os.path.join(src, "mulki", "**", "*.py"), recursive=True))


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for path in source_files(src):
        h.update(os.path.relpath(path, src).replace(os.sep, "/").encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def source_lines(src: str) -> int:
    total = 0
    for path in source_files(src):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total
