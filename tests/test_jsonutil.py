"""Persisted files are replaced whole or not at all."""

import numpy as np
import pytest

from mulki import jsonutil
from mulki.errors import ContractError
from mulki.jsonutil import write_canonical, write_framed, write_lines


def fail_on_second_write(monkeypatch):
    """Make the second chunk a writer writes raise, after the first reached the temp file."""
    real_write_atomic = jsonutil.write_atomic

    def chunks_then_fail(path, chunks):
        def failing():
            yield b"partial"
            raise OSError("disk full")

        real_write_atomic(path, failing())

    monkeypatch.setattr(jsonutil, "write_atomic", chunks_then_fail)


@pytest.mark.parametrize(
    "write, error, patch",
    [
        (lambda path: write_framed(path, {"n": 3}, [np.array([1.0, np.nan, 2.0])]), ContractError, False),
        (lambda path: write_framed(path, {"n": 2}, [np.arange(2), np.array([np.inf])]), ContractError, False),
        (lambda path: write_canonical({"a": 1.0}, path), OSError, True),
        (lambda path: write_lines(["a,b", "1,2"], path), OSError, True),
    ],
    ids=["framed-nan", "framed-inf-in-second-array", "canonical-disk-full", "lines-disk-full"],
)
def test_failed_write_keeps_target_and_leaves_no_temp_file(tmp_path, monkeypatch, write, error, patch):
    target = tmp_path / "artifact"
    target.write_bytes(b"previous contents")
    if patch:
        fail_on_second_write(monkeypatch)
    with pytest.raises(error):
        write(target)
    assert target.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_successful_write_replaces_target_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "artifact.csv"
    target.write_bytes(b"previous contents")
    write_lines(["a,b", "1,2"], target)
    assert target.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]
