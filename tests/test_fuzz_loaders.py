"""Fuzzed framed files: the stream and checkpoint loaders fail only with ContractError.

Each case corrupts a valid file - truncation at any byte, a flipped byte in
the length prefix, a manifest value replaced by a wrongly typed or
out-of-range one (every value and replacement is tried), NaN or infinity
written over a float in the payload -
and must raise ContractError, the one error of both loaders,
and make the command that reads the file exit 2. A flipped byte inside the
manifest may leave a valid file (a digit of the seed, say), so those cases
only have to raise nothing else.
"""

import contextlib
import io
import json
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mulki.cli import main
from mulki.encoder import DualEncoder, load_checkpoint, save_checkpoint
from mulki.errors import ContractError
from mulki.taskgen import generate_stream, load_stream, save_stream

from conftest import TINY_MODEL, tiny_stream_config

FUZZ = settings(derandomize=True, max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
REPLACEMENTS = (True, False, "x", "", -1, -(10**30), 10**30, [[1]], [])
LOADERS = {"stream": load_stream, "checkpoint": load_checkpoint}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid stream's and c0's bytes, the argv of the command that reads each, and the stream's float offsets."""
    root = tmp_path_factory.mktemp("fuzz")
    stream = generate_stream(tiny_stream_config())
    save_stream(stream, root / "stream.bin")
    save_checkpoint(DualEncoder(0, stream.vocab_size, stream.d_in, **TINY_MODEL), root / "c0.ckpt")
    config = root / "config.json"
    config.write_text(json.dumps({"model": TINY_MODEL, "hyper": {"pretrain_iterations": 2, "iterations_per_task": 2}}))
    bad = root / "bad"
    base = ["--config", str(config), "--out", str(root / "out")]
    return {
        "stream": (root / "stream.bin").read_bytes(),
        "checkpoint": (root / "c0.ckpt").read_bytes(),
        "argv": {
            "stream": ["pretrain", *base, "--stream", str(bad)],
            "checkpoint": ["run", *base, "--stream", str(root / "stream.bin"), "--c0", str(bad)],
        },
        "bad": bad,
        "stream_floats": float_offsets(stream, (root / "stream.bin").read_bytes()),
    }


def float_offsets(stream, raw: bytes) -> list:
    """Byte offsets of a sample of the stream's float64 values in its file."""
    values = [stream.pretrain_x[0, 0], stream.pretrain_x[-1, -1]]
    for task in stream.tasks:
        values += [task.classes[0].noise_scale, task.classes[-1].mean[-1], task.train_x[5, 1], task.test_x[-1, 0]]
    offsets = [raw.find(struct.pack("<d", value)) for value in values]
    assert min(offsets) > 0
    return offsets


def split(raw: bytes):
    (header_len,) = struct.unpack_from("<I", raw)
    return json.loads(raw[4 : 4 + header_len]), raw[4 + header_len :]


def frame(manifest, payload: bytes) -> bytes:
    header = json.dumps(manifest).encode()
    return struct.pack("<I", len(header)) + header + payload


def leaf_paths(value, path=()):
    """Paths to every scalar in a manifest, as key/index tuples."""
    if isinstance(value, dict):
        return [p for key in sorted(value) for p in leaf_paths(value[key], (*path, key))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in leaf_paths(item, (*path, i))]
    return [path]


def check_refused(files, kind: str, raw: bytes) -> None:
    """Loading `raw` as `kind` raises ContractError, and its command exits 2."""
    files["bad"].write_bytes(raw)
    with pytest.raises(ContractError):
        LOADERS[kind](files["bad"])
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(files["argv"][kind]) == 2
    assert err.getvalue().startswith("error: ")


kinds = st.sampled_from(sorted(LOADERS))


@FUZZ
@given(kind=kinds, data=st.data())
def test_truncated_files_are_refused(files, kind, data):
    raw = files[kind]
    check_refused(files, kind, raw[: data.draw(st.integers(0, len(raw) - 1))])


@FUZZ
@given(kind=kinds, at=st.integers(0, 3), mask=st.integers(1, 255))
def test_flipped_length_prefix_is_refused(files, kind, at, mask):
    raw = bytearray(files[kind])
    raw[at] ^= mask
    check_refused(files, kind, bytes(raw))


@FUZZ
@given(kind=kinds, data=st.data(), mask=st.integers(1, 255))
def test_flipped_manifest_byte_raises_nothing_else(files, kind, data, mask):
    raw = bytearray(files[kind])
    (header_len,) = struct.unpack_from("<I", raw)
    raw[data.draw(st.integers(4, 3 + header_len))] ^= mask
    files["bad"].write_bytes(bytes(raw))
    with contextlib.suppress(ContractError):
        LOADERS[kind](files["bad"])


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_replaced_manifest_value_is_refused(files, kind):
    """Every manifest value, replaced by every value in REPLACEMENTS: few enough to try them all."""
    for path in leaf_paths(split(files[kind])[0]):
        for value in REPLACEMENTS:
            manifest, payload = split(files[kind])
            owner = manifest
            for key in path[:-1]:
                owner = owner[key]
            owner[path[-1]] = value
            check_refused(files, kind, frame(manifest, payload))


@FUZZ
@given(kind=kinds, data=st.data(), value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_payload_float_is_refused(files, kind, data, value):
    raw = bytearray(files[kind])
    if kind == "stream":
        at = data.draw(st.sampled_from(files["stream_floats"]))
    else:
        (header_len,) = struct.unpack_from("<I", raw)
        at = 4 + header_len + 8 * data.draw(st.integers(0, (len(raw) - 4 - header_len) // 8 - 1))
    raw[at : at + 8] = struct.pack("<d", value)
    check_refused(files, kind, bytes(raw))

