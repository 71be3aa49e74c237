"""Byte-stable serialization for everything we persist.

Canonical JSON: keys are emitted sorted, floats with "%.17g" (enough
digits for an exact float64 round trip), and integral floats keep a
trailing ".0" so the parsed value comes back as a float. Non-finite
numbers are rejected: nothing we persist should contain them.

Framed files (checkpoints, streams): a little-endian uint32 header length,
a compact sorted-key JSON manifest, then raw little-endian float64/int64
arrays back to back; round trips are bit-exact.

Every file is written beside its target and moved into place, so an
interrupted write leaves the old file or none, never a part.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import ContractError

_HEADER_LEN = struct.Struct("<I")


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ContractError(f"cannot serialize non-finite float {value!r}")
    text = "%.17g" % value
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ContractError(f"canonical JSON keys must be strings, got {type(key).__name__}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise ContractError(f"cannot serialize type {type(obj).__name__} canonically")


def is_count(value) -> bool:
    """True for an integer in [0, 2**63): a size, seed or id a framed manifest may hold."""
    return type(value) is int and 0 <= value < 2**63


def is_number(value) -> bool:
    """True for a JSON number (not a bool) with a finite float64 value: no NaN, infinity or out-of-range integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def write_atomic(path, chunks) -> None:
    """Write the byte strings `chunks` to `path` through a temp file beside it.

    If producing or writing a chunk raises, the temp file is removed and
    `path` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_canonical(obj, path) -> None:
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    write_atomic(path, ["".join(out).encode("utf-8")])


def write_lines(lines, path) -> None:
    """Write the iterable `lines` as UTF-8 text, each ended by a newline, one line at a time."""
    write_atomic(path, ((line + "\n").encode("utf-8") for line in lines))


def write_framed(path, manifest: dict, arrays) -> None:
    """Write `manifest` and `arrays` (float or integer numpy arrays) as a framed file.

    A float array holding NaN or infinity raises ContractError.
    """
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def chunks():
        yield _HEADER_LEN.pack(len(header)) + header
        for array in arrays:
            if array.dtype.kind == "f" and not np.isfinite(array).all():
                raise ContractError("cannot serialize a non-finite float array")
            yield array.astype("<f8" if array.dtype.kind == "f" else "<i8").tobytes()

    write_atomic(path, chunks())


def read_framed(path, what: str):
    """Read a framed file: (manifest, arrays).

    `arrays(fields)` cuts the payload into one array per (name, dtype, shape)
    in `fields`, in file order; dtype is np.float64 or np.int64, and every
    shape entry must pass `is_count`. Raises ContractError, naming `what` and
    `path`, on truncation, a header that is not a JSON object, a payload
    short of or running past the fields, or (naming the field) a float
    array holding NaN or infinity.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER_LEN.size:
        raise ContractError(f"{what} {path} is truncated")
    (header_len,) = _HEADER_LEN.unpack_from(data)
    start = _HEADER_LEN.size + header_len
    if len(data) < start:
        raise ContractError(f"{what} {path} is truncated")
    try:
        manifest = json.loads(data[_HEADER_LEN.size : start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"{what} {path}: corrupt header ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ContractError(f"{what} {path}: header is not a JSON object")

    def arrays(fields) -> list:
        if (len(data) - start) % 8 != 0:
            raise ContractError(f"{what} {path} is truncated")
        expected = sum(math.prod(shape) for _, _, shape in fields)
        found = (len(data) - start) // 8
        if found != expected:
            raise ContractError(f"{what} {path}: expected {expected!r} values, found {found}")
        out, offset = [], start
        for name, dtype, shape in fields:
            count = math.prod(shape)
            array = np.frombuffer(data, np.dtype(dtype).newbyteorder("<"), count, offset).astype(dtype)
            if array.dtype.kind == "f" and not np.isfinite(array).all():
                raise ContractError(f"{what} {path}: field {name} holds a non-finite number")
            out.append(array.reshape(shape))
            offset += 8 * count
        return out

    return manifest, arrays
