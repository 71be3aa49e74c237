"""Byte-stable serialization for everything we persist.

Canonical JSON: keys are emitted sorted, floats with "%.17g" (enough
digits for an exact float64 round trip), and integral floats keep a
trailing ".0" so the parsed value comes back as a float. Non-finite
numbers are rejected: nothing we persist should contain them.

Framed vectors (checkpoints, ensemble state): a little-endian uint32
header length, a compact sorted-key JSON manifest carrying at least
"count", then `count` raw little-endian float64 values.
"""

from __future__ import annotations

import json
import math
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


def canonical_dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def write_canonical(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_dumps(obj))


def write_framed(manifest: dict, vector: np.ndarray, path) -> None:
    """Write `vector` behind its manifest; round trips are bit-exact."""
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER_LEN.pack(len(header)))
        fh.write(header)
        fh.write(vector.astype("<f8").tobytes())


def read_framed(path, what: str, versions: dict, required: tuple) -> tuple[dict, np.ndarray]:
    """Read a framed vector: (manifest, float64 payload).

    Any malformation - truncation, an undecodable or non-object header, a
    version other than `versions` asks for, a missing `required` key or a
    payload that disagrees with "count" - is a ContractError naming `what`
    and `path`.
    """
    with open(path, "rb") as fh:
        raw_len = fh.read(_HEADER_LEN.size)
        if len(raw_len) != _HEADER_LEN.size:
            raise ContractError(f"{what} {path} is truncated")
        (header_len,) = _HEADER_LEN.unpack(raw_len)
        header = fh.read(header_len)
        if len(header) != header_len:
            raise ContractError(f"{what} {path} is truncated")
        payload = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"{what} {path}: corrupt header ({exc})") from exc
    if not isinstance(manifest, dict):
        raise ContractError(f"{what} {path}: header is not a JSON object")
    for key, want in versions.items():
        if manifest.get(key) != want:
            raise ContractError(f"{what} {path}: unsupported {key} {manifest.get(key)!r}")
    for key in ("count", *required):
        if key not in manifest:
            raise ContractError(f"{what} {path}: header lacks {key!r}")
    if len(payload) % 8 != 0:
        raise ContractError(f"{what} {path} is truncated")
    vector = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if vector.size != manifest["count"]:
        raise ContractError(f"{what} {path}: expected {manifest['count']!r} values, found {vector.size}")
    return manifest, vector
