"""Byte-stable serialization for everything we persist.

Canonical JSON: keys are emitted sorted, floats with "%.17g" (enough
digits for an exact float64 round trip), and integral floats keep a
trailing ".0" so the parsed value comes back as a float. Non-finite
numbers are rejected: nothing we persist should contain them.
"""

from __future__ import annotations

import json
import math

from .errors import ContractError


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
    elif isinstance(obj, (list, tuple)) and obj and set(map(type, obj)) == {float}:
        out.append("[" + ",".join(map(format_float, obj)) + "]")
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
