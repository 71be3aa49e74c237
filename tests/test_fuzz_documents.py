"""Fuzzed JSON documents: `report`'s metrics.json and the experiment config.

Each case breaks one thing in a valid document - a value replaced by a
wrongly typed one, NaN or infinity, a ragged or nested matrix, a matrix
of the wrong shape or with an entry outside [0, 1], a summary the matrix
does not give, a missing or unknown key, text that is not UTF-8 or not
whole JSON - and runs the
command that reads it. The config is broken in its file and, as well,
through a MULKI_* override. Every case must exit 2 and print exactly one
line, starting "error: ", and `report` must write no table.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mulki import metrics
from mulki.cli import main
from mulki.config import TOP_LEVEL_KEYS, HyperParams, ModelConfig
from mulki.taskgen import StreamConfig

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
NON_FINITE = (math.nan, math.inf, -math.inf)
# neither a finite number nor any other valid value of a number field
NOT_NUMBERS = (*NON_FINITE, None, True, "x", "", [], [0.5], [[0.5]], {"a": 1}, 10**400)


def exits_2(argv) -> None:
    with contextlib.redirect_stderr(io.StringIO()) as err, contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    message = err.getvalue()
    assert code == 2, message
    assert message.startswith("error: ") and message.count("\n") == 1, message


def dumps(doc) -> bytes:
    return json.dumps(doc).encode()  # NaN and infinity go out as the NaN/Infinity tokens json.load takes


def broken_text(valid: bytes):
    """Bytes that are not one whole JSON document: cut short, or not UTF-8."""
    return st.one_of(
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.integers(0, len(valid)).map(lambda n: valid[:n] + b"\xff" + valid[n:]),
    )


# ---------------------------------------------------------------------------
# report


VALID_METRICS = metrics.metrics_document([[0.5, 0.25, 0.5], [0.75, 0.5, 0.25], [0.625, 0.875, 0.5], [1.0, 0.0, 0.75]])
REQUIRED = (*metrics.SUMMARIES, "matrix")


@pytest.fixture(scope="module")
def report_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    (root / "run").mkdir()
    return root / "run", root / "table.csv"


def check_report(report_paths, raw: bytes) -> None:
    run, table = report_paths
    table.unlink(missing_ok=True)
    (run / "metrics.json").write_bytes(raw)
    exits_2(["report", str(run), "--out", str(table)])
    assert not table.exists()


def test_valid_metrics_document_is_reported(report_paths):
    run, table = report_paths
    (run / "metrics.json").write_bytes(dumps(VALID_METRICS))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", str(run), "--out", str(table)]) == 0
    table.unlink()


@st.composite
def broken_metrics(draw):
    doc = json.loads(json.dumps(VALID_METRICS))
    matrix = doc["matrix"]
    how = draw(st.sampled_from(["value", "entry", "ragged", "shape", "range", "summary", "missing", "matrix", "root"]))
    if how == "value":
        doc[draw(st.sampled_from(sorted(metrics.SUMMARIES)))] = draw(st.sampled_from(NOT_NUMBERS))
    elif how == "entry":
        row = draw(st.sampled_from(matrix))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(NOT_NUMBERS))
    elif how == "ragged":
        row = draw(st.sampled_from(matrix))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(0.5)
    elif how == "shape":
        doc["matrix"] = draw(st.sampled_from([matrix[1:], [*matrix, matrix[0]], [row[:-1] for row in matrix], [[0.5]]]))
    elif how == "range":
        row = draw(st.sampled_from(matrix))
        outside = st.one_of(st.floats(1.0, 1e300, exclude_min=True), st.floats(-1e300, 0.0, exclude_max=True))
        row[draw(st.integers(0, len(row) - 1))] = draw(outside)
    elif how == "summary":
        name = draw(st.sampled_from(sorted(metrics.SUMMARIES)))
        doc[name] = draw(st.floats(0.0, 1.0).filter(lambda v: v != doc[name]))
    elif how == "missing":
        del doc[draw(st.sampled_from(REQUIRED))]
    elif how == "matrix":
        doc["matrix"] = draw(st.sampled_from([[], [[]] * 4, matrix[0], [matrix], 0.5, None, "x", {"0": matrix[0]}]))
    else:
        doc = draw(st.sampled_from([[doc], 0.5, None, "x"]))
    return dumps(doc)


@FUZZ
@given(raw=st.one_of(broken_metrics(), broken_text(dumps(VALID_METRICS))))
def test_broken_metrics_document_exits_2(report_paths, raw):
    check_report(report_paths, raw)


# ---------------------------------------------------------------------------
# config


SECTION_FIELDS = [
    (section, f.name, type(f.default))
    for section, cls in (("stream", StreamConfig), ("model", ModelConfig), ("hyper", HyperParams))
    for f in fields(cls)
]
# per field type, values that type never accepts (every count field is >= 0, every mode a known name,
# the one field with a null default a weight in [0, 1])
WRONG = {
    float: NOT_NUMBERS,
    int: (2.5, -1, *NON_FINITE, None, True, "x", [], {"a": 1}),
    bool: (0, 1, "true", None, *NON_FINITE, []),
    str: ("nope", 1, None, True, [], *NON_FINITE),
    type(None): (1.5, -0.1, "similarity", True, "x", [], {"a": 1}, *NON_FINITE),
}
WRONG_TOP = {
    "stream": ([], 1, "x", None),
    "model": ([], 1, "x", None),
    "hyper": ([], 1, "x", None),
    "seeds": ([], [-1], [2**63], [1.5], [True], ["0"], "0", None, math.nan, [0, 0]),
    "variant": ("nope", 1, None, []),
    "out_dir": (1, [], True, math.nan),
}
assert set(WRONG_TOP) == set(TOP_LEVEL_KEYS)


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    return root / "config.json", root / "stream.bin"


@contextlib.contextmanager
def only_mulki_env(env: dict):
    """Within the block, the MULKI_* variables are exactly those in `env`."""
    with mock.patch.dict(os.environ):
        for name in [name for name in os.environ if name.startswith("MULKI_")]:
            del os.environ[name]
        os.environ.update(env)
        yield


def check_config(config_paths, raw: bytes, env: dict) -> None:
    """`generate` reading `raw` as its config, with the MULKI_* variables `env`, exits 2 and writes nothing."""
    config, out = config_paths
    out.unlink(missing_ok=True)
    config.write_bytes(raw)
    with only_mulki_env(env):
        exits_2(["generate", "--config", str(config), "--out", str(out)])
    assert not out.exists()


BASE_CONFIG = {"seeds": [0], "hyper": {"lr": 0.002}}


def test_base_config_generates(config_paths):
    config, out = config_paths
    config.write_bytes(dumps(BASE_CONFIG))
    with only_mulki_env({}), contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    out.unlink()


@st.composite
def broken_config(draw):
    """(file bytes, MULKI_* variables) with one broken entry, in the file or in the environment."""
    doc, env = json.loads(json.dumps(BASE_CONFIG)), {}
    in_env = draw(st.booleans())
    how = draw(st.sampled_from(["field", "top", "unknown"]))
    if how == "field":
        section, key, kind = draw(st.sampled_from(SECTION_FIELDS))
        value = draw(st.sampled_from(WRONG[kind]))
        if in_env:
            env[f"MULKI_{section.upper()}__{key.upper()}"] = json.dumps(value)
        else:
            doc.setdefault(section, {})[key] = value
    elif how == "top":
        key = draw(st.sampled_from(sorted(WRONG_TOP)))
        value = draw(st.sampled_from(WRONG_TOP[key]))
        if in_env:
            env[f"MULKI_{key.upper()}"] = json.dumps(value)
        else:
            doc[key] = value
    else:
        name = draw(st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True))
        section = draw(st.sampled_from([None, "stream", "model", "hyper", "bogus"]))
        known = {key for sec, key, _ in SECTION_FIELDS if sec == section} | (set(TOP_LEVEL_KEYS) if section is None else set())
        if name in known or (section is None and "__" in name):
            name = "x_" + name + "_x"
        if in_env:
            env["MULKI_" + (name if section is None else f"{section}__{name}").upper()] = "1"
        elif section is None:
            doc[name] = 1
        else:
            doc.setdefault(section, {})[name] = 1
    return dumps(doc), env


@FUZZ
@given(case=broken_config())
def test_broken_config_exits_2(config_paths, case):
    raw, env = case
    check_config(config_paths, raw, env)


@FUZZ
@given(raw=st.one_of(broken_text(dumps(BASE_CONFIG)), st.sampled_from([b"[]", b"1", b"null"])))
def test_unreadable_config_file_exits_2(config_paths, raw):
    check_config(config_paths, raw, {})
