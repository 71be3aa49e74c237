"""End-to-end command-line pipeline on a tiny stream."""

import json
import os
import struct
from types import SimpleNamespace

import pytest

from mulki import metrics
from mulki.cli import main
from mulki.taskgen import load_stream

CONFIG = {
    "stream": {
        "n_tasks": 2,
        "classes_per_task": 3,
        "d_in": 8,
        "train_per_class": 12,
        "test_per_class": 6,
        "pretrain_per_class": 4,
        "seed": 7,
    },
    "model": {"d_tok": 8, "hidden": 16, "embed_dim": 8},
    "hyper": {
        "iterations_per_task": 6,
        "pretrain_iterations": 8,
        "batch_size": 8,
        "we_interval": 3,
    },
    "seeds": [0],
}

RUN_FILES = {"metrics.json", "run.json", "losses.csv", "task_01.ckpt", "task_02.ckpt"}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            mp.delenv(name)
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    paths = SimpleNamespace(
        root=root,
        cfg=cfg,
        stream=root / "stream.json",
        c0=root / "c0.ckpt",
        run_a=root / "run_a",
        run_b=root / "run_b",
        ablation=root / "ablation",
        report=root / "table.csv",
        series=root / "series.csv",
    )
    base = ["--config", str(cfg), "--stream", str(paths.stream), "--c0", str(paths.c0)]
    try:
        assert main(["generate", "--config", str(cfg), "--out", str(paths.stream)]) == 0
        assert main(["pretrain", "--config", str(cfg), "--stream", str(paths.stream), "--out", str(paths.c0)]) == 0
        assert main(["run", *base, "--out", str(paths.run_a)]) == 0
        assert main(["run", *base, "--out", str(paths.run_b)]) == 0
        assert main(["ablate", *base, "--out", str(paths.ablation), "--variant", "full,continual_ft"]) == 0
        assert main([
            "report",
            str(paths.run_a / "seed_00"),
            str(paths.ablation / "continual_ft" / "seed_00"),
            "--out", str(paths.report),
            "--series", str(paths.series),
        ]) == 0
        yield paths
    finally:
        mp.undo()


def test_generated_stream_loads(pipeline):
    stream = load_stream(pipeline.stream)
    assert stream.n_tasks == 2
    assert stream.mode == "multi_domain"


def test_pretrain_artifacts(pipeline):
    assert pipeline.c0.exists()
    doc = json.loads((pipeline.root / "c0.ckpt.zeroshot.json").read_text())
    row = doc["zero_shot_row"]
    assert len(row) == 2
    assert all(0.0 <= v <= 1.0 for v in row)


def test_run_directory_layout(pipeline):
    seed_dir = pipeline.run_a / "seed_00"
    assert {p.name for p in seed_dir.iterdir()} == RUN_FILES
    doc = json.loads((seed_dir / "metrics.json").read_text())
    assert len(doc["matrix"]) == 3
    assert all(len(row) == 2 for row in doc["matrix"])
    for name in ("transfer", "avg", "last", "current_avg"):
        assert isinstance(doc[name], float)


def test_repeat_runs_are_byte_identical(pipeline):
    for name in ("metrics.json", "task_01.ckpt", "task_02.ckpt"):
        a = (pipeline.run_a / "seed_00" / name).read_bytes()
        b = (pipeline.run_b / "seed_00" / name).read_bytes()
        assert a == b, name


def test_ablation_artifacts(pipeline):
    doc = json.loads((pipeline.ablation / "ablation.json").read_text())
    assert doc["seeds"] == [0]
    assert set(doc["variants"]) == {"full", "continual_ft"}
    cell = doc["variants"]["continual_ft"]["transfer"]
    assert set(cell) == {"mean", "std", "seeds"} and len(cell["seeds"]) == 1

    lines = (pipeline.ablation / "ablation.csv").read_text().splitlines()
    assert lines[0] == (
        "variant,transfer_mean,transfer_std,avg_mean,avg_std,"
        "last_mean,last_std,current_avg_mean,current_avg_std"
    )
    assert len(lines) == 3
    assert lines[1].startswith("full,") and lines[2].startswith("continual_ft,")


def test_ablate_matches_run_for_same_variant(pipeline, tmp_path):
    out = tmp_path / "ft"
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(pipeline.c0),
        "--out", str(out), "--variant", "continual_ft",
    ])
    assert code == 0
    for name in ("metrics.json", "task_01.ckpt", "task_02.ckpt"):
        direct = (out / "seed_00" / name).read_bytes()
        via_grid = (pipeline.ablation / "continual_ft" / "seed_00" / name).read_bytes()
        assert direct == via_grid, name


def test_report_contents(pipeline):
    lines = pipeline.report.read_text().splitlines()
    assert lines[0] == "run,transfer,avg,last,current_avg"
    assert len(lines) == 3
    run_dir, *values = lines[1].split(",")
    assert run_dir == str(pipeline.run_a / "seed_00")
    metrics = json.loads((pipeline.run_a / "seed_00" / "metrics.json").read_text())
    for value, name in zip(values, ("transfer", "avg", "last", "current_avg")):
        assert float(value) == pytest.approx(metrics[name], abs=1e-12)

    series = pipeline.series.read_text().splitlines()
    assert series[0] == "run,after_task,task,accuracy"
    assert len(series) == 1 + 2 * 3 * 2  # 2 runs x 3 matrix rows x 2 tasks


def test_tables_follow_the_summary_names(pipeline):
    names = list(metrics.SUMMARIES)
    assert pipeline.report.read_text().splitlines()[0] == ",".join(["run", *names])
    header = (pipeline.ablation / "ablation.csv").read_text().splitlines()[0]
    assert header == ",".join(["variant", *(f"{n}_{stat}" for n in names for stat in ("mean", "std"))])
    doc = json.loads((pipeline.ablation / "ablation.json").read_text())
    assert all(set(cells) == set(names) for cells in doc["variants"].values())
    run_doc = json.loads((pipeline.run_a / "seed_00" / "metrics.json").read_text())
    assert set(run_doc) == {*names, "matrix", "zero_shot_row"}


def test_seeds_flag_overrides_config(pipeline, tmp_path):
    out = tmp_path / "s1"
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(pipeline.c0),
        "--out", str(out), "--seeds", "1",
    ])
    assert code == 0
    assert {p.name for p in out.iterdir()} == {"seed_01"}


def test_env_override_changes_run(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("MULKI_HYPER__ITERATIONS_PER_TASK", "4")
    out = tmp_path / "short"
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(pipeline.c0),
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "seed_00" / "losses.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 4


def test_unknown_variant_exits_2(pipeline, tmp_path, capsys):
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(pipeline.c0),
        "--out", str(tmp_path / "x"), "--variant", "fancy",
    ])
    assert code == 2
    assert "fancy" in capsys.readouterr().err
    # ablate checks every named arm before the first run
    out = tmp_path / "grid"
    code = main([
        "ablate", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(pipeline.c0),
        "--out", str(out), "--variant", "full,fancy",
    ])
    assert code == 2
    assert "fancy" in capsys.readouterr().err
    assert not out.exists()


def test_bad_seeds_flag_exits_2(pipeline, tmp_path, capsys):
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(pipeline.c0),
        "--out", str(tmp_path / "x"), "--seeds", "a,b",
    ])
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("command, seeds", [("run", "-1"), ("run", "0,-2"), ("ablate", "-1"), ("pretrain", "-1")])
def test_negative_seeds_flag_exits_2(pipeline, tmp_path, capsys, command, seeds):
    out = tmp_path / "x"
    inputs = ["--stream", str(pipeline.stream)] + (["--c0", str(pipeline.c0)] if command != "pretrain" else [])
    code = main([command, "--config", str(pipeline.cfg), *inputs, "--out", str(out), "--seeds", seeds])
    assert code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, env, key",
    [
        ({"seeds": [0, -1]}, {}, "'seeds'"),
        ({}, {"MULKI_SEEDS": "[-1]"}, "'seeds'"),
        ({"stream": {"seed": -3}}, {}, "stream.seed"),
        ({}, {"MULKI_STREAM__SEED": "-3"}, "stream.seed"),
    ],
    ids=["file-seeds", "env-seeds", "file-stream-seed", "env-stream-seed"],
)
def test_negative_config_seed_exits_2(tmp_path, capsys, monkeypatch, config, env, key):
    cfg = tmp_path / "seeds.json"
    cfg.write_text(json.dumps(config))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert key in capsys.readouterr().err


def test_missing_stream_exits_2(pipeline, tmp_path, capsys):
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(tmp_path / "nope.json"), "--c0", str(pipeline.c0),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"hyper": {"lamda1": 1.0}}))
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "lamda1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [("hyper", "lr", "x"), ("model", "hidden", "x"), ("stream", "n_tasks", "x"),
     ("hyper", "batch_size", 2.5), ("hyper", "enable_fd", "no")],
)
@pytest.mark.parametrize("source", ["file", "env"])
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, monkeypatch, section, key, value, source):
    cfg = tmp_path / "typed.json"
    if source == "file":
        cfg.write_text(json.dumps({section: {key: value}}))
    else:
        cfg.write_text("{}")
        monkeypatch.setenv(f"MULKI_{section.upper()}__{key.upper()}", value if isinstance(value, str) else json.dumps(value))
    code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_no_output_location_exits_2(pipeline, capsys):
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(pipeline.c0),
    ])
    assert code == 2
    assert "output location" in capsys.readouterr().err


def test_report_missing_metrics_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["report", str(empty), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "metrics.json" in capsys.readouterr().err


def test_report_missing_metric_key_exits_2(pipeline, tmp_path, capsys):
    run = tmp_path / "partial"
    run.mkdir()
    doc = json.loads((pipeline.run_a / "seed_00" / "metrics.json").read_text())
    del doc["avg"]
    (run / "metrics.json").write_text(json.dumps(doc))
    code = main(["report", str(run), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "'avg'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("transfer", "x"), ("last", None), ("avg", True), ("matrix", 3), ("matrix", [0.5, 0.5]), ("matrix", [[0.5, "x"]])],
)
def test_report_malformed_metric_exits_2(pipeline, tmp_path, capsys, key, value):
    run = tmp_path / "malformed"
    run.mkdir()
    doc = json.loads((pipeline.run_a / "seed_00" / "metrics.json").read_text())
    doc[key] = value
    (run / "metrics.json").write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    code = main(["report", str(run), "--out", str(out)])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def _drop_count(header: bytes) -> bytes:
    manifest = json.loads(header)
    del manifest["count"]
    return json.dumps(manifest).encode()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda header: header[:-1], "corrupt header"),  # JSON cut short
        (lambda header: b"\xff" + header[1:], "corrupt header"),  # not UTF-8
        (_drop_count, "'count'"),
        (lambda header: b"[1, 2]", "not a JSON object"),
    ],
    ids=["json", "utf8", "count", "not-object"],
)
def test_corrupt_checkpoint_exits_2(pipeline, tmp_path, capsys, edit, message):
    raw = pipeline.c0.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw)
    header = edit(raw[4 : 4 + hlen])
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(struct.pack("<I", len(header)) + header + raw[4 + hlen :])
    code = main([
        "run", "--config", str(pipeline.cfg),
        "--stream", str(pipeline.stream), "--c0", str(bad),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert message in capsys.readouterr().err
