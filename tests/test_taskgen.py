"""Synthetic streams: determinism, structure, statistics, serialization, the keyed batch draw."""

import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mulki.taskgen as taskgen
import reference_ops as R
from mulki.cli import main
from mulki.config import config_from_dict
from mulki.encoder import DualEncoder, save_checkpoint, snapshot
from mulki.errors import ConfigError, ContractError
from mulki.taskgen import (
    _TAG_FRAME,
    StreamConfig,
    _base_means,
    _domain_frames,
    _fields,
    _rng,
    batches,
    generate_stream,
    keyed_integers,
    load_stream,
    save_stream,
)

from conftest import tiny_stream_config


def small_config(**overrides):
    base = dict(
        mode="multi_domain",
        n_tasks=3,
        classes_per_task=3,
        d_in=6,
        train_per_class=30,
        test_per_class=10,
        pretrain_per_class=8,
        seed=11,
    )
    base.update(overrides)
    return StreamConfig(**base)


def saved(stream, path) -> bytes:
    """The bytes `save_stream` writes for `stream`: streams compare by these."""
    save_stream(stream, path)
    return path.read_bytes()


def classes_of(stream) -> list:
    return [c for task in stream.tasks for c in task.classes]


def test_same_config_and_seed_identical(tmp_path):
    a = generate_stream(small_config())
    b = generate_stream(small_config())
    assert saved(a, tmp_path / "a.json") == saved(b, tmp_path / "b.json")


def test_explicit_seed_overrides_config_seed(tmp_path):
    a = saved(generate_stream(small_config(), seed=99), tmp_path / "a.json")
    assert a == saved(generate_stream(small_config(seed=99)), tmp_path / "b.json")
    assert a != saved(generate_stream(small_config(seed=11)), tmp_path / "c.json")


def test_round_trip(tmp_path):
    stream = generate_stream(small_config())
    path = tmp_path / "stream.json"
    original = saved(stream, path)
    assert saved(load_stream(path), tmp_path / "again.json") == original


def test_class_incremental_structure():
    stream = generate_stream(small_config(mode="class_incremental", n_tasks=4, classes_per_task=2))
    ids = [c.class_id for c in classes_of(stream)]
    assert ids == list(range(8))  # N*K unique, contiguous
    assert all(c.token_id == c.class_id + 1 for c in classes_of(stream))
    assert stream.vocab_size == 9  # template token 0 plus 8 class tokens
    assert all(c.domain_id == 0 for c in classes_of(stream))


def test_multi_domain_separation_floor():
    cfg = small_config(min_domain_separation=2.0)
    stream = generate_stream(cfg)
    for ta in stream.tasks:
        for tb in stream.tasks:
            if ta.task_id >= tb.task_id:
                continue
            for ca in ta.classes:
                for cb in tb.classes:
                    assert np.linalg.norm(ca.mean - cb.mean) >= cfg.min_domain_separation
    domains = {c.domain_id for c in classes_of(stream)}
    assert domains == {0, 1, 2}


def loop_domain_frames(config, seed):
    """`_domain_frames` with its separation check as a loop over every cross-domain pair of class means."""
    d, rng = config.d_in, _rng(seed, _TAG_FRAME)
    rotations = []
    for _ in range(config.n_tasks):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        rotations.append(q * np.sign(np.diag(r)))
    base_means, spread = _base_means(config, seed), config.domain_spread
    for _ in range(40):
        directions = rng.normal(size=(config.n_tasks, d))
        offsets = directions / np.linalg.norm(directions, axis=1, keepdims=True) * spread
        means = [[rotations[t] @ mean + offsets[t] for mean in base_means[t]] for t in range(config.n_tasks)]
        worst = min(
            np.linalg.norm(ma - mb)
            for a in range(config.n_tasks) for b in range(a + 1, config.n_tasks) for ma in means[a] for mb in means[b]
        )
        if worst >= config.min_domain_separation:
            return list(zip(rotations, offsets))
        spread *= 1.3
    return None


@pytest.mark.parametrize("floor", [0.0, 0.8, 2.0, 3.0, 6.0, 50.0, 1e6])
@pytest.mark.parametrize("seed", [0, 11])
def test_separation_check_matches_the_pairwise_loop(floor, seed):
    """Same frames after the same number of re-draws, or the same refusal."""
    config = small_config(n_tasks=4, d_in=3, min_domain_separation=floor)
    check_against_the_pairwise_loop(config, seed)


@pytest.mark.parametrize("floor", [0.0, 0.3, 0.8, 1.5])
@pytest.mark.parametrize("seed", [0, 5])
def test_separation_check_matches_the_pairwise_loop_on_crowded_planes(floor, seed):
    """60 classes per domain in 2-d, where domains overlap and most pairs are left to compare."""
    check_against_the_pairwise_loop(small_config(n_tasks=3, classes_per_task=60, d_in=2, min_domain_separation=floor), seed)


def check_against_the_pairwise_loop(config, seed):
    want = loop_domain_frames(config, seed)
    if want is None:
        with pytest.raises(ConfigError, match="min_domain_separation"):
            _domain_frames(config, seed)
        return
    for (rotation, offset), (want_rotation, want_offset) in zip(_domain_frames(config, seed), want, strict=True):
        assert np.array_equal(rotation, want_rotation) and np.array_equal(offset, want_offset)


def test_separation_check_on_many_domains_ends(tmp_path):
    """1,000 two-class domains in 2-d: `generate` settles the separation floor, either way, within a minute."""
    config = tmp_path / "many.json"
    config.write_text(json.dumps({"stream": {
        "n_tasks": 1000, "classes_per_task": 2, "d_in": 2, "train_per_class": 1, "test_per_class": 1, "pretrain_per_class": 1,
    }}))
    env = {name: value for name, value in os.environ.items() if not name.startswith("MULKI_")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "mulki.cli", "generate", "--config", str(config), "--out", str(tmp_path / "s.bin")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in (0, 2), proc.stderr


def test_generate_of_many_classes_in_few_domains_ends(tmp_path):
    """2 domains of 100,000 classes in 2-d (~14 MB of arrays): `generate` writes the stream within a minute."""
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({"stream": {
        "n_tasks": 2, "classes_per_task": 100000, "d_in": 2, "train_per_class": 1, "test_per_class": 1, "pretrain_per_class": 1,
    }}))
    env = {name: value for name, value in os.environ.items() if not name.startswith("MULKI_")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "mulki.cli", "generate", "--config", str(config), "--out", str(tmp_path / "s.bin")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_per_class_sample_mean_statistics():
    cfg = small_config(train_per_class=400, noise_scale=0.5)
    stream = generate_stream(cfg)
    for task in stream.tasks:
        for c, x in zip(task.classes, task.images_by_class(), strict=True):
            # chi-square norm bound: far looser than per-coordinate 3 sigma
            bound = 3.0 * c.noise_scale * np.sqrt(cfg.d_in / x.shape[0])
            assert np.linalg.norm(x.mean(axis=0) - c.mean) <= bound


def test_every_class_has_test_samples():
    stream = generate_stream(small_config(test_per_class=1))
    for task in stream.tasks:
        for c in task.classes:
            assert (task.test_y == c.class_id).sum() >= 1


def test_train_test_disjoint():
    stream = generate_stream(small_config())
    for task in stream.tasks:
        train_rows = {row.tobytes() for row in task.train_x}
        test_rows = {row.tobytes() for row in task.test_x}
        assert not train_rows & test_rows


def test_batches_deterministic_and_varied():
    stream = generate_stream(small_config())
    task = stream.tasks[0]
    run1 = [(x.copy(), idx.copy()) for x, idx in batches(task, 8, seeds=[5], iterations=4)]
    run2 = [(x.copy(), idx.copy()) for x, idx in batches(task, 8, seeds=[5], iterations=4)]
    for (x1, y1), (x2, y2) in zip(run1, run2):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert not np.array_equal(run1[0][0], run1[1][0])  # iterations differ

    other_seed = next(iter(batches(task, 8, seeds=[6], iterations=1)))[0]
    assert not np.array_equal(run1[0][0], other_seed)

    for x, idx in run1:
        assert x.shape == (1, 8, stream.d_in)
        assert set(task.train_y[idx[0]]) <= set(task.class_ids)


def test_batch_indices_select_the_batch():
    task = generate_stream(small_config()).tasks[0]
    seeds = [5, 6, 5]
    for it, (x, idx) in enumerate(batches(task, 8, seeds=seeds, iterations=3), start=1):
        assert x.shape == (3, 8, task.train_x.shape[1]) and idx.shape == (3, 8)
        assert np.array_equal(x, task.train_x[idx])
        for lane, seed in enumerate(seeds):
            # the batch's key: (seed, the batch tag 16, task id, iteration)
            want = np.random.default_rng([seed, 16, task.task_id, it]).integers(0, len(task.train_x), size=8)
            assert np.array_equal(idx[lane], want)


# ---------------------------------------------------------------------------
# the keyed draw: `np.random.default_rng(key).integers(0, n, size)` for many keys at once, bit for bit.
# A numpy that changes SeedSequence, PCG64's seeding or output, or `integers`' Lemire mapping fails these.

EDGE_INTS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]  # one word, the largest one-word int, two words, the largest seed
BOUNDS = [1, 2, 1000, 2**31 + 5, 2**32 - 1]  # at 2**31 + 5 about half the draws reject, so the fallback runs


def assert_matches_default_rng(keys, n: int, size: int) -> None:
    got = keyed_integers(keys, n, size)
    assert got.shape == (len(keys), size) and got.dtype == np.int64
    for key, row in zip(keys, got):
        assert np.array_equal(row, np.random.default_rng(key).integers(0, n, size)), (key, n, size)


@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("length", range(1, 7))
def test_keyed_integers_equal_default_rng_draw_by_draw(length, n):
    """Keys of 1 to 6 ints: every edge int at every position, keys of edge ints only and small random keys, in one
    call, so one call mixes word counts from 1 to 12 (past 4 words SeedSequence runs a second mixing loop)."""
    rng = np.random.default_rng([length, n])
    keys = [[int(v) for v in rng.integers(0, 100, length)] for _ in range(20)]
    for position, value in itertools.product(range(length), EDGE_INTS):
        keys.append([int(v) for v in rng.integers(0, 2**32, length)])
        keys[-1][position] = value
    keys += [[EDGE_INTS[i] for i in rng.integers(0, len(EDGE_INTS), length)] for _ in range(20)]
    assert_matches_default_rng(keys, n, 33)  # an odd size: the last 64-bit output's high half goes unused


@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("size", [0, 1, 2])
def test_keyed_integers_of_short_draws(size, n):
    assert_matches_default_rng([[0, 0], [2**63 - 1, 3], [5, 16], [2**32, 2**32 - 1]], n, size)


def test_keyed_integers_of_no_keys():
    assert keyed_integers(np.empty((0, 4), dtype=np.uint64), 10, 3).shape == (0, 3)
    assert keyed_integers([], 10, 3).shape == (0, 3)


def test_batches_across_block_boundaries_equal_the_per_key_oracle(monkeypatch):
    """Three iterations of 8 rows per block; repeated seeds, and a seed past 2**32 (5-word keys)."""
    monkeypatch.setattr(taskgen, "BLOCK", 24)
    task = generate_stream(small_config()).tasks[1]
    seeds = [5, 2**40, 5, 0]
    want = [list(R.batches(task, 8, seed, 7)) for seed in seeds]
    got = list(batches(task, 8, seeds, 7))
    assert len(got) == 7
    for it, (x, rows) in enumerate(got):
        for lane in range(len(seeds)):
            assert np.array_equal(rows[lane], want[lane][it][1]) and np.array_equal(x[lane], want[lane][it][0]), (it, lane)


@pytest.mark.parametrize("batch_size", [32, 2**16])
def test_the_first_batch_of_a_long_task_draws_one_block(batch_size, monkeypatch):
    real, drawn = taskgen.keyed_integers, []

    def keyed_integers(keys, n, size):
        drawn.append(len(keys) * size)
        return real(keys, n, size)

    monkeypatch.setattr(taskgen, "keyed_integers", keyed_integers)
    task = generate_stream(small_config()).tasks[0]
    next(batches(task, batch_size, [3, 4, 3], 10**6))
    assert drawn == [2 * max(taskgen.BLOCK // batch_size, 1) * batch_size]


def test_pretrain_pool_composition():
    cfg = small_config(pretrain_per_class=50, pretrain_label_noise=0.1)
    stream = generate_stream(cfg)
    n_classes = cfg.n_tasks * cfg.classes_per_task
    assert stream.pretrain_x.shape == (n_classes * 50, cfg.d_in)
    assert stream.pretrain_tokens.shape == (n_classes * 50,)

    own = np.repeat([c.token_id for c in classes_of(stream)], 50)
    flipped = (stream.pretrain_tokens != own).mean()
    assert 0.03 <= flipped <= 0.2  # noisy but mostly faithful

    clean = generate_stream(small_config(pretrain_label_noise=0.0))
    own_clean = np.repeat([c.token_id for c in classes_of(clean)], 8)
    assert np.array_equal(clean.pretrain_tokens, own_clean)


def test_config_validation_bounds():
    for bad in (
        dict(mode="episodic"),
        dict(n_tasks=1),
        dict(classes_per_task=1),
        dict(d_in=0),
        dict(train_per_class=0),
        dict(test_per_class=0),
        dict(noise_scale=-0.1),
        dict(mean_scale=0.0),
        dict(pretrain_label_noise=1.5),
        dict(min_domain_separation=-1.0),
    ):
        with pytest.raises(ConfigError):
            generate_stream(small_config(**bad))


def test_stream_config_from_dict():
    cfg = config_from_dict({"stream": {"n_tasks": 2, "classes_per_task": 4, "seed": 3}}).stream
    assert cfg.n_tasks == 2 and cfg.classes_per_task == 4 and cfg.seed == 3
    with pytest.raises(ConfigError) as err:
        config_from_dict({"stream": {"n_task": 2}})
    assert "n_task" in str(err.value)


def test_json_stream_exits_2(tmp_path, capsys, monkeypatch):
    """A stream saved as canonical JSON, the format before framed streams, is refused by name."""
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            monkeypatch.delenv(name)
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"dims": {"d_in": 2}, "mode": "multi_domain", "schema_version": 1, "seed": 7}))
    assert main(["pretrain", "--stream", str(path), "--out", str(tmp_path / "c0.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "not a framed stream" in err and "mulki generate" in err


def overwrite(payload: bytearray, old: float, new: float) -> None:
    """Replace the one little-endian float64 `old` in `payload` with `new`."""
    at = payload.find(struct.pack("<d", old))
    assert at >= 0 and payload.find(struct.pack("<d", old), at + 1) < 0
    payload[at : at + 8] = struct.pack("<d", new)


def set_int(payload: bytearray, manifest: dict, field: str, value: int, at: int = 0) -> None:
    """Overwrite entry `at` of the int64 payload array `field` with `value`."""
    offset = 0
    for name, _, shape in _fields(manifest["d_in"], manifest["pool"], manifest["tasks"]):
        if name == field:
            struct.pack_into("<q", payload, offset + 8 * at, value)
            return
        offset += 8 * math.prod(shape)
    raise KeyError(field)


def empty_split(payload: bytearray, manifest: dict, i: int, split: str) -> None:
    """Make task i's `split` ("train" or "test") hold no samples, in the manifest and the payload alike."""
    offset, cut = 0, []
    for name, _, shape in _fields(manifest["d_in"], manifest["pool"], manifest["tasks"]):
        size = 8 * math.prod(shape)
        if name.startswith(f"tasks[{i}].{split}."):
            cut.append((offset, offset + size))
        offset += size
    for start, end in reversed(cut):
        del payload[start:end]
    manifest["tasks"][i][2 if split == "train" else 3] = 0


def corrupt(tmp_path, mutate, name):
    """Save the tiny stream, let `mutate(manifest, payload, stream)` edit it in place, and write it back."""
    stream = generate_stream(tiny_stream_config())
    path = tmp_path / f"{name}.bin"
    save_stream(stream, path)
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw)
    manifest, payload = json.loads(raw[4 : 4 + header_len]), bytearray(raw[4 + header_len :])
    mutate(manifest, payload, stream)
    header = json.dumps(manifest).encode()
    path.write_bytes(struct.pack("<I", len(header)) + header + payload)
    return path


@pytest.mark.parametrize(
    "name,mutate,fragment",
    [
        ("missing_mode", lambda m, p, s: m.pop("mode"), "mode"),
        ("bad_mode", lambda m, p, s: m.update(mode="episodic"), "mode"),
        ("bad_version", lambda m, p, s: m.update(format_version=99), "field format_version: unsupported value 99"),
        ("seed_type", lambda m, p, s: m.update(seed="seven"), "seed"),
        ("missing_tasks", lambda m, p, s: m.pop("tasks"), "tasks"),
        ("empty_tasks", lambda m, p, s: m.update(tasks=[]), "field tasks: must be a non-empty list"),
        ("negative_count", lambda m, p, s: m["tasks"][1].__setitem__(2, -1), "field tasks[1] must be"),
        ("zero_width", lambda m, p, s: m.update(d_in=0), "field d_in must be an integer in [1, 2**63), got 0"),
        ("truncated", lambda m, p, s: p.__delitem__(slice(-8, None)), "expected"),
        ("trailing_bytes", lambda m, p, s: p.extend(bytes(8)), "expected"),
        ("partial_value", lambda m, p, s: p.__delitem__(slice(-3, None)), "truncated"),
        ("train_nan", lambda m, p, s: overwrite(p, s.tasks[0].train_x[3, 7], math.nan),
         "field tasks[0].train.x holds a non-finite number"),
        ("mean_inf", lambda m, p, s: overwrite(p, s.tasks[0].classes[1].mean[0], math.inf),
         "field tasks[0].means holds a non-finite number"),
        ("train_label_outside", lambda m, p, s: set_int(p, m, "tasks[0].train.class_ids", 99),
         "field tasks[0].train.class_ids holds label 99"),
        ("test_label_of_other_task", lambda m, p, s: set_int(p, m, "tasks[1].test.class_ids", 0, at=5),
         "field tasks[1].test.class_ids holds label 0"),
        ("repeated_class_id", lambda m, p, s: set_int(p, m, "tasks[0].class_ids", s.tasks[0].class_ids[0], at=1),
         "field tasks[0].class_ids holds a repeated class id"),
        ("empty_train", lambda m, p, s: empty_split(p, m, 0, "train"), "field tasks[0] must be"),
        ("empty_test", lambda m, p, s: empty_split(p, m, 1, "test"), "field tasks[1] must be"),
        ("no_classes", lambda m, p, s: m["tasks"][0].__setitem__(1, 0), "field tasks[0] must be"),
    ],
)
def test_corrupted_fields_are_named(tmp_path, name, mutate, fragment):
    path = corrupt(tmp_path, mutate, name)
    with pytest.raises(ContractError, match=re.escape(fragment)):
        load_stream(path)


def test_task_without_train_samples_exits_2(tmp_path, capsys, monkeypatch):
    """`run` on a stream whose task 1 has no train samples stops at load, before any training."""
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            monkeypatch.delenv(name)
    stream = generate_stream(tiny_stream_config())
    c0 = tmp_path / "c0.ckpt"
    save_checkpoint(snapshot(DualEncoder(0, vocab_size=stream.vocab_size, d_in=stream.d_in)), c0)
    path = corrupt(tmp_path, lambda m, p, s: empty_split(p, m, 0, "train"), "empty")
    out = tmp_path / "run"
    argv = ["run", "--stream", str(path), "--c0", str(c0), "--out", str(out), "--seeds", "0", "--variant", "continual_ft"]
    assert main(argv) == 2
    assert "field tasks[0] must be" in capsys.readouterr().err
    assert not out.exists()


def test_label_outside_its_task_exits_2_before_pretraining(tmp_path, capsys, monkeypatch):
    """A train label outside its task's classes stops `pretrain` at load, before any c0 is written."""
    for name in list(os.environ):
        if name.startswith("MULKI_"):
            monkeypatch.delenv(name)
    path = corrupt(tmp_path, lambda m, p, s: set_int(p, m, "tasks[0].train.class_ids", 99), "label")
    c0 = tmp_path / "c0.ckpt"
    assert main(["pretrain", "--stream", str(path), "--out", str(c0)]) == 2
    assert "field tasks[0].train.class_ids holds label 99" in capsys.readouterr().err
    assert not c0.exists()
