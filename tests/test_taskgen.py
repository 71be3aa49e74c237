"""Synthetic streams: determinism, structure, statistics, serialization."""

import json

import numpy as np
import pytest

from mulki.config import config_from_dict
from mulki.errors import ConfigError, StreamFormatError
from mulki.taskgen import (
    StreamConfig,
    batches,
    generate_stream,
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
    """The canonical bytes `save_stream` writes for `stream`: streams compare by these."""
    save_stream(stream, path)
    return path.read_bytes()


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
    ids = [c.class_id for c in stream.all_classes()]
    assert ids == list(range(8))  # N*K unique, contiguous
    assert all(c.token_id == c.class_id + 1 for c in stream.all_classes())
    assert stream.vocab_size == 9  # template token 0 plus 8 class tokens
    assert all(c.domain_id == 0 for c in stream.all_classes())


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
    domains = {c.domain_id for c in stream.all_classes()}
    assert domains == {0, 1, 2}


def test_per_class_sample_mean_statistics():
    cfg = small_config(train_per_class=400, noise_scale=0.5)
    stream = generate_stream(cfg)
    for task in stream.tasks:
        groups = task.images_by_class()
        for c in task.classes:
            x = groups[c.class_id]
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
    run1 = [(x.data.copy(), y.copy()) for x, y, _ in batches(task, 8, seed=5, iterations=4)]
    run2 = [(x.data.copy(), y.copy()) for x, y, _ in batches(task, 8, seed=5, iterations=4)]
    for (x1, y1), (x2, y2) in zip(run1, run2):
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert not np.array_equal(run1[0][0], run1[1][0])  # iterations differ

    other_seed = next(iter(batches(task, 8, seed=6, iterations=1)))[0]
    assert not np.array_equal(run1[0][0], other_seed.data)

    for x, y in run1:
        assert x.shape == (8, stream.d_in)
        assert set(y) <= set(task.class_ids)


def test_batch_indices_select_the_batch():
    task = generate_stream(small_config()).tasks[0]
    for x, y, idx in batches(task, 8, seed=5, iterations=3):
        assert np.array_equal(x.data, task.train_x[idx])
        assert np.array_equal(y, task.train_y[idx])


def test_batches_rejects_bad_size():
    stream = generate_stream(small_config())
    with pytest.raises(ConfigError):
        next(batches(stream.tasks[0], 0, seed=1, iterations=1))


def test_pretrain_pool_composition():
    cfg = small_config(pretrain_per_class=50, pretrain_label_noise=0.1)
    stream = generate_stream(cfg)
    n_classes = cfg.n_tasks * cfg.classes_per_task
    assert stream.pretrain_x.shape == (n_classes * 50, cfg.d_in)
    assert stream.pretrain_tokens.shape == (n_classes * 50,)

    own = np.repeat([c.token_id for c in stream.all_classes()], 50)
    flipped = (stream.pretrain_tokens != own).mean()
    assert 0.03 <= flipped <= 0.2  # noisy but mostly faithful

    clean = generate_stream(small_config(pretrain_label_noise=0.0))
    own_clean = np.repeat([c.token_id for c in clean.all_classes()], 8)
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


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"schema_version\": 1,\n  oops\n}\n")
    with pytest.raises(StreamFormatError) as err:
        load_stream(path)
    assert "line 3" in str(err.value)


def corrupt(tmp_path, mutate, name):
    stream = generate_stream(tiny_stream_config())
    path = tmp_path / f"{name}.json"
    save_stream(stream, path)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "name,mutate,fragment",
    [
        ("missing_mode", lambda d: d.pop("mode"), "mode"),
        ("bad_mode", lambda d: d.update(mode="episodic"), "mode"),
        ("bad_version", lambda d: d.update(schema_version=99), "schema_version"),
        ("seed_type", lambda d: d.update(seed="seven"), "seed"),
        ("missing_tasks", lambda d: d.pop("tasks"), "tasks"),
        ("class_mean_width", lambda d: d["tasks"][0]["classes"][0]["mean"].append(0.0), "mean"),
        ("train_row_width", lambda d: d["tasks"][0]["train"]["x"][0].pop(), "x[0]"),
        ("label_type", lambda d: d["tasks"][0]["train"]["class_ids"].__setitem__(0, "zero"), "class_ids"),
        ("length_mismatch", lambda d: d["tasks"][0]["train"]["class_ids"].pop(), "lengths differ"),
        ("pool_token_type", lambda d: d["pretrain_pool"]["token_ids"].__setitem__(0, 1.5), "token_ids"),
    ],
)
def test_corrupted_fields_are_named(tmp_path, name, mutate, fragment):
    path = corrupt(tmp_path, mutate, name)
    with pytest.raises(StreamFormatError) as err:
        load_stream(path)
    assert fragment in str(err.value)
