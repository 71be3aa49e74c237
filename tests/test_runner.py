"""Training loop: baselines, determinism, lifecycle, persistence."""

import math

import numpy as np
import pytest

import mulki.losses as losses
import mulki.runner as runner
import mulki.taskgen as taskgen
from mulki.config import apply_variant, config_from_dict
from mulki.encoder import DualEncoder, load_flat, params_flat, snapshot
from mulki.errors import ConfigError, TrainingDivergedError
from mulki.optim import AdamW
from mulki.prototypes import PrototypeStore
from mulki.runner import (
    HyperParams,
    ModelConfig,
    evaluate_row,
    pretrain,
    run_stream,
    save_run_record,
    train_task,
)
from mulki.taskgen import StreamSpec, generate_stream
from mulki.tensor import Tensor

from conftest import TINY_MODEL, fast_hyper, tiny_stream_config


def make_c0(stream, hyper=None, seed=0):
    return pretrain(stream, hyper or fast_hyper(), seed, ModelConfig(**TINY_MODEL))


def test_continual_ft_bitwise_matches_reference_loop(tiny_stream):
    seed = 3
    hyper = apply_variant(fast_hyper(), "continual_ft")
    c0 = make_c0(tiny_stream, seed=seed)
    record = run_stream(tiny_stream, hyper, seed, c0)

    # independent loop: plain image-text cross-entropy + AdamW, same batches
    student = c0.trainable_copy()
    matrix = [evaluate_row(c0, tiny_stream, 0)]
    for i, task in enumerate(tiny_stream.tasks, start=1):
        opt = AdamW(
            student.parameters(),
            lr=hyper.lr,
            betas=(hyper.adam_beta1, hyper.adam_beta2),
            eps=hyper.adam_eps,
            weight_decay=hyper.weight_decay,
        )
        position_of = {cid: p for p, cid in enumerate(task.class_ids)}
        for x, labels, _ in taskgen.batches(task, hyper.batch_size, seed, hyper.iterations_per_task):
            feats = student.encode_images(x)
            texts = student.encode_texts(task.token_ids)
            dist = losses.image_text_dist(feats, texts, hyper.tau_ce)
            loss = losses.cross_entropy(dist, [position_of[int(c)] for c in labels])
            opt.zero_grad()
            loss.backward()
            opt.step()
        matrix.append(evaluate_row(snapshot(student), tiny_stream, i))

    assert np.array_equal(record.matrix, np.array(matrix))
    assert np.array_equal(record.checkpoints[-1].params_flat(), params_flat(student))


def test_double_run_is_bitwise_identical(tiny_stream):
    c0 = make_c0(tiny_stream)
    a = run_stream(tiny_stream, fast_hyper(), 1, c0)
    b = run_stream(tiny_stream, fast_hyper(), 1, c0)
    assert np.array_equal(a.matrix, b.matrix)
    for ca, cb in zip(a.checkpoints, b.checkpoints):
        assert np.array_equal(ca.params_flat(), cb.params_flat())


def test_matrix_shape_and_row0(tiny_stream):
    c0 = make_c0(tiny_stream)
    record = run_stream(tiny_stream, fast_hyper(), 1, c0)
    n = tiny_stream.n_tasks
    assert record.matrix.shape == (n + 1, n)
    assert np.array_equal(record.matrix[0], evaluate_row(c0, tiny_stream, 0))
    assert len(record.checkpoints) == n
    assert len(record.loss_rows) == n * fast_hyper().iterations_per_task


def test_teacher_parameters_never_move(tiny_stream):
    c0 = make_c0(tiny_stream)
    before = c0.params_flat()
    run_stream(tiny_stream, fast_hyper(), 1, c0)
    assert np.array_equal(c0.params_flat(), before)


class InstrumentedStore(PrototypeStore):
    events: list = []

    @classmethod
    def init_from_model(cls, model, images_by_class, **kw):
        store = super().init_from_model(model, images_by_class, **kw)
        store.__class__ = cls
        cls.events.append(("init", sorted(images_by_class)))
        return store

    def ema_update(self, feats_by_class):
        type(self).events.append(("update", sorted(feats_by_class)))
        return super().ema_update(feats_by_class)

    def purge(self):
        type(self).events.append(("purge", len(self)))
        super().purge()


def test_prototype_store_lifecycle(tiny_stream, monkeypatch):
    c0 = make_c0(tiny_stream)
    InstrumentedStore.events = []
    monkeypatch.setattr(runner, "PrototypeStore", InstrumentedStore)
    hyper = fast_hyper()
    run_stream(tiny_stream, hyper, 1, c0)

    events = InstrumentedStore.events
    kinds = [kind for kind, _ in events]
    n, iters = tiny_stream.n_tasks, hyper.iterations_per_task
    # per task: one init, `iterations` updates, one purge; store full at purge
    assert kinds == (["init"] + ["update"] * iters + ["purge"]) * n
    for i, task in enumerate(tiny_stream.tasks):
        init_payload = events[i * (iters + 2)][1]
        assert init_payload == sorted(task.class_ids)
    for kind, payload in events:
        if kind == "purge":
            assert payload == tiny_stream.tasks[0].classes.__len__()


def test_loss_decreases_over_first_fifty_iterations():
    # default-scale stream; median over 5 seeds of (early mean - late mean)
    stream = generate_stream(taskgen.StreamConfig())
    hyper = HyperParams(iterations_per_task=50, pretrain_iterations=60)
    drops = []
    for seed in range(5):
        c0 = pretrain(stream, hyper, seed)
        student = c0.trainable_copy()
        result = train_task(student, c0, c0, stream.tasks[0], hyper, seed)
        totals = [bd.total for _, _, bd in result.loss_rows]
        assert all(math.isfinite(t) for t in totals)
        drops.append(np.mean(totals[:10]) - np.mean(totals[-10:]))
    assert np.median(drops) > 0


def test_divergence_is_reported(tiny_stream, monkeypatch):
    c0 = make_c0(tiny_stream)
    bad = losses.LossBreakdown()
    bad.total = float("nan")

    def explode(*args, **kwargs):
        return Tensor(float("nan")), bad

    monkeypatch.setattr(losses, "total_loss", explode)
    with pytest.raises(TrainingDivergedError) as err:
        run_stream(tiny_stream, fast_hyper(), 1, c0)
    assert "iteration 1" in str(err.value)
    assert err.value.breakdown is bad


def capture_we_states(monkeypatch) -> list:
    """Record every ensemble state train_task starts, by wrapping runner.we_init."""
    states = []
    we_init = runner.we_init

    def recording_we_init(*args, **kwargs):
        states.append(we_init(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(runner, "we_init", recording_we_init)
    return states


def test_we_state_accounting(tiny_stream, monkeypatch):
    c0 = make_c0(tiny_stream)
    states = capture_we_states(monkeypatch)
    hyper = fast_hyper(iterations_per_task=10, we_interval=3)
    student = c0.trainable_copy()
    result = train_task(student, c0, c0, tiny_stream.tasks[0], hyper, 2)
    (state,) = states
    assert state.m == 3  # floor(10 / 3)
    assert np.array_equal(params_flat(student), state.theta_hat)
    assert np.array_equal(result.checkpoint.params_flat(), state.theta_hat)


def test_ensembling_changes_final_parameters(tiny_stream, monkeypatch):
    c0 = make_c0(tiny_stream)
    states = capture_we_states(monkeypatch)
    raw = train_task(
        c0.trainable_copy(), c0, c0, tiny_stream.tasks[0], fast_hyper(enable_we=False), 2
    )
    assert states == []  # no ensemble is started
    averaged = train_task(
        c0.trainable_copy(), c0, c0, tiny_stream.tasks[0], fast_hyper(we_interval=2), 2
    )
    assert not np.array_equal(raw.checkpoint.params_flat(), averaged.checkpoint.params_flat())


def test_ewe_overwrites_live_parameters(tiny_stream):
    c0 = make_c0(tiny_stream)
    # eta * interval = 4 divides 8: the live weights jump to the mean mid-task
    hyper = fast_hyper(iterations_per_task=8, we_interval=2, ewe_eta=2, enable_ewe=True)
    ewe = train_task(c0.trainable_copy(), c0, c0, tiny_stream.tasks[0], hyper, 2)
    we_only = train_task(
        c0.trainable_copy(), c0, c0, tiny_stream.tasks[0],
        fast_hyper(iterations_per_task=8, we_interval=2), 2,
    )
    assert not np.array_equal(ewe.checkpoint.params_flat(), we_only.checkpoint.params_flat())


def test_pretrain_deterministic(tiny_stream):
    a = make_c0(tiny_stream, seed=5)
    b = make_c0(tiny_stream, seed=5)
    assert np.array_equal(a.params_flat(), b.params_flat())
    assert not np.array_equal(a.params_flat(), make_c0(tiny_stream, seed=6).params_flat())


def test_pretrain_zero_iterations_is_random_init(tiny_stream):
    got = pretrain(tiny_stream, fast_hyper(pretrain_iterations=0), 4, ModelConfig(**TINY_MODEL))
    fresh = DualEncoder(4, vocab_size=tiny_stream.vocab_size, d_in=tiny_stream.d_in, **TINY_MODEL)
    assert np.array_equal(got.params_flat(), params_flat(fresh))


def test_pretrain_rejects_empty_pool(tiny_stream):
    crippled = StreamSpec(
        mode=tiny_stream.mode,
        seed=tiny_stream.seed,
        d_in=tiny_stream.d_in,
        pretrain_x=np.zeros((0, tiny_stream.d_in)),
        pretrain_tokens=np.zeros(0, dtype=np.int64),
        tasks=tiny_stream.tasks,
    )
    with pytest.raises(ConfigError):
        pretrain(crippled, fast_hyper(), 0, ModelConfig(**TINY_MODEL))


def test_first_task_weights_degenerate_to_half(tiny_stream):
    # both teachers are c0 on task 1, so every similarity weight is 0.5
    c0 = make_c0(tiny_stream)
    student = c0.trainable_copy()
    result = train_task(student, c0, c0, tiny_stream.tasks[0], fast_hyper(), 2)
    for _, _, bd in result.loss_rows:
        assert bd.per_sample_r0
        assert all(r == 0.5 for r in bd.per_sample_r0)


def logged_wc(record, out_dir) -> list:
    """(task, iteration, wc) from the losses.csv a saved run writes."""
    save_run_record(record, out_dir)
    lines = (out_dir / "losses.csv").read_text().splitlines()
    column = lines[0].split(",").index("wc")
    return [(int(row[0]), int(row[1]), float(row[column])) for row in (line.split(",") for line in lines[1:])]


def test_drift_anchor_only_on_multi_domain_streams_with_wc(tiny_stream, tmp_path):
    c0 = make_c0(tiny_stream)
    full = logged_wc(run_stream(tiny_stream, fast_hyper(), 1, c0), tmp_path / "full")
    # each task starts from its own reference (the previous task's model), so iteration 1 reads 0
    assert all(wc == 0.0 for _, it, wc in full if it == 1)
    assert all(wc > 0.0 for _, it, wc in full if it > 1)
    assert len(full) == tiny_stream.n_tasks * fast_hyper().iterations_per_task

    off = logged_wc(run_stream(tiny_stream, fast_hyper(enable_wc=False), 1, c0), tmp_path / "off")
    ci_stream = generate_stream(tiny_stream_config(mode="class_incremental"))
    ci = logged_wc(run_stream(ci_stream, fast_hyper(enable_wc=True), 1, make_c0(ci_stream)), tmp_path / "ci")
    for rows in (off, ci):
        assert rows and all(wc == 0.0 for _, _, wc in rows)


def test_run_validates_hyper(tiny_stream):
    c0 = make_c0(tiny_stream)
    with pytest.raises(ConfigError):
        run_stream(tiny_stream, fast_hyper(weighting_mode="harmonic"), 1, c0)


def test_hyper_and_model_dict_parsing():
    hyper = config_from_dict({"hyper": {"lr": 0.002, "iterations_per_task": 7}}).hyper
    assert hyper.lr == 0.002 and hyper.iterations_per_task == 7
    with pytest.raises(ConfigError) as err:
        config_from_dict({"hyper": {"learning_rate": 0.002}})
    assert "learning_rate" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"hyper": {"tau": -1.0}})

    cfg = config_from_dict({"model": {"hidden": 32}}).model
    assert cfg.hidden == 32
    with pytest.raises(ConfigError) as err:
        config_from_dict({"model": {"hiden": 32}})
    assert "hiden" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"embed_dim": 0}})


def test_ensemble_mode_mapping():
    assert HyperParams(enable_we=False, enable_ewe=False).ensemble_mode() is None
    assert HyperParams(enable_we=True, enable_ewe=False).ensemble_mode() == "we"
    assert HyperParams(enable_we=False, enable_ewe=True).ensemble_mode() == "ewe"


def test_save_run_record(tmp_path, tiny_stream):
    c0 = make_c0(tiny_stream)
    record = run_stream(tiny_stream, fast_hyper(), 1, c0, config_echo={"variant": "full"})
    out = tmp_path / "run"
    save_run_record(record, out)

    names = sorted(p.name for p in out.iterdir())
    assert names == ["losses.csv", "metrics.json", "run.json", "task_01.ckpt", "task_02.ckpt"]

    csv_lines = (out / "losses.csv").read_text().splitlines()
    assert csv_lines[0].startswith("task,iteration,ce,")
    assert csv_lines[0].endswith(",total,r0_mean")
    assert len(csv_lines) == 1 + len(record.loss_rows)
    assert csv_lines[1].split(",")[-1] != ""  # similarity mode logs r0

    again = tmp_path / "again"
    save_run_record(record, again)
    for name in names:
        assert (out / name).read_bytes() == (again / name).read_bytes()

    ft = run_stream(tiny_stream, apply_variant(fast_hyper(), "continual_ft"), 1, c0)
    ft_out = tmp_path / "ft"
    save_run_record(ft, ft_out)
    ft_lines = (ft_out / "losses.csv").read_text().splitlines()
    assert ft_lines[1].endswith(",")  # no weighting column without distillation
