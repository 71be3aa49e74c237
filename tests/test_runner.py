"""Training loop: baselines, determinism, lifecycle, persistence."""

import math

import numpy as np
import pytest

import mulki.losses as losses
import mulki.runner as runner
import mulki.taskgen as taskgen
from mulki.config import apply_variant, config_from_dict
from mulki.encoder import DualEncoder, load_flat, params_flat, snapshot, stack
from mulki.errors import ConfigError, ContractError, TrainingDivergedError
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

from conftest import TINY_MODEL, fast_hyper, tiny_stream_config


def make_c0(stream, hyper=None, seed=0):
    return pretrain(stream, hyper or fast_hyper(), seed, ModelConfig(**TINY_MODEL))


def trainable(model):
    """A trainable single model holding `model`'s exact parameters."""
    twin = DualEncoder(model.seed, **model.dims)
    load_flat(twin, params_flat(model))
    return twin


def train_alone(c0, task, hyper, seed):
    """train_task on a stack of one seed starting from c0, with c0 as both teachers; (student, result)."""
    student = stack([c0])
    return student, train_task(student, c0, c0, task, hyper, [seed])


TOTAL = losses.LossBreakdown.FIELDS.index("total")


def test_continual_ft_bitwise_matches_reference_loop(tiny_stream):
    seed = 3
    hyper = apply_variant(fast_hyper(), "continual_ft")
    c0 = make_c0(tiny_stream, seed=seed)
    (record,) = run_stream(tiny_stream, hyper, [seed], [c0])

    # independent loop on a single model: plain image-text cross-entropy + AdamW, same batches
    student = trainable(c0)
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
        for x, rows in taskgen.batches(task, hyper.batch_size, seed, hyper.iterations_per_task):
            labels = task.train_y[rows]
            feats = student.encode_images(x)
            texts = student.encode_texts(task.token_ids)
            dist = losses.image_text_dist(feats, texts, hyper.tau_ce)
            loss = losses.cross_entropy(dist, [position_of[int(c)] for c in labels])
            opt.zero_grad()
            loss.backward()
            opt.step()
        matrix.append(evaluate_row(snapshot(student), tiny_stream, i))

    assert np.array_equal(record.matrix, np.array(matrix))
    assert np.array_equal(params_flat(record.checkpoints[-1]), params_flat(student))


def test_double_run_is_bitwise_identical(tiny_stream):
    c0 = make_c0(tiny_stream)
    (a,) = run_stream(tiny_stream, fast_hyper(), [1], [c0])
    (b,) = run_stream(tiny_stream, fast_hyper(), [1], [c0])
    assert np.array_equal(a.matrix, b.matrix)
    for ca, cb in zip(a.checkpoints, b.checkpoints):
        assert np.array_equal(params_flat(ca), params_flat(cb))


def test_matrix_shape_and_row0(tiny_stream):
    c0 = make_c0(tiny_stream)
    (record,) = run_stream(tiny_stream, fast_hyper(), [1], [c0])
    n = tiny_stream.n_tasks
    assert record.matrix.shape == (n + 1, n)
    assert np.array_equal(record.matrix[0], evaluate_row(c0, tiny_stream, 0))
    assert len(record.checkpoints) == n
    assert len(record.losses) == n * fast_hyper().iterations_per_task


def test_teacher_parameters_never_move(tiny_stream):
    c0 = make_c0(tiny_stream)
    before = params_flat(c0)
    run_stream(tiny_stream, fast_hyper(), [1], [c0])
    assert np.array_equal(params_flat(c0), before)


class InstrumentedStore(PrototypeStore):
    events: list = []

    @classmethod
    def init_from_model(cls, model, images_by_class, **kw):
        store = super().init_from_model(model, images_by_class, **kw)
        store.__class__ = cls
        cls.events.append(("init", ([len(images) for images in images_by_class], store.rows.shape[:-1])))
        return store

    def ema_update(self, feats, positions):
        type(self).events.append(("update", sorted(set(positions.reshape(-1).tolist()))))
        return super().ema_update(feats, positions)


def test_prototype_store_lifecycle(tiny_stream, monkeypatch):
    c0 = make_c0(tiny_stream)
    seeds = [1, 2, 3]
    InstrumentedStore.events = []
    monkeypatch.setattr(runner, "PrototypeStore", InstrumentedStore)
    hyper = fast_hyper()
    run_stream(tiny_stream, hyper, seeds, [c0] * len(seeds))

    events = InstrumentedStore.events
    kinds = [kind for kind, _ in events]
    n, iters = tiny_stream.n_tasks, hyper.iterations_per_task
    # per task, for the whole stack: one init from every class's training images in class order,
    # holding every seed's rows, then `iterations` updates
    assert kinds == (["init"] + ["update"] * iters) * n
    for i, task in enumerate(tiny_stream.tasks):
        sizes, rows = events[i * (iters + 1)][1]
        assert sizes == [int(np.sum(task.train_y == class_id)) for class_id in task.class_ids]
        assert rows == (len(seeds), len(task.class_ids))
    for kind, payload in events:
        if kind == "update":
            assert payload and set(payload) <= set(range(len(tiny_stream.tasks[0].classes)))


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap `owner.name` so that each call appends its positional arguments to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize(
    "variant, keeps_store, bundles",
    [
        ("continual_ft", False, []),
        ("only_c0", True, ["c0"]),
        ("only_prev", True, ["prev"]),
        ("full", True, ["c0", "prev"]),
        ("average", True, ["c0", "prev"]),  # a fixed weight strictly between 0 and 1
    ],
)
def test_each_arm_builds_only_what_its_terms_read(tiny_stream, monkeypatch, variant, keeps_store, bundles):
    """The prototype store exists iff some term reads it; the per-task teacher bundle holds exactly the teachers with weight."""
    c0 = make_c0(tiny_stream)
    calls = {
        name: count_calls(monkeypatch, owner, attr)
        for name, owner, attr in [
            ("init", PrototypeStore, "init_from_model"),
            ("ema", PrototypeStore, "ema_update"),
            ("teacher", losses, "teacher_outputs"),
            ("rows", losses.TeacherOutputs, "rows"),
            ("dist", losses, "image_text_dist"),
        ]
    }
    hyper = apply_variant(fast_hyper(), variant)
    run_stream(tiny_stream, hyper, [1], [c0])

    n, iters = tiny_stream.n_tasks, hyper.iterations_per_task
    assert len(calls["init"]) == (n if keeps_store else 0)
    assert len(calls["ema"]) == (n * iters if keeps_store else 0)
    assert [["c0" if model is c0 else "prev" for model in args[0]] for args in calls["teacher"]] == ([bundles] * n if bundles else [])
    assert len(calls["rows"]) == (n * iters if bundles else 0)  # both teachers' rows in one call per batch
    if variant == "continual_ft":
        assert len(calls["dist"]) == n * iters  # the supervised distribution at tau_ce, nothing else


def test_label_outside_the_task_raises_contract_error(tiny_stream):
    c0 = make_c0(tiny_stream)
    task = tiny_stream.tasks[0]
    train_y = task.train_y.copy()
    train_y[5] = 99
    bad = taskgen.TaskSpec(task.task_id, task.classes, task.train_x, train_y, task.test_x, task.test_y)
    for variant in ("full", "continual_ft"):
        with pytest.raises(ContractError, match="training label 99"):
            train_alone(c0, bad, apply_variant(fast_hyper(), variant), 1)


def test_loss_decreases_over_first_fifty_iterations():
    # default-scale stream; median over 5 seeds of (early mean - late mean)
    stream = generate_stream(taskgen.StreamConfig())
    hyper = HyperParams(iterations_per_task=50, pretrain_iterations=60)
    drops = []
    for seed in range(5):
        c0 = pretrain(stream, hyper, seed)
        _, result = train_alone(c0, stream.tasks[0], hyper, seed)
        totals = result.losses[:, 0, TOTAL]
        assert all(math.isfinite(t) for t in totals)
        drops.append(np.mean(totals[:10]) - np.mean(totals[-10:]))
    assert np.median(drops) > 0


def test_divergence_is_reported(tiny_stream, monkeypatch):
    c0 = make_c0(tiny_stream)
    real_total_loss = losses.total_loss

    def explode(*args, **kwargs):
        loss, bd = real_total_loss(*args, **kwargs)
        bd.total = bd.total * float("nan")
        return loss, bd

    monkeypatch.setattr(losses, "total_loss", explode)
    with pytest.raises(TrainingDivergedError) as err:
        run_stream(tiny_stream, fast_hyper(), [1], [c0])
    assert str(err.value).startswith("seed 1 task 1 iteration 1: non-finite loss; breakdown ce=")
    assert err.value.seed == 1 and err.value.records == []
    bd = err.value.breakdown
    assert math.isnan(bd.total) and math.isfinite(bd.ce) and type(bd.ce) is float


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
    student, result = train_alone(c0, tiny_stream.tasks[0], hyper, 2)
    (state,) = states
    assert state.m == 3  # floor(10 / 3)
    assert state.theta_hat.shape == (1, params_flat(c0).size)  # a single seed trains as a stack of one
    assert np.array_equal(params_flat(student), state.theta_hat)
    assert np.array_equal(params_flat(result.checkpoints[0]), state.theta_hat[0])


def test_ensembling_changes_final_parameters(tiny_stream, monkeypatch):
    c0 = make_c0(tiny_stream)
    states = capture_we_states(monkeypatch)
    _, raw = train_alone(c0, tiny_stream.tasks[0], fast_hyper(ensemble="off"), 2)
    assert states == []  # no ensemble is started
    _, averaged = train_alone(c0, tiny_stream.tasks[0], fast_hyper(we_interval=2), 2)
    assert not np.array_equal(params_flat(raw.checkpoints[0]), params_flat(averaged.checkpoints[0]))


def test_ewe_overwrites_live_parameters(tiny_stream):
    c0 = make_c0(tiny_stream)
    # eta * interval = 4 divides 8: the live weights jump to the mean mid-task
    hyper = fast_hyper(iterations_per_task=8, we_interval=2, ewe_eta=2, ensemble="ewe")
    _, ewe = train_alone(c0, tiny_stream.tasks[0], hyper, 2)
    _, we_only = train_alone(c0, tiny_stream.tasks[0], fast_hyper(iterations_per_task=8, we_interval=2), 2)
    assert not np.array_equal(params_flat(ewe.checkpoints[0]), params_flat(we_only.checkpoints[0]))


def ensemble_events(tiny_stream, monkeypatch, ensemble) -> list:
    """Averagings, parameter loads and moment resets of one 8-iteration task (interval 2, eta 2), in order.

    Each event is (name, k), where k is the iteration of the latest averaging (0 before the first).
    """
    c0 = make_c0(tiny_stream)
    events, latest = [], [0]
    real_step, real_load, real_reset = runner.we_step, runner.load_flat, AdamW.reset_moments

    def step(state, theta, k):
        latest[0] = k
        events.append(("average", k))
        return real_step(state, theta, k)

    def load(model, vector):
        events.append(("load", latest[0]))
        real_load(model, vector)

    def reset(opt):
        events.append(("reset", latest[0]))
        real_reset(opt)

    monkeypatch.setattr(runner, "we_step", step)
    monkeypatch.setattr(runner, "load_flat", load)
    monkeypatch.setattr(AdamW, "reset_moments", reset)
    hyper = fast_hyper(iterations_per_task=8, we_interval=2, ewe_eta=2, ensemble=ensemble)
    train_alone(c0, tiny_stream.tasks[0], hyper, 2)
    return events


def test_ewe_overwrite_schedule(tiny_stream, monkeypatch):
    # every eta-th averaging (k = 4, 8) loads the ensemble and resets the moments; the task end loads it once more
    assert ensemble_events(tiny_stream, monkeypatch, "ewe") == [
        ("reset", 0),
        ("average", 2), ("average", 4), ("load", 4), ("reset", 4),
        ("average", 6), ("average", 8), ("load", 8), ("reset", 8),
        ("load", 8),
    ]


def test_ewe_inactive_in_we_mode(tiny_stream, monkeypatch):
    assert ensemble_events(tiny_stream, monkeypatch, "we") == [
        ("reset", 0), ("average", 2), ("average", 4), ("average", 6), ("average", 8), ("load", 8),
    ]


def test_no_ensemble_leaves_the_last_iterate(tiny_stream, monkeypatch):
    assert ensemble_events(tiny_stream, monkeypatch, "off") == [("reset", 0)]


def test_pretrain_deterministic(tiny_stream):
    a = make_c0(tiny_stream, seed=5)
    b = make_c0(tiny_stream, seed=5)
    assert np.array_equal(params_flat(a), params_flat(b))
    assert not np.array_equal(params_flat(a), params_flat(make_c0(tiny_stream, seed=6)))


def test_pretrain_zero_iterations_is_random_init(tiny_stream):
    got = pretrain(tiny_stream, fast_hyper(pretrain_iterations=0), 4, ModelConfig(**TINY_MODEL))
    fresh = DualEncoder(4, vocab_size=tiny_stream.vocab_size, d_in=tiny_stream.d_in, **TINY_MODEL)
    assert np.array_equal(params_flat(got), params_flat(fresh))


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


def test_first_task_weights_degenerate_to_half(tiny_stream, monkeypatch):
    # both teachers are c0 on task 1, so every similarity weight is 0.5
    c0 = make_c0(tiny_stream)
    weights = []

    def recording_sample_weights(*args):
        r0, r_prev = real_sample_weights(*args)
        weights.append(r0.data)
        return r0, r_prev

    real_sample_weights = losses.sample_weights
    monkeypatch.setattr(losses, "sample_weights", recording_sample_weights)
    _, result = train_alone(c0, tiny_stream.tasks[0], fast_hyper(), 2)
    assert len(weights) == len(result.losses)
    assert all(np.all(r0 == 0.5) for r0 in weights)
    assert np.all(result.losses[:, 0, -1] == 0.5)  # the logged r0_mean


def logged_wc(record, out_dir) -> list:
    """(task, iteration, wc) from the losses.csv a saved run writes."""
    save_run_record(record, out_dir)
    lines = (out_dir / "losses.csv").read_text().splitlines()
    column = lines[0].split(",").index("wc")
    return [(int(row[0]), int(row[1]), float(row[column])) for row in (line.split(",") for line in lines[1:])]


def test_drift_anchor_only_on_multi_domain_streams_with_wc(tiny_stream, tmp_path):
    c0 = make_c0(tiny_stream)
    full = logged_wc(run_stream(tiny_stream, fast_hyper(), [1], [c0])[0], tmp_path / "full")
    # each task starts from its own reference (the previous task's model), so iteration 1 reads 0
    assert all(wc == 0.0 for _, it, wc in full if it == 1)
    assert all(wc > 0.0 for _, it, wc in full if it > 1)
    assert len(full) == tiny_stream.n_tasks * fast_hyper().iterations_per_task

    off = logged_wc(run_stream(tiny_stream, fast_hyper(enable_wc=False), [1], [c0])[0], tmp_path / "off")
    ci_stream = generate_stream(tiny_stream_config(mode="class_incremental"))
    ci = logged_wc(run_stream(ci_stream, fast_hyper(enable_wc=True), [1], [make_c0(ci_stream)])[0], tmp_path / "ci")
    for rows in (off, ci):
        assert rows and all(wc == 0.0 for _, _, wc in rows)


def test_run_validates_hyper(tiny_stream):
    c0 = make_c0(tiny_stream)
    with pytest.raises(ConfigError, match="hyper.teacher_weight"):
        run_stream(tiny_stream, fast_hyper(teacher_weight=1.5), [1], [c0])


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
    assert HyperParams().ensemble == "we"
    for name in ("full", "only_c0", "only_prev", "average"):
        assert apply_variant(HyperParams(ensemble="ewe"), name).ensemble == "ewe"
    for name in ("continual_ft", "wo_we_wc", "wo_we", "only_fd", "only_ird", "only_idd", "only_mdd"):
        assert apply_variant(HyperParams(ensemble="ewe"), name).ensemble == "off"


def test_save_run_record(tmp_path, tiny_stream):
    c0 = make_c0(tiny_stream)
    (record,) = run_stream(tiny_stream, fast_hyper(), [1], [c0], config_echo={"variant": "full"})
    out = tmp_path / "run"
    save_run_record(record, out)

    names = sorted(p.name for p in out.iterdir())
    assert names == ["losses.csv", "metrics.json", "run.json", "task_01.ckpt", "task_02.ckpt"]

    csv_lines = (out / "losses.csv").read_text().splitlines()
    assert csv_lines[0].startswith("task,iteration,ce,")
    assert csv_lines[0].endswith(",total,r0_mean")
    assert len(csv_lines) == 1 + len(record.losses)
    assert csv_lines[1].split(",")[-1] != ""  # similarity mode logs r0

    again = tmp_path / "again"
    save_run_record(record, again)
    for name in names:
        assert (out / name).read_bytes() == (again / name).read_bytes()

    (ft,) = run_stream(tiny_stream, apply_variant(fast_hyper(), "continual_ft"), [1], [c0])
    ft_out = tmp_path / "ft"
    save_run_record(ft, ft_out)
    ft_lines = (ft_out / "losses.csv").read_text().splitlines()
    assert ft_lines[1].endswith(",")  # no weighting column without distillation
