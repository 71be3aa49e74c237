"""A stack of seeds against the same seeds run one at a time, bit for bit.

The kernels on [S, ...] operands against one 2-D call per slice (forward
values and every gradient, compared with np.array_equal); a 5-seed stack
against 5 single-seed runs, every artifact byte for byte; and a seed that
diverges inside a stack against the error and the seed directories the
seeds give one after another. Both sides run in this process, so these
tests hold on any numpy/BLAS stack and never skip.
"""

import dataclasses
import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mulki.tensor as T
import reference_ops as R
from gradcheck import prob_rows
from mulki import losses, runner, taskgen
from mulki.cli import main
from mulki.config import apply_variant, load_config
from mulki.encoder import load_checkpoint, snapshot, tower
from mulki.errors import ContractError, TrainingDivergedError
from mulki.runner import pretrain, run_stream, save_run_record
from mulki.taskgen import generate_stream
from mulki.tensor import Tensor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
S = 3


# ---------------------------------------------------------------------------
# kernels: a stacked call equals a 2-D call per slice


def _backprop(out, up):
    """Backward from `out`: a scalar, a stack's [S] losses, or a matrix weighted by the constant `up`."""
    if out.shape in ((), (S,)):
        root = out if out.shape == () else T.sum_seeds(out)
    else:
        root = R.tsum(R.mul(out, Tensor(up)))
    if root.requires_grad:
        root.backward()


def assert_stack_equals_slices(build, values, grads, shared=(), seed=0):
    """build(*tensors) -> Tensor or (Tensor, logged value). `values` are [S, ...] arrays, but those at the `shared` positions every seed sees."""

    def run(arrays, up):
        leaves = [Tensor(a.copy(), requires_grad=g) for a, g in zip(arrays, grads)]
        out = build(*leaves)
        out, logged = out if isinstance(out, tuple) else (out, None)
        _backprop(out, up)
        return out.data, logged, [leaf.grad for leaf in leaves]

    up = None
    probe = build(*[Tensor(v) for v in values])
    probe = probe[0] if isinstance(probe, tuple) else probe
    if probe.shape not in ((), (S,)):
        up = np.random.default_rng(seed).normal(size=probe.shape)
    out, logged, leaf_grads = run(values, up)
    for s in range(S):
        alone = [v if i in shared else v[s] for i, v in enumerate(values)]
        out_s, logged_s, grads_s = run(alone, None if up is None else up[s])
        assert np.array_equal(out[s], out_s)
        if logged is not None:
            assert np.array_equal(np.asarray(logged)[s], logged_s)
        for g, g_s in zip(leaf_grads, grads_s):
            assert (g is None) == (g_s is None)
            if g is not None:
                assert np.array_equal(g[s], g_s)


SHAPES = [dict(b=7, k=3, d=5, h=4, v=6), dict(b=32, k=5, d=16, h=64, v=26)]  # widths below and from 8, where numpy sums pairwise


@pytest.fixture(params=SHAPES, ids=["narrow", "default"])
def shape(request):
    return request.param


def test_towers(shape, rng):
    b, d, h, e, v = shape["b"], shape["d"], shape["h"], shape["k"] + 2, shape["v"]
    weights = [rng.normal(size=(S, d, h)), rng.normal(size=(S, h)), rng.normal(size=(S, h, e)), rng.normal(size=(S, e))]
    x = rng.normal(size=(S, b, d))
    assert_stack_equals_slices(tower, [x, *weights], [True] * 5)
    assert_stack_equals_slices(tower, [x[0], *weights], [False] + [True] * 4, shared={0})  # images every seed sees
    picker = np.zeros((4, v))
    picker[np.arange(4), [1, 2, 3, 1]] += 0.5
    picker[:, 0] += 0.5
    table = rng.normal(size=(S, v, d))
    assert_stack_equals_slices(
        lambda p, t, w1, b1, w2, b2: tower(p, w1, b1, w2, b2, table=t), [picker, table, *weights], [False] + [True] * 5, shared={0}
    )


def test_cosines_and_distributions(shape, rng):
    b, k, d = shape["b"], shape["k"], shape["d"]
    a, c = rng.normal(size=(S, b, d)), rng.normal(size=(S, k, d))
    assert_stack_equals_slices(T.cosine_sim, [a, c], [True, True])
    assert_stack_equals_slices(lambda x, y: T.cosine_softmax(x, y, 0.7), [a, c], [True, True])
    assert_stack_equals_slices(lambda x, y: T.cosine_softmax(x, y, 2.0), [a, c[0]], [True, False], shared={1})  # texts every seed sees
    labels = rng.integers(0, k, size=(S, b))
    dist = Tensor(np.stack([prob_rows(rng, b, k) for _ in range(S)]), requires_grad=True)
    supervised = losses.cross_entropy(dist, labels)
    T.sum_seeds(supervised).backward()
    for s in range(S):
        alone = Tensor(dist.data[s].copy(), requires_grad=True)
        supervised_s = losses.cross_entropy(alone, labels[s])
        supervised_s.backward()
        assert np.array_equal(supervised.data[s], supervised_s.data) and np.array_equal(dist.grad[s], alone.grad)


def test_soft_ce_and_distillation_terms(shape, rng):
    b, k, d = shape["b"], shape["k"], shape["d"]
    target = np.stack([prob_rows(rng, b, k) for _ in range(S)])
    pred = np.stack([prob_rows(rng, b, k) for _ in range(S)])
    pred[0, 0, 0] = 1e-15  # below the log floor: no gradient passes there
    w = rng.uniform(0.1, 1.0, size=(S, b))
    assert_stack_equals_slices(lambda t, p: T.soft_ce_mean(t, p, scale=1.3), [target, pred], [False, True])
    assert_stack_equals_slices(lambda t, p, r: T.soft_ce_mean(t, p, r, 0.8), [target, pred, w], [False, True, False])
    assert_stack_equals_slices(lambda t, p, r: R.i2t_node(t, p, r, 0.6), [target, pred, w], [False, True, False])
    teacher, student, protos = rng.normal(size=(S, b, d)), rng.normal(size=(S, b, d)), rng.normal(size=(S, k, d))
    assert_stack_equals_slices(R.fd_node, [teacher, student], [False, True])
    assert_stack_equals_slices(R.fd_node, [teacher, student, w], [False, True, False])
    assert_stack_equals_slices(R.ird_node, [teacher, student, protos], [False, True, False])
    assert_stack_equals_slices(lambda t, s, p, r: R.ird_node(t, s, p, r, 0.7), [teacher, student, protos, w], [False, True, False, False])
    student[1] = teacher[1]  # a zero relation gap in one seed
    assert_stack_equals_slices(R.ird_node, [teacher, student, protos], [False, True, False])
    texts = rng.normal(size=(S, k, d))
    assert_stack_equals_slices(lambda p, t: losses.csa_loss(p, t, 2.0), [protos, texts], [False, True])
    dists = [np.stack([prob_rows(rng, b, k) for _ in range(S)]) for _ in range(3)]
    stacked = losses.sample_weights(np.array(dists[:2]), dists[2])
    for s in range(S):
        alone = losses.sample_weights(np.array([dist[s] for dist in dists[:2]]), dists[2][s])
        assert all(np.array_equal(x[s], y) for x, y in zip((stacked, 1.0 - stacked), (alone, 1.0 - alone)))


def test_drift_anchor_over_a_stacked_buffer(rng):
    shapes = [(4, 3), (3,), (2, 5)]
    values = [rng.normal(size=(S, *shp)) for shp in shapes]
    ref = rng.normal(size=(S, sum(int(np.prod(shp)) for shp in shapes)))
    leaves = T.pack([Tensor(v, requires_grad=True) for v in values], (S,))
    penalty = losses.wc_loss(leaves, ref)
    T.sum_seeds(penalty).backward()
    for s in range(S):
        alone = T.pack([Tensor(v[s], requires_grad=True) for v in values])
        penalty_s = losses.wc_loss(alone, ref[s])
        penalty_s.backward()
        assert np.array_equal(penalty.data[s], penalty_s.data)
        assert np.array_equal(leaves.grad[s], alone.grad)
        assert all(np.array_equal(p.grad[s], q.grad) for p, q in zip(leaves, alone))


# ---------------------------------------------------------------------------
# runs: a 5-seed stack writes the bytes of 5 single-seed runs

SEEDS = [0, 1, 2, 3, 4]
RUNS = {
    "full": ("smoke.json", "full", {}),
    "continual_ft": ("smoke.json", "continual_ft", {}),
    "only_c0": ("smoke.json", "only_c0", {}),
    "average": ("smoke.json", "average", {}),
    "ewe": ("smoke.json", "full", {"ensemble": "ewe", "ewe_eta": 2}),
    "own_c0s": ("smoke.json", "full", {}),  # each seed from its own initial model, as the acceptance grid runs
    "default_full": ("default.json", "full", {}),
}


def _files(run_dir: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}


@pytest.mark.parametrize("name", RUNS)
def test_stack_writes_the_bytes_of_single_seed_runs(name, tmp_path, monkeypatch):
    for env in list(os.environ):
        if env.startswith("MULKI_"):
            monkeypatch.delenv(env)
    config_file, variant, overrides = RUNS[name]
    cfg = load_config(CONFIGS / config_file)
    stream = generate_stream(cfg.stream)
    hyper = dataclasses.replace(apply_variant(cfg.hyper, variant), **overrides)
    if name == "own_c0s":
        c0s = [pretrain(stream, cfg.hyper, seed, cfg.model) for seed in SEEDS]
    else:
        c0s = [pretrain(stream, cfg.hyper, 0, cfg.model)] * len(SEEDS)
    echo = cfg.echo()
    for record in run_stream(stream, hyper, SEEDS, c0s, config_echo=echo):
        save_run_record(record, tmp_path / "stack" / f"seed_{record.seed:02d}")
    for seed, c0 in zip(SEEDS, c0s):
        (record,) = run_stream(stream, hyper, [seed], [c0], config_echo=echo)
        save_run_record(record, tmp_path / "alone" / f"seed_{seed:02d}")
    for seed in SEEDS:
        stacked, alone = (_files(tmp_path / side / f"seed_{seed:02d}") for side in ("stack", "alone"))
        assert set(stacked) == {"metrics.json", "losses.csv", "run.json", "task_01.ckpt", "task_02.ckpt"} | (
            {"task_03.ckpt", "task_04.ckpt", "task_05.ckpt"} if config_file == "default.json" else set()
        )
        assert stacked == alone, f"seed {seed}: {sorted(n for n in stacked if stacked[n] != alone.get(n))}"


# ---------------------------------------------------------------------------
# divergence: the error and directories of the seeds run one after another

TINY = {
    "stream": {"n_tasks": 2, "classes_per_task": 3, "d_in": 8, "train_per_class": 12, "test_per_class": 6, "pretrain_per_class": 4, "seed": 7},
    "model": {"d_tok": 8, "hidden": 16, "embed_dim": 8},
    "hyper": {"iterations_per_task": 6, "pretrain_iterations": 8, "batch_size": 8, "we_interval": 3},
    "seeds": [0, 1, 2],
}


def poison_batches(monkeypatch, at: set) -> None:
    """Turn the images of the batches keyed (seed, task id, iteration) in `at` into NaN."""
    real = taskgen.batches

    def batches(task, batch_size, seed, iterations):
        for k, (x, idx) in enumerate(real(task, batch_size, seed, iterations), start=1):
            yield (x * np.nan if (seed, task.task_id, k) in at else x), idx

    monkeypatch.setattr(taskgen, "batches", batches)


@pytest.fixture
def tiny_inputs(tmp_path, monkeypatch):
    for env in list(os.environ):
        if env.startswith("MULKI_"):
            monkeypatch.delenv(env)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY))
    stream, c0 = tmp_path / "stream.bin", tmp_path / "c0.ckpt"
    assert main(["generate", "--config", str(cfg), "--out", str(stream)]) == 0
    assert main(["pretrain", "--config", str(cfg), "--stream", str(stream), "--out", str(c0)]) == 0
    return SimpleNamespace(
        cfg=load_config(cfg),
        stream=taskgen.load_stream(stream),
        c0=snapshot(load_checkpoint(c0)),
        argv=["--config", str(cfg), "--stream", str(stream), "--c0", str(c0)],
    )


def test_a_diverged_seed_raises_what_the_seeds_one_at_a_time_raise(tiny_inputs, tmp_path, monkeypatch, capsys):
    """Seed 2 diverges first in the stack (task 1), seed 1 later (task 2): seed 1's error wins, and only seed 0's run is written."""
    poison_batches(monkeypatch, {(2, 1, 2), (1, 2, 3)})
    hyper, stream, c0 = tiny_inputs.cfg.hyper, tiny_inputs.stream, tiny_inputs.c0
    expected = None
    for seed in TINY["seeds"]:  # one after another, as serial runs go
        try:
            run_stream(stream, hyper, [seed], [c0])
        except TrainingDivergedError as err:
            expected = err
            break
    assert expected is not None and expected.seed == 1
    assert str(expected).startswith("seed 1 task 2 iteration 3: non-finite loss")

    with pytest.raises(TrainingDivergedError) as err:
        run_stream(stream, hyper, TINY["seeds"], [c0] * 3)
    assert (str(err.value), err.value.seed) == (str(expected), expected.seed)
    assert repr(err.value.breakdown) == repr(expected.breakdown)
    assert [record.seed for record in err.value.records] == [0]
    (alone,) = run_stream(stream, hyper, [0], [c0])
    assert np.array_equal(err.value.records[0].losses, alone.losses)

    capsys.readouterr()
    assert main(["run", *tiny_inputs.argv, "--out", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected}\n"
    assert captured.out.startswith("seed 0: ")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["seed_00"]

    assert main(["ablate", *tiny_inputs.argv, "--out", str(tmp_path / "ablate"), "--variant", "full,continual_ft"]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert sorted(p.relative_to(tmp_path / "ablate").as_posix() for p in (tmp_path / "ablate").glob("*/*")) == ["full/seed_00"]
    assert not (tmp_path / "ablate" / "ablation.json").exists()


# ---------------------------------------------------------------------------
# arms that differ only in teacher weight: one stack, the bytes of each arm run alone

WEIGHT_ARMS = ["full", "only_c0", "only_prev", "average"]  # teacher_weight None, 1, 0 and 0.5


def _tree(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("config_file", ["smoke.json", "default.json"])
def test_one_stack_of_teacher_weight_arms_writes_the_bytes_of_each_arm_run(config_file, tmp_path, monkeypatch):
    for env in list(os.environ):
        if env.startswith("MULKI_"):
            monkeypatch.delenv(env)
    cfg = load_config(CONFIGS / config_file)
    stream = generate_stream(cfg.stream)
    c0s = [pretrain(stream, cfg.hyper, 0, cfg.model)] * len(SEEDS)
    hypers = [apply_variant(cfg.hyper, name) for name in WEIGHT_ARMS]
    echo = cfg.echo()
    stacks = []
    real_train_task = runner.train_task

    def train_task(student, c0, c_prev, task, hyper, seeds, *args):
        stacks.append(len(seeds))
        return real_train_task(student, c0, c_prev, task, hyper, seeds, *args)

    monkeypatch.setattr(runner, "train_task", train_task)
    for name, records in zip(WEIGHT_ARMS, runner.run_arms(stream, hypers, SEEDS, c0s, config_echo=echo)):
        assert [record.seed for record in records] == SEEDS
        for record in records:
            save_run_record(record, tmp_path / "grouped" / name / f"seed_{record.seed:02d}")
    assert stacks == [len(WEIGHT_ARMS) * len(SEEDS)] * stream.n_tasks  # one stack of every (arm, seed) lane

    for name, hyper in zip(WEIGHT_ARMS, hypers):
        for record in run_stream(stream, hyper, SEEDS, c0s, config_echo=echo):
            save_run_record(record, tmp_path / "alone" / name / f"seed_{record.seed:02d}")
    grouped, alone = _tree(tmp_path / "grouped"), _tree(tmp_path / "alone")
    assert len(grouped) == len(WEIGHT_ARMS) * len(SEEDS) * (3 + stream.n_tasks)
    assert grouped == alone, sorted(n for n in grouped if grouped[n] != alone.get(n))


def test_mdd_loss_on_a_mixed_weight_stack_equals_one_call_per_lane(rng):
    """Values, the breakdown and every gradient of one call with per-lane weights equal per-lane calls, exactly."""
    weights = R.per_lane([None, 1.0, 0.0, 0.5, 1, 0])
    n, b, k, d = len(weights), 7, 3, 5
    teacher_arrays = [
        {
            "feats": rng.normal(size=(n, b, d)),
            "img_text_dist": np.stack([prob_rows(rng, b, k) for _ in range(n)]),
            "proto_text_dist": np.stack([prob_rows(rng, k, k) for _ in range(n)]),
            "text_proto_dist": np.stack([prob_rows(rng, k, k) for _ in range(n)]),
            "texts": rng.normal(size=(n, k, d)),
        }
        for _ in range(2)
    ]
    student_arrays = {
        "feats": rng.normal(size=(n, b, d)),
        "texts": rng.normal(size=(n, k, d)),
        "img_text_dist": np.stack([prob_rows(rng, b, k) for _ in range(n)]),
        "proto_text_dist": np.stack([prob_rows(rng, k, k) for _ in range(n)]),
        "text_proto_dist": np.stack([prob_rows(rng, k, k) for _ in range(n)]),
    }
    protos = rng.normal(size=(n, k, d))

    def call(pick, teacher_weight):
        teachers = [losses.TeacherOutputs(**{key: Tensor(v[pick]) for key, v in arrays.items()}) for arrays in teacher_arrays]
        student = losses.StudentOutputs(**{key: Tensor(v[pick].copy(), requires_grad=True) for key, v in student_arrays.items()})
        loss, info = losses.mdd_loss(R.pair(*teachers, teacher_weight), student, Tensor(protos[pick]), teacher_weight, 0.7, 1.3)
        (loss if loss.shape == () else T.sum_seeds(loss)).backward()
        grads = {key: getattr(student, key).grad for key in student_arrays}
        return loss.data, info, grads

    stacked, info, grads = call(slice(None), weights)
    for s, w in enumerate(weights):
        value, info_s, grads_s = call(s, w)
        assert np.array_equal(stacked[s], value), s
        assert set(info) == set(info_s)
        for key in info:
            assert np.array_equal(info[key][s], info_s[key]), (s, key)
        for key, g in grads.items():
            assert (g is None) == (grads_s[key] is None), (s, key)
            if g is not None:
                assert np.array_equal(g[s], grads_s[key]), (s, key)
    for key in ("fd0", "ird0", "idd0"):  # the only_prev lanes log 0 for c0, as a run of that arm does
        assert info[key][2] == info[key][5] == 0.0
    for key in ("fd_prev", "ird_prev", "idd_prev"):
        assert info[key][1] == info[key][4] == 0.0


def test_lanes_that_differ_beyond_teacher_weight_raise_contract_error(tiny_inputs):
    hyper, stream, c0 = tiny_inputs.cfg.hyper, tiny_inputs.stream, tiny_inputs.c0
    for other in ("wo_we", "only_fd", "continual_ft"):
        with pytest.raises(ContractError, match="differ in teacher_weight only"):
            run_stream(stream, [apply_variant(hyper, "only_c0"), apply_variant(hyper, other)], [0, 0], [c0, c0])
    with pytest.raises(ContractError, match="differ in teacher_weight only"):
        run_stream(stream, [hyper, dataclasses.replace(hyper, lr=0.5)], [0, 1], [c0, c0])
    with pytest.raises(ContractError, match="one per seed"):
        run_stream(stream, [hyper, hyper], [0, 1, 2], [c0] * 3)


def _ablate_arm_by_arm(inputs, names: list, out: Path):
    """Each arm's seeds run one at a time, in arm order, saved as `ablate` lays them out; the first error."""
    hyper, stream, c0 = inputs.cfg.hyper, inputs.stream, inputs.c0
    for name in names:
        for seed in inputs.cfg.seeds:
            try:
                (record,) = run_stream(stream, apply_variant(hyper, name), [seed], [c0], config_echo=inputs.cfg.echo())
            except TrainingDivergedError as err:
                return err
            save_run_record(record, out / name / f"seed_{seed:02d}")
    return None


@pytest.mark.parametrize("order", ["full,continual_ft,only_c0", "continual_ft,full,only_c0"])
def test_a_seed_that_diverges_in_every_arm_stops_ablate_where_arm_by_arm_runs_stop(order, tiny_inputs, tmp_path, monkeypatch, capsys):
    poison_batches(monkeypatch, {(1, 2, 3)})
    expected = _ablate_arm_by_arm(tiny_inputs, order.split(","), tmp_path / "serial")
    assert expected is not None and str(expected).startswith("seed 1 task 2 iteration 3: non-finite loss")

    capsys.readouterr()
    assert main(["ablate", *tiny_inputs.argv, "--out", str(tmp_path / "ablate"), "--variant", order]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert _tree(tmp_path / "ablate") == _tree(tmp_path / "serial")
    assert sorted(p.parent.name for p in (tmp_path / "ablate").glob("*/*")) == [order.split(",")[0]]
    assert not (tmp_path / "ablate" / "ablation.json").exists()


def test_a_later_arm_that_diverges_where_an_earlier_arm_does_not_is_found_by_its_lane(tiny_inputs, tmp_path, monkeypatch, capsys):
    """only_c0's lanes (c0 weight exactly 1 on every row) turn non-finite; full's seed-0 lane, first in the stack, stays finite."""
    real_mdd_loss = losses.mdd_loss

    def mdd_loss(*args, **kwargs):
        value, info = real_mdd_loss(*args, **kwargs)
        value.data = np.where(np.all(info["r0"] == 1.0, axis=-1), np.nan, value.data)
        return value, info

    monkeypatch.setattr(losses, "mdd_loss", mdd_loss)
    names = ["full", "continual_ft", "only_c0", "average"]
    expected = _ablate_arm_by_arm(tiny_inputs, names, tmp_path / "serial")
    assert expected is not None and expected.seed == 0 and str(expected).startswith("seed 0 task 1 iteration 1: non-finite loss")

    hyper, stream, c0 = tiny_inputs.cfg.hyper, tiny_inputs.stream, tiny_inputs.c0
    seeds = tiny_inputs.cfg.seeds
    with pytest.raises(TrainingDivergedError) as err:
        runner.run_arms(stream, [apply_variant(hyper, name) for name in names], seeds, [c0] * len(seeds))
    assert (str(err.value), err.value.seed) == (str(expected), expected.seed)
    assert [[record.seed for record in records] for records in err.value.records] == [seeds, seeds, []]

    capsys.readouterr()
    assert main(["ablate", *tiny_inputs.argv, "--out", str(tmp_path / "ablate"), "--variant", ",".join(names)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected}\n"
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["full", "continual_ft"]
    assert _tree(tmp_path / "ablate") == _tree(tmp_path / "serial")
    assert not (tmp_path / "ablate" / "ablation.json").exists()
