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
from mulki import losses, taskgen
from mulki.cli import main
from mulki.config import apply_variant, load_config
from mulki.encoder import load_checkpoint, snapshot, tower
from mulki.errors import TrainingDivergedError
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
    assert_stack_equals_slices(lambda t, p, r: losses.i2t_loss(t, p, r, 0.6), [target, pred, w], [False, True, False])
    teacher, student, protos = rng.normal(size=(S, b, d)), rng.normal(size=(S, b, d)), rng.normal(size=(S, k, d))
    assert_stack_equals_slices(losses.fd_loss, [teacher, student], [False, True])
    assert_stack_equals_slices(losses.fd_loss, [teacher, student, w], [False, True, False])
    assert_stack_equals_slices(losses.ird_loss, [teacher, student, protos], [False, True, False])
    assert_stack_equals_slices(lambda t, s, p, r: losses.ird_loss(t, s, p, r, 0.7), [teacher, student, protos, w], [False, True, False, False])
    student[1] = teacher[1]  # a zero relation gap in one seed
    assert_stack_equals_slices(losses.ird_loss, [teacher, student, protos], [False, True, False])
    texts = rng.normal(size=(S, k, d))
    assert_stack_equals_slices(lambda p, t: losses.csa_loss(p, t, 2.0), [protos, texts], [False, True])
    dists = [np.stack([prob_rows(rng, b, k) for _ in range(S)]) for _ in range(3)]
    stacked = losses.sample_weights(*map(Tensor, dists))
    for s in range(S):
        alone = losses.sample_weights(*(Tensor(dist[s]) for dist in dists))
        assert all(np.array_equal(x.data[s], y.data) for x, y in zip(stacked, alone))


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
