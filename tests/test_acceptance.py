"""Shipping gate: the eight release criteria, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines as
they complete. Criteria 4-6 share one five-variant, five-seed grid on the
default stream; every run is bitwise deterministic, so the margins printed
here are exact, not statistical estimates. Expect a few minutes of wall
time, dominated by that grid.
"""

import contextlib
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

import reference_ops as R
from mulki import losses, metrics
from mulki.cli import main as cli_main
from mulki.config import apply_variant
from mulki.encoder import DualEncoder, params_flat, snapshot
from mulki.prototypes import PrototypeStore
from mulki.runner import HyperParams, ModelConfig, pretrain, run_arms
from mulki.taskgen import StreamConfig, generate_stream
from mulki.tensor import Tensor
from mulki.weightspace import we_init, we_step

SEEDS = (0, 1, 2, 3, 4)
TAU = 2.0
H = 1e-5
GRAD_TOL = 1e-4
D, B, K = 8, 4, 3


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences


class _freeze_weights(contextlib.AbstractContextManager):
    """Pin sample_weights at their base-point values during a numeric sweep.

    The weights are constants in the loss graph by contract, so differencing
    the live pipeline would difference a different function than the one the
    tape differentiates; freezing reproduces the stop-gradient semantics.
    """

    def __enter__(self):
        self._real = losses.sample_weights
        cache = []

        def frozen(teachers, student):
            if not cache:
                cache.append(self._real(teachers, student))
            return cache[0]

        losses.sample_weights = frozen
        return self

    def __exit__(self, *exc):
        losses.sample_weights = self._real
        return False


def _max_rel_gap(leaves: dict, make, freeze: bool = False) -> float:
    ctx = _freeze_weights() if freeze else contextlib.nullcontext()
    with ctx:
        tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in leaves.items()}
        make(tensors).backward()
        grads = {k: t.grad.copy() for k, t in tensors.items()}
        gap = 0.0
        for key, base in leaves.items():
            for idx in range(base.size):
                shifted = {}
                for k, v in leaves.items():
                    arr = v.copy()
                    shifted[k] = arr
                shifted[key].flat[idx] = base.flat[idx] + H
                plus = make({k: Tensor(v) for k, v in shifted.items()}).item()
                shifted[key].flat[idx] = base.flat[idx] - H
                minus = make({k: Tensor(v) for k, v in shifted.items()}).item()
                numeric = (plus - minus) / (2.0 * H)
                analytic = grads[key].flat[idx]
                gap = max(gap, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
    return gap


def _teacher_pack(rng, protos: Tensor) -> losses.TeacherOutputs:
    feats = Tensor(rng.normal(size=(B, D)))
    texts = Tensor(rng.normal(size=(B, D)))
    return losses.TeacherOutputs(
        feats=feats,
        img_text_dist=losses.image_text_dist(feats, texts, TAU),
        proto_text_dist=losses.image_text_dist(protos, texts, TAU),
        text_proto_dist=losses.image_text_dist(texts, protos, TAU),
    )


def _student_pack(lv: dict, protos: Tensor) -> losses.StudentOutputs:
    feats, texts = lv["feats"], lv["texts"]
    return losses.StudentOutputs(
        feats=feats,
        texts=texts,
        img_text_dist=losses.image_text_dist(feats, texts, TAU),
        proto_text_dist=losses.image_text_dist(protos, texts, TAU),
        text_proto_dist=losses.image_text_dist(texts, protos, TAU),
    )


def _bare_loss_checks(rng):
    """name -> (leaves, make(leaf tensors) -> scalar Tensor, needs_freeze)."""
    protos = Tensor(rng.normal(size=(K, D)))
    c0_pack = _teacher_pack(rng, protos)
    prev_pack = _teacher_pack(rng, protos)
    t_dist = losses.image_text_dist(Tensor(rng.normal(size=(B, D))), Tensor(rng.normal(size=(B, D))), TAU)
    wc_ref = rng.normal(size=20)

    def mdd(teacher_weight):
        def make(lv):
            loss, _ = losses.mdd_loss(R.pair(c0_pack, prev_pack, teacher_weight), _student_pack(lv, protos), protos, R.per_lane(teacher_weight))
            return loss
        return make

    feat_leaves = {"feats": rng.normal(size=(B, D)), "texts": rng.normal(size=(B, D))}
    return {
        "L_CSA": (
            {"protos": rng.normal(size=(K, D)), "texts": rng.normal(size=(K, D))},
            lambda lv: losses.csa_loss(lv["protos"], lv["texts"], TAU),
            False,
        ),
        "L_FD": (
            {"student": rng.normal(size=(B, D))},
            lambda lv: R.fd_node(c0_pack.feats, lv["student"])[0],
            False,
        ),
        "L_IRD": (
            {"student": rng.normal(size=(B, D))},
            lambda lv: R.ird_node(c0_pack.feats, lv["student"], protos)[0],
            False,
        ),
        "L_i2t": (
            dict(feat_leaves),
            lambda lv: R.i2t_node(t_dist, losses.image_text_dist(lv["feats"], lv["texts"], TAU))[0],
            False,
        ),
        "L_p&t": (
            {"texts": rng.normal(size=(B, D))},
            lambda lv: R.pt_node(
                c0_pack,
                losses.image_text_dist(protos, lv["texts"], TAU),
                losses.image_text_dist(lv["texts"], protos, TAU),
            ),
            False,
        ),
        "L_MDD(similarity)": (dict(feat_leaves), mdd(None), True),
        "L_MDD(average)": (dict(feat_leaves), mdd(0.5), False),
        "L_WC": (
            {"theta": rng.normal(size=20)},
            lambda lv: losses.wc_loss(lv["theta"], wc_ref),
            False,
        ),
    }


def _mulki_gap(seed: int, coords_per_seed: int = 40) -> float:
    dims = dict(vocab_size=K + 1, d_in=D, d_tok=8, hidden=8, embed_dim=D)
    c0 = snapshot(DualEncoder(seed + 50, **dims))
    c_prev = snapshot(DualEncoder(seed + 51, **dims))
    student = DualEncoder(seed + 52, **dims)
    rng = np.random.default_rng([301, seed])
    store = PrototypeStore.init_from_model(c0, [rng.normal(size=(5, D)) for _ in range(K)])
    x = rng.normal(size=(B, D))
    label_positions = rng.integers(0, K, size=B)
    token_ids = np.arange(1, K + 1)
    hyper = HyperParams()
    wc_ref = params_flat(c_prev)
    rows = np.arange(B)
    protos = store.matrix()
    # the teachers are frozen: their bundle is built once, the student is re-encoded per evaluation
    teachers = R.weighted_bundle(c0, c_prev, x, token_ids, protos, hyper)

    def make():
        feats = student.encode_images(x)
        loss, _ = losses.total_loss(student, feats, label_positions, token_ids, protos, hyper, teachers, rows, R.per_lane(hyper.teacher_weight), wc_ref)
        return loss

    gap = 0.0
    with _freeze_weights():
        make().backward()
        flat_index = [(p, i) for p in student.parameters() for i in range(p.data.size)]
        picks = rng.choice(len(flat_index), size=min(coords_per_seed, len(flat_index)), replace=False)
        for pick in picks:
            param, idx = flat_index[int(pick)]
            analytic = param.grad.flat[idx]
            origin = param.data.flat[idx]
            param.data.flat[idx] = origin + H
            plus = make().item()
            param.data.flat[idx] = origin - H
            minus = make().item()
            param.data.flat[idx] = origin
            numeric = (plus - minus) / (2.0 * H)
            gap = max(gap, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
    return gap


def test_criterion_1_gradients():
    t0 = time.time()
    worst: dict[str, float] = {}
    for seed in range(20):
        rng = np.random.default_rng([101, seed])
        for name, (leaves, make, freeze) in _bare_loss_checks(rng).items():
            worst[name] = max(worst.get(name, 0.0), _max_rel_gap(leaves, make, freeze))
        worst["L_MulKI"] = max(worst.get("L_MulKI", 0.0), _mulki_gap(seed))
    elapsed = time.time() - t0
    bad = {name: gap for name, gap in worst.items() if gap > GRAD_TOL}
    ok = not bad and elapsed < 30.0
    _verdict(
        1, "analytic vs central-difference gradients",
        ok,
        f"max rel {max(worst.values()):.2e} over {len(worst)} losses x 20 seeds, "
        f"{elapsed:.1f}s" + (f"; over tolerance: {bad}" if bad else ""),
    )


# --------------------------------------------------------------------------
# criterion 2: algebraic identities


def _random_dist(rng, shape):
    z = np.exp(rng.normal(size=shape))
    return Tensor(z / z.sum(axis=1, keepdims=True))


def test_criterion_2_identities():
    rng = np.random.default_rng(202)

    worst_sum = 0.0
    for _ in range(20):
        d_c0 = _random_dist(rng, (B, 6))
        d_prev = _random_dist(rng, (B, 6))
        d_stu = _random_dist(rng, (B, 6))
        r0 = losses.sample_weights(np.array((d_c0.data, d_prev.data)), d_stu.data)
        r_prev = 1.0 - r0
        worst_sum = max(worst_sum, float(np.max(np.abs(r0 + r_prev - 1.0))))
    shared = _random_dist(rng, (B, 6))
    r0_eq = losses.sample_weights(np.array((shared.data, shared.data)), _random_dist(rng, (B, 6)).data)
    ok_a = worst_sum <= 1e-12 and np.all(r0_eq == 0.5)

    dims = dict(vocab_size=K + 1, d_in=D, d_tok=8, hidden=8, embed_dim=D)
    teacher = snapshot(DualEncoder(7, **dims))
    twin = DualEncoder(7, **dims)  # the teacher's seeded init, trainable
    x = rng.normal(size=(B, D))
    t_feats = teacher.encode_images(x)
    s_feats = twin.encode_images(x)
    protos = Tensor(rng.normal(size=(K, D)))
    fd_val = R.fd_node(t_feats, s_feats)[0].item()
    ird_val = R.ird_node(t_feats, s_feats, protos)[0].item()
    ok_b = fd_val == 0.0 and ird_val == 0.0

    worst_we = 0.0
    for _ in range(5):
        start = rng.normal(size=17)
        state = we_init(start, interval=1)
        seen = [start.copy()]
        for k in range(1, 11):
            theta = rng.normal(size=17)
            we_step(state, theta, k)
            seen.append(theta)
        worst_we = max(worst_we, float(np.max(np.abs(state.theta_hat - np.mean(seen, axis=0)))))
    ok_c = worst_we <= 1e-12

    const = rng.normal(size=17)
    state = we_init(const.copy(), interval=1)
    for k in range(1, 201):
        we_step(state, const.copy(), k)
    ok_d = np.array_equal(state.theta_hat, const)

    _verdict(
        2, "weighting/distillation/ensembling identities",
        ok_a and ok_b and ok_c and ok_d,
        f"r-sum gap {worst_sum:.1e}, equal-score r0 exactly 0.5: {bool(np.all(r0_eq == 0.5))}, "
        f"FD {fd_val}, IRD {ird_val} at parameter equality, "
        f"WE uniform-mean gap {worst_we:.1e}, constant-stream fixed point exact: {ok_d}",
    )


# --------------------------------------------------------------------------
# criterion 3: prototype EMA schedule and convergence


class _IdentityEncoder:
    def encode_images(self, x):
        return Tensor(np.asarray(x, dtype=np.float64))


def test_criterion_3_prototype_ema():
    rng = np.random.default_rng(303)
    p0 = rng.normal(size=D)
    store = PrototypeStore.init_from_model(_IdentityEncoder(), [p0[None, :]])
    v = rng.normal(size=D)
    target = v / np.linalg.norm(v)
    gamma_24 = gamma_25 = None
    for k in range(200):
        if k == 24:
            gamma_24 = store.gamma
        if k == 25:
            gamma_25 = store.gamma
        store.ema_update(v[None, :], np.zeros(1, dtype=np.int64))
    angle = float(np.arccos(np.clip(np.dot(store.rows[0], target), -1.0, 1.0)))
    ok_angle = angle < 1e-3
    ok_gamma = gamma_24 < 0.98 and gamma_25 == 0.98
    _verdict(
        3, "prototype EMA converges and gamma caps on schedule",
        ok_angle and ok_gamma,
        f"angle {angle:.2e} rad after 200 updates, gamma after 24/25 updates: "
        f"{gamma_24:.4f}/{gamma_25}",
    )


# --------------------------------------------------------------------------
# criteria 4-6: the directional grid on the default stream


@pytest.fixture(scope="module")
def grid():
    stream = generate_stream(StreamConfig())
    base = HyperParams()
    t0 = time.time()
    c0s = {s: pretrain(stream, base, s, ModelConfig()) for s in SEEDS}
    pretrain_secs = time.time() - t0
    cache: dict[str, list] = {}
    times: dict[str, float] = {}

    def arm(name):
        if not cache:  # the five arms in one run_arms call: a 20-lane teacher-weight stack and continual_ft's
            names = ("full", "continual_ft", "only_c0", "only_prev", "average")
            t = time.time()
            runs = run_arms(stream, [apply_variant(base, n) for n in names], list(SEEDS), [c0s[s] for s in SEEDS])
            cache.update({n: [record.matrix for record in records] for n, records in zip(names, runs)})
            times.update(dict.fromkeys(names, time.time() - t))
        return cache[name]

    def seed_mean(name, metric_fn):
        return float(np.mean([metric_fn(m) for m in arm(name)]))

    return SimpleNamespace(arm=arm, seed_mean=seed_mean, times=times, pretrain_secs=pretrain_secs)


def test_criterion_4_forgetting_demonstration(grid):
    full_t = grid.seed_mean("full", metrics.transfer)
    full_l = grid.seed_mean("full", metrics.last)
    ft_t = grid.seed_mean("continual_ft", metrics.transfer)
    ft_l = grid.seed_mean("continual_ft", metrics.last)
    elapsed = grid.pretrain_secs + grid.times["full"] + grid.times["continual_ft"]
    ok = (full_t - ft_t >= 0.05) and (full_l >= ft_l - 0.03) and elapsed < 600.0
    _verdict(
        4, "distillation beats plain fine-tuning on the default stream",
        ok,
        f"transfer {full_t:.4f} vs {ft_t:.4f} (gap {full_t - ft_t:+.4f}, need >= +0.05), "
        f"last {full_l:.4f} vs {ft_l:.4f} (gap {full_l - ft_l:+.4f}, need >= -0.03), "
        f"{elapsed:.0f}s of 600s budget",
    )


def test_criterion_5_dual_vs_single_teacher(grid):
    full_t = grid.seed_mean("full", metrics.transfer)
    prev_t = grid.seed_mean("only_prev", metrics.transfer)
    full_ca = grid.seed_mean("full", metrics.current_avg)
    c0_ca = grid.seed_mean("only_c0", metrics.current_avg)
    ok = full_t > prev_t and full_ca > c0_ca
    _verdict(
        5, "dual teachers beat either single teacher",
        ok,
        f"transfer {full_t:.4f} > only-prev {prev_t:.4f} (margin {full_t - prev_t:+.4f}); "
        f"current-avg {full_ca:.4f} > only-c0 {c0_ca:.4f} (margin {full_ca - c0_ca:+.4f})",
    )


def test_criterion_6_weighting_strategy(grid):
    def composite(name):
        return float(np.mean([
            grid.seed_mean(name, metrics.transfer),
            grid.seed_mean(name, metrics.avg),
            grid.seed_mean(name, metrics.last),
        ]))

    sim = composite("full")
    avg = composite("average")
    ok = sim >= avg - 0.003
    _verdict(
        6, "similarity weighting not worse than uniform weighting",
        ok,
        f"composite {sim:.4f} vs {avg:.4f} (margin {sim - avg:+.4f}, need >= -0.003)",
    )


# --------------------------------------------------------------------------
# criterion 7: metric formulas on hand-built fixtures


def test_criterion_7_metric_fixtures():
    fixture = np.array([[0.5, 0.5], [1.0, 0.5], [1.0, 1.0]])
    exact = (
        metrics.transfer(fixture) == 0.5
        and metrics.avg(fixture) == 0.875
        and metrics.last(fixture) == 1.0
        and metrics.current_avg(fixture) == 1.0
    )
    half = np.full((4, 3), 0.5)
    const_exact = all(fn(half) == 0.5 for fn in (metrics.transfer, metrics.avg, metrics.last, metrics.current_avg))
    seven = np.full((4, 3), 0.7)
    const_close = all(
        abs(fn(seven) - 0.7) <= 1e-12
        for fn in (metrics.transfer, metrics.avg, metrics.last, metrics.current_avg)
    )
    _verdict(
        7, "metric formulas reproduce the hand-built fixtures",
        exact and const_exact and const_close,
        f"2-task fixture exact: {exact}; constant 0.5 exact: {const_exact}; "
        f"constant 0.7 within 1e-12: {const_close}",
    )


# --------------------------------------------------------------------------
# criterion 8: byte-identical reruns through the CLI


def test_criterion_8_reproducibility(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "stream": {"n_tasks": 2, "classes_per_task": 3, "d_in": 8,
                   "train_per_class": 12, "test_per_class": 6,
                   "pretrain_per_class": 4, "seed": 7},
        "model": {"d_tok": 8, "hidden": 16, "embed_dim": 8},
        "hyper": {"iterations_per_task": 6, "pretrain_iterations": 8,
                  "batch_size": 8, "we_interval": 3},
        "seeds": [0],
    }))
    stream = tmp_path / "stream.json"
    c0 = tmp_path / "c0.ckpt"
    assert cli_main(["generate", "--config", str(cfg), "--out", str(stream)]) == 0
    assert cli_main(["pretrain", "--config", str(cfg), "--stream", str(stream), "--out", str(c0)]) == 0
    outs = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        code = cli_main([
            "run", "--config", str(cfg), "--stream", str(stream),
            "--c0", str(c0), "--out", str(run_dir),
        ])
        assert code == 0
        outs.append(run_dir / "seed_00")
    compared = []
    identical = True
    for name in ("metrics.json", "task_01.ckpt", "task_02.ckpt"):
        same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        compared.append(name)
        identical = identical and same
    _verdict(
        8, "rerunning the same config and seed is byte-identical",
        identical,
        f"{len(compared)} artifacts compared: {', '.join(compared)}",
    )
