"""Loss terms: closed forms, numpy oracles, fixed points, teacher weights."""

import math
import re

import numpy as np
import pytest

import reference_ops as R
from gradcheck import check_grads, unit_rows
from mulki import tensor as T
from mulki.encoder import DualEncoder, snapshot
from mulki.errors import ContractError
from mulki.losses import (
    LossBreakdown,
    StudentOutputs,
    TeacherOutputs,
    cross_entropy,
    csa_loss,
    image_text_dist,
    mdd_loss,
    sample_weights,
    student_outputs,
    teacher_outputs,
    total_loss,
    wc_loss,
)
from mulki.prototypes import PrototypeStore
from mulki.runner import HyperParams
from mulki.tensor import Tensor


# ---------------------------------------------------------------------------
# numpy reference implementations (independent oracles)


def np_unit(m):
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def np_dist(feats, texts, tau):
    logits = np_unit(feats) @ np_unit(texts).T / tau
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def np_soft_ce(target, pred):
    return -(target * np.log(np.maximum(pred, 1e-12))).sum(axis=-1)


def np_csa(protos, texts, tau):
    logits = np_unit(protos) @ np_unit(texts).T / tau
    k = logits.shape[0]
    e1 = np.exp(logits - logits.max(axis=1, keepdims=True))
    p2t = e1 / e1.sum(axis=1, keepdims=True)
    e0 = np.exp(logits - logits.max(axis=0, keepdims=True))
    t2p = (e0 / e0.sum(axis=0, keepdims=True)).T
    eye = np.eye(k)
    return 0.5 * (np_soft_ce(eye, p2t).mean() + np_soft_ce(eye, t2p).mean())


def np_ird(t_feats, s_feats, protos, weights=None):
    diff = np_unit(t_feats) @ np_unit(protos).T - np_unit(s_feats) @ np_unit(protos).T
    if weights is not None:
        diff = weights[:, None] * diff
    b, k = diff.shape
    return np.linalg.norm(diff) / math.sqrt(b * k)


def np_weights(d0, dprev, ds):
    def row_cos(a, b):
        return (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))

    e0 = np.exp(-row_cos(d0, ds))
    ep = np.exp(-row_cos(dprev, ds))
    return e0 / (e0 + ep)


# ---------------------------------------------------------------------------
# builders


def teacher_pack(rng, b, k, d, tau=2.0):
    feats = Tensor(unit_rows(rng, b, d))
    texts = Tensor(unit_rows(rng, k, d))
    protos = Tensor(unit_rows(rng, k, d))
    out = TeacherOutputs(
        feats=feats,
        img_text_dist=image_text_dist(feats, texts, tau),
        proto_text_dist=image_text_dist(protos, texts, tau),
        text_proto_dist=image_text_dist(texts, protos, tau),
    )
    return out, protos


# ---------------------------------------------------------------------------
# csa


def test_csa_identical_sides_closed_form(rng):
    p = unit_rows(rng, 2, 5)
    loss = csa_loss(Tensor(p), Tensor(p.copy()), tau=2.0)
    s = float(p[0] @ p[1])
    expected = -math.log(math.exp(0.5) / (math.exp(0.5) + math.exp(s / 2.0)))
    assert abs(loss.item() - expected) < 1e-12


def test_csa_single_class_is_zero(rng):
    p = unit_rows(rng, 1, 5)
    t = unit_rows(rng, 1, 5)
    assert abs(csa_loss(Tensor(p), Tensor(t), tau=2.0).item()) < 1e-15


def test_csa_oracle(rng):
    p, t = unit_rows(rng, 4, 6), unit_rows(rng, 4, 6)
    assert abs(csa_loss(Tensor(p), Tensor(t), tau=2.0).item() - np_csa(p, t, 2.0)) < 1e-12


def test_csa_errors(rng):
    with pytest.raises(ContractError):
        csa_loss(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), tau=2.0)
    with pytest.raises(ContractError, match=re.escape("csa_loss: class counts differ, (2, 4) vs (3, 4)")):
        csa_loss(Tensor(unit_rows(rng, 2, 4)), Tensor(unit_rows(rng, 3, 4)), tau=2.0)


def test_csa_grads(rng):
    p = unit_rows(rng, 3, 4)
    t = unit_rows(rng, 3, 4)
    check_grads(lambda q: csa_loss(Tensor(p), q[0], tau=2.0), [t], rel=1e-6)


# ---------------------------------------------------------------------------
# fd


def test_fd_zero_at_equality(rng):
    f = unit_rows(rng, 4, 6)
    loss, raw = R.fd_node(Tensor(f), Tensor(f.copy()))
    assert loss.item() == 0.0 and raw == 0.0


def test_fd_antipodal(rng):
    u = unit_rows(rng, 3, 6)
    loss, raw = R.fd_node(Tensor(u), Tensor(-u))
    assert abs(loss.item() - 4.0) < 1e-12
    assert abs(raw - 4.0) < 1e-12


def test_fd_oracle(rng):
    t, s = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    expected = ((t - s) ** 2).sum(axis=1)
    loss, raw = R.fd_node(Tensor(t), Tensor(s))
    assert abs(loss.item() - expected.mean()) < 1e-12
    assert abs(raw - expected.mean()) < 1e-12
    # one-hot weights pick out each row's distance
    for i in range(5):
        picked, raw_again = R.fd_node(Tensor(t), Tensor(s), weights=Tensor(5.0 * np.eye(5)[i]))
        assert abs(picked.item() - expected[i]) < 1e-12
        assert raw_again == raw


def test_fd_shape_error(rng):
    with pytest.raises(ContractError, match=re.escape("fd_node: (2, 3) vs (2, 4)")):
        R.fd_node(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    with pytest.raises(ContractError):
        R.fd_node(Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# ird


def test_ird_zero_at_equality(rng):
    f, p = unit_rows(rng, 4, 6), unit_rows(rng, 3, 6)
    loss, raw = R.ird_node(Tensor(f), Tensor(f.copy()), Tensor(p))
    assert loss.item() == 0.0 and raw == 0.0


def test_ird_single_cell_delta():
    t = Tensor(np.array([[1.0, 0.0]]))
    s = Tensor(np.array([[0.0, 1.0]]))
    p = Tensor(np.array([[1.0, 0.0]]))
    # similarities are 1 and 0, so the single matrix cell differs by 1
    assert abs(R.ird_node(t, s, p)[0].item() - 1.0) < 1e-12


def test_ird_oracle_and_weights(rng):
    t, s = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
    p = unit_rows(rng, 3, 6)
    loss, raw = R.ird_node(Tensor(t), Tensor(s), Tensor(p))
    assert abs(loss.item() - np_ird(t, s, p)) < 1e-12
    assert abs(raw - np_ird(t, s, p)) < 1e-12

    w = rng.uniform(0.1, 1.0, size=5)
    got, raw_weighted = R.ird_node(Tensor(t), Tensor(s), Tensor(p), weights=Tensor(w), alpha=0.6)
    assert abs(got.item() - 0.6 * np_ird(t, s, p, weights=w)) < 1e-12
    assert raw_weighted == raw  # the logged value is the unweighted, unscaled gap

    # a uniform weight c scales the whole value by c
    c = 0.37
    flat = R.ird_node(Tensor(t), Tensor(s), Tensor(p), weights=Tensor(np.full(5, c)))[0].item()
    assert abs(flat - c * np_ird(t, s, p)) < 1e-12


def test_ird_empty_protos_error(rng):
    f = unit_rows(rng, 2, 4)
    with pytest.raises(ContractError):
        R.ird_node(Tensor(f), Tensor(f), Tensor(np.zeros((0, 4))))


# ---------------------------------------------------------------------------
# distributions


def test_image_text_dist_rows(rng):
    f, t = unit_rows(rng, 4, 6), unit_rows(rng, 3, 6)
    out = image_text_dist(Tensor(f), Tensor(t), tau=2.0)
    assert out.shape == (4, 3)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(out.data, np_dist(f, t, 2.0), atol=1e-12)


def test_image_text_dist_uniform_when_sims_equal(rng):
    f = unit_rows(rng, 2, 6)
    one = unit_rows(rng, 1, 6)
    texts = np.tile(one, (4, 1))  # every candidate identical
    out = image_text_dist(Tensor(f), Tensor(texts), tau=2.0)
    assert np.allclose(out.data, 0.25, atol=1e-12)


def test_i2t_uniform_self_is_log_k(rng):
    b, k = 3, 5
    u = Tensor(np.full((b, k), 1.0 / k))
    loss, raw = R.i2t_node(u, Tensor(u.data.copy()))
    assert abs(loss.item() - math.log(k)) < 1e-12 and abs(raw - math.log(k)) < 1e-12


def test_i2t_oracle_and_weighting(rng):
    f, t = unit_rows(rng, 4, 6), unit_rows(rng, 3, 6)
    s = unit_rows(rng, 4, 6)
    td = image_text_dist(Tensor(f), Tensor(t), 2.0)
    sd = image_text_dist(Tensor(s), Tensor(t), 2.0)
    expected = np_soft_ce(td.data, sd.data).mean()
    assert abs(R.i2t_node(td, sd)[0].item() - expected) < 1e-12

    w = rng.uniform(0.1, 1.0, size=4)
    weighted = (np_soft_ce(td.data, sd.data) * w).mean()
    loss, raw = R.i2t_node(td, sd, weights=Tensor(w), beta=1.7)
    assert abs(loss.item() - 1.7 * weighted) < 1e-12
    assert abs(raw - expected) < 1e-12


def test_pt_self_is_entropy_sum(rng):
    teacher, _ = teacher_pack(rng, 4, 3, 6)
    val = R.pt_node(teacher, Tensor(teacher.proto_text_dist.data.copy()), Tensor(teacher.text_proto_dist.data.copy()))
    ent = np_soft_ce(teacher.proto_text_dist.data, teacher.proto_text_dist.data).mean() + np_soft_ce(
        teacher.text_proto_dist.data, teacher.text_proto_dist.data
    ).mean()
    assert abs(val.item() - ent) < 1e-12


def test_pt_single_class_is_zero(rng):
    teacher, _ = teacher_pack(rng, 2, 1, 6)
    val = R.pt_node(teacher, Tensor(teacher.proto_text_dist.data.copy()), Tensor(teacher.text_proto_dist.data.copy()))
    assert abs(val.item()) < 1e-9


# ---------------------------------------------------------------------------
# sample weights


def test_weights_equal_similarity_gives_half(rng):
    d = Tensor(np_dist(unit_rows(rng, 4, 6), unit_rows(rng, 3, 6), 2.0))
    ds = Tensor(np_dist(unit_rows(rng, 4, 6), unit_rows(rng, 3, 6), 2.0))
    r0 = sample_weights(np.array((d.data, d.data.copy())), ds.data)
    r_prev = 1.0 - r0
    assert np.array_equal(r0, np.full(4, 0.5))
    assert np.array_equal(r_prev, np.full(4, 0.5))


def test_weights_analytic_extreme():
    student = Tensor(np.array([[1.0, 0.0]]))
    same = Tensor(np.array([[1.0, 0.0]]))      # cosine 1 with student
    orthogonal = Tensor(np.array([[0.0, 1.0]]))  # cosine 0 with student
    r0 = sample_weights(np.array((same.data, orthogonal.data)), student.data)
    r_prev = 1.0 - r0
    assert abs(r0[0] - 1.0 / (1.0 + math.e)) < 1e-12
    assert abs(r_prev[0] - math.e / (1.0 + math.e)) < 1e-12


def test_weights_sum_to_one_and_oracle(rng):
    for _ in range(5):
        d0 = np_dist(unit_rows(rng, 6, 5), unit_rows(rng, 4, 5), 2.0)
        dp = np_dist(unit_rows(rng, 6, 5), unit_rows(rng, 4, 5), 2.0)
        ds = np_dist(unit_rows(rng, 6, 5), unit_rows(rng, 4, 5), 2.0)
        r0 = sample_weights(np.array((d0, dp)), ds)
        r_prev = 1.0 - r0
        assert np.all(np.abs(r0 + r_prev - 1.0) <= 1e-12)
        assert np.allclose(r0, np_weights(d0, dp, ds), atol=1e-12)
        assert type(r0) is np.ndarray  # a constant: no Tensor, so no gradient


def test_weights_strictly_decreasing_in_s0():
    # hold s_prev fixed, sweep s0 upward: r0 must strictly fall
    values = []
    for s0 in np.linspace(-0.9, 0.9, 7):
        e0, ep = math.exp(-s0), math.exp(-0.2)
        values.append(e0 / (e0 + ep))
    assert all(b < a for a, b in zip(values, values[1:]))
    # and the implementation agrees at a spot check: distributions built to
    # have cosine s0 with the student are awkward to construct directly, so
    # this check pins the formula the implementation is tested against above.


# ---------------------------------------------------------------------------
# wc


def test_wc_values_and_grad(rng):
    v = rng.normal(size=8)
    assert wc_loss(Tensor(v.copy(), requires_grad=True), Tensor(v.copy())).item() == 0.0
    assert abs(wc_loss(Tensor(np.array([1.0, -1.0]), requires_grad=True), Tensor(np.zeros(2))).item() - 2.0) < 1e-15

    theta = Tensor(rng.normal(size=8), requires_grad=True)
    ref = rng.normal(size=8)
    loss = wc_loss(theta, Tensor(ref))
    loss.backward()
    assert np.allclose(theta.grad, 2.0 * (theta.data - ref), atol=1e-12)
    check_grads(lambda p: wc_loss(p[0], Tensor(ref)), [theta.data], rel=1e-6)


def test_wc_on_parameter_list_is_one_node_matching_the_flat_chain():
    from mulki.encoder import params_flat
    from mulki.tensor import GradTape
    from reference_ops import params_flat_tensor

    def run(penalty):
        model = DualEncoder(3, vocab_size=5, d_in=6, d_tok=4, hidden=8, embed_dim=6)
        ref = params_flat(model) + np.random.default_rng(0).normal(scale=0.01, size=params_flat(model).size)
        # a forward contribution too, so each leaf sums two gradients as in training
        loss = Tensor(0.0)
        for p in model.parameters():
            loss = loss + R.tsum(R.mul(p, p))
        loss = loss + penalty(model, ref) * 0.1
        loss.backward()
        return loss.data.tobytes(), [p.grad.tobytes() for p in model.parameters()]

    def old_chain(model, ref):
        diff = R.sub(params_flat_tensor(model), Tensor(ref))
        return R.tsum(R.mul(diff, diff))

    assert run(lambda model, ref: wc_loss(model.parameters(), ref)) == run(old_chain)

    model = DualEncoder(3, vocab_size=5, d_in=6, d_tok=4, hidden=8, embed_dim=6)
    ref = np.random.default_rng(1).normal(size=params_flat(model).size)
    penalty = wc_loss(model.parameters(), ref)
    assert GradTape.trace(penalty).nodes == [penalty]  # the leaves stay off the tape
    penalty.backward()
    assert all(p.grad is p._lane for p in model.parameters())
    assert model.parameters().grad.tobytes() == (2.0 * (params_flat(model) - ref)).tobytes()
    check_grads(lambda ps: wc_loss(ps, ref), [p.data for p in model.parameters()], rel=1e-6)
    with pytest.raises(ContractError, match=re.escape(f"sum_sq_diff: ({ref.size},) vs ({ref.size - 1},)")):
        wc_loss(model.parameters(), ref[:-1])


def test_wc_permutation_invariant(rng):
    a, b = rng.normal(size=10), rng.normal(size=10)
    perm = rng.permutation(10)
    v1 = wc_loss(Tensor(a), Tensor(b)).item()
    v2 = wc_loss(Tensor(a[perm]), Tensor(b[perm])).item()
    assert abs(v1 - v2) < 1e-12


# ---------------------------------------------------------------------------
# mdd assembly


def np_mdd(c0, prev, student, protos, alpha, beta, teacher_weight):
    """Independent numpy assembly mirroring the documented formula."""
    b = student["feats"].shape[0]
    if teacher_weight is None:
        r0 = np_weights(c0["itd"], prev["itd"], student["itd"])
    else:
        r0 = np.full(b, teacher_weight)
    rp = 1.0 - r0

    total = 0.0
    for teacher, r in ((c0, r0), (prev, rp)):
        if teacher_weight is not None and not r.any():  # a teacher at fixed weight 0 drops out, p&t too
            continue
        per_fd = ((teacher["feats"] - student["feats"]) ** 2).sum(axis=1)
        total += (per_fd * r).mean()
        total += alpha * np_ird(teacher["feats"], student["feats"], protos, weights=r)
        total += beta * (np_soft_ce(teacher["itd"], student["itd"]) * r).mean()
        pt = np_soft_ce(teacher["ptd"], student["ptd"]).mean() + np_soft_ce(teacher["tpd"], student["tpd"]).mean()
        total += 0.5 * beta * pt
    return total


def build_packs(rng, b=4, k=3, d=6, tau=2.0):
    protos = Tensor(unit_rows(rng, k, d))
    packs = {}
    for name in ("c0", "prev", "student"):
        feats = unit_rows(rng, b, d)
        texts = unit_rows(rng, k, d)
        packs[name] = {
            "feats": np_unit(feats),
            "itd": np_dist(feats, texts, tau),
            "ptd": np_dist(protos.data, texts, tau),
            "tpd": np_dist(texts, protos.data, tau),
            "raw_feats": feats,
            "raw_texts": texts,
        }
    c0_out = TeacherOutputs(
        feats=Tensor(packs["c0"]["feats"]),
        img_text_dist=Tensor(packs["c0"]["itd"]),
        proto_text_dist=Tensor(packs["c0"]["ptd"]),
        text_proto_dist=Tensor(packs["c0"]["tpd"]),
    )
    prev_out = TeacherOutputs(
        feats=Tensor(packs["prev"]["feats"]),
        img_text_dist=Tensor(packs["prev"]["itd"]),
        proto_text_dist=Tensor(packs["prev"]["ptd"]),
        text_proto_dist=Tensor(packs["prev"]["tpd"]),
    )
    s = packs["student"]
    student = StudentOutputs(
        feats=Tensor(s["feats"], requires_grad=True),
        texts=Tensor(s["raw_texts"], requires_grad=True),
        img_text_dist=Tensor(s["itd"], requires_grad=True),
        proto_text_dist=Tensor(s["ptd"], requires_grad=True),
        text_proto_dist=Tensor(s["tpd"], requires_grad=True),
    )
    return c0_out, prev_out, student, protos, packs


@pytest.mark.parametrize(
    "teacher_weight", [None, 0.5, 1.0, 0.0, 0.25], ids=["similarity", "average", "only_c0", "only_prev", "0.25"]
)
def test_mdd_matches_numpy_oracle(rng, teacher_weight):
    c0_out, prev_out, student, protos, packs = build_packs(rng)
    loss, info = mdd_loss(R.pair(c0_out, prev_out, teacher_weight), student, protos, R.per_lane(teacher_weight), alpha=0.7, beta=1.3)
    expected = np_mdd(packs["c0"], packs["prev"], packs["student"], protos.data, 0.7, 1.3, teacher_weight)
    assert abs(loss.item() - expected) < 1e-12
    assert loss.requires_grad


def test_mdd_average_equals_similarity_when_teachers_coincide(rng):
    seed = int(rng.integers(0, 2**31))
    r1 = np.random.default_rng(seed)
    c0_out, _, student, protos, _ = build_packs(r1)
    sim, _ = mdd_loss(R.pair(c0_out, c0_out), student, protos, R.per_lane(None))
    avg, _ = mdd_loss(R.pair(c0_out, c0_out), student, protos, R.per_lane(0.5))
    assert sim.item() == avg.item()


def test_mdd_alpha_beta_zero_is_weighted_fd(rng):
    c0_out, prev_out, student, protos, packs = build_packs(rng)
    loss, _ = mdd_loss(R.pair(c0_out, prev_out), student, protos, R.per_lane(None), alpha=0.0, beta=0.0, enable_ird=False, enable_idd=False)
    r0 = np_weights(packs["c0"]["itd"], packs["prev"]["itd"], packs["student"]["itd"])
    fd0 = (((packs["c0"]["feats"] - packs["student"]["feats"]) ** 2).sum(axis=1) * r0).mean()
    fdp = (((packs["prev"]["feats"] - packs["student"]["feats"]) ** 2).sum(axis=1) * (1 - r0)).mean()
    assert abs(loss.item() - (fd0 + fdp)) < 1e-12


def test_mdd_all_channels_disabled_returns_none(rng):
    c0_out, prev_out, student, protos, _ = build_packs(rng)
    loss, info = mdd_loss(R.pair(c0_out, prev_out), student, protos, R.per_lane(None), enable_fd=False, enable_ird=False, enable_idd=False)
    assert loss is None


def test_teacher_outputs_must_be_detached(rng):
    feats = Tensor(unit_rows(rng, 2, 4), requires_grad=True)
    texts = Tensor(unit_rows(rng, 3, 4))
    dist = image_text_dist(feats, texts, 2.0)
    with pytest.raises(ContractError):
        TeacherOutputs(feats=feats, img_text_dist=dist, proto_text_dist=Tensor(dist.data[:3]), text_proto_dist=Tensor(dist.data[:3]))


def test_teacher_outputs_rows_must_sum_to_one(rng):
    feats = Tensor(unit_rows(rng, 2, 4))
    bad = Tensor(np.full((2, 3), 0.5))
    with pytest.raises(ContractError):
        TeacherOutputs(feats=feats, img_text_dist=bad, proto_text_dist=bad, text_proto_dist=bad)


def test_teacher_rows_equal_per_batch_teacher_outputs(tiny_stream):
    from mulki.taskgen import batches

    task = tiny_stream.tasks[0]
    teacher = snapshot(DualEncoder(5, vocab_size=tiny_stream.vocab_size, d_in=tiny_stream.d_in, d_tok=8, hidden=16, embed_dim=8))
    protos = PrototypeStore.init_from_model(teacher, task.images_by_class()).matrix()
    whole = R.teacher_outputs(teacher, task.train_x, task.token_ids, protos, tau=2.0)
    for it, (x, idx) in enumerate(batches(task, 8, seed=3, iterations=40)):
        moved = Tensor(np.roll(protos.data, it, axis=1))  # prototypes drift between batches
        fresh = R.teacher_outputs(teacher, x, task.token_ids, moved, tau=2.0)
        cut = whole.rows(idx, moved, tau=2.0)
        for name in ("feats", "img_text_dist", "proto_text_dist", "text_proto_dist", "texts"):
            assert np.array_equal(getattr(cut, name).data, getattr(fresh, name).data), (it, name)


def test_teacher_rows_carry_unit_rows_equal_to_a_fresh_normalization(tiny_stream):
    """The bundle's feature rows are normalized once per task; each batch's indexed unit rows are bit-exact."""
    from mulki.taskgen import batches

    task = tiny_stream.tasks[0]
    teacher = snapshot(DualEncoder(5, vocab_size=tiny_stream.vocab_size, d_in=tiny_stream.d_in))  # default widths
    whole = teacher_outputs([teacher], task.train_x, task.token_ids, None, tau=2.0)
    for it, (_, idx) in enumerate(batches(task, 32, seed=3, iterations=50)):
        cut = whole.rows(idx, None, tau=2.0)
        kept = cut.feats._unit
        assert kept is not None and T.unit_rows(cut.feats) is kept  # handed over, not recomputed
        fresh = T.UnitRows(cut.feats.data)
        assert np.array_equal(kept.data, fresh.data) and np.array_equal(kept.norms, fresh.norms), it


def test_bundles_without_prototypes_skip_the_prototype_text_distributions(tiny_stream):
    task = tiny_stream.tasks[0]
    model = DualEncoder(5, vocab_size=tiny_stream.vocab_size, d_in=tiny_stream.d_in, d_tok=8, hidden=16, embed_dim=8)
    whole = R.teacher_outputs(snapshot(model), task.train_x, task.token_ids, None, tau=2.0)
    cut = whole.rows([0, 3], None, tau=2.0)
    student = student_outputs(model, model.encode_images(task.train_x[:2]), task.token_ids, None, 2.0, img_text=False)
    for bundle in (whole, cut, student):
        assert bundle.proto_text_dist is None and bundle.text_proto_dist is None
    assert student.img_text_dist is None and cut.img_text_dist.shape == (2, 3)


def test_teacher_rows_skip_the_checks(monkeypatch, rng):
    out, protos = teacher_pack(rng, 4, 3, 5)
    out.texts = Tensor(unit_rows(rng, 3, 5))
    calls = []
    monkeypatch.setattr(TeacherOutputs, "__post_init__", lambda self: calls.append(self))
    out.rows([0, 2], protos, tau=2.0)
    assert calls == []


def test_total_loss_with_teacher_bundles_matches_per_batch():
    student, c0, c_prev, store, x, labels, token_ids, hyper = total_loss_setup(seed=6)
    pool = np.random.default_rng(1).normal(size=(10, 6))
    rows = np.array([3, 1, 4, 1, 5, 9])
    protos = store.matrix()
    teachers = R.weighted_bundle(c0, c_prev, pool, token_ids, protos, hyper)
    _, fresh = R.total_loss(pool[rows], labels, token_ids, student, c0, c_prev, protos, hyper)
    feats = student.encode_images(pool[rows])
    _, cached = total_loss(student, feats, labels, token_ids, protos, hyper, teachers, rows, R.per_lane(hyper.teacher_weight))
    assert fresh.values() == cached.values()
    assert fresh.r0_mean == cached.r0_mean is not None


# ---------------------------------------------------------------------------
# model-level fixed point: student identical to both teachers


def fixed_point_setup(seed=0):
    model = DualEncoder(seed, vocab_size=5, d_in=6, d_tok=4, hidden=8, embed_dim=6)
    frozen = snapshot(model)
    rng = np.random.default_rng(seed + 1)
    images = [rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6))]
    store = PrototypeStore.init_from_model(frozen, images)
    x = rng.normal(size=(5, 6))
    token_ids = [1, 2, 3]
    protos = store.matrix()
    return model, frozen, x, token_ids, protos


def test_distillation_fixed_point_values_and_gradients():
    model, frozen, x, token_ids, protos = fixed_point_setup()
    c0_out = R.teacher_outputs(frozen, x, token_ids, protos, tau=2.0)
    prev_out = R.teacher_outputs(frozen, x, token_ids, protos, tau=2.0)
    student = student_outputs(model, model.encode_images(x), token_ids, protos, tau=2.0)

    loss, info = mdd_loss(R.pair(c0_out, prev_out), student, protos, R.per_lane(None))
    # hard-zero structure: feature and relation gaps are exactly zero
    assert info["fd0"] == 0.0 and info["fd_prev"] == 0.0
    assert info["ird0"] == 0.0 and info["ird_prev"] == 0.0
    # equal similarities degenerate the weighting to an even split
    assert np.array_equal(np.asarray(info["r0"]), np.full(5, 0.5))

    loss.backward()
    worst = max(np.max(np.abs(p.grad)) for p in model.parameters() if p.grad is not None)
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# cross entropy and the assembled objective


def test_cross_entropy_uniform(rng):
    k = 4
    dist = Tensor(np.full((3, k), 1.0 / k))
    assert abs(cross_entropy(dist, [0, 1, 3]).item() - math.log(k)) < 1e-12


def test_cross_entropy_label_errors(rng):
    dist = Tensor(np.full((2, 3), 1.0 / 3))
    with pytest.raises(ContractError, match=re.escape("cross_entropy: 2 rows but labels shape (1,)")):
        cross_entropy(dist, [0])
    with pytest.raises(ContractError):
        cross_entropy(dist, [0, 3])


def total_loss_setup(seed=0, hyper=None):
    rng = np.random.default_rng(seed)
    teacher_model = DualEncoder(seed + 50, vocab_size=5, d_in=6, d_tok=4, hidden=8, embed_dim=6)
    prev_model = DualEncoder(seed + 51, vocab_size=5, d_in=6, d_tok=4, hidden=8, embed_dim=6)
    student = DualEncoder(seed + 52, vocab_size=5, d_in=6, d_tok=4, hidden=8, embed_dim=6)
    c0, c_prev = snapshot(teacher_model), snapshot(prev_model)
    images = [rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6))]
    store = PrototypeStore.init_from_model(c0, images)
    x = rng.normal(size=(6, 6))
    labels = [0, 1, 2, 0, 1, 2]
    token_ids = [1, 2, 3]
    hyper = hyper or HyperParams()
    return student, c0, c_prev, store, x, labels, token_ids, hyper


def bundled_loss(student, c0, c_prev, store, x, labels, token_ids, hyper, wc_reference=None):
    """total_loss on batch `x` with the teachers' bundle built over `x` itself (batch rows 0..B-1)."""
    protos = store.matrix()
    teachers = R.weighted_bundle(c0, c_prev, x, token_ids, protos, hyper)
    feats = student.encode_images(x)
    return total_loss(student, feats, labels, token_ids, protos, hyper, teachers, np.arange(len(x)), R.per_lane(hyper.teacher_weight), wc_reference)


def test_total_loss_breakdown_identity():
    student, c0, c_prev, store, x, labels, token_ids, hyper = total_loss_setup(
        hyper=HyperParams(lambda1=0.9, lambda2=1.1, lambda_wc=0.3)
    )
    from mulki.encoder import params_flat

    ref = params_flat(student) + 0.01
    loss, bd = bundled_loss(student, c0, c_prev, store, x, labels, token_ids, hyper, wc_reference=ref)
    reconstructed = bd.ce + hyper.lambda1 * bd.csa + hyper.lambda2 * bd.mdd + hyper.lambda_wc * bd.wc
    assert abs(bd.total - reconstructed) <= 1e-10
    assert abs(loss.item() - bd.total) <= 1e-15
    assert 0.0 < bd.r0_mean < 1.0


def test_total_loss_degenerates_to_plain_ce():
    hyper = HyperParams(
        enable_csa=False, enable_fd=False, enable_ird=False, enable_idd=False,
        enable_wc=False, lambda1=0.0, lambda2=0.0,
    )
    student, c0, c_prev, store, x, labels, token_ids, _ = total_loss_setup(seed=3, hyper=hyper)
    loss, bd = bundled_loss(student, c0, c_prev, store, x, labels, token_ids, hyper)

    feats = student.encode_images(x)
    texts = student.encode_texts(token_ids)
    plain = cross_entropy(image_text_dist(feats, texts, hyper.tau_ce), labels)
    assert loss.item() == plain.item()
    assert bd.csa == 0.0 and bd.mdd == 0.0 and bd.wc == 0.0
    assert bd.r0_mean is None


def test_total_loss_batch_permutation_invariant():
    student, c0, c_prev, store, x, labels, token_ids, hyper = total_loss_setup(seed=9)
    perm = np.random.default_rng(0).permutation(len(labels))
    _, bd1 = bundled_loss(student, c0, c_prev, store, x, labels, token_ids, hyper)
    _, bd2 = bundled_loss(student, c0, c_prev, store, x[perm], [labels[i] for i in perm], token_ids, hyper)
    for name in LossBreakdown.FIELDS:
        assert abs(getattr(bd1, name) - getattr(bd2, name)) <= 1e-12, name


def test_no_gradient_reaches_teachers_or_prototypes():
    student, c0, c_prev, store, x, labels, token_ids, hyper = total_loss_setup(seed=4)
    loss, _ = bundled_loss(student, c0, c_prev, store, x, labels, token_ids, hyper)
    loss.backward()
    for p in c0.parameters():
        assert p.grad is None
    for p in c_prev.parameters():
        assert p.grad is None
    assert all(p.grad is not None for p in student.parameters())


def test_total_loss_grad_matches_finite_differences(monkeypatch):
    # The per-sample teacher weights are constants in the loss graph, so the
    # finite-difference oracle must difference the same function: freeze the
    # weights at their base-point values while sweeping parameters.
    from gradcheck import rel_error
    from mulki.encoder import load_flat, params_flat

    student, c0, c_prev, store, x, labels, token_ids, hyper = total_loss_setup(seed=8)
    ref = params_flat(student) + 0.02

    import mulki.losses as losses_mod

    real_weights = losses_mod.sample_weights
    frozen = {}

    def frozen_weights(teachers, student):
        if "value" not in frozen:
            frozen["value"] = real_weights(teachers, student)
        return frozen["value"]

    monkeypatch.setattr(losses_mod, "sample_weights", frozen_weights)

    def loss_at(vec):
        load_flat(student, vec)
        loss, _ = bundled_loss(student, c0, c_prev, store, x, labels, token_ids, hyper, wc_reference=ref)
        return loss

    theta0 = params_flat(student)
    loss = loss_at(theta0)
    loss.backward()
    analytic = np.concatenate([p.grad.ravel() for p in student.parameters()])

    h = 1e-5
    rng2 = np.random.default_rng(123)
    picks = rng2.choice(theta0.size, size=60, replace=False)
    numeric = np.zeros(picks.size)
    for idx, j in enumerate(picks):
        up, down = theta0.copy(), theta0.copy()
        up[j] += h
        down[j] -= h
        numeric[idx] = (loss_at(up).item() - loss_at(down).item()) / (2 * h)
    load_flat(student, theta0)
    assert rel_error(analytic[picks], numeric) <= 1e-4
