"""Every fused node against the generic-op chain it replaced, bit for bit.

A fused node must give the chain's forward value and hand every leaf the
chain's gradient, compared with np.array_equal, not a tolerance; the
chains live in tests/reference_ops.py. Hypothesis draws the shapes and
values: probabilities at and below LOG_EPS, zero relation gaps, the row
weights of every teacher-weighting mode, a constant on either side of a
cosine, inputs that are leaves or op outputs. Each node also passes the
finite-difference check.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mulki.tensor as T
import reference_ops as R
from gradcheck import check_grads, prob_rows, unit_rows
from mulki import losses
from mulki.config import HyperParams
from mulki.encoder import DualEncoder, params_flat, snapshot
from mulki.losses import WEIGHTING_MODES, TeacherOutputs, sample_weights
from mulki.prototypes import PrototypeStore
from mulki.tensor import LOG_EPS, GradTape, Tensor

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

dims = st.integers(1, 6)
widths = st.integers(1, 20)  # feature dims; from 8 on numpy sums a contiguous row pairwise
flags = st.sampled_from([(True, True), (False, True), (True, False)])  # which inputs carry gradients


@st.composite
def matrices(draw, shape, min_row_norm=1e-3):
    m = draw(arrays(np.float64, shape, elements=st.floats(-3.0, 3.0, allow_subnormal=False)))
    assume(np.all(np.linalg.norm(m, axis=-1) > min_row_norm))
    return m


@st.composite
def prob_matrices(draw, shape):
    """Probability rows, some entries at or below the LOG_EPS floor."""
    logits = draw(arrays(np.float64, shape, elements=st.floats(-4.0, 4.0)))
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    tiny = draw(arrays(np.bool_, shape))
    floor = draw(st.sampled_from([0.0, 1e-15, LOG_EPS]))
    return np.where(tiny, floor, p)


def _leaves(values, grads, through_node):
    """Fresh tensors for `values`; optionally routed through a node so they are op outputs."""
    leaves = [Tensor(v.copy(), requires_grad=g) for v, g in zip(values, grads)]
    inputs = [T.scale(t, 1.0) if through_node and t.requires_grad else t for t in leaves]
    return leaves, inputs


def _run(build, values, grads, through_node, seed):
    """Build on fresh leaves and backpropagate a seeded random upstream gradient."""
    leaves, inputs = _leaves(values, grads, through_node)
    out = build(*inputs)
    out = out[0] if isinstance(out, tuple) else out
    upstream = np.random.default_rng(seed).normal(size=out.shape)
    root = out if out.shape == () else T.tsum(T.mul(out, Tensor(upstream)))
    if root.requires_grad:
        root.backward()
    return out, [leaf.grad for leaf in leaves]


def assert_same(fused, chain, values, grads=None, through_node=False, seed=0):
    """Forward value and every leaf gradient of `fused` equal `chain`'s, exactly."""
    grads = grads or [True] * len(values)
    f_out, f_grads = _run(fused, values, grads, through_node, seed)
    c_out, c_grads = _run(chain, values, grads, through_node, seed)
    assert np.array_equal(f_out.data, c_out.data)
    assert f_out.requires_grad == c_out.requires_grad
    for f, c in zip(f_grads, c_grads):
        assert (f is None) == (c is None)
        if f is not None:
            assert np.array_equal(f, c)


def weights_for(mode, d0, dp, ds, teacher):
    """The row weights mdd_loss hands teacher 0 or 1 under `mode` (None: that teacher is off)."""
    b = ds.shape[0]
    if mode == "similarity":
        return sample_weights(Tensor(d0), Tensor(dp), Tensor(ds))[teacher]
    if mode == "average":
        return Tensor(np.full(b, 0.5))
    if (mode == "only_c0") == (teacher == 0):
        return Tensor(np.ones(b))
    return None


@st.composite
def row_weights(draw, b):
    k = draw(st.integers(1, 4))
    dists = [draw(prob_matrices((b, k))) + 1e-3 for _ in range(3)]
    mode = draw(st.sampled_from(WEIGHTING_MODES))
    return weights_for(mode, *dists, teacher=draw(st.sampled_from([0, 1])))


# ---------------------------------------------------------------------------
# tensor-level fused ops


@SETTINGS
@given(st.data(), dims, widths, widths, dims, flags, st.booleans())
def test_linear_matches_chain(data, n, i, o, seed, grads, through_node):
    x = data.draw(matrices((n, i)))
    w = data.draw(matrices((i, o)))
    b = data.draw(arrays(np.float64, (o,), elements=st.floats(-3.0, 3.0)))
    assert_same(T.linear, R.linear, [x, w, b], [grads[0], grads[1], True], through_node, seed)


@SETTINGS
@given(st.data(), dims, dims, widths, flags, st.booleans())
def test_cosine_sim_matches_chain(data, m, n, d, grads, through_node):
    a, b = data.draw(matrices((m, d))), data.draw(matrices((n, d)))
    assert_same(T.cosine_sim, R.cosine_sim, [a, b], list(grads), through_node)


@SETTINGS
@given(st.data(), dims, dims, widths, flags, st.booleans(), st.sampled_from([0.07, 1.0, 2.0]))
def test_cosine_softmax_matches_chain(data, m, n, d, grads, through_node, tau):
    a, b = data.draw(matrices((m, d))), data.draw(matrices((n, d)))
    assert_same(
        lambda x, y: T.cosine_softmax(x, y, tau), lambda x, y: R.cosine_softmax(x, y, tau), [a, b], list(grads), through_node
    )


def test_cosine_with_itself_matches_chain(rng):
    a = rng.normal(size=(4, 5))
    assert_same(lambda x: T.cosine_softmax(x, x, 2.0), lambda x: R.cosine_softmax(x, x, 2.0), [a], through_node=True)
    assert_same(lambda x: T.cosine_sim(x, x), lambda x: R.cosine_sim(x, x), [a])


@SETTINGS
@given(st.data(), dims, widths, st.booleans(), st.sampled_from([1.0, 0.5, 1.3]))
def test_soft_ce_mean_matches_chain(data, b, k, through_node, scale):
    target = data.draw(prob_matrices((b, k)))
    pred = data.draw(prob_matrices((b, k)))
    weights = data.draw(st.one_of(st.none(), row_weights(b)))
    chain_scale = None if scale == 1.0 else scale
    assert_same(
        lambda t, p: T.soft_ce_mean(t, p, weights, scale),
        lambda t, p: R.soft_ce_mean(t, p, weights, chain_scale),
        [target, pred],
        [False, True],
        through_node,
    )


# ---------------------------------------------------------------------------
# loss-level fused terms


@SETTINGS
@given(st.data(), dims, widths, st.booleans(), st.booleans())
def test_fd_loss_matches_chain(data, b, d, same, through_node):
    t = data.draw(matrices((b, d)))
    s = t.copy() if same else data.draw(matrices((b, d)))
    weights = data.draw(st.one_of(st.none(), row_weights(b)))
    fused_raw = losses.fd_loss(Tensor(t), Tensor(s), weights)[1]
    assert fused_raw == R.fd_loss(Tensor(t), Tensor(s), weights)[1]
    assert_same(
        lambda x, y: losses.fd_loss(x, y, weights),
        lambda x, y: R.fd_loss(x, y, weights),
        [t, s],
        [False, True],
        through_node,
    )


@SETTINGS
@given(st.data(), dims, dims, widths, st.booleans(), st.booleans(), st.sampled_from([1.0, 0.7]))
def test_ird_loss_matches_chain(data, b, k, d, same, through_node, alpha):
    t = data.draw(matrices((b, d)))
    s = t.copy() if same else data.draw(matrices((b, d)))  # same: a zero gap, the zero-subgradient path
    p = data.draw(matrices((k, d)))
    weights = data.draw(st.one_of(st.none(), row_weights(b)))
    chain_alpha = None if alpha == 1.0 else alpha
    assert losses.ird_loss(Tensor(t), Tensor(s), Tensor(p), weights, alpha)[1] == R.ird_loss(
        Tensor(t), Tensor(s), Tensor(p), weights, chain_alpha
    )[1]
    assert_same(
        lambda x, y, z: losses.ird_loss(x, y, z, weights, alpha),
        lambda x, y, z: R.ird_loss(x, y, z, weights, chain_alpha),
        [t, s, p],
        [False, True, False],
        through_node,
    )


@SETTINGS
@given(st.data(), dims, widths, st.booleans(), st.sampled_from([1.0, 1.3]))
def test_i2t_loss_matches_chain(data, b, k, through_node, beta):
    td, sd = data.draw(prob_matrices((b, k))), data.draw(prob_matrices((b, k)))
    weights = data.draw(st.one_of(st.none(), row_weights(b)))
    chain_beta = None if beta == 1.0 else beta
    assert losses.i2t_loss(Tensor(td), Tensor(sd), weights, beta)[1] == R.i2t_loss(Tensor(td), Tensor(sd), weights)[1]
    assert_same(
        lambda x, y: losses.i2t_loss(x, y, weights, beta),
        lambda x, y: R.i2t_loss(x, y, weights, chain_beta),
        [td, sd],
        [False, True],
        through_node,
    )


@SETTINGS
@given(st.data(), dims, widths, st.booleans(), st.sampled_from([0.07, 2.0]))
def test_csa_loss_matches_chain(data, k, d, through_node, tau):
    protos, texts = data.draw(matrices((k, d))), data.draw(matrices((k, d)))
    assert_same(
        lambda p, t: losses.csa_loss(p, t, tau), lambda p, t: R.csa_loss(p, t, tau), [protos, texts], [False, True], through_node
    )


# ---------------------------------------------------------------------------
# assembled: a training iteration's objective and gradients


def _iteration(seed, hyper):
    rng = np.random.default_rng(seed)
    dims = dict(vocab_size=8, d_in=12, d_tok=6, hidden=10, embed_dim=16)
    c0, c_prev = snapshot(DualEncoder(seed + 50, **dims)), snapshot(DualEncoder(seed + 51, **dims))
    student = DualEncoder(seed + 52, **dims)
    store = PrototypeStore.init_from_model(c0, {c: rng.normal(size=(4, 12)) for c in range(5)})
    x, labels = rng.normal(size=(32, 12)), rng.integers(0, 5, size=32)
    class_ids, token_ids, ref = list(range(5)), [1, 2, 3, 4, 5], params_flat(student) + 0.01

    def fused():
        """The trainer's path: teacher bundles over the batch, the student's features encoded first."""
        protos = store.matrix(class_ids).detach()
        teachers = tuple(losses.teacher_outputs(t, x, token_ids, protos, hyper.tau) for t in (c0, c_prev))
        feats = student.encode_images(x)
        return losses.total_loss(student, feats, labels, token_ids, class_ids, store, hyper, teachers, np.arange(32), ref)

    def chain():
        return R.total_loss(x, labels, token_ids, student, c0, c_prev, store, hyper, class_ids, ref)

    return SimpleNamespace(student=student, fused=fused, chain=chain)


@pytest.mark.parametrize("weighting", WEIGHTING_MODES)
@pytest.mark.parametrize("seed", [0, 1])
def test_total_loss_matches_chain(weighting, seed):
    """Shared inputs (student feats, texts, prototypes) get their gradients in the chain's order."""
    results = []
    for build in ("fused", "chain"):
        it = _iteration(seed, HyperParams(weighting_mode=weighting))
        loss, bd = getattr(it, build)()
        loss.backward()
        results.append((loss.data, bd.values(), bd.per_sample_r0, [p.grad for p in it.student.parameters()]))
    (f_loss, f_bd, f_r0, f_grads), (c_loss, c_bd, c_r0, c_grads) = results
    assert np.array_equal(f_loss, c_loss) and f_bd == c_bd and f_r0 == c_r0
    assert all(np.array_equal(f, c) for f, c in zip(f_grads, c_grads))


def test_teacher_bundle_rows_match_chain(rng):
    protos = Tensor(unit_rows(rng, 3, 5))
    texts = Tensor(unit_rows(rng, 3, 5))
    feats = Tensor(unit_rows(rng, 6, 5))
    bundle = TeacherOutputs(
        feats=feats,
        img_text_dist=losses.image_text_dist(feats, texts, 2.0),
        proto_text_dist=losses.image_text_dist(protos, texts, 2.0),
        text_proto_dist=losses.image_text_dist(texts, protos, 2.0),
        texts=texts,
    )
    for _ in range(3):  # the texts' normalization is reused from the second batch on
        cut = bundle.rows([4, 0, 2], protos, 2.0)
        assert np.array_equal(cut.proto_text_dist.data, R.cosine_softmax(protos, texts, 2.0).data)
        assert np.array_equal(cut.text_proto_dist.data, R.cosine_softmax(texts, protos, 2.0).data)


def test_iteration_tape_is_fused():
    it = _iteration(0, HyperParams())
    loss, _ = it.fused()
    # 18 encoder nodes and leaves, 2 supervised, 3 student distributions,
    # 3 csa (+ scale, add), 23 distillation (7 per teacher, 7 adds, scale, add), 3 anchor
    assert len(GradTape.trace(loss).nodes) == 52
    chain_loss, _ = it.chain()
    assert len(GradTape.trace(chain_loss).nodes) == 158


def test_each_fused_op_is_one_node(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    pred = Tensor(prob_rows(rng, 4, 2), requires_grad=True)
    for out in (
        T.linear(a, w, Tensor(np.zeros(2))),
        T.cosine_sim(a, b),
        T.cosine_softmax(a, b, 2.0),
        T.soft_ce_mean(Tensor(prob_rows(rng, 4, 2)), pred),
        losses.csa_loss(Tensor(b.data), b, 2.0),
        losses.fd_loss(Tensor(a.data + 1.0), a)[0],
        losses.ird_loss(Tensor(a.data + 1.0), a, Tensor(b.data))[0],
    ):
        assert [n for n in GradTape.trace(out).nodes if n._backward is not None] == [out]


# ---------------------------------------------------------------------------
# the normalization memo


def test_unit_rows_computed_once_except_on_trainable_leaves(rng):
    leaf = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    assert T.unit_rows(leaf) is not T.unit_rows(leaf)
    out = T.scale(leaf, 2.0)
    assert T.unit_rows(out) is T.unit_rows(out)
    const = Tensor(rng.normal(size=(3, 4)))
    unit = T.unit_rows(const)
    assert unit is T.unit_rows(const)
    assert np.array_equal(unit.data, T.l2_normalize(const, axis=1).data)
    assert np.array_equal(unit.t, unit.data.T) and unit.t.flags.c_contiguous


# ---------------------------------------------------------------------------
# finite differences


def test_fused_op_grads(rng):
    x, w, bias = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    up = rng.normal(size=(4, 2))
    check_grads(lambda p: T.tsum(T.mul(T.linear(p[0], p[1], p[2]), Tensor(up))), [x, w, bias], rel=1e-6)

    a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
    up = rng.normal(size=(4, 3))
    check_grads(lambda p: T.tsum(T.mul(T.cosine_sim(p[0], p[1]), Tensor(up))), [a, b], rel=1e-6)
    check_grads(lambda p: T.tsum(T.mul(T.cosine_softmax(p[0], p[1], 0.5), Tensor(up))), [a, b], rel=1e-6)

    t, p = prob_rows(rng, 4, 3), prob_rows(rng, 4, 3)
    wts = Tensor(rng.uniform(0.1, 1.0, size=4))
    check_grads(lambda q: T.soft_ce_mean(Tensor(t), q[0], wts, 1.3), [p], rel=1e-6)
    check_grads(lambda q: losses.i2t_loss(Tensor(t), q[0], wts, 0.8)[0], [p], rel=1e-6)

    teacher, student, protos = rng.normal(size=(4, 5)), rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
    check_grads(lambda q: losses.fd_loss(Tensor(teacher), q[0], wts)[0], [student], rel=1e-6)
    check_grads(lambda q: losses.ird_loss(Tensor(teacher), q[0], Tensor(protos), wts, 0.7)[0], [student], rel=1e-6)
    check_grads(lambda q: losses.csa_loss(Tensor(protos), q[0], 2.0), [rng.normal(size=(3, 5))], rel=1e-6)
