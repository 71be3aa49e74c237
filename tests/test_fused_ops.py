"""Every fused node against the generic-op chain it replaced, bit for bit.

A fused node must give the chain's forward value and hand every leaf the
chain's gradient, compared with np.array_equal, not a tolerance; the
chains live in tests/reference_ops.py. Hypothesis draws the shapes and
values: probabilities at and below LOG_EPS, zero relation gaps, the row
weights of every teacher weight (per-sample similarity, fixed, 0 or 1), a constant on either side of a
cosine, inputs that are leaves or op outputs. Each node also passes the
finite-difference check.
"""

import math
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
from mulki.encoder import DualEncoder, load_flat, params_flat, snapshot, stack, tower
from mulki.errors import ContractError
from mulki.losses import TeacherOutputs, sample_weights, weighted_teachers
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
    root = out if out.shape == () else R.tsum(R.mul(out, Tensor(upstream)))
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


def weights_for(teacher_weight, d0, dp, ds, teacher):
    """The row weights mdd_loss hands teacher 0 or 1 under `teacher_weight` (None: that teacher is off)."""
    if not weighted_teachers(R.per_lane(teacher_weight))[teacher]:
        return None
    if teacher_weight is None:
        r0 = sample_weights(np.array((d0, dp)), ds)
        return Tensor((r0, 1.0 - r0)[teacher])
    return Tensor(np.full(ds.shape[0], 1.0 - teacher_weight if teacher else float(teacher_weight)))


@st.composite
def row_weights(draw, b):
    k = draw(st.integers(1, 4))
    dists = [draw(prob_matrices((b, k))) + 1e-3 for _ in range(3)]
    teacher_weight = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return weights_for(teacher_weight, *dists, teacher=draw(st.sampled_from([0, 1])))


# ---------------------------------------------------------------------------
# tensor-level fused ops


@SETTINGS
@given(st.data(), dims, widths, dims, widths, widths, dims, st.sampled_from(["images", "texts", "both"]), st.booleans())
def test_towers_match_chains(data, vocab, d_in, d_tok, hidden, embed, seed, towers, x_grad):
    """Both encodings and all nine parameter gradients (and the image input's) equal the chains', exactly."""
    shape = dict(vocab_size=vocab, d_in=d_in, d_tok=d_tok, hidden=hidden, embed_dim=embed)
    values = data.draw(arrays(np.float64, params_flat(DualEncoder(0, **shape)).size, elements=st.floats(-3.0, 3.0)))
    x = data.draw(matrices((data.draw(dims), d_in)))
    ids = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
    up = np.random.default_rng(seed)
    up_img, up_txt = up.normal(size=(x.shape[0], embed)), up.normal(size=(len(ids), embed))

    def run(encode_images, encode_texts):
        model = DualEncoder(0, **shape)
        load_flat(model, values)
        xt = Tensor(x.copy(), requires_grad=x_grad)
        terms = []
        if towers != "texts":
            terms.append(R.tsum(R.mul(encode_images(model, xt), Tensor(up_img))))
        if towers != "images":
            terms.append(R.tsum(R.mul(encode_texts(model, ids), Tensor(up_txt))))
        loss = terms[0] if len(terms) == 1 else T.add(*terms)
        loss.backward()
        return loss.data, [p.grad for p in model.parameters()] + [xt.grad]

    try:
        c_loss, c_grads = run(R.encode_images, R.encode_texts)
    except ContractError:  # an encoding with a zero row: the node refuses it as the chain does
        with pytest.raises(ContractError, match="zero-norm"):
            run(DualEncoder.encode_images, DualEncoder.encode_texts)
        return
    f_loss, f_grads = run(DualEncoder.encode_images, DualEncoder.encode_texts)
    assert np.array_equal(f_loss, c_loss)
    for f, c in zip(f_grads, c_grads):
        assert (f is None) == (c is None)
        if f is not None:
            assert np.array_equal(f, c)


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
    fused_raw = R.fd_node(Tensor(t), Tensor(s), weights)[1]
    assert fused_raw == R.fd_loss(Tensor(t), Tensor(s), weights)[1]
    assert_same(
        lambda x, y: R.fd_node(x, y, weights),
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
    assert R.ird_node(Tensor(t), Tensor(s), Tensor(p), weights, alpha)[1] == R.ird_loss(
        Tensor(t), Tensor(s), Tensor(p), weights, chain_alpha
    )[1]
    assert_same(
        lambda x, y, z: R.ird_node(x, y, z, weights, alpha),
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
    assert R.i2t_node(Tensor(td), Tensor(sd), weights, beta)[1] == R.i2t_loss(Tensor(td), Tensor(sd), weights)[1]
    assert_same(
        lambda x, y: R.i2t_node(x, y, weights, beta),
        lambda x, y: R.i2t_loss(x, y, weights, chain_beta),
        [td, sd],
        [False, True],
        through_node,
    )


@SETTINGS
@given(st.data(), widths, st.booleans())
def test_pt_loss_matches_chain(data, k, through_node):
    teacher = SimpleNamespace(**{key: Tensor(data.draw(prob_matrices((k, k)))) for key in ("proto_text_dist", "text_proto_dist")})
    pt, tp = data.draw(prob_matrices((k, k))), data.draw(prob_matrices((k, k)))
    assert_same(
        lambda x, y: R.pt_node(teacher, x, y), lambda x, y: R.pt_loss(teacher, x, y), [pt, tp], [True, True], through_node
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
    store = PrototypeStore.init_from_model(c0, [rng.normal(size=(4, 12)) for _ in range(5)])
    x, labels = rng.normal(size=(32, 12)), rng.integers(0, 5, size=32)
    token_ids, ref = [1, 2, 3, 4, 5], params_flat(student) + 0.01

    def fused():
        """The trainer's path: the teachers' bundle over the batch, the student's features encoded first."""
        protos = store.matrix()
        teachers = R.weighted_bundle(c0, c_prev, x, token_ids, protos, hyper)
        feats = student.encode_images(x)
        return losses.total_loss(student, feats, labels, token_ids, protos, hyper, teachers, np.arange(32), R.per_lane(hyper.teacher_weight), ref)

    def chain():
        return R.total_loss(x, labels, token_ids, student, c0, c_prev, store.matrix(), hyper, ref)

    return SimpleNamespace(student=student, fused=fused, chain=chain)


# teacher weights by the variant that sets them, plus one fixed weight no variant sets
TEACHER_WEIGHTS = {"similarity": None, "only_prev": 0.0, "0.25": 0.25, "average": 0.5, "only_c0": 1.0}


@pytest.mark.parametrize("teacher_weight", TEACHER_WEIGHTS.values(), ids=TEACHER_WEIGHTS.keys())
@pytest.mark.parametrize("seed", [0, 1])
def test_total_loss_matches_chain(teacher_weight, seed):
    """Shared inputs (student feats, texts, prototypes) get their gradients in the chain's order."""
    results = []
    for build in ("fused", "chain"):
        it = _iteration(seed, HyperParams(teacher_weight=teacher_weight))
        loss, bd = getattr(it, build)()
        loss.backward()
        results.append((loss.data, bd.values(), bd.r0_mean, [p.grad for p in it.student.parameters()]))
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
    # 2 encoder towers, 2 supervised, 3 student distributions,
    # 3 csa (+ scale, add), 3 distillation (one node for both teachers, scale, add), 3 anchor
    assert len(GradTape.trace(loss).nodes) == 16
    chain_loss, _ = it.chain()
    assert len(GradTape.trace(chain_loss).nodes) == 149  # leaves stay off every tape, the chain's 9 too


def test_each_fused_op_is_one_node(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    pred = Tensor(prob_rows(rng, 4, 2), requires_grad=True)
    model = DualEncoder(0, vocab_size=4, d_in=3, d_tok=2, hidden=5, embed_dim=3)
    for out in (
        model.encode_images(a.data),
        model.encode_texts([1, 3]),
        T.cosine_sim(a, b),
        T.cosine_softmax(a, b, 2.0),
        T.soft_ce_mean(Tensor(prob_rows(rng, 4, 2)), pred),
        losses.csa_loss(Tensor(b.data), b, 2.0),
        R.fd_node(Tensor(a.data + 1.0), a)[0],
        R.ird_node(Tensor(a.data + 1.0), a, Tensor(b.data))[0],
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
    assert np.array_equal(unit.data, R.l2_normalize(const, axis=1).data)
    assert np.array_equal(unit.t, unit.data.T) and unit.t.flags.c_contiguous


# ---------------------------------------------------------------------------
# finite differences


def test_fused_op_grads(rng):
    x, picker = rng.normal(size=(4, 3)), rng.uniform(0.0, 1.0, size=(4, 6))
    table, w1, b1 = rng.normal(size=(6, 3)), rng.normal(size=(3, 5)), rng.normal(size=5)
    w2, b2, up = rng.normal(size=(5, 2)), rng.normal(size=2), rng.normal(size=(4, 2))
    check_grads(lambda p: R.tsum(R.mul(tower(*p), Tensor(up))), [x, w1, b1, w2, b2], rel=1e-6)
    check_grads(lambda p: R.tsum(R.mul(tower(Tensor(picker), *p[1:], table=p[0]), Tensor(up))), [table, w1, b1, w2, b2], rel=1e-6)

    a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
    up = rng.normal(size=(4, 3))
    check_grads(lambda p: R.tsum(R.mul(T.cosine_sim(p[0], p[1]), Tensor(up))), [a, b], rel=1e-6)
    check_grads(lambda p: R.tsum(R.mul(T.cosine_softmax(p[0], p[1], 0.5), Tensor(up))), [a, b], rel=1e-6)

    t, p = prob_rows(rng, 4, 3), prob_rows(rng, 4, 3)
    wts = Tensor(rng.uniform(0.1, 1.0, size=4))
    check_grads(lambda q: T.soft_ce_mean(Tensor(t), q[0], wts, 1.3), [p], rel=1e-6)
    check_grads(lambda q: R.i2t_node(Tensor(t), q[0], wts, 0.8)[0], [p], rel=1e-6)

    teacher, student, protos = rng.normal(size=(4, 5)), rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
    check_grads(lambda q: R.fd_node(Tensor(teacher), q[0], wts)[0], [student], rel=1e-6)
    check_grads(lambda q: R.ird_node(Tensor(teacher), q[0], Tensor(protos), wts, 0.7)[0], [student], rel=1e-6)
    check_grads(lambda q: losses.csa_loss(Tensor(protos), q[0], 2.0), [rng.normal(size=(3, 5))], rel=1e-6)


# ---------------------------------------------------------------------------
# the distillation block: one node over the teacher axis against the per-term chain

ALL_ON = dict(enable_fd=True, enable_ird=True, enable_idd=True)
MIXED = [None, 1.0, 0.0, 0.5]  # per-lane weights: similarity, only c0, only c_prev, a fixed split
DISTILL_CASES = {  # id: (lanes, teacher_weight, channels)
    "similarity-S1": (1, None, ALL_ON),
    "similarity-S3": (3, None, ALL_ON),
    "w0-S3": (3, 0.0, ALL_ON),
    "w0.5-S1": (1, 0.5, ALL_ON),
    "w1-S3": (3, 1.0, ALL_ON),
    "lanes": (4, MIXED, ALL_ON),
    "no_fd": (3, None, dict(ALL_ON, enable_fd=False)),
    "no_ird": (3, None, dict(ALL_ON, enable_ird=False)),
    "no_idd": (3, 0.5, dict(ALL_ON, enable_idd=False)),
    "lanes-no_idd": (4, MIXED, dict(ALL_ON, enable_idd=False)),
}


def _assert_same_distillation(fused, chain):
    """(loss, info, gradients) of the fused node and of the per-term chain, equal with np.array_equal."""
    (f_loss, f_info, f_grads), (c_loss, c_info, c_grads) = fused, chain
    assert np.array_equal(f_loss, c_loss)
    assert set(f_info) == set(c_info)
    for key in c_info:
        assert np.array_equal(f_info[key], c_info[key]), key
    assert len(f_grads) == len(c_grads)
    for f, c in zip(f_grads, c_grads):
        assert (f is None) == (c is None)
        if f is not None:
            assert np.array_equal(f, c)


def _fused(teachers, student, protos, alpha, beta, teacher_weight, **channels):
    """`losses.mdd_loss` called as the per-term chain is: the weight in a config's shape, here made per lane."""
    return losses.mdd_loss(teachers, student, protos, R.per_lane(teacher_weight), alpha, beta, **channels)


@pytest.mark.parametrize("case", DISTILL_CASES.values(), ids=DISTILL_CASES.keys())
def test_pair_bundle_distillation_matches_per_term_chain(case):
    """The trainer's path (one bundle of both teachers, a shared c0 filling every lane beside c_prev's stack, cut with
    one take per array) against a bundle per teacher and the per-term chain: value, six raw logs and r0, and every
    student parameter's gradient, bit for bit."""
    lanes, teacher_weight, channels = case
    rng = np.random.default_rng(7)
    dims = dict(vocab_size=8, d_in=12, d_tok=6, hidden=10, embed_dim=16)
    c0 = snapshot(DualEncoder(50, **dims))
    c_prev = snapshot(stack([DualEncoder(60 + s, **dims) for s in range(lanes)]))
    x, token_ids = rng.normal(size=(40, 12)), [1, 2, 3, 4, 5]
    protos = Tensor(np.stack([PrototypeStore.init_from_model(c0, [rng.normal(size=(4, 12)) for _ in range(5)]).matrix().data] * lanes))
    idx = rng.integers(0, 40, size=(lanes, 32))
    weighted = [t for t, w in zip((c0, c_prev), weighted_teachers(R.per_lane(teacher_weight))) if w]
    pair = losses.teacher_outputs(weighted, x, token_ids, protos, 2.0)
    per_teacher = [R.teacher_outputs(t, x, token_ids, protos, 2.0) for t in (c0, c_prev)]

    def run(distill, teachers):
        student = stack([DualEncoder(70 + s, **dims) for s in range(lanes)])
        out = losses.student_outputs(student, student.encode_images(x[idx]), token_ids, protos, 2.0)
        loss, info = distill(*teachers, out, protos, 0.7, 1.3, teacher_weight, **channels)
        T.sum_seeds(loss).backward()
        return loss.data, info, [p.grad for p in student.parameters()]

    cut = [t.rows(idx, protos, 2.0) for t in per_teacher]
    chain = run(R.mdd_loss_per_term, cut)
    _assert_same_distillation(run(_fused, [pair.rows(idx, protos, 2.0)]), chain)
    _assert_same_distillation(run(_fused, [R.pair(*cut, teacher_weight)]), chain)  # a bundle per teacher, stacked


@pytest.mark.parametrize("teacher_weight", [None, 0.5, MIXED[1:]], ids=["similarity", "average", "lanes"])
def test_distillation_of_a_shared_2d_bundle_beside_a_stack_matches_per_term_chain(teacher_weight, rng):
    """A c0 bundle every lane shares ([B, ...]) beside c_prev's [S, B, ...], against the chain given c0 per lane."""
    s, b, k, d = 3, 7, 3, 5

    def bundle(lead):
        return {
            "feats": rng.normal(size=lead + (b, d)),
            "img_text_dist": np.stack([prob_rows(rng, b, k) for _ in range(math.prod(lead))]).reshape(lead + (b, k)),
            "proto_text_dist": np.stack([prob_rows(rng, k, k) for _ in range(math.prod(lead))]).reshape(lead + (k, k)),
            "text_proto_dist": np.stack([prob_rows(rng, k, k) for _ in range(math.prod(lead))]).reshape(lead + (k, k)),
        }

    c0, prev = bundle(()), bundle((s,))
    student = {**bundle((s,)), "texts": rng.normal(size=(s, k, d))}
    protos = Tensor(rng.normal(size=(s, k, d)))

    def run(distill, c0_arrays):
        leaves = {key: Tensor(v.copy(), requires_grad=True) for key, v in student.items()}
        out = losses.StudentOutputs(**{key: T.scale(t, 1.0) for key, t in leaves.items()})  # op outputs, as in training
        teachers = [losses.TeacherOutputs(**{key: Tensor(v) for key, v in arrays.items()}) for arrays in (c0_arrays, prev)]
        loss, info = distill(*teachers, out, protos, 0.7, 1.3, teacher_weight)
        T.sum_seeds(loss).backward()
        return loss.data, info, [leaves[key].grad for key in sorted(leaves)]

    def fused(c0_out, prev_out, *args):
        return _fused(R.pair(c0_out, prev_out, teacher_weight), *args)

    tiled = {key: np.broadcast_to(v, (s,) + v.shape).copy() for key, v in c0.items()}
    _assert_same_distillation(run(fused, c0), run(R.mdd_loss_per_term, tiled))


def test_distillation_is_one_node_whose_parents_are_the_student_outputs():
    """Both teachers' terms are one tape node over (feats, image-text, prototype-text, text-prototype distributions)."""
    it = _iteration(0, HyperParams())
    loss, _ = it.fused()
    distill = [n for n in GradTape.trace(loss).nodes if len(n._parents) == 4]
    assert len(distill) == 1
    assert [p.shape for p in distill[0]._parents] == [(32, 16), (32, 5), (5, 5), (5, 5)]
