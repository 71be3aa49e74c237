"""The generic-op chains that the fused nodes replaced, kept as test oracles.

Every chain here builds, from generic ops, exactly the chain the package
built before its fused node existed: the same ops on the same operands
in the same order. A fused node must match its chain bit for bit, in the
forward value and in every leaf gradient (tests/test_fused_ops.py). The
one distillation node, `mulki.losses.mdd_loss`, matches the per-term
composition it replaced, `mdd_loss_per_term`, whose nodes (`fd_node`,
`ird_node`, `i2t_node`, `pt_node`) live here as well and match their own
chains. The generic ops themselves live here too, since no
production code calls them any more: the elementwise arithmetic (mul,
sub, log, sqrt, maximum_scalar), linear algebra and shapes (matmul,
transpose, reshape, concat1d), tanh, the reductions (tsum, mean), softmax
and l2_normalize, and the composites built from them (soft_cross_entropy,
frobenius_norm);
tests/test_tensor.py checks their gradients. They put themselves on the
tape and hand gradients on through mulki.tensor's `Tensor._accumulate`,
and reuse its normalization kernels, so a chain's bits are the ones the
package computed. So does `AdamW`, the per-parameter optimizer loop that
the flat step replaced (tests/test_optim.py holds the flat step to it).
"""

from __future__ import annotations

import math

import numpy as np

import mulki.tensor as T
from mulki import losses
from mulki.encoder import TEMPLATE_TOKEN
from mulki.errors import ContractError
from mulki.losses import LossBreakdown, StudentOutputs, TeacherOutputs, sample_weights, wc_loss, weighted_teachers
from mulki.tensor import LOG_EPS, Tensor

# ---------------------------------------------------------------------------
# generic ops and composites only the chains use


def _node(data, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError as exc:
        raise ContractError(f"sub: {a.shape} vs {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(T._unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(T._unbroadcast(-g, b.shape))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ContractError(f"mul: {a.shape} vs {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(T._unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(T._unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ContractError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _node(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ContractError(f"transpose needs a 2-D tensor, got {a.shape}")
    data = a.data.T.copy()

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _node(data, (a,), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _node(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - data * data))

    return _node(data, (a,), backward)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    data = a.data.sum(axis=axis)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
        else:
            a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return _node(data, (a,), backward)


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    if a.size == 0:
        raise ContractError("mean of an empty tensor")
    n = a.size if axis is None else a.shape[axis]
    return T.scale(tsum(a, axis=axis), 1.0 / n)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Stable softmax along `axis`."""
    data = T.softmax_forward(a.data, axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(T.softmax_backward(g, data, axis))

    return _node(data, (a,), backward)


def l2_normalize(a: Tensor, axis: int) -> Tensor:
    """Scale slices along `axis` to unit Euclidean norm; zero slices error."""
    data, norms = T._normalized(a.data, axis)

    def backward(g):
        if a.requires_grad:
            a._accumulate(T._normalized_backward(g, data, norms, axis))

    return _node(data, (a,), backward)


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / a.data)

    return _node(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root with the zero subgradient at exactly zero."""
    data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            mask = a.data > 0.0
            safe = np.where(mask, data, 1.0)
            a._accumulate(np.where(mask, g * 0.5 / safe, 0.0))

    return _node(data, (a,), backward)


def maximum_scalar(a: Tensor, floor: float) -> Tensor:
    """Clamp from below by a constant; gradient passes only above the floor."""
    floor = float(floor)
    data = np.maximum(a.data, floor)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > floor))

    return _node(data, (a,), backward)


def concat1d(parts: list) -> Tensor:
    """Concatenate 1-D tensors; gradient is sliced back to each part."""
    if not parts:
        raise ContractError("concat1d needs at least one tensor")
    for p in parts:
        if p.ndim != 1:
            raise ContractError(f"concat1d needs 1-D parts, got {p.shape}")
    data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.size for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[lo:hi])

    return _node(data, tuple(parts), backward)


def soft_cross_entropy(target: Tensor, pred: Tensor) -> Tensor:
    """-sum(target * log(max(pred, LOG_EPS))) along the last axis; target is a constant."""
    if target.shape != pred.shape:
        raise ContractError(f"soft_cross_entropy: {target.shape} vs {pred.shape}")
    if pred.ndim not in (1, 2):
        raise ContractError(f"soft_cross_entropy needs 1-D or 2-D input, got {pred.shape}")
    weights = Tensor(-target.data)
    logp = log(maximum_scalar(pred, LOG_EPS))
    prod = mul(weights, logp)
    return tsum(prod) if pred.ndim == 1 else tsum(prod, axis=1)


def frobenius_norm(a: Tensor) -> Tensor:
    """sqrt of the sum of squared entries (zero subgradient at zero)."""
    return sqrt(tsum(mul(a, a)))


def params_flat_tensor(model) -> Tensor:
    """Differentiable flat view of the parameters: reshape each, then concat."""
    return concat1d([reshape(p, (-1,)) for p in model.parameters()])


# ---------------------------------------------------------------------------
# chains of the fused tensor ops


def cosine_sim(a: Tensor, b: Tensor) -> Tensor:
    """1-D: a scalar; 2-D [m, d] and [n, d]: the [m, n] matrix of row cosines."""
    if a.ndim == 1 and b.ndim == 1:
        return tsum(mul(l2_normalize(a, axis=0), l2_normalize(b, axis=0)))
    return matmul(l2_normalize(a, axis=1), transpose(l2_normalize(b, axis=1)))


def cosine_softmax(a: Tensor, b: Tensor, tau: float) -> Tensor:
    return softmax(T.scale(cosine_sim(a, b), 1.0 / tau), axis=1)


def soft_ce_mean(target: Tensor, pred: Tensor, weights: Tensor | None = None, scale: float | None = None) -> Tensor:
    """mean(soft_cross_entropy * weights), then a scale node when `scale` is given."""
    per_row = soft_cross_entropy(target, pred)
    if weights is not None:
        per_row = mul(per_row, weights)
    out = mean(per_row)
    return out if scale is None else T.scale(out, scale)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return T.add(matmul(x, w), b)


def encode_images(model, x) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    h = tanh(linear(x, model.img_w1, model.img_b1))
    return l2_normalize(linear(h, model.img_w2, model.img_b2), axis=1)


def encode_texts(model, token_ids) -> Tensor:
    picker = np.zeros((len(token_ids), model.vocab_size))
    for row, t in enumerate(token_ids):
        picker[row, int(t)] += 0.5
        picker[row, TEMPLATE_TOKEN] += 0.5
    emb = matmul(Tensor(picker), model.token_table)
    h = tanh(linear(emb, model.txt_w1, model.txt_b1))
    return l2_normalize(linear(h, model.txt_w2, model.txt_b2), axis=1)


# ---------------------------------------------------------------------------
# chains of the loss terms


def cross_entropy(dist: Tensor, label_positions) -> Tensor:
    labels = np.asarray(label_positions, dtype=np.int64)
    b, k = dist.shape
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    return soft_ce_mean(Tensor(onehot), dist)


def csa_loss(protos: Tensor, texts: Tensor, tau: float) -> Tensor:
    logits = T.scale(cosine_sim(protos, texts), 1.0 / tau)
    eye = Tensor(np.eye(protos.shape[0]))
    proto_to_text = mean(soft_cross_entropy(eye, softmax(logits, axis=1)))
    text_to_proto = mean(soft_cross_entropy(eye, transpose(softmax(logits, axis=0))))
    return T.scale(T.add(proto_to_text, text_to_proto), 0.5)


def fd_loss(teacher_feats: Tensor, student_feats: Tensor, weights: Tensor | None = None) -> tuple[Tensor, float]:
    """(mean of weights * per-row squared distance, unweighted mean as logged)."""
    diff = sub(teacher_feats, student_feats)
    per_sample = tsum(mul(diff, diff), axis=1)
    raw = mean(per_sample).item()
    return mean(per_sample if weights is None else mul(per_sample, weights)), raw


def relation_gap(t_sims: Tensor, s_sims: Tensor, row_weights: Tensor | None) -> Tensor:
    diff = sub(t_sims, s_sims)
    if row_weights is not None:
        diff = mul(reshape(row_weights, (row_weights.size, 1)), diff)
    b, k = diff.shape
    return T.scale(frobenius_norm(diff), 1.0 / np.sqrt(b * k))


def ird_loss(
    teacher_feats: Tensor, student_feats: Tensor, protos: Tensor, weights: Tensor | None = None, alpha: float | None = None
) -> tuple[Tensor, float]:
    """(alpha * relation gap, unweighted gap as logged); no alpha scale node when alpha is None."""
    t_sims = cosine_sim(teacher_feats, protos)
    s_sims = cosine_sim(student_feats, protos)
    gap = relation_gap(t_sims, s_sims, weights)
    b, k = t_sims.shape
    raw = float(np.linalg.norm(t_sims.data - s_sims.data) / np.sqrt(b * k))
    return (gap if alpha is None else T.scale(gap, alpha)), raw


def i2t_loss(
    teacher_dist: Tensor, student_dist: Tensor, weights: Tensor | None = None, beta: float | None = None
) -> tuple[Tensor, float]:
    """(beta * weighted mean cross-entropy, unweighted mean as logged)."""
    per_i2t = soft_cross_entropy(teacher_dist, student_dist)
    raw = float(per_i2t.data.sum() * (1.0 / per_i2t.size))
    if weights is not None:
        per_i2t = mul(per_i2t, weights)
    out = mean(per_i2t)
    return (out if beta is None else T.scale(out, beta)), raw


def pt_loss(teacher, student_pt: Tensor, student_tp: Tensor) -> Tensor:
    a = mean(soft_cross_entropy(teacher.proto_text_dist, student_pt))
    b = mean(soft_cross_entropy(teacher.text_proto_dist, student_tp))
    return T.add(a, b)


def mdd_loss(c0_out, prev_out, student, protos, alpha=1.0, beta=1.0, teacher_weight=None,
             enable_fd=True, enable_ird=True, enable_idd=True):
    batch = student.feats.shape[0]
    if teacher_weight is None:
        r0 = _similarity(c0_out, prev_out, student)
        r0, r_prev = Tensor(r0), Tensor(1.0 - r0)
    else:
        r0, r_prev = Tensor(np.full(batch, float(teacher_weight))), Tensor(np.full(batch, 1.0 - teacher_weight))
    info = {
        "fd0": 0.0, "fd_prev": 0.0, "ird0": 0.0, "ird_prev": 0.0, "idd0": 0.0, "idd_prev": 0.0,
        "r0": r0.data.copy(),
    }
    skipped = {0: "0", 1: "_prev"}.get(teacher_weight)  # the tag of a teacher at weight 0
    terms = []
    for tag, teacher, r in (("0", c0_out, r0), ("_prev", prev_out, r_prev)):
        if tag == skipped:
            continue
        if enable_fd:
            fd, info["fd" + tag] = fd_loss(teacher.feats, student.feats, r)
            terms.append(fd)
        if enable_ird:
            ird, info["ird" + tag] = ird_loss(teacher.feats, student.feats, protos, r, alpha)
            terms.append(ird)
        if enable_idd:
            i2t, i2t_raw = i2t_loss(teacher.img_text_dist, student.img_text_dist, r, beta)
            pt = pt_loss(teacher, student.proto_text_dist, student.text_proto_dist)
            terms.append(i2t)
            terms.append(T.scale(pt, 0.5 * beta))
            info["idd" + tag] = i2t_raw + pt.item()
    if not terms:
        return None, info
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return total, info


def _outputs(feats, texts, protos, tau) -> dict:
    return dict(
        feats=feats,
        img_text_dist=cosine_softmax(feats, texts, tau),
        proto_text_dist=cosine_softmax(protos, texts, tau),
        text_proto_dist=cosine_softmax(texts, protos, tau),
    )


def total_loss(x, label_positions, token_ids, student_model, c0, c_prev, protos, hyper, wc_reference=None):
    """The whole objective for one batch, teachers encoding the batch themselves."""
    texts = encode_texts(student_model, token_ids)
    student = StudentOutputs(texts=texts, **_outputs(encode_images(student_model, x), texts, protos, hyper.tau))
    bd = LossBreakdown()
    loss = cross_entropy(cosine_softmax(student.feats, student.texts, hyper.tau_ce), label_positions)
    bd.ce = loss.item()
    if hyper.enable_csa:
        csa = csa_loss(protos, student.texts, hyper.tau)
        bd.csa = csa.item()
        loss = T.add(loss, T.scale(csa, hyper.lambda1))
    if hyper.enable_fd or hyper.enable_ird or hyper.enable_idd:
        teachers = []
        for teacher in (c0, c_prev):
            t_texts = encode_texts(teacher, token_ids)
            teachers.append(TeacherOutputs(texts=t_texts, **_outputs(encode_images(teacher, x), t_texts, protos, hyper.tau)))
        mdd, info = mdd_loss(
            *teachers, student, protos, alpha=hyper.alpha, beta=hyper.beta, teacher_weight=hyper.teacher_weight,
            enable_fd=hyper.enable_fd, enable_ird=hyper.enable_ird, enable_idd=hyper.enable_idd,
        )
        if mdd is not None:
            for name in ("fd0", "fd_prev", "ird0", "ird_prev", "idd0", "idd_prev"):
                setattr(bd, name, info[name])
            bd.r0_mean = float(np.mean(info["r0"]))
            bd.mdd = mdd.item()
            loss = T.add(loss, T.scale(mdd, hyper.lambda2))
    if hyper.enable_wc and wc_reference is not None:
        wc = wc_loss(student_model.parameters(), wc_reference)
        bd.wc = wc.item()
        loss = T.add(loss, T.scale(wc, hyper.lambda_wc))
    bd.total = loss.item()
    return loss, bd


# ---------------------------------------------------------------------------
# the per-term nodes `mulki.losses.mdd_loss` fused, and their composition


def fd_node(teacher_feats: Tensor, student_feats: Tensor, weights: Tensor | None = None) -> tuple[Tensor, float]:
    """Feature distance: (mean over rows of weights * ||t - s||^2 as one node, unweighted mean).

    The teacher side is a constant; the weights, one per row, too.
    """
    if teacher_feats.shape != student_feats.shape:
        raise ContractError(f"fd_node: {teacher_feats.shape} vs {student_feats.shape}")
    if teacher_feats.ndim < 2 or teacher_feats.shape[-2] == 0:
        raise ContractError(f"fd_node: need a non-empty [B, d] batch, got {teacher_feats.shape}")
    if teacher_feats.requires_grad:
        raise ContractError("fd_node: teacher features must be detached")
    w = None if weights is None else weights.data
    diff = teacher_feats.data - student_feats.data
    rows = np.add.reduce(diff * diff, axis=-1)
    c = float(1.0 / rows.shape[-1])
    data = np.add.reduce(rows if w is None else rows * w, axis=-1) * c

    def backward(g):
        half = T.row_terms_backward(g * c, w) * diff
        student_feats._accumulate(-(half + half))

    return T.node(data, (student_feats,), backward), np.add.reduce(rows, axis=-1) * c


def ird_node(
    teacher_feats: Tensor,
    student_feats: Tensor,
    protos: Tensor,
    weights: Tensor | None = None,
    alpha: float = 1.0,
) -> tuple[Tensor, float]:
    """Relation distance: (alpha * weighted gap as one node, unweighted gap).

    The gap is the Frobenius norm of the difference between teacher and
    student image-prototype cosine matrices, over sqrt(B * K) so the value
    is comparable across batch and class-set sizes. Optional per-sample
    weights scale the difference rows first. At a zero gap the gradient is
    zero. Teacher features and prototypes are constants.
    """
    if protos.ndim < 2 or protos.shape[-2] == 0:
        raise ContractError("ird_node: empty prototype set")
    if teacher_feats.requires_grad:
        raise ContractError("ird_node: teacher features must be detached")
    t_sims = T.cosine_sim(teacher_feats, protos).data
    us, up, s_sims = T.cosine_forward(student_feats, protos)
    diff = t_sims - s_sims
    r = None if weights is None else weights.data[..., None]
    gap = diff if r is None else r * diff
    b, k = gap.shape[-2:]
    total = np.add.reduce((gap * gap).reshape(gap.shape[:-2] + (b * k,)), axis=-1)  # each seed's .sum()
    norm = np.sqrt(total)
    c = float(1.0 / np.sqrt(b * k))
    a = float(alpha)
    data = norm * c * a

    def backward(g):
        g_norm = g * a * c
        g_total = np.where(total > 0.0, g_norm * 0.5 / np.where(total > 0.0, norm, 1.0), 0.0)
        half = g_total[..., None, None] * gap
        g_diff = half + half
        if r is not None:
            g_diff = g_diff * r
        T.cosine_backward(-g_diff, student_feats, protos, us, up)

    gaps = [math.sqrt(flat.dot(flat)) / math.sqrt(b * k) for flat in diff.reshape(-1, b * k)]
    return T.node(data, (student_feats,), backward), np.array(gaps).reshape(diff.shape[:-2])


def i2t_node(
    teacher_dist: Tensor,
    student_dist: Tensor,
    weights: Tensor | None = None,
    beta: float = 1.0,
) -> tuple[Tensor, float]:
    """Image-text distillation: (beta * mean of weights * soft CE from teacher to student rows, unweighted mean)."""
    if teacher_dist.shape != student_dist.shape:
        raise ContractError(f"i2t_node: {teacher_dist.shape} vs {student_dist.shape}")
    rows = T.soft_ce_rows(teacher_dist.data, student_dist.data)
    loss = T.soft_ce_mean(teacher_dist, student_dist, weights, scale=beta, rows=rows)
    return loss, np.add.reduce(rows, axis=-1) * (1.0 / rows.shape[-1])


def pt_node(teacher, student_pt: Tensor, student_tp: Tensor) -> Tensor:
    """Prototype-text and text-prototype distribution matching, summed: two soft CE nodes and an add."""
    a = T.soft_ce_mean(teacher.proto_text_dist, student_pt)
    b = T.soft_ce_mean(teacher.text_proto_dist, student_tp)
    return T.add(a, b)


def mdd_loss_per_term(c0_out, prev_out, student, protos, alpha=1.0, beta=1.0, teacher_weight=None,
                      enable_fd=True, enable_ird=True, enable_idd=True):
    """The per-term node composition the fused `mulki.losses.mdd_loss` replaced, one teacher at a time.

    Each teacher's fd, ird, i2t and p&t terms are their own nodes (`fd_node`, ...), joined by an add chain:
    fd0 + ird0 + i2t0 + 0.5 * beta * p&t0 + fd_prev + ... The weight comes in a config's shape: similarity (None),
    a fixed w, or a per-lane list with the 0/1 p&t mask (`per_lane` gives the fused node's array for each).
    Each teacher's bundle comes on its own (None for a teacher without weight); `pair` stacks them for the fused node.
    """
    rows = student.feats.shape[:-1]
    unweighted = (None, None)
    if isinstance(teacher_weight, list):
        sampled = _similarity(c0_out, prev_out, student) if None in teacher_weight else None
        r0 = np.stack([sampled[s] if w is None else np.full(rows[-1], float(w)) for s, w in enumerate(teacher_weight)])
        r0, r_prev = Tensor(r0), Tensor(1.0 - r0)
        unweighted = tuple(np.array([w == zero for w in teacher_weight]) for zero in (0, 1))
    elif teacher_weight is None:
        r0 = _similarity(c0_out, prev_out, student)
        r0, r_prev = Tensor(r0), Tensor(1.0 - r0)
    else:
        r0, r_prev = Tensor(np.full(rows, float(teacher_weight))), Tensor(np.full(rows, 1.0 - teacher_weight))

    info = dict.fromkeys(("fd0", "fd_prev", "ird0", "ird_prev", "idd0", "idd_prev"), np.zeros(r0.shape[:-1]))
    info["r0"] = r0.data.copy()
    terms = []
    for tag, teacher, r, weighted, off in zip(("0", "_prev"), (c0_out, prev_out), (r0, r_prev), weighted_teachers(per_lane(teacher_weight)), unweighted):
        if not weighted:
            continue
        if enable_fd:
            fd, info["fd" + tag] = fd_node(teacher.feats, student.feats, r)
            terms.append(fd)
        if enable_ird:
            ird, info["ird" + tag] = ird_node(teacher.feats, student.feats, protos, r, alpha)
            terms.append(ird)
        if enable_idd:
            i2t, i2t_raw = i2t_node(teacher.img_text_dist, student.img_text_dist, r, beta)
            pt = pt_node(teacher, student.proto_text_dist, student.text_proto_dist)
            terms.append(i2t)
            terms.append(T.scale(pt, 0.5 * beta if off is None else 0.5 * beta * (1.0 - off)))
            info["idd" + tag] = i2t_raw + pt.data
        if off is not None:
            info.update({name + tag: np.where(off, 0.0, info[name + tag]) for name in ("fd", "ird", "idd")})
    if not terms:
        return None, info
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return total, info


def pair(c0_out, prev_out, teacher_weight=None) -> TeacherOutputs:
    """The weighted one(s) of two cut bundles (either None for a teacher without weight) on a leading teacher axis,
    c0 first, as `mulki.losses.mdd_loss` takes them; a bundle shared by every lane is broadcast over the lanes."""
    bundles = [b for b, w in zip((c0_out, prev_out), weighted_teachers(per_lane(teacher_weight))) if w]
    names = ("feats", "img_text_dist", "proto_text_dist", "text_proto_dist", "texts")
    parts = [[getattr(b, name) for b in bundles] for name in names]
    return TeacherOutputs(*(None if None in p else Tensor(np.stack(np.broadcast_arrays(*(t.data for t in p)))) for p in parts))


def weighted_bundle(c0, c_prev, x, token_ids, protos, hyper) -> TeacherOutputs:
    """The teachers' bundle over images `x` for an unstacked student, of the teachers `hyper.teacher_weight` weights.

    `losses.teacher_outputs` gives its bundle a lane axis for a stacked student; this one has none: each weighted
    teacher's own bundle, their rows laid end to end, one block per teacher, and the rest on the teacher axis.
    """
    pt_protos = protos if hyper.enable_idd else None
    weighted = [t for t, w in zip((c0, c_prev), weighted_teachers(per_lane(hyper.teacher_weight))) if w]
    own = [teacher_outputs(t, x, token_ids, pt_protos, hyper.tau) for t in weighted]
    rows = [Tensor(np.concatenate([getattr(b, name).data for b in own])) for name in ("feats", "img_text_dist")]
    names = ("proto_text_dist", "text_proto_dist", "texts")
    rest = [None if getattr(own[0], name) is None else Tensor(np.stack([getattr(b, name).data for b in own])) for name in names]
    return TeacherOutputs(*rows, *rest, np.arange(len(own)) * len(x))


def teacher_outputs(model, x, token_ids, protos, tau) -> TeacherOutputs:
    """One frozen model's bundle, as the per-term nodes take it: `losses.teacher_outputs([model], ...)` without its
    teacher axis of one, and, for an unstacked model, without the lane axis of one it fills for a stack."""
    whole = losses.teacher_outputs([model], x, token_ids, protos, tau)
    at = (0,) if model.parameters().flat.ndim > 1 else (0, 0)
    names = ("proto_text_dist", "text_proto_dist", "texts")
    rest = [None if getattr(whole, name) is None else Tensor(getattr(whole, name).data[at]) for name in names]
    return TeacherOutputs(whole.feats, whole.img_text_dist, *rest, whole.blocks[at])


def per_lane(teacher_weight) -> np.ndarray:
    """A config's `teacher_weight` (None, a number, or a list of one per lane) as the per-lane weights `mulki.losses`
    takes: a float array, NaN for similarity weighting (None), 0-d for one value."""
    return np.array(teacher_weight, dtype=np.float64)


def _similarity(c0_out, prev_out, student) -> np.ndarray:
    """`sample_weights` over two teachers' own bundles: r0, a constant."""
    return sample_weights(np.array((c0_out.img_text_dist.data, prev_out.img_text_dist.data)), student.img_text_dist.data)


# ---------------------------------------------------------------------------
# the per-parameter optimizer loop


class AdamW:
    """AdamW one parameter at a time, each with its own moments and step count."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr, self.beta1, self.beta2 = float(lr), float(betas[0]), float(betas[1])
        self.eps, self.weight_decay = float(eps), float(weight_decay)
        self._state: dict[int, dict] = {}

    def reset_moments(self) -> None:
        self._state.clear()

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            state = self._state.get(id(p))
            if state is None:
                state = {"t": 0, "m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
                self._state[id(p)] = state
            state["t"] += 1
            t = state["t"]
            if self.weight_decay != 0.0:
                p.data *= 1.0 - self.lr * self.weight_decay
            state["m"] = self.beta1 * state["m"] + (1.0 - self.beta1) * g
            state["v"] = self.beta2 * state["v"] + (1.0 - self.beta2) * (g * g)
            m_hat = state["m"] / (1.0 - self.beta1**t)
            v_hat = state["v"] / (1.0 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
