"""The generic-op chains that the fused nodes replaced, kept as test oracles.

Every chain here builds, from generic ops, exactly the chain the package
built before its fused node existed: the same ops on the same operands
in the same order. A fused node must match its chain bit for bit, in the
forward value and in every leaf gradient (tests/test_fused_ops.py). The
generic ops themselves live here too, since no production code calls
them any more: the elementwise arithmetic (mul, sub, log, sqrt,
maximum_scalar), linear algebra and shapes (matmul, transpose, reshape,
concat1d), tanh, the reductions (tsum, mean), softmax and l2_normalize,
and the composites built from them (soft_cross_entropy, frobenius_norm);
tests/test_tensor.py checks their gradients. They put themselves on the
tape and hand gradients on through mulki.tensor's `Tensor._accumulate`,
and reuse its normalization kernels, so a chain's bits are the ones the
package computed. So does `AdamW`, the per-parameter optimizer loop that
the flat step replaced (tests/test_optim.py holds the flat step to it).
"""

from __future__ import annotations

import numpy as np

import mulki.tensor as T
from mulki.encoder import TEMPLATE_TOKEN
from mulki.errors import ContractError
from mulki.losses import LossBreakdown, StudentOutputs, TeacherOutputs, sample_weights, wc_loss
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
        r0, r_prev = sample_weights(c0_out.img_text_dist, prev_out.img_text_dist, student.img_text_dist)
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
