"""Training losses for prototype-guided dual-teacher continual learning.

The student is trained against two frozen references at once: the
initial model (which still knows everything it was pretrained on) and
the previous task's model (which knows the tasks learned so far). Three
distillation channels connect student to each teacher:

  * feature distance     - squared L2 between image embeddings,
  * relation distance    - Frobenius gap between image-prototype
                           similarity matrices,
  * distribution match   - soft cross-entropy on image-text, prototype-
                           text, and text-prototype distributions.

Per sample, the two teachers are mixed by weights derived from how
similar each teacher's image-text distribution is to the student's: the
teacher the student has drifted away from gets the larger pull. The
prototype/text channel is exempt from that mixing and carries a fixed
half weight per teacher.

A separate contrastive term aligns class prototypes with the student's
text embeddings, and plain cross-entropy on the current task provides
the supervised signal. Temperatures: distillation distributions use a
soft temperature (default 2); the supervised logits use a sharp one
(default 0.07).

Each term is one tape node: `csa_loss`, `fd_loss` and `ird_loss` here,
i2t and p&t through `tensor.soft_ce_mean`, the distributions through
`tensor.cosine_softmax`. A node runs the same numpy expressions, in the
same order, as the generic-op chain it replaced (kept in
tests/reference_ops.py), so losses, gradients and every artifact are
bit-identical to the chains'. `fd_loss`, `ird_loss` and `i2t_loss` also
return the unweighted value the breakdown logs, read off the same
forward arrays.

Prototypes and teacher outputs are constants here; gradients flow only
into the student. Both teachers stay frozen for a whole task, so the
trainer runs `teacher_outputs` once per teacher per task over the task's
whole training set (checked once, there) and takes each batch's rows from
that bundle with `TeacherOutputs.rows`; only the two K x K prototype-text
distributions depend on the moving prototypes and are rebuilt per batch.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeMismatchError
from .tensor import Tensor

WEIGHTING_MODES = ("similarity", "average", "only_c0", "only_prev")


# ---------------------------------------------------------------------------
# individual terms


def csa_loss(protos: Tensor, texts: Tensor, tau: float) -> Tensor:
    """Symmetric contrastive alignment between prototypes and text embeddings, as one node.

    Row k of each side is class k; the diagonal pairs are positives:
    0.5 * (mean CE(eye, softmax rows) + mean CE(eye, softmax columns)) of
    the cosines over tau. The prototypes are constants, so this term trains
    the text tower toward the prototype anchors.
    """
    if protos.ndim != 2 or texts.ndim != 2:
        raise ShapeMismatchError(f"csa_loss needs 2-D inputs, got {protos.shape} and {texts.shape}")
    if protos.shape[0] != texts.shape[0]:
        raise ShapeMismatchError(f"csa_loss: class counts differ, {protos.shape} vs {texts.shape}")
    k = protos.shape[0]
    if k == 0:
        raise ContractError("csa_loss: empty class set")
    up, ut, sims = T.cosine_forward(protos, texts)
    c = float(1.0 / tau)
    logits = sims * c
    eye = np.eye(k)
    proto_to_text = T.softmax_forward(logits, 1)
    by_column = T.softmax_forward(logits, 0)
    text_to_proto = by_column.T.copy()
    n = float(1.0 / k)
    data = (T.soft_ce_rows(eye, proto_to_text).sum() * n + T.soft_ce_rows(eye, text_to_proto).sum() * n) * 0.5

    def backward(g):
        g_sum = g * 0.5 * n
        g_logits = T.softmax_backward(T.soft_ce_backward(g_sum, eye, proto_to_text), proto_to_text, 1) + T.softmax_backward(
            T.soft_ce_backward(g_sum, eye, text_to_proto).T, by_column, 0
        )
        T.cosine_backward(g_logits * c, protos, texts, up, ut)

    return T.node(data, (protos, texts), backward)


def fd_loss(teacher_feats: Tensor, student_feats: Tensor, weights: Tensor | None = None) -> tuple[Tensor, float]:
    """Feature distance: (mean over rows of weights * ||t - s||^2 as one node, unweighted mean).

    The teacher side is a constant; the weights, one per row, too.
    """
    if teacher_feats.shape != student_feats.shape:
        raise ShapeMismatchError(f"fd_loss: {teacher_feats.shape} vs {student_feats.shape}")
    if teacher_feats.ndim != 2 or teacher_feats.shape[0] == 0:
        raise ContractError(f"fd_loss: need a non-empty [B, d] batch, got {teacher_feats.shape}")
    if teacher_feats.requires_grad:
        raise ContractError("fd_loss: teacher features must be detached")
    w = None if weights is None else weights.data
    diff = teacher_feats.data - student_feats.data
    rows = (diff * diff).sum(axis=1)
    c = float(1.0 / rows.size)
    data = (rows if w is None else rows * w).sum() * c

    def backward(g):
        half = T.row_terms_backward(g * c, diff.shape, w) * diff
        student_feats._accumulate(-(half + half))

    return T.node(data, (student_feats,), backward), float(rows.sum() * c)


def ird_loss(
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
    if protos.ndim != 2 or protos.shape[0] == 0:
        raise ContractError("ird_loss: empty prototype set")
    if teacher_feats.requires_grad:
        raise ContractError("ird_loss: teacher features must be detached")
    t_sims = T.cosine_sim(teacher_feats, protos).data
    us, up, s_sims = T.cosine_forward(student_feats, protos)
    diff = t_sims - s_sims
    r = None if weights is None else weights.data.reshape((weights.size, 1))
    gap = diff if r is None else r * diff
    total = (gap * gap).sum()
    norm = np.sqrt(total)
    b, k = gap.shape
    c = float(1.0 / np.sqrt(b * k))
    a = float(alpha)
    data = norm * c * a

    def backward(g):
        g_norm = g * a * c
        g_total = np.where(total > 0.0, g_norm * 0.5 / np.where(total > 0.0, norm, 1.0), 0.0)
        half = np.broadcast_to(g_total, gap.shape).copy() * gap
        g_diff = half + half
        if r is not None:
            g_diff = g_diff * r
        T.cosine_backward(-g_diff, student_feats, protos, us, up)

    return T.node(data, (student_feats,), backward), float(np.linalg.norm(diff) / np.sqrt(b * k))


def image_text_dist(feats: Tensor, texts: Tensor, tau: float) -> Tensor:
    """Rows of softmax(cosine(feats, texts) / tau): one distribution per row."""
    if texts.ndim != 2 or texts.shape[0] == 0:
        raise ContractError("image_text_dist: empty text set")
    return T.cosine_softmax(feats, texts, tau)


def i2t_loss(
    teacher_dist: Tensor,
    student_dist: Tensor,
    weights: Tensor | None = None,
    beta: float = 1.0,
) -> tuple[Tensor, float]:
    """Image-text distillation: (beta * mean of weights * soft CE from teacher to student rows, unweighted mean)."""
    if teacher_dist.shape != student_dist.shape:
        raise ShapeMismatchError(f"i2t_loss: {teacher_dist.shape} vs {student_dist.shape}")
    rows = T.soft_ce_rows(teacher_dist.data, student_dist.data)
    loss = T.soft_ce_mean(teacher_dist, student_dist, weights, scale=beta, rows=rows)
    return loss, float(rows.sum() * (1.0 / rows.size))


def pt_loss(teacher: "TeacherOutputs", student_pt: Tensor, student_tp: Tensor) -> Tensor:
    """Prototype-text and text-prototype distribution matching, summed."""
    a = T.soft_ce_mean(teacher.proto_text_dist, student_pt)
    b = T.soft_ce_mean(teacher.text_proto_dist, student_tp)
    return T.add(a, b)


def sample_weights(dist_c0: Tensor, dist_prev: Tensor, dist_student: Tensor) -> tuple[Tensor, Tensor]:
    """Per-sample teacher mixing weights, as constants.

    For each sample, each teacher is scored by the cosine similarity
    between its image-text distribution row and the student's; the
    weights are a softmax over the negated scores, so they sum to one
    and the less-similar teacher gets the larger weight.
    """
    if not dist_c0.shape == dist_prev.shape == dist_student.shape:
        raise ShapeMismatchError(
            f"sample_weights: mismatched shapes {dist_c0.shape}, {dist_prev.shape}, {dist_student.shape}"
        )

    def _row_cos(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        num = (a * b).sum(axis=1)
        den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        return num / den

    s0 = _row_cos(dist_c0.data, dist_student.data)
    s_prev = _row_cos(dist_prev.data, dist_student.data)
    e0 = np.exp(-s0)
    e_prev = np.exp(-s_prev)
    r0 = e0 / (e0 + e_prev)
    return Tensor(r0), Tensor(1.0 - r0)


def wc_loss(theta_t, theta_prev) -> Tensor:
    """Sum of squared parameter drift from a constant reference vector.

    `theta_t` is a 1-D tensor, or a list of parameter tensors read as one
    flat vector in order (the trainer passes the model's parameters, so
    the whole penalty is a single tape node over the leaves).
    """
    ref = theta_prev.data if isinstance(theta_prev, Tensor) else theta_prev
    parts = [theta_t] if isinstance(theta_t, Tensor) else list(theta_t)
    return T.sum_sq_diff(parts, ref)


# ---------------------------------------------------------------------------
# batch output bundles


def _check_rows_sum_to_one(dist: Tensor, what: str) -> None:
    sums = dist.data.sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise ContractError(f"{what}: rows must sum to 1")


@dataclass
class TeacherOutputs:
    """Everything a frozen teacher contributes for a set of images. All constant.

    Built and checked once per teacher per task over the task's training
    set; `rows` then cuts out each batch without re-running the checks.
    `texts` (the teacher's class-text embeddings) is what `rows` needs to
    rebuild the prototype-text distributions for moved prototypes.
    """

    feats: Tensor
    img_text_dist: Tensor
    proto_text_dist: Tensor
    text_proto_dist: Tensor
    texts: Tensor | None = None

    def __post_init__(self):
        for name in ("feats", "img_text_dist", "proto_text_dist", "text_proto_dist", "texts"):
            value = getattr(self, name)
            if value is not None and value.requires_grad:
                raise ContractError(f"TeacherOutputs.{name} must be detached")
        _check_rows_sum_to_one(self.img_text_dist, "TeacherOutputs.img_text_dist")
        _check_rows_sum_to_one(self.proto_text_dist, "TeacherOutputs.proto_text_dist")
        _check_rows_sum_to_one(self.text_proto_dist, "TeacherOutputs.text_proto_dist")

    def rows(self, idx, protos: Tensor, tau: float) -> "TeacherOutputs":
        """The bundle for image rows `idx`, against the current prototypes.

        Every op on the image rows is row-wise, so this equals
        `teacher_outputs` on those rows, bit for bit wherever BLAS computes
        each matmul row independently of the batch around it (checked in
        the tests). The result skips `__post_init__`: its rows come from
        this checked bundle, and the two new distributions are softmax rows
        of constants.
        """
        if self.texts is None:
            raise ContractError("TeacherOutputs.rows needs the teacher's texts")
        out = copy.copy(self)
        out.feats = Tensor(self.feats.data[idx])
        out.img_text_dist = Tensor(self.img_text_dist.data[idx])
        out.proto_text_dist = image_text_dist(protos, self.texts, tau)
        out.text_proto_dist = image_text_dist(self.texts, protos, tau)
        return out


@dataclass
class StudentOutputs:
    """The student's live (differentiable) outputs for one batch."""

    feats: Tensor
    texts: Tensor
    img_text_dist: Tensor
    proto_text_dist: Tensor
    text_proto_dist: Tensor


def teacher_outputs(model, x, token_ids, protos: Tensor, tau: float) -> TeacherOutputs:
    """Run a frozen model over images `x`; see StudentOutputs for the live twin."""
    feats = model.encode_images(x)
    texts = model.encode_texts(token_ids)
    return TeacherOutputs(
        feats=feats,
        img_text_dist=image_text_dist(feats, texts, tau),
        proto_text_dist=image_text_dist(protos, texts, tau),
        text_proto_dist=image_text_dist(texts, protos, tau),
        texts=texts,
    )


def student_outputs(model, feats: Tensor, token_ids, protos: Tensor, tau: float) -> StudentOutputs:
    """Student forward pass over the batch encoding `feats` (the caller encodes the images once)."""
    texts = model.encode_texts(token_ids)
    return StudentOutputs(
        feats=feats,
        texts=texts,
        img_text_dist=image_text_dist(feats, texts, tau),
        proto_text_dist=image_text_dist(protos, texts, tau),
        text_proto_dist=image_text_dist(texts, protos, tau),
    )


# ---------------------------------------------------------------------------
# assembled distillation and total loss


@dataclass
class LossBreakdown:
    """Scalar values of every term, for logging and divergence dumps.

    fd/ird/idd entries hold the raw (unweighted) term values; `mdd` is the
    assembled teacher-weighted sum actually used in the objective, and
    `total` is ce + lambda1 * csa + lambda2 * mdd (+ lambda_wc * wc when
    weight drift is penalized). Disabled terms stay 0.
    """

    ce: float = 0.0
    csa: float = 0.0
    fd0: float = 0.0
    fd_prev: float = 0.0
    ird0: float = 0.0
    ird_prev: float = 0.0
    idd0: float = 0.0
    idd_prev: float = 0.0
    mdd: float = 0.0
    wc: float = 0.0
    total: float = 0.0
    per_sample_r0: list = field(default_factory=list)

    FIELDS = ("ce", "csa", "fd0", "fd_prev", "ird0", "ird_prev", "idd0", "idd_prev", "mdd", "wc", "total")

    def values(self) -> list[float]:
        return [getattr(self, name) for name in self.FIELDS]


def mdd_loss(
    c0_out: TeacherOutputs,
    prev_out: TeacherOutputs,
    student: StudentOutputs,
    protos: Tensor,
    alpha: float = 1.0,
    beta: float = 1.0,
    weighting: str = "similarity",
    enable_fd: bool = True,
    enable_ird: bool = True,
    enable_idd: bool = True,
) -> tuple[Tensor | None, dict]:
    """Dual-teacher distillation: per-teacher weighted sum of the channels.

    Per teacher k with per-sample weights r_k:

        r_k * (FD + alpha * IRD + beta * i2t) + 0.5 * beta * (p&t)

    summed over both teachers. `weighting` picks how r is formed:
    per-sample similarity scores, a flat 0.5, or all mass on one teacher
    (in which case the other teacher's terms, p&t included, vanish).

    Returns (loss tensor or None if every channel is disabled, info dict
    with raw term values and the per-sample weights).
    """
    if weighting not in WEIGHTING_MODES:
        raise ConfigError(f"unknown weighting mode {weighting!r}; expected one of {WEIGHTING_MODES}")
    batch = student.feats.shape[0]
    if weighting == "similarity":
        r0, r_prev = sample_weights(c0_out.img_text_dist, prev_out.img_text_dist, student.img_text_dist)
    elif weighting == "average":
        r0 = Tensor(np.full(batch, 0.5))
        r_prev = Tensor(np.full(batch, 0.5))
    elif weighting == "only_c0":
        r0 = Tensor(np.ones(batch))
        r_prev = None
    else:  # only_prev
        r0 = None
        r_prev = Tensor(np.ones(batch))

    info = {
        "fd0": 0.0, "fd_prev": 0.0,
        "ird0": 0.0, "ird_prev": 0.0,
        "idd0": 0.0, "idd_prev": 0.0,
        "r0": r0.data.copy() if r0 is not None else np.zeros(batch),
    }
    terms: list[Tensor] = []
    for tag, teacher, r in (("0", c0_out, r0), ("_prev", prev_out, r_prev)):
        if r is None:
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


def cross_entropy(dist: Tensor, label_positions) -> Tensor:
    """Mean negative log-probability of the true columns of `dist`."""
    labels = np.asarray(label_positions, dtype=np.int64)
    b, k = dist.shape
    if labels.shape != (b,):
        raise ShapeMismatchError(f"cross_entropy: {b} rows but labels shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"cross_entropy: label positions must lie in [0, {k})")
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    return T.soft_ce_mean(Tensor(onehot), dist)


def total_loss(
    student_model,
    feats: Tensor,
    label_positions,
    token_ids,
    class_ids,
    store,
    hyper,
    teachers: tuple[TeacherOutputs, TeacherOutputs] | None,
    batch_rows,
    wc_reference=None,
) -> tuple[Tensor, LossBreakdown]:
    """Assemble the full objective for one batch.

    `feats` is the student's encoding of the batch images.
    `label_positions` index into `token_ids` (the current task's classes,
    in a fixed order) and `class_ids` gives the matching prototype keys.
    `teachers` holds the (c0, c_prev) `teacher_outputs` over the whole
    training set the batch was drawn from (None when every distillation
    channel is off), and `batch_rows` the batch's row indices into it.
    The drift anchor is added iff `wc_reference` is given. Teachers and
    prototypes are constants. With every component disabled this reduces
    to plain supervised fine-tuning.
    """
    protos = store.matrix(class_ids).detach()
    student = student_outputs(student_model, feats, token_ids, protos, hyper.tau)

    bd = LossBreakdown()
    supervised = cross_entropy(image_text_dist(student.feats, student.texts, hyper.tau_ce), label_positions)
    bd.ce = supervised.item()
    loss = supervised

    if hyper.enable_csa:
        csa = csa_loss(protos, student.texts, hyper.tau)
        bd.csa = csa.item()
        loss = T.add(loss, T.scale(csa, hyper.lambda1))

    if hyper.enable_fd or hyper.enable_ird or hyper.enable_idd:
        c0_out, prev_out = (t.rows(batch_rows, protos, hyper.tau) for t in teachers)
        mdd, info = mdd_loss(
            c0_out,
            prev_out,
            student,
            protos,
            alpha=hyper.alpha,
            beta=hyper.beta,
            weighting=hyper.weighting_mode,
            enable_fd=hyper.enable_fd,
            enable_ird=hyper.enable_ird,
            enable_idd=hyper.enable_idd,
        )
        if mdd is not None:
            bd.fd0 = info["fd0"]
            bd.fd_prev = info["fd_prev"]
            bd.ird0 = info["ird0"]
            bd.ird_prev = info["ird_prev"]
            bd.idd0 = info["idd0"]
            bd.idd_prev = info["idd_prev"]
            bd.per_sample_r0 = [float(v) for v in info["r0"]]
            bd.mdd = mdd.item()
            loss = T.add(loss, T.scale(mdd, hyper.lambda2))

    if wc_reference is not None:
        wc = wc_loss(student_model.parameters(), wc_reference)
        bd.wc = wc.item()
        loss = T.add(loss, T.scale(wc, hyper.lambda_wc))

    bd.total = loss.item()
    return loss, bd
