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

One number, `teacher_weight`, mixes the two teachers. None (the
default) weights each sample by how similar each teacher's image-text
distribution is to the student's: the teacher the student has drifted
away from gets the larger pull. A number w in [0, 1] is a fixed weight w
on the initial model and 1 - w on the previous one; a teacher whose
weight is exactly 0 is skipped, its prototype/text term with it
(`weighted_teachers` decides this for the trainer and the loss alike).
The prototype/text channel carries a fixed half weight per weighted
teacher. A stack may give each lane its own weight (a list, `mdd_loss`),
each lane getting the bits of its own run. A contrastive term aligns
class prototypes with the student's texts, and cross-entropy on the
current task is the supervised signal; distillation distributions use a
soft temperature (default 2), the supervised logits a sharp one (default
0.07).

Each term is one tape node (`csa_loss`, `fd_loss`, `ird_loss`; i2t and
p&t through `tensor.soft_ce_mean`, the distributions through
`tensor.cosine_softmax`) that runs the numpy expressions of the generic-op
chain it replaced (tests/reference_ops.py), so losses, gradients and
artifacts are the chains' bits. `fd_loss`, `ird_loss` and `i2t_loss`
also return the unweighted value the breakdown logs. A stack's [S, ...]
operands give one value per seed, each that seed's bits alone.

Prototypes and teacher outputs are constants; gradients flow only into
the student. Both teachers stay frozen for a task, so the trainer runs
`teacher_outputs` once per weighted teacher per task over the task's
training set (checked there) and cuts and normalizes each batch's rows
with `TeacherOutputs.rows`; only the two K x K prototype-text
distributions follow the moving prototypes and are rebuilt per batch.

`total_loss` takes the prototypes as one constant matrix, `protos` (row
k for the task's k-th class), and builds only what an enabled term
reads. Always the student's texts and the supervised distribution at
tau_ce; the prototypes for csa and relation distance; the student's
image-text distribution at tau for distribution matching or similarity
weighting; the student's and teachers' prototype-text and text-prototype
distributions for distribution matching only. A teacher whose weight is
exactly 0 has no bundle.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import snapshot
from .errors import ContractError
from .tensor import Tensor


# ---------------------------------------------------------------------------
# individual terms


def csa_loss(protos: Tensor, texts: Tensor, tau: float) -> Tensor:
    """Symmetric contrastive alignment between prototypes and text embeddings, as one node.

    Row k of each side is class k; the diagonal pairs are positives:
    0.5 * (mean CE(eye, softmax rows) + mean CE(eye, softmax columns)) of
    the cosines over tau. The prototypes are constants, so this term trains
    the text tower toward the prototype anchors.
    """
    if protos.ndim < 2 or texts.ndim < 2:
        raise ContractError(f"csa_loss needs 2-D inputs, got {protos.shape} and {texts.shape}")
    if protos.shape[-2] != texts.shape[-2]:
        raise ContractError(f"csa_loss: class counts differ, {protos.shape} vs {texts.shape}")
    k = protos.shape[-2]
    if k == 0:
        raise ContractError("csa_loss: empty class set")
    up, ut, sims = T.cosine_forward(protos, texts)
    c = float(1.0 / tau)
    logits = sims * c
    eye = np.eye(k)
    proto_to_text = T.softmax_forward(logits, -1)
    by_column = T.softmax_forward(logits, -2)
    text_to_proto = by_column.swapaxes(-1, -2).copy()
    n = float(1.0 / k)
    by_rows = np.add.reduce(T.soft_ce_rows(eye, proto_to_text), axis=-1) * n
    data = (by_rows + np.add.reduce(T.soft_ce_rows(eye, text_to_proto), axis=-1) * n) * 0.5

    def backward(g):
        g_sum = g * 0.5 * n
        g_logits = T.softmax_backward(T.soft_ce_backward(g_sum, eye, proto_to_text), proto_to_text, -1) + T.softmax_backward(
            T.soft_ce_backward(g_sum, eye, text_to_proto).swapaxes(-1, -2), by_column, -2
        )
        T.cosine_backward(g_logits * c, protos, texts, up, ut)

    return T.node(data, (protos, texts), backward)


def fd_loss(teacher_feats: Tensor, student_feats: Tensor, weights: Tensor | None = None) -> tuple[Tensor, float]:
    """Feature distance: (mean over rows of weights * ||t - s||^2 as one node, unweighted mean).

    The teacher side is a constant; the weights, one per row, too.
    """
    if teacher_feats.shape != student_feats.shape:
        raise ContractError(f"fd_loss: {teacher_feats.shape} vs {student_feats.shape}")
    if teacher_feats.ndim < 2 or teacher_feats.shape[-2] == 0:
        raise ContractError(f"fd_loss: need a non-empty [B, d] batch, got {teacher_feats.shape}")
    if teacher_feats.requires_grad:
        raise ContractError("fd_loss: teacher features must be detached")
    w = None if weights is None else weights.data
    diff = teacher_feats.data - student_feats.data
    rows = np.add.reduce(diff * diff, axis=-1)
    c = float(1.0 / rows.shape[-1])
    data = np.add.reduce(rows if w is None else rows * w, axis=-1) * c

    def backward(g):
        half = T.row_terms_backward(g * c, w) * diff
        student_feats._accumulate(-(half + half))

    return T.node(data, (student_feats,), backward), np.add.reduce(rows, axis=-1) * c


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
    if protos.ndim < 2 or protos.shape[-2] == 0:
        raise ContractError("ird_loss: empty prototype set")
    if teacher_feats.requires_grad:
        raise ContractError("ird_loss: teacher features must be detached")
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


def image_text_dist(feats: Tensor, texts: Tensor, tau: float) -> Tensor:
    """Rows of softmax(cosine(feats, texts) / tau): one distribution per row."""
    if texts.ndim < 2 or texts.shape[-2] == 0:
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
        raise ContractError(f"i2t_loss: {teacher_dist.shape} vs {student_dist.shape}")
    rows = T.soft_ce_rows(teacher_dist.data, student_dist.data)
    loss = T.soft_ce_mean(teacher_dist, student_dist, weights, scale=beta, rows=rows)
    return loss, np.add.reduce(rows, axis=-1) * (1.0 / rows.shape[-1])


def pt_loss(teacher: "TeacherOutputs", student_pt: Tensor, student_tp: Tensor) -> Tensor:
    """Prototype-text and text-prototype distribution matching, summed."""
    a = T.soft_ce_mean(teacher.proto_text_dist, student_pt)
    b = T.soft_ce_mean(teacher.text_proto_dist, student_tp)
    return T.add(a, b)


def weighted_teachers(teacher_weight) -> tuple[bool, bool]:
    """Whether (c0, c_prev) carry any weight, in some lane of per-lane weights: a weight of exactly 0 zeroes c0, of 1 c_prev."""
    lanes = teacher_weight if isinstance(teacher_weight, list) else [teacher_weight]
    return any(w != 0 for w in lanes), any(w != 1 for w in lanes)


def sample_weights(dist_c0: Tensor, dist_prev: Tensor, dist_student: Tensor) -> tuple[Tensor, Tensor]:
    """Per-sample teacher mixing weights, as constants.

    For each sample, each teacher is scored by the cosine similarity
    between its image-text distribution row and the student's; the
    weights are a softmax over the negated scores, so they sum to one
    and the less-similar teacher gets the larger weight.
    """
    if not dist_c0.shape == dist_prev.shape == dist_student.shape:
        raise ContractError(
            f"sample_weights: mismatched shapes {dist_c0.shape}, {dist_prev.shape}, {dist_student.shape}"
        )

    def _row_cos(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        num = np.add.reduce(a * b, axis=-1)
        # np.linalg.norm(., axis=-1) by its own formula, without the Python wrapper
        den = np.sqrt(np.add.reduce(a * a, axis=-1)) * np.sqrt(np.add.reduce(b * b, axis=-1))
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
    the whole penalty is a single tape node over the leaves that reads
    their flat buffer).
    """
    ref = theta_prev.data if isinstance(theta_prev, Tensor) else theta_prev
    return T.sum_sq_diff([theta_t] if isinstance(theta_t, Tensor) else theta_t, ref)


# ---------------------------------------------------------------------------
# batch output bundles


@dataclass
class TeacherOutputs:
    """Everything a frozen teacher contributes for a set of images. All constant.

    Built and checked once per teacher per task over the task's training
    set; `rows` then cuts out each batch without re-running the checks.
    `texts` (the teacher's class-text embeddings) is what `rows` needs to
    rebuild the prototype-text distributions for moved prototypes. The
    two prototype-text distributions are None when built without
    prototypes (no enabled term reads them).
    """

    feats: Tensor
    img_text_dist: Tensor
    proto_text_dist: Tensor | None = None
    text_proto_dist: Tensor | None = None
    texts: Tensor | None = None

    def __post_init__(self):
        for name in ("feats", "img_text_dist", "proto_text_dist", "text_proto_dist", "texts"):
            value = getattr(self, name)
            if value is not None and value.requires_grad:
                raise ContractError(f"TeacherOutputs.{name} must be detached")
        for name in ("img_text_dist", "proto_text_dist", "text_proto_dist"):
            dist = getattr(self, name)
            if dist is not None and not np.allclose(np.add.reduce(dist.data, axis=-1), 1.0, atol=1e-9):
                raise ContractError(f"TeacherOutputs.{name}: rows must sum to 1")

    def rows(self, idx, protos: Tensor | None, tau: float) -> "TeacherOutputs":
        """The bundle for image rows `idx`, against the current prototypes.

        Every op on the image rows is row-wise, so this equals
        `teacher_outputs` on those rows, bit for bit wherever BLAS computes
        each matmul row independently of the batch around it (checked in
        the tests). The feature rows carry their unit rows, normalized
        here for the batch alone (each row on its own). The result skips
        `__post_init__`: its rows come from this checked bundle, and the
        two new distributions (None when `protos` is) are softmax rows of
        constants.
        """
        if self.texts is None:
            raise ContractError("TeacherOutputs.rows needs the teacher's texts")
        out, at = copy.copy(self), T.row_index(self.feats.data, idx)
        out.feats = Tensor(T.gather(self.feats.data, at))
        T.unit_rows(out.feats)
        out.img_text_dist = Tensor(T.gather(self.img_text_dist.data, at))
        out.proto_text_dist, out.text_proto_dist = _proto_text_dists(protos, self.texts, tau)
        return out


@dataclass
class StudentOutputs:
    """The student's live (differentiable) outputs for one batch; a distribution no enabled term reads is None."""

    feats: Tensor
    texts: Tensor
    img_text_dist: Tensor | None = None
    proto_text_dist: Tensor | None = None
    text_proto_dist: Tensor | None = None


def _proto_text_dists(protos: Tensor | None, texts: Tensor, tau: float) -> tuple:
    """(prototype-text, text-prototype) distributions, or (None, None) without prototypes."""
    if protos is None:
        return None, None
    return image_text_dist(protos, texts, tau), image_text_dist(texts, protos, tau)


def teacher_outputs(model, x, token_ids, protos: Tensor | None, tau: float) -> TeacherOutputs:
    """Run a frozen model over images `x`; see StudentOutputs for the live twin.

    A frozen stack runs one lane at a time (a view, `snapshot(model, s)`) into the bundle's [S, ...]
    arrays, the bits of a stacked call. `protos` None skips the prototype-text distributions.
    """
    lead = model.parameters().flat.shape[:-1]
    n, k, e = len(x), len(token_ids), model.embed_dim
    feats, dist, texts = (np.empty(lead + shape) for shape in ((n, e), (n, k), (k, e)))
    lanes = [snapshot(model, s) for s in range(lead[0])] if lead else [model]  # views: no parameter copies
    for at, lane in zip(np.ndindex(lead), lanes):  # a single model's one index is ()
        feats[at], texts[at] = lane.encode_images(x).data, lane.encode_texts(token_ids).data
        dist[at] = image_text_dist(Tensor(feats[at]), Tensor(texts[at]), tau).data
    texts = Tensor(texts)
    return TeacherOutputs(Tensor(feats), Tensor(dist), *_proto_text_dists(protos, texts, tau), texts)


def student_outputs(model, feats: Tensor, token_ids, protos: Tensor | None, tau: float, img_text: bool = True) -> StudentOutputs:
    """Student forward pass over the batch encoding `feats` (the caller encodes the images once).

    `img_text` False skips the image-text distribution at `tau`, and
    `protos` None the prototype-text distributions.
    """
    texts = model.encode_texts(token_ids)
    return StudentOutputs(
        feats, texts, image_text_dist(feats, texts, tau) if img_text else None, *_proto_text_dists(protos, texts, tau)
    )


# ---------------------------------------------------------------------------
# assembled distillation and total loss


@dataclass
class LossBreakdown:
    """Values of every term, for logging and divergence dumps: per seed, so [S] arrays for a stack.

    fd/ird/idd entries hold the raw (unweighted) term values; `mdd` is the
    assembled teacher-weighted sum actually used in the objective, and
    `total` is ce + lambda1 * csa + lambda2 * mdd (+ lambda_wc * wc when
    weight drift is penalized). Disabled terms stay 0. `r0_mean` is the
    batch mean of the per-sample weight on the initial-model teacher, None
    when no distillation term ran.
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
    r0_mean: float | None = None

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
    teacher_weight: float | list | None = None,
    enable_fd: bool = True,
    enable_ird: bool = True,
    enable_idd: bool = True,
) -> tuple[Tensor | None, dict]:
    """Dual-teacher distillation: per-teacher weighted sum of the channels.

    Per teacher k with per-sample weights r_k:

        r_k * (FD + alpha * IRD + beta * i2t) + 0.5 * beta * (p&t)

    summed over both teachers. `teacher_weight` None forms r from
    per-sample similarity scores (`sample_weights`); a number w sets r_0 = w
    and r_prev = 1 - w on every sample. A teacher whose weight is exactly 0
    is skipped, p&t included (`weighted_teachers`); its bundle may be None.
    A list gives each lane of a stack its own weight (a similarity lane its
    rows of `sample_weights`), and a teacher runs when any lane weights it: a
    lane whose weight on it is exactly 0 takes its fd, ird and i2t terms at
    r = 0, its p&t term through a 0/1 lane mask, and logs 0 for it.

    Returns (loss tensor or None if every channel is disabled, info dict
    with raw term values and the per-sample weights).
    """
    rows = student.feats.shape[:-1]
    unweighted = (None, None)  # per teacher, the lanes whose weight on it is exactly 0 (None: one weight for all)
    if isinstance(teacher_weight, list):
        sampled = sample_weights(c0_out.img_text_dist, prev_out.img_text_dist, student.img_text_dist)[0].data if None in teacher_weight else None
        r0 = np.stack([sampled[s] if w is None else np.full(rows[-1], float(w)) for s, w in enumerate(teacher_weight)])
        r0, r_prev = Tensor(r0), Tensor(1.0 - r0)
        unweighted = tuple(np.array([w == zero for w in teacher_weight]) for zero in (0, 1))
    elif teacher_weight is None:
        r0, r_prev = sample_weights(c0_out.img_text_dist, prev_out.img_text_dist, student.img_text_dist)
    else:
        r0, r_prev = Tensor(np.full(rows, float(teacher_weight))), Tensor(np.full(rows, 1.0 - teacher_weight))

    info = dict.fromkeys(("fd0", "fd_prev", "ird0", "ird_prev", "idd0", "idd_prev"), np.zeros(r0.shape[:-1]))
    info["r0"] = r0.data.copy()
    terms: list[Tensor] = []
    for tag, teacher, r, weighted, off in zip(("0", "_prev"), (c0_out, prev_out), (r0, r_prev), weighted_teachers(teacher_weight), unweighted):
        if not weighted:
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


def cross_entropy(dist: Tensor, label_positions) -> Tensor:
    """Mean negative log-probability of the true columns of `dist` (per seed of a stack)."""
    labels = np.asarray(label_positions, dtype=np.int64)
    k = dist.shape[-1]
    if labels.shape != dist.shape[:-1]:
        raise ContractError(f"cross_entropy: {dist.shape[-2]} rows but labels shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ContractError(f"cross_entropy: label positions must lie in [0, {k})")
    return T.soft_ce_mean(Tensor((labels[..., None] == np.arange(k)).astype(np.float64)), dist)


def total_loss(
    student_model,
    feats: Tensor,
    label_positions,
    token_ids,
    protos: Tensor | None,
    hyper,
    teachers: tuple[TeacherOutputs, TeacherOutputs] | None,
    batch_rows,
    wc_reference=None,
    lane_weights: list | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Assemble the full objective for one batch.

    `feats` is the student's encoding of the batch images.
    `label_positions` index into `token_ids` (the current task's classes,
    in a fixed order) and into the rows of `protos`, the prototypes in
    that order (None when no enabled term reads them).
    `teachers` holds the (c0, c_prev) `teacher_outputs` over the whole
    training set the batch was drawn from (None when every distillation
    channel is off, and either entry None for a teacher without weight),
    and `batch_rows` the batch's row indices into it. The drift anchor is
    added iff `wc_reference` is given. `lane_weights` (one per lane) stand in
    for `hyper.teacher_weight` when the lanes differ in it. Teachers and prototypes are
    constants. Only the distributions an enabled term reads are built (see
    the module docstring); with every component disabled this reduces to
    plain supervised fine-tuning.
    """
    pt_protos = protos if hyper.enable_idd else None
    weighs = hyper.distills and None in (lane_weights or [hyper.teacher_weight])
    student = student_outputs(student_model, feats, token_ids, pt_protos, hyper.tau, img_text=hyper.enable_idd or weighs)

    supervised = cross_entropy(image_text_dist(student.feats, student.texts, hyper.tau_ce), label_positions)
    bd = LossBreakdown(*np.zeros((len(LossBreakdown.FIELDS),) + supervised.shape))
    bd.ce = supervised.data
    loss = supervised

    if hyper.enable_csa:
        csa = csa_loss(protos, student.texts, hyper.tau)
        bd.csa = csa.data
        loss = T.add(loss, T.scale(csa, hyper.lambda1))

    if hyper.distills:
        c0_out, prev_out = (None if t is None else t.rows(batch_rows, pt_protos, hyper.tau) for t in teachers)
        mdd, info = mdd_loss(
            c0_out, prev_out, student, protos, hyper.alpha, hyper.beta, lane_weights or hyper.teacher_weight,
            hyper.enable_fd, hyper.enable_ird, hyper.enable_idd,
        )
        if mdd is not None:
            for name in ("fd0", "fd_prev", "ird0", "ird_prev", "idd0", "idd_prev"):
                setattr(bd, name, info[name])
            bd.r0_mean = np.add.reduce(info["r0"], axis=-1) / info["r0"].shape[-1]  # np.mean's own arithmetic
            bd.mdd = mdd.data
            loss = T.add(loss, T.scale(mdd, hyper.lambda2))

    if wc_reference is not None:
        wc = wc_loss(student_model.parameters(), wc_reference)
        bd.wc = wc.data
        loss = T.add(loss, T.scale(wc, hyper.lambda_wc))

    bd.total = loss.data
    return loss, bd
