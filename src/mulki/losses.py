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

Each lane of a stack mixes the two teachers by its own teacher weight
(`weights`, one per lane). NaN (the config's `teacher_weight` None) weights
each sample by how similar each teacher's image-text distribution is to
the student's: the teacher the student has drifted away from gets the
larger pull. A number w in [0, 1] is a fixed weight w on the initial
model and 1 - w on the previous one. A teacher runs when some lane weights
it (`weighted_teachers`, for the trainer and the loss alike); a lane whose
weight on it is exactly 0 takes it at r = 0 and its prototype/text term
through a 0/1 mask, so each lane gets the bits of its own run. The
prototype/text channel carries a fixed half weight per weighted teacher.
A contrastive term aligns class prototypes with the student's texts, and
cross-entropy on the current task is the supervised signal; distillation
distributions use a soft temperature (default 2), the supervised logits a
sharp one (default 0.07).

Each term is one node that runs the numpy expressions of the generic-op
chain it replaced (tests/reference_ops.py), so losses, gradients and
artifacts are the chains' bits: `csa_loss`, the supervised term through
`tensor.soft_ce_mean`, the distributions through `tensor.cosine_softmax`,
and the whole distillation block, every channel of both teachers, as
`mdd_loss` over a leading teacher axis. A stack's [S, ...] operands give
one value per seed, each that seed's bits alone.

Prototypes and teacher outputs are constants; gradients flow only into
the student. Both teachers stay frozen for a task, so the trainer runs
`teacher_outputs` once per task over the task's training set (checked
there), both teachers into one bundle, and cuts and normalizes each
batch's rows of both with `TeacherOutputs.rows`; only the K x K
prototype-text distributions follow the moving prototypes and are rebuilt
per batch.

`total_loss` takes the prototypes as one constant matrix, `protos` (row
k for the task's k-th class), and builds only what an enabled term
reads. Always the student's texts and the supervised distribution at
tau_ce; the prototypes for csa and relation distance; the student's
image-text distribution at tau for distribution matching or similarity
weighting; the student's and teachers' prototype-text and text-prototype
distributions for distribution matching only. A teacher whose weight is
exactly 0 has no place in the bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

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


def image_text_dist(feats: Tensor, texts: Tensor, tau: float) -> Tensor:
    """Rows of softmax(cosine(feats, texts) / tau): one distribution per row."""
    if texts.ndim < 2 or texts.shape[-2] == 0:
        raise ContractError("image_text_dist: empty text set")
    return T.cosine_softmax(feats, texts, tau)


def weighted_teachers(weights: np.ndarray) -> tuple[bool, bool]:
    """Whether (c0, c_prev) carry weight in some lane of `weights`: a weight of exactly 0 zeroes c0, of 1 c_prev (NaN weights both)."""
    return (weights != 0).any(), (weights != 1).any()


def sample_weights(teachers: np.ndarray, student: np.ndarray) -> np.ndarray:
    """Per-sample weight r0 on the initial model (1 - r0 on the previous one), a constant array.

    Each teacher's image-text distribution row (`teachers`, c0 first on the
    teacher axis) is scored by its cosine similarity with the student's; the
    weights are a softmax over the negated scores, so they sum to one and
    the less-similar teacher gets the larger weight.
    """
    if teachers.shape != (2,) + student.shape:
        raise ContractError(f"sample_weights: teacher rows {teachers.shape} for student rows {student.shape}")
    # each row's cosine, the norms by np.linalg.norm(., axis=-1)'s own formula
    norms = np.sqrt(np.add.reduce(teachers * teachers, axis=-1)) * np.sqrt(np.add.reduce(student * student, axis=-1))
    e = np.exp(-(np.add.reduce(teachers * student, axis=-1) / norms))
    return e[0] / (e[0] + e[1])


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
    """Everything frozen teachers contribute for a set of images. All constant.

    The weighted teachers', c0 first on a leading teacher axis. Built and
    checked once per task over the task's training set; `rows` then cuts out
    each batch without re-running the checks. Its `feats` and
    `img_text_dist` rows lie end to end, a block per model lane, and
    `blocks` holds each lane's first row ([T, S] from `teacher_outputs`): a
    model every lane shares has one block. `texts` (the teachers' class-text
    embeddings) is what `rows` needs to rebuild the prototype-text
    distributions for moved prototypes, which are None when built without
    prototypes (no enabled term reads them).
    """

    feats: Tensor
    img_text_dist: Tensor
    proto_text_dist: Tensor | None = None
    text_proto_dist: Tensor | None = None
    texts: Tensor | None = None
    blocks: np.ndarray | int = 0

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
        the tests). Each array comes in one take for every teacher, the
        feature rows with their unit rows (one call, each row on its own).
        The result skips `__post_init__` (it is made with `object.__new__`):
        its rows come from this checked bundle, and the two new
        distributions (None when `protos` is) are softmax rows of constants.
        """
        if self.texts is None:
            raise ContractError("TeacherOutputs.rows needs the teacher's texts")
        if self.feats.data.ndim != 2 or self.img_text_dist.data.ndim != 2:
            raise ContractError(f"TeacherOutputs.rows needs the rows laid end to end, got {self.feats.shape}")
        out, at = object.__new__(TeacherOutputs), np.asarray(self.blocks)[..., None] + idx  # row idx[s, b] of each teacher's lane s
        # a take of the rows laid end to end keeps the cut C-contiguous: a fancy index over a reshaped [T, S, n, d]
        # pair gave strides (8, 512, 16), and the raw fd/idd logs moved bits in losses.csv (training stayed identical)
        out.feats, out.img_text_dist = Tensor(self.feats.data.take(at, axis=0)), Tensor(self.img_text_dist.data.take(at, axis=0))
        out.texts, out.blocks = self.texts, self.blocks
        T.unit_rows(out.feats)
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


def teacher_outputs(models: list, x, token_ids, protos: Tensor | None, tau: float) -> TeacherOutputs:
    """Run the list of the weighted teachers, c0 first, over images `x`: one bundle with the teacher axis.

    See StudentOutputs for the live twin. A frozen stack runs one lane at a time (a view, `snapshot(model, s)`) into
    the bundle's preallocated arrays, the bits of a stacked call; a model every lane shares runs once, its one block
    of rows serving every lane. `protos` None skips the prototype-text distributions.
    """
    leads = [model.parameters().flat.shape[:-1] for model in models]
    lanes = max(leads, key=len) or (1,)  # shared models alone: one lane, for a stack's prototypes
    n, k, e = len(x), len(token_ids), models[0].embed_dim
    size = n * sum(own[0] if own else 1 for own in leads)  # one block of rows per model lane
    feats, dist, texts = np.empty((size, e)), np.empty((size, k)), np.empty((len(models),) + lanes + (k, e))
    blocks, first = np.empty((len(models),) + lanes, dtype=np.int64), 0
    for t, (model, own) in enumerate(zip(models, leads)):
        views = [snapshot(model, s) for s in range(own[0])] if own else [model]  # views: no parameter copies
        for at, lane in zip(np.ndindex(own), views):  # a shared model's one index is (): it fills every lane
            f, tx = lane.encode_images(x).data, lane.encode_texts(token_ids).data
            feats[first : first + n], dist[first : first + n] = f, image_text_dist(Tensor(f), Tensor(tx), tau).data
            texts[(t, *at)], blocks[(t, *at)], first = tx, first, first + n
    texts = Tensor(texts)
    return TeacherOutputs(Tensor(feats), Tensor(dist), *_proto_text_dists(protos, texts, tau), texts, blocks)


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
        return list(_fields(self))


_fields = attrgetter(*LossBreakdown.FIELDS)


def mdd_loss(
    teachers: TeacherOutputs,
    student: StudentOutputs,
    protos: Tensor,
    weights: np.ndarray,
    alpha: float = 1.0,
    beta: float = 1.0,
    enable_fd: bool = True,
    enable_ird: bool = True,
    enable_idd: bool = True,
) -> tuple[Tensor | None, dict]:
    """Dual-teacher distillation: per-teacher weighted sum of the channels, as one node.

    Per teacher k with per-sample weights r_k:

        r_k * (FD + alpha * IRD + beta * i2t) + 0.5 * beta * (p&t)

    summed over both teachers. `weights` holds each lane's teacher weight
    ([S]; 0-d for an unstacked [B, ...] student): a number w sets r_0 = w and
    r_prev = 1 - w on the lane's samples, NaN takes its rows of
    `sample_weights`. A teacher runs when any lane weights it
    (`weighted_teachers`): a lane whose weight on it is exactly 0 takes its
    fd, ird and i2t terms at r = 0, its p&t term through a 0/1 lane mask,
    and logs 0 for it, so each lane gets the bits of its own run.

    `teachers` holds the weighted teachers' rows for the batch on a leading
    teacher axis, c0 first (`TeacherOutputs.rows` of the trainer's bundle).
    Each channel's numpy expressions run once over that axis, those of the
    per-term nodes this node replaced (tests/reference_ops.py); the value
    adds the terms in their add chain's order (fd0 + ird0 + i2t0 + p&t0 +
    fd_prev + ...), and the backward hands each student output its
    per-teacher gradients in the order that chain's tape did (feats: fd0,
    ird0, fd_prev, ird_prev; each distribution: c0's, then c_prev's), so the
    bits are the chain's. The node's parents are the student outputs the
    enabled channels read: feats, then the three distributions.

    Returns (loss tensor or None if every channel is disabled, info dict
    with raw term values and the per-sample weights).
    """
    w0, w_prev = weighted_teachers(weights)
    kept = slice(0 if w0 else 1, 2 if w_prev else 1)  # the weighted teachers of (c0, c_prev)
    n, rows = kept.stop - kept.start, student.feats.data.shape[:-1]
    if teachers.feats.data.shape[:-1] != (n,) + rows:
        raise ContractError(f"mdd_loss: teacher rows {teachers.feats.shape} for {n} teacher(s) and student rows {rows}")
    r0 = np.empty(rows)
    r0[...] = weights[..., None]  # each lane's fixed weight on all its rows
    similar = np.isnan(weights)
    if similar.any():
        r0 = np.where(similar[..., None], sample_weights(teachers.img_text_dist.data, student.img_text_dist.data), r0)
    off = (weights == 0, weights == 1)[kept]  # per weighted teacher, the lanes whose weight on it is exactly 0
    r, tags = np.array((r0, 1.0 - r0)[kept]), ("0", "_prev")[kept]

    info = {**dict.fromkeys(("fd0", "fd_prev", "ird0", "ird_prev", "idd0", "idd_prev"), np.zeros(rows[:-1])), "r0": r0}
    terms, raw = [], {}  # terms: each channel's [T, S] values, in the chain's order; raw: the unweighted values logged
    if enable_fd:
        diff = teachers.feats.data - student.feats.data
        fd_rows = np.add.reduce(diff * diff, axis=-1)
        c_fd = float(1.0 / fd_rows.shape[-1])
        terms.append(np.add.reduce(fd_rows * r, axis=-1) * c_fd)
        raw["fd"] = np.add.reduce(fd_rows, axis=-1) * c_fd
    if enable_ird:
        if protos.data.shape[-2] == 0:
            raise ContractError("mdd_loss: empty prototype set")
        us, up, s_sims = T.cosine_forward(student.feats, protos)
        # [T, S, B, e] @ [S, e, K] is one gemm per slice, so each teacher keeps the bits of its own 2-D call
        rel = T.cosine_sim(teachers.feats, protos).data - s_sims
        gap = r[..., None] * rel
        b, k = gap.shape[-2:]
        total = np.add.reduce((gap * gap).reshape(gap.shape[:-2] + (b * k,)), axis=-1)  # each slice's .sum()
        norm = np.sqrt(total)
        c_ird, a = float(1.0 / np.sqrt(b * k)), float(alpha)
        terms.append(norm * c_ird * a)
        # each slice's ||diff|| by ndarray.dot: np.add.reduce and einsum round differently
        gaps = np.sqrt([flat.dot(flat) for flat in rel.reshape(-1, b * k)]) / math.sqrt(b * k)
        raw["ird"] = gaps.reshape(rel.shape[:-2])
    if enable_idd:
        s_itd, s_ptd, s_tpd = student.img_text_dist, student.proto_text_dist, student.text_proto_dist
        t_itd, t_ptd, t_tpd = teachers.img_text_dist.data, teachers.proto_text_dist.data, teachers.text_proto_dist.data
        i2t_rows, pt_rows, tp_rows = T.soft_ce_rows(t_itd, s_itd.data), T.soft_ce_rows(t_ptd, s_ptd.data), T.soft_ce_rows(t_tpd, s_tpd.data)
        c_i2t, c_pt, scale = float(1.0 / i2t_rows.shape[-1]), float(1.0 / pt_rows.shape[-1]), float(beta)  # K x K: one c for both
        terms.append(np.add.reduce(i2t_rows * r, axis=-1) * c_i2t * scale)
        pt = np.add.reduce(pt_rows, axis=-1) * c_pt + np.add.reduce(tp_rows, axis=-1) * c_pt
        pt_scales = [0.5 * beta * (1.0 - o) for o in off]
        terms.append([value * c for value, c in zip(pt, pt_scales)])
        raw["idd"] = np.add.reduce(i2t_rows, axis=-1) * c_i2t + pt
    for name, values in raw.items():
        for tag, value, o in zip(tags, values, off):
            info[name + tag] = np.where(o, 0.0, value)
    if not terms:
        return None, info

    data = None
    for t in range(n):
        for term in terms:
            data = term[t] if data is None else data + term[t]

    def backward(g):
        parts = []  # (student output, its [T, ...] gradient), in one teacher's tape order
        if enable_fd:
            half = T.row_terms_backward(g * c_fd, r) * diff
            parts.append((student.feats, -(half + half)))
        if enable_ird:
            g_total = np.where(total > 0.0, g * a * c_ird * 0.5 / np.where(total > 0.0, norm, 1.0), 0.0)
            half = g_total[..., None, None] * gap
            g_gap = (half + half) * r[..., None]
            parts.append((student.feats, us.grad(-g_gap @ up.t.swapaxes(-1, -2))))
        if enable_idd:
            pt_g = np.array([g * c for c in pt_scales]) * c_pt
            parts.append((s_itd, T.soft_ce_backward(g * scale * c_i2t, t_itd, s_itd.data, r)))
            parts.append((s_ptd, T.soft_ce_backward(pt_g, t_ptd, s_ptd.data)))
            parts.append((s_tpd, T.soft_ce_backward(pt_g, t_tpd, s_tpd.data)))
        for t in range(n):
            for output, grad in parts:
                if output.requires_grad:
                    output._accumulate(grad[t])

    parents = ((student.feats,) if enable_fd or enable_ird else ()) + ((s_itd, s_ptd, s_tpd) if enable_idd else ())
    return T.node(data, parents, backward), info


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
    teachers: TeacherOutputs | None,
    batch_rows,
    weights: np.ndarray,
    wc_reference=None,
) -> tuple[Tensor, LossBreakdown]:
    """Assemble the full objective for one batch.

    `feats` is the student's encoding of the batch images.
    `label_positions` index into `token_ids` (the current task's classes,
    in a fixed order) and into the rows of `protos`, the prototypes in
    that order (None when no enabled term reads them).
    `teachers` is the weighted teachers' bundle over the whole training
    set the batch was drawn from (`teacher_outputs` of them, with the
    teacher axis; None when every distillation channel is off), and
    `batch_rows` the batch's row indices into it. `weights` holds each
    lane's teacher weight (NaN: per-sample similarity; see `mdd_loss`). The
    drift anchor is added iff `wc_reference` is given. Teachers and
    prototypes are constants. Only the distributions an enabled term reads
    are built (see the module docstring); with every component disabled
    this reduces to plain supervised fine-tuning.
    """
    pt_protos, distills = protos if hyper.enable_idd else None, hyper.distills
    weighs = distills and np.isnan(weights).any()  # some lane's r0 needs the student's image-text distribution
    student = student_outputs(student_model, feats, token_ids, pt_protos, hyper.tau, img_text=hyper.enable_idd or weighs)

    supervised = cross_entropy(image_text_dist(student.feats, student.texts, hyper.tau_ce), label_positions)
    bd = LossBreakdown(*np.zeros((len(LossBreakdown.FIELDS),) + supervised.shape))
    bd.ce = supervised.data
    loss = supervised

    if hyper.enable_csa:
        csa = csa_loss(protos, student.texts, hyper.tau)
        bd.csa = csa.data
        loss = T.add(loss, T.scale(csa, hyper.lambda1))

    if distills:
        mdd, info = mdd_loss(
            teachers.rows(batch_rows, pt_protos, hyper.tau), student, protos,
            weights, hyper.alpha, hyper.beta, hyper.enable_fd, hyper.enable_ird, hyper.enable_idd,
        )
        if mdd is not None:
            bd.fd0, bd.fd_prev, bd.ird0, bd.ird_prev = info["fd0"], info["fd_prev"], info["ird0"], info["ird_prev"]
            bd.idd0, bd.idd_prev = info["idd0"], info["idd_prev"]
            bd.r0_mean = np.add.reduce(info["r0"], axis=-1) / info["r0"].shape[-1]  # np.mean's own arithmetic
            bd.mdd = mdd.data
            loss = T.add(loss, T.scale(mdd, hyper.lambda2))

    if wc_reference is not None:
        wc = wc_loss(student_model.parameters(), wc_reference)
        bd.wc = wc.data
        loss = T.add(loss, T.scale(wc, hyper.lambda_wc))

    bd.total = loss.data
    return loss, bd
