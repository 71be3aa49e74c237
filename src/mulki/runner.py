"""Training orchestration: contrastive pretraining, one task, a whole stream.

Per task the student is trained against two frozen teachers (the initial
model and the previous task's model) with the full objective from
`losses`, while a prototype store tracks class feature means and a
weight ensemble averages the parameter trajectory. The model a task
hands onward - evaluated, checkpointed, and used as the next task's
teacher - is the ensemble, not the raw last iterate.

Per task, before the first iteration: seed the prototype store from the
initial model, and (when any distillation channel is on) run each frozen
teacher once over the task's whole training set. Per-iteration order:
sample batch (with its row indices) -> encode it with the student ->
update prototypes with the detached student features -> build the loss,
taking the teachers' rows for the batch from the per-task bundles ->
backward -> AdamW step -> fold parameters into the ensemble (and, in
"ewe" mode, periodically overwrite the live parameters with it). All
randomness is derived from the run seed; a run is a pure function of
(stream, hyper, seed, initial model).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import losses, metrics, taskgen
from .config import HyperParams, ModelConfig
from .encoder import DualEncoder, ModelSnapshot, load_flat, params_flat, save_checkpoint, snapshot
from .errors import ConfigError, TrainingDivergedError
from .jsonutil import format_float, write_canonical
from .optim import AdamW
from .prototypes import PrototypeStore
from .weightspace import ewe_step, final_params, we_init, we_step

_TAG_PRETRAIN_BATCH = 21


@dataclass
class TaskResult:
    """What one task's training window leaves behind."""

    checkpoint: ModelSnapshot
    loss_rows: list


@dataclass
class RunRecord:
    """Everything a finished sequential run persists."""

    matrix: np.ndarray         # row 0: the initial model's zero-shot row
    loss_rows: list            # (task_id, iteration, LossBreakdown)
    checkpoints: list          # per-task ModelSnapshot
    config_echo: dict
    seed: int


def _adamw(model: DualEncoder, hyper: HyperParams) -> AdamW:
    return AdamW(
        model.parameters(),
        lr=hyper.lr,
        betas=(hyper.adam_beta1, hyper.adam_beta2),
        eps=hyper.adam_eps,
        weight_decay=hyper.weight_decay,
    )


def pretrain(stream, hyper: HyperParams, seed: int, model_cfg: ModelConfig | None = None) -> ModelSnapshot:
    """Contrastively pretrain the initial model on the label-noisy pool.

    Symmetric batch InfoNCE: image row b should match text row b among
    the batch's texts, and vice versa. The pool covers every class in
    the stream, which is what gives the result zero-shot ability on all
    tasks; its small size and label noise keep that ability imperfect.
    """
    model_cfg = model_cfg or ModelConfig()
    model = DualEncoder(
        seed,
        vocab_size=stream.vocab_size,
        d_in=stream.d_in,
        d_tok=model_cfg.d_tok,
        hidden=model_cfg.hidden,
        embed_dim=model_cfg.embed_dim,
    )
    opt = _adamw(model, hyper)
    pool_x, pool_tokens = stream.pretrain_x, stream.pretrain_tokens
    n = pool_x.shape[0]
    if n == 0:
        raise ConfigError("pretraining pool is empty")
    diag = np.arange(hyper.batch_size)
    for it in range(1, hyper.pretrain_iterations + 1):
        rng = np.random.default_rng([seed, _TAG_PRETRAIN_BATCH, it])
        idx = rng.integers(0, n, size=hyper.batch_size)
        feats = model.encode_images(pool_x[idx])
        texts = model.encode_texts(pool_tokens[idx])
        img_to_text = losses.cross_entropy(losses.image_text_dist(feats, texts, hyper.tau_ce), diag)
        text_to_img = losses.cross_entropy(losses.image_text_dist(texts, feats, hyper.tau_ce), diag)
        loss = 0.5 * (img_to_text + text_to_img)
        if not math.isfinite(loss.item()):
            raise TrainingDivergedError(f"pretraining diverged at iteration {it}")
        opt.zero_grad()
        loss.backward()
        opt.step()
    return snapshot(model)


def train_task(
    student: DualEncoder,
    c0: ModelSnapshot,
    c_prev: ModelSnapshot,
    task,
    hyper: HyperParams,
    seed: int,
    wc_reference: np.ndarray | None = None,
) -> TaskResult:
    """Train `student` on one task against both teachers, in place.

    On return the student carries the task's final parameters (the
    ensemble mean when weight ensembling is on). The prototype store
    lives only inside this window: seeded from the initial model before
    the first iteration, purged after the last. Every batch's loss takes
    its teacher rows from the two per-task bundles, and adds the drift
    anchor toward `wc_reference` iff one is given.
    """
    store = PrototypeStore.init_from_model(
        c0,
        task.images_by_class(),
        gamma0=hyper.gamma0,
        gamma_step=hyper.gamma_step,
        gamma_max=hyper.gamma_max,
    )
    position_of = {c.class_id: i for i, c in enumerate(task.classes)}
    token_ids = task.token_ids
    class_ids = task.class_ids
    teachers = None
    if hyper.enable_fd or hyper.enable_ird or hyper.enable_idd:
        protos = store.matrix(class_ids).detach()
        teachers = tuple(
            losses.teacher_outputs(teacher, task.train_x, token_ids, protos, hyper.tau) for teacher in (c0, c_prev)
        )

    mode = hyper.ensemble_mode()
    we_state = we_init(params_flat(student), hyper.we_interval, hyper.ewe_eta, mode) if mode else None
    opt = _adamw(student, hyper)
    loss_rows = []

    for k, (x, labels, rows) in enumerate(
        taskgen.batches(task, hyper.batch_size, seed, hyper.iterations_per_task), start=1
    ):
        feats = student.encode_images(x)
        by_class: dict[int, list] = {}
        for row, cid in enumerate(labels):
            by_class.setdefault(int(cid), []).append(row)
        store.ema_update(
            {cid: feats.data[rows] for cid, rows in sorted(by_class.items())}
        )
        positions = [position_of[int(cid)] for cid in labels]
        loss, bd = losses.total_loss(
            student, feats, positions, token_ids, class_ids, store, hyper, teachers, rows, wc_reference
        )
        if not math.isfinite(bd.total):
            raise TrainingDivergedError(
                f"task {task.task_id} iteration {k}: non-finite loss; breakdown "
                + ", ".join(f"{name}={getattr(bd, name)!r}" for name in bd.FIELDS),
                breakdown=bd,
            )
        opt.zero_grad()
        loss.backward()
        opt.step()
        if we_state is not None:
            we_step(we_state, params_flat(student), k)
            if ewe_step(we_state, k):
                load_flat(student, we_state.theta_hat)
                opt.reset_moments()
        loss_rows.append((task.task_id, k, bd))

    load_flat(student, final_params(we_state, params_flat(student)))
    store.purge()
    return TaskResult(checkpoint=snapshot(student), loss_rows=loss_rows)


def evaluate_row(model, stream, model_row: int) -> np.ndarray:
    """Accuracies of one model on every task in the stream."""
    return np.array(
        [
            metrics.evaluate(model, task, metrics.evaluation_candidates(stream, model_row, task))
            for task in stream.tasks
        ]
    )


def run_stream(
    stream,
    hyper: HyperParams,
    seed: int,
    c0: ModelSnapshot,
    config_echo: dict | None = None,
) -> RunRecord:
    """Sequential pass over the stream's tasks starting from `c0`.

    Task i's teacher pair is (c0, model after task i-1); for the first
    task both teachers coincide with c0 and the per-sample weighting
    degenerates to an even split. The drift penalty references the
    previous task's final parameters and only applies on multi-domain
    streams with `enable_wc`; this is the one place that decides it.
    """
    hyper.validate()
    n = stream.n_tasks
    matrix = np.zeros((n + 1, n))
    matrix[0] = evaluate_row(c0, stream, 0)

    student = c0.trainable_copy()
    use_wc = hyper.enable_wc and stream.mode == "multi_domain"
    loss_rows: list = []
    checkpoints: list = []
    for i, task in enumerate(stream.tasks, start=1):
        c_prev = snapshot(student)
        wc_reference = c_prev.params_flat() if use_wc else None
        result = train_task(student, c0, c_prev, task, hyper, seed, wc_reference=wc_reference)
        loss_rows.extend(result.loss_rows)
        checkpoints.append(result.checkpoint)
        matrix[i] = evaluate_row(result.checkpoint, stream, i)

    return RunRecord(
        matrix=matrix,
        loss_rows=loss_rows,
        checkpoints=checkpoints,
        config_echo=dict(config_echo or {}),
        seed=seed,
    )


def save_run_record(record: RunRecord, out_dir) -> None:
    """Persist a run: metrics JSON, per-iteration loss CSV, checkpoints.

    Files are byte-stable: rerunning the same (stream, hyper, seed, c0)
    and saving again produces identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    write_canonical(metrics.metrics_document(record.matrix), os.path.join(out_dir, "metrics.json"))
    write_canonical({"config": record.config_echo, "seed": record.seed}, os.path.join(out_dir, "run.json"))
    for i, ckpt in enumerate(record.checkpoints, start=1):
        save_checkpoint(ckpt, os.path.join(out_dir, f"task_{i:02d}.ckpt"))

    header = ["task", "iteration", *losses.LossBreakdown.FIELDS, "r0_mean"]
    lines = [",".join(header)]
    for task_id, iteration, bd in record.loss_rows:
        r0_mean = format_float(float(np.mean(bd.per_sample_r0))) if bd.per_sample_r0 else ""
        row = [str(task_id), str(iteration)]
        row.extend(format_float(v) for v in bd.values())
        row.append(r0_mean)
        lines.append(",".join(row))
    with open(os.path.join(out_dir, "losses.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
