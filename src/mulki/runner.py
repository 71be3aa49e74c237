"""Training orchestration: contrastive pretraining, one task, a whole stream.

Per task the student is trained against two frozen teachers (the initial
model and the previous task's model) with the full objective from
`losses`, while a prototype store tracks class feature means and a
weight ensemble averages the parameter trajectory. The model a task
hands onward - evaluated, checkpointed, and used as the next task's
teacher - is the ensemble, not the raw last iterate, unless
`hyper.ensemble` is "off".

An arm's seeds train in lockstep as one stack (`encoder.stack`), a single
seed as a stack of one: the parameters, gradients, AdamW moments and
ensemble are [S, P] buffers, the prototypes one [S, K, d] store, and
every loss is one value per seed; a seed's lanes share its batches. Each
slice runs a single model's numpy code, so each seed's artifacts are the
bytes of that seed run alone. Per-seed loops remain for a diverged loss's
breakdown, the checkpoints and evaluation. An initial model all seeds
share stays one model, its zero-shot row evaluated once, its prototypes
and block of the teachers' bundle built once per task. Each lane carries
its own teacher weight, so arms that differ only in it train as one stack
(`run_arms`) of (arm, seed) lanes. To hold them all at once, the bundle is
filled a lane at a time, teacher rows are normalized per batch, a task's
checkpoints are lane views of one frozen stack (the next task's c_prev and
drift anchor), and the graph goes before each AdamW step.

One loop serves every arm, and it builds only what the enabled terms
read (`HyperParams.distills`, `uses_prototypes`): the prototype store
exists when alignment or a distillation channel is on, and a teachers'
bundle when a channel is on, of the teachers some lane weights
(`losses.weighted_teachers`). So `continual_ft` keeps no store and no
bundle, `only_c0` or `only_prev` lanes alone (teacher_weight 1, 0) one.

Per task, before the first iteration: look up every training label's
class position at once (a label outside the task's classes raises
ContractError), seed the store from the initial model(s), and run
the weighted teachers once over the task's training set into one bundle.
Per iteration: draw each distinct seed's batch (images and row indices)
-> encode the stack -> with a store, EMA-update every seed's classes at
once -> build the loss (one node) from the batch's label positions,
the prototypes, the teachers' rows for the batch (one distillation node)
and the drift anchor -> refuse a non-finite loss -> backward -> one flat
AdamW step -> on every `we_interval`-th iteration, fold the flat
parameters into the ensemble (and under "ewe", after every `ewe_eta`-th
averaging, load the ensemble into the live parameters and reset AdamW's
moments). A seed's run is a pure function of (stream, hyper, seed,
initial model).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import losses, metrics, taskgen
from .config import HyperParams, ModelConfig
from .encoder import DualEncoder, load_flat, params_flat, save_checkpoint, snapshot, stack
from .errors import ConfigError, ContractError, TrainingDivergedError
from .jsonutil import format_float, write_canonical, write_lines
from .optim import AdamW
from .prototypes import PrototypeStore
from .tensor import sum_seeds
from .weightspace import we_init, we_step

_TAG_PRETRAIN_BATCH = 21


@dataclass
class TaskResult:
    """What one task's training window leaves behind, for each seed of the stack."""

    final: DualEncoder         # the frozen stack of the task's final parameters (`snapshot`)
    checkpoints: list          # per seed, frozen: lane s of `final`, a view
    losses: np.ndarray         # [iterations, S, len(FIELDS) + 1]: LossBreakdown.FIELDS, then r0_mean (NaN: None)


@dataclass
class RunRecord:
    """Everything a finished sequential run of one seed persists."""

    matrix: np.ndarray         # row 0: the initial model's zero-shot row
    losses: np.ndarray         # one row per iteration: task id, iteration, then TaskResult.losses' columns
    checkpoints: list          # per-task frozen DualEncoder
    config_echo: dict
    seed: int


def _adamw(model: DualEncoder, hyper: HyperParams) -> AdamW:
    betas = (hyper.adam_beta1, hyper.adam_beta2)
    return AdamW(model.parameters(), lr=hyper.lr, betas=betas, eps=hyper.adam_eps, weight_decay=hyper.weight_decay)


def pretrain(stream, hyper: HyperParams, seed: int, model_cfg: ModelConfig | None = None) -> DualEncoder:
    """Contrastively pretrain the initial model on the label-noisy pool.

    Symmetric batch InfoNCE: image row b should match text row b among
    the batch's texts, and vice versa. The pool covers every class in
    the stream, which is what gives the result zero-shot ability on all
    tasks; its small size and label noise keep that ability imperfect.
    """
    model_cfg = model_cfg or ModelConfig()
    widths = dict(d_tok=model_cfg.d_tok, hidden=model_cfg.hidden, embed_dim=model_cfg.embed_dim)
    model = DualEncoder(seed, vocab_size=stream.vocab_size, d_in=stream.d_in, **widths)
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


def _label_positions(task) -> np.ndarray:
    """Each training label's position in `task.class_ids`; ContractError on a label outside them."""
    ids = np.asarray(task.class_ids, dtype=np.int64)
    unknown = ~np.isin(task.train_y, ids)
    if unknown.any():
        raise ContractError(f"task {task.task_id}: training label {task.train_y[unknown][0]} is not one of its class ids")
    order = np.argsort(ids, kind="stable")
    return order[np.searchsorted(ids, task.train_y, sorter=order)]


def train_task(
    student: DualEncoder, c0: DualEncoder, c_prev: DualEncoder, task, hyper: HyperParams, seeds: list, weights: np.ndarray, wc_reference=None
) -> TaskResult:
    """Train the stack `student` (`encoder.stack`, slice s for seeds[s]) on one task against both teachers, in place.

    `c0` and `c_prev` are the frozen initial and previous models: each one
    model every seed shares, or a frozen stack of the seeds' own. On return
    the student carries the task's final parameters (the ensemble mean
    unless `hyper.ensemble` is "off"). The prototype store, when an enabled
    term reads it, lives only inside this window: seeded from `c0` before
    the first iteration, dropped on return. `weights` holds each lane's
    teacher weight (NaN: per-sample similarity), or is its `losses.LanePlan`.
    The lanes of a seed share its batches. Each batch's loss takes its teacher
    rows from the per-task bundle of the weighted teachers, and the drift anchor
    toward `wc_reference` ([S, P]) iff one is given. A non-finite loss raises
    TrainingDivergedError for its first lane.
    """
    positions = _label_positions(task)
    token_ids = task.token_ids
    n = len(seeds)
    store = protos = None
    if hyper.uses_prototypes:
        schedule = dict(gamma0=hyper.gamma0, gamma_step=hyper.gamma_step, gamma_max=hyper.gamma_max)
        store = PrototypeStore.init_from_model(c0, task.images_by_class(), lead=(n,), **schedule)
        protos = store.matrix()
    teachers = None
    if hyper.distills:
        weights = weights if isinstance(weights, losses.LanePlan) else losses.LanePlan(weights)
        weighted = [c0, c_prev][weights.kept]
        teachers = losses.teacher_outputs(weighted, task.train_x, token_ids, protos if hyper.enable_idd else None, hyper.tau)

    we_state = None if hyper.ensemble == "off" else we_init(student.parameters().flat, hyper.we_interval)
    opt = _adamw(student, hyper)
    log = np.empty((hyper.iterations_per_task, len(losses.LossBreakdown.FIELDS) + 1, n))
    distinct = list(dict.fromkeys(seeds))  # a batch is a function of (seed, task, iteration): one draw per seed
    draw = [distinct.index(seed) for seed in seeds]  # lane s takes the draw of its seed
    draws = [taskgen.batches(task, hyper.batch_size, seed, hyper.iterations_per_task) for seed in distinct]
    for k, batch in enumerate(zip(*draws), start=1):
        rows = np.array([batch[d][1] for d in draw])
        feats = student.encode_images(np.array([batch[d][0] for d in draw]))
        batch_positions = positions[rows]
        if store is not None:
            store.ema_update(feats.data, batch_positions)
            protos = store.matrix()
        loss, bd = losses.total_loss(student, feats, batch_positions, token_ids, protos, hyper, teachers, rows, weights, wc_reference)
        if not np.isfinite(bd.total).all():
            s = int(np.argmin(np.isfinite(bd.total)))
            dump = losses.LossBreakdown(*(float(v[s]) for v in [*bd.values(), bd.r0_mean] if v is not None))
            raise TrainingDivergedError(
                f"seed {seeds[s]} task {task.task_id} iteration {k}: non-finite loss; breakdown "
                + ", ".join(f"{name}={getattr(dump, name)!r}" for name in dump.FIELDS),
                breakdown=dump,
                seed=seeds[s],
                lane=s,
            )
        log[k - 1, :-1] = bd.values()
        log[k - 1, -1] = np.nan if bd.r0_mean is None else bd.r0_mean
        opt.zero_grad()
        sum_seeds(loss).backward()
        del loss, feats  # the graph goes before the step allocates
        opt.step()
        if we_state is not None and k % we_state.interval == 0:
            we_step(we_state, params_flat(student), k)
            if hyper.ensemble == "ewe" and we_state.m % hyper.ewe_eta == 0:
                load_flat(student, we_state.theta_hat)
                opt.reset_moments()

    if we_state is not None:
        load_flat(student, we_state.theta_hat)
    final = snapshot(student)  # also the next task's c_prev
    return TaskResult(final, [snapshot(final, s) for s in range(n)], log.transpose(0, 2, 1))


def evaluate_row(model, stream, model_row: int) -> np.ndarray:
    """Accuracies of one model on every task in the stream."""
    return np.array([metrics.evaluate(model, task, metrics.evaluation_candidates(stream, model_row, task)) for task in stream.tasks])


def stacks(hypers: list) -> list[list[int]]:
    """The arms `run_arms` trains as one stack, as lists of positions in `hypers`: the arms that differ in
    teacher_weight only, in the order of each stack's first arm."""
    groups: dict = {}
    for a, hyper in enumerate(hypers):
        groups.setdefault(replace(hyper, teacher_weight=None), []).append(a)
    return list(groups.values())


def run_arms(stream, hypers: list, seeds: list, c0s: list, config_echo: dict | None = None) -> list[list[RunRecord]]:
    """Every arm of `hypers` over `seeds` (seed s from `c0s[s]`): per arm, one record per seed.

    Arms that differ in teacher_weight only train as one stack (`run_stream`) of (arm, seed) lanes in
    arm-major order, each record the bytes of its arm and seed run alone. A divergence raises what training
    the arms in turn would: the first diverged (arm, seed)'s error, `records` one list per arm up to it.
    """
    runs: list[list] = [[] for _ in hypers]
    error, first = None, (len(hypers), 0)  # the first diverged (arm, seed position) so far
    for arms in stacks(hypers):
        if arms[0] > first[0]:
            break
        lanes = [(a, s) for a in arms for s in range(len(seeds))]
        try:
            records = run_stream(stream, [hypers[a] for a, _ in lanes], [seeds[s] for _, s in lanes], [c0s[s] for _, s in lanes], config_echo)
        except TrainingDivergedError as err:
            records = err.records
            if lanes[err.lane] < first:
                error, first = err, lanes[err.lane]
        for (a, _), record in zip(lanes, records):
            runs[a].append(record)
    if error is not None:
        error.records = runs[: first[0]] + [runs[first[0]][: first[1]]]
        raise error
    return runs


def run_stream(stream, hyper, seeds: list, c0s: list, config_echo: dict | None = None) -> list[RunRecord]:
    """Sequential pass over the stream's tasks for each lane, seeds[s] from `c0s[s]`, in lockstep; one record per lane.

    `hyper` is one HyperParams for every lane, or a list of one per lane
    that differ in teacher_weight only (as `run_arms` stacks arms).
    Task i's teacher pair is (c0, model after task i-1); for the first
    task both teachers coincide with c0 and similarity weighting
    degenerates to an even split. The drift penalty references the
    previous task's final parameters and only applies on multi-domain
    streams with `enable_wc`; this is the one place that decides it.

    A divergence raises what running the lanes one after another would:
    the error of the first lane (by position) that diverges, with the
    records of the lanes before it (trained again as a stack) in `records`.
    """
    lanes = [hyper] * len(seeds) if isinstance(hyper, HyperParams) else list(hyper)
    if len(lanes) != len(seeds) or len({replace(h, teacher_weight=None) for h in lanes}) > 1:
        raise ContractError("run_stream takes one HyperParams, or one per seed that differ in teacher_weight only")
    try:
        return _run_stack(stream, lanes, list(seeds), list(c0s), dict(config_echo or {}))
    except TrainingDivergedError as err:
        err.records = run_stream(stream, lanes[: err.lane], seeds[: err.lane], c0s[: err.lane], config_echo) if err.lane else []
        raise


def _run_stack(stream, lanes: list, seeds: list, c0s: list, config_echo: dict) -> list[RunRecord]:
    hyper, weights = lanes[0], losses.LanePlan(np.array([h.teacher_weight for h in lanes], dtype=np.float64))  # None: NaN
    n, iterations = stream.n_tasks, hyper.iterations_per_task
    matrices = [np.zeros((n + 1, n)) for _ in seeds]
    zero_shot: dict = {}  # one evaluation per distinct initial model: `cli` hands every lane the same one
    for matrix, c0 in zip(matrices, c0s):
        if id(c0) not in zero_shot:
            zero_shot[id(c0)] = evaluate_row(c0, stream, 0)
        matrix[0] = zero_shot[id(c0)]

    student = stack(c0s)
    c0 = c0s[0] if all(c is c0s[0] for c in c0s) else snapshot(stack(c0s))  # a model all seeds share stays one
    use_wc = hyper.enable_wc and stream.mode == "multi_domain"
    log = np.empty((len(seeds), n * iterations, len(losses.LossBreakdown.FIELDS) + 3))  # RunRecord.losses of each seed
    checkpoints: list = [[] for _ in seeds]
    c_prev = snapshot(student)
    for i, task in enumerate(stream.tasks, start=1):
        wc_reference = c_prev.parameters().flat if use_wc else None
        result = train_task(student, c0, c_prev, task, hyper, seeds, weights, wc_reference)
        c_prev = result.final
        rows = slice((i - 1) * iterations, i * iterations)
        log[:, rows, 0], log[:, rows, 1], log[:, rows, 2:] = task.task_id, np.arange(1, iterations + 1), result.losses.transpose(1, 0, 2)
        for matrix, seed_checkpoints, checkpoint in zip(matrices, checkpoints, result.checkpoints):
            seed_checkpoints.append(checkpoint)
            matrix[i] = evaluate_row(checkpoint, stream, i)
    return [
        RunRecord(matrix=matrix, losses=log[s], checkpoints=ckpts, config_echo=config_echo, seed=seed)
        for s, (seed, matrix, ckpts) in enumerate(zip(seeds, matrices, checkpoints))
    ]


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

    header = ",".join(["task", "iteration", *losses.LossBreakdown.FIELDS, "r0_mean"])
    rows = (  # formatted one at a time as they are written
        ",".join([str(int(task)), str(int(iteration)), *map(format_float, values), "" if math.isnan(r0) else format_float(r0)])
        for task, iteration, *values, r0 in map(np.ndarray.tolist, record.losses)
    )
    write_lines(itertools.chain([header], rows), os.path.join(out_dir, "losses.csv"))
