"""Synthetic task streams over abstract image-feature vectors.

Two regimes:

  * multi_domain: every task lives in its own affine frame (a random
    rotation plus a translated origin), so tasks are distributionally
    distinct domains. Frames are re-drawn until class means from
    different domains stay above a configured separation floor.
  * class_incremental: one shared frame; the global class set is
    partitioned across tasks.

Each class is an isotropic Gaussian blob around its mean. A small,
label-noisy pretraining pool drawn from every class gives the initial
model genuine but imperfect zero-shot ability on all tasks.

Token id 0 is the shared template token, so class c gets token c + 1.

A stream is drawn from a `config.StreamConfig`, whose every bound and
byte budget were checked when it was built.

Everything is a pure function of (config, seed): per-purpose RNG streams
are derived from the seed, and per-iteration batch sampling is keyed by
(seed, task, iteration) so any batch can be regenerated independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MODES, StreamConfig
from .errors import ConfigError, ContractError
from .jsonutil import is_count, read_framed, write_framed

STREAM_FORMAT_VERSION = 2  # 1 was canonical JSON

# RNG stream tags; each purpose draws from its own derived generator.
_TAG_FRAME = 11
_TAG_MEANS = 12
_TAG_TRAIN = 13
_TAG_TEST = 14
_TAG_POOL = 15
_TAG_BATCH = 16


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


@dataclass(eq=False)
class ClassSpec:
    class_id: int
    token_id: int
    mean: np.ndarray
    noise_scale: float
    domain_id: int


@dataclass(eq=False)
class TaskSpec:
    task_id: int
    classes: list
    train_x: np.ndarray
    train_y: np.ndarray  # global class ids
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def class_ids(self) -> list[int]:
        return [c.class_id for c in self.classes]

    @property
    def token_ids(self) -> list[int]:
        return [c.token_id for c in self.classes]

    def images_by_class(self) -> list[np.ndarray]:
        """Each class's training images, in class order."""
        return [self.train_x[self.train_y == c.class_id] for c in self.classes]


@dataclass(eq=False)
class StreamSpec:
    mode: str
    seed: int
    d_in: int
    pretrain_x: np.ndarray
    pretrain_tokens: np.ndarray
    tasks: list

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def vocab_size(self) -> int:
        """Token table size: template token plus every class token."""
        top = max(c.token_id for task in self.tasks for c in task.classes)
        return top + 1


# ---------------------------------------------------------------------------
# generation


def _domain_frames(config: StreamConfig, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-domain (rotation, offset) pairs honoring the separation floor.

    Offsets are re-drawn with growing spread until every pair of class
    means from different domains is at least min_domain_separation apart.
    """
    d = config.d_in
    rng = _rng(seed, _TAG_FRAME)
    rotations = []
    for _ in range(config.n_tasks):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        rotations.append(q * np.sign(np.diag(r)))

    base_means = _base_means(config, seed)
    spread = config.domain_spread
    for _ in range(40):
        directions = rng.normal(size=(config.n_tasks, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        offsets = directions * spread
        # rotations[t] @ mean + offsets[t] for each class mean, one matrix-vector product per mean as written
        means = np.array([np.matmul(rotations[t], base_means[t][..., None])[..., 0] + offsets[t] for t in range(config.n_tasks)])
        if _separated(means, config.min_domain_separation):
            return [(rotations[t], offsets[t]) for t in range(config.n_tasks)]
        spread *= 1.3
    raise ConfigError(
        "could not satisfy min_domain_separation; lower the floor or raise domain_spread"
    )


def _separated(means: np.ndarray, floor: float) -> bool:
    """Whether every two rows of `means` [domain, class, d] from different domains lie at least `floor` apart.

    The verdict of np.linalg.norm over every cross-domain pair, computing few:
    domains whose bounding balls, or means whose projections on the line
    through the balls' centres, lie `slack` apart (rounding included) are
    farther apart for sure. The rest are compared, nearest projections first.
    """
    slack = floor + 1e-9 * (1.0 + np.abs(means).max())
    centres = means.mean(axis=1)
    radii = np.linalg.norm(means - centres[:, None], axis=-1).max(axis=1)
    for t in range(len(means) - 1):
        lengths = np.linalg.norm(centres[t + 1 :] - centres[t], axis=1)
        for u in t + 1 + np.flatnonzero(lengths - radii[t] - radii[t + 1 :] < slack):
            length = lengths[u - t - 1]
            axis = (centres[u] - centres[t]) / length if length > 0 else np.eye(means.shape[-1])[0]
            near, far = means[t] @ axis, means[u] @ axis
            order = np.argsort(far)
            lo, hi = np.searchsorted(far[order], near - slack), np.searchsorted(far[order], near + slack, side="right")
            for i in np.argsort(-near):
                if lo[i] < hi[i] and np.linalg.norm(means[u][order[lo[i] : hi[i]]] - means[t][i], axis=1).min() < floor:
                    return False
    return True


def _base_means(config: StreamConfig, seed: int) -> list[np.ndarray]:
    """Unit-direction class means scaled by mean_scale, per task."""
    rng = _rng(seed, _TAG_MEANS)
    out = []
    for _ in range(config.n_tasks):
        raw = rng.normal(size=(config.classes_per_task, config.d_in))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        out.append(raw * config.mean_scale)
    return out


def generate_stream(config: StreamConfig, seed: int | None = None) -> StreamSpec:
    seed = config.seed if seed is None else int(seed)
    base_means = _base_means(config, seed)

    if config.mode == "multi_domain":
        frames = _domain_frames(config, seed)
    else:
        frames = [(np.eye(config.d_in), np.zeros(config.d_in))] * config.n_tasks

    tasks = []
    next_class = 0
    for t in range(config.n_tasks):
        rotation, offset = frames[t]
        classes = []
        for k in range(config.classes_per_task):
            mean = rotation @ base_means[t][k] + offset
            classes.append(
                ClassSpec(
                    class_id=next_class,
                    token_id=next_class + 1,
                    mean=mean,
                    noise_scale=config.noise_scale,
                    domain_id=t if config.mode == "multi_domain" else 0,
                )
            )
            next_class += 1
        train_x, train_y = _sample_split(classes, config.train_per_class, seed, _TAG_TRAIN, t)
        test_x, test_y = _sample_split(classes, config.test_per_class, seed, _TAG_TEST, t)
        tasks.append(
            TaskSpec(
                task_id=t + 1,
                classes=classes,
                train_x=train_x,
                train_y=train_y,
                test_x=test_x,
                test_y=test_y,
            )
        )

    pool_x, pool_tokens = _pretrain_pool(tasks, config, seed)
    return StreamSpec(
        mode=config.mode,
        seed=seed,
        d_in=config.d_in,
        pretrain_x=pool_x,
        pretrain_tokens=pool_tokens,
        tasks=tasks,
    )


def _sample_split(classes, per_class: int, seed: int, tag: int, task_index: int):
    xs, ys = [], []
    for c in classes:
        rng = _rng(seed, tag, task_index, c.class_id)
        xs.append(c.mean + c.noise_scale * rng.normal(size=(per_class, c.mean.size)))
        ys.append(np.full(per_class, c.class_id, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


def _pretrain_pool(tasks, config: StreamConfig, seed: int):
    """Few samples per class across every task, with noisy token labels."""
    all_classes = [c for task in tasks for c in task.classes]
    tokens = np.array([c.token_id for c in all_classes], dtype=np.int64)
    xs, ys = [], []
    for position, c in enumerate(all_classes):
        rng = _rng(seed, _TAG_POOL, c.class_id)
        x = c.mean + c.noise_scale * rng.normal(size=(config.pretrain_per_class, c.mean.size))
        label = np.full(config.pretrain_per_class, c.token_id, dtype=np.int64)
        flip = rng.random(config.pretrain_per_class) < config.pretrain_label_noise
        # rng.choice among the other classes' (distinct) tokens, without building that array for every class
        pick = rng.integers(0, len(tokens) - 1, size=int(flip.sum()))
        label[flip] = tokens[pick + (pick >= position)]
        xs.append(x)
        ys.append(label)
    return np.concatenate(xs), np.concatenate(ys)


def batches(task: TaskSpec, batch_size: int, seed: int, iterations: int):
    """Yield `iterations` batches sampled with replacement from task.train.

    Each batch is (images, row indices into task.train_x).
    Batch i is a pure function of (seed, task_id, i): regenerating the
    stream and re-running gives identical batches.
    """
    n = task.train_x.shape[0]
    for it in range(1, iterations + 1):
        rng = _rng(seed, _TAG_BATCH, task.task_id, it)
        idx = rng.integers(0, n, size=batch_size)
        yield task.train_x[idx], idx


# ---------------------------------------------------------------------------
# serialization


def save_stream(stream: StreamSpec, path) -> None:
    """Write the stream's exact samples as a framed file (`jsonutil.write_framed`).

    The manifest holds the format version, mode, seed, d_in, the pool size
    and, per task, [task_id, n_classes, n_train, n_test]; the payload holds
    the arrays `_fields` names, in its order.
    """
    manifest = {
        "format_version": STREAM_FORMAT_VERSION,
        "mode": stream.mode,
        "seed": stream.seed,
        "d_in": stream.d_in,
        "pool": len(stream.pretrain_tokens),
        "tasks": [[task.task_id, len(task.classes), len(task.train_y), len(task.test_y)] for task in stream.tasks],
    }
    arrays = [stream.pretrain_x, stream.pretrain_tokens]
    for task in stream.tasks:
        arrays += [
            np.array(task.class_ids),
            np.array(task.token_ids),
            np.array([c.domain_id for c in task.classes]),
            np.array([c.noise_scale for c in task.classes], dtype=np.float64),
            np.array([c.mean for c in task.classes]),
            task.train_x,
            task.train_y,
            task.test_x,
            task.test_y,
        ]
    write_framed(path, manifest, arrays)


def _fields(d_in: int, pool: int, tasks: list) -> list:
    """(name, dtype, shape) of every payload array, in file order."""
    fields = [("pretrain_pool.x", np.float64, (pool, d_in)), ("pretrain_pool.token_ids", np.int64, (pool,))]
    for i, (_, n_classes, n_train, n_test) in enumerate(tasks):
        where = f"tasks[{i}]."
        fields += [
            (where + "class_ids", np.int64, (n_classes,)),
            (where + "token_ids", np.int64, (n_classes,)),
            (where + "domain_ids", np.int64, (n_classes,)),
            (where + "noise_scales", np.float64, (n_classes,)),
            (where + "means", np.float64, (n_classes, d_in)),
            (where + "train.x", np.float64, (n_train, d_in)),
            (where + "train.class_ids", np.int64, (n_train,)),
            (where + "test.x", np.float64, (n_test, d_in)),
            (where + "test.class_ids", np.int64, (n_test,)),
        ]
    return fields


def load_stream(path) -> StreamSpec:
    """Read a stream written by `save_stream`; any malformed field raises ContractError naming it.

    Every train and test label must be one of its task's (distinct) class ids.
    """
    try:
        manifest, arrays = read_framed(path, "stream")
    except ContractError:
        with open(path, "rb") as fh:
            if fh.read(1) == b"{":
                raise ContractError(f"{path} is JSON, not a framed stream: regenerate it with `mulki generate`") from None
        raise
    version = manifest.get("format_version")
    if type(version) is not int or version != STREAM_FORMAT_VERSION:
        raise ContractError(f"field format_version: unsupported value {version!r}")
    mode = manifest.get("mode")
    if mode not in MODES:
        raise ContractError(f"field mode: must be one of {MODES}, got {mode!r}")
    for key, least in (("seed", 0), ("d_in", 1), ("pool", 0)):
        if not is_count(manifest.get(key)) or manifest[key] < least:
            raise ContractError(f"field {key} must be an integer in [{least}, 2**63), got {manifest.get(key)!r}")
    tasks = manifest.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ContractError("field tasks: must be a non-empty list")
    for i, entry in enumerate(tasks):
        if not isinstance(entry, list) or len(entry) != 4 or not all(map(is_count, entry)) or 0 in entry[1:]:
            raise ContractError(
                f"field tasks[{i}] must be [task_id, n_classes, n_train, n_test], integers in [0, 2**63), the three counts >= 1"
            )

    d_in = manifest["d_in"]
    pool_x, pool_tokens, *rest = arrays(_fields(d_in, manifest["pool"], tasks))
    specs = []
    for i, (task_id, *_) in enumerate(tasks):
        class_ids, token_ids, domain_ids, noise_scales, means, train_x, train_y, test_x, test_y = rest[9 * i : 9 * i + 9]
        if len(set(class_ids.tolist())) != class_ids.size:
            raise ContractError(f"field tasks[{i}].class_ids holds a repeated class id")
        for split, labels in (("train", train_y), ("test", test_y)):
            outside = labels[~np.isin(labels, class_ids)]
            if outside.size:
                raise ContractError(
                    f"field tasks[{i}].{split}.class_ids holds label {outside[0]}, not one of the task's class ids"
                )
        classes = [
            ClassSpec(class_id=int(c), token_id=int(t), mean=m, noise_scale=float(s), domain_id=int(d))
            for c, t, d, s, m in zip(class_ids, token_ids, domain_ids, noise_scales, means)
        ]
        specs.append(TaskSpec(task_id, classes, train_x, train_y, test_x, test_y))
    return StreamSpec(mode, manifest["seed"], d_in, pool_x, pool_tokens, specs)
