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

Everything is a pure function of (config, seed): per-purpose RNG streams
are derived from the seed, and per-iteration batch sampling is keyed by
(seed, task, iteration) so any batch can be regenerated independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StreamFormatError
from .jsonutil import write_canonical
from .tensor import Tensor

SCHEMA_VERSION = 1
MODES = ("multi_domain", "class_incremental")

# RNG stream tags; each purpose draws from its own derived generator.
_TAG_FRAME = 11
_TAG_MEANS = 12
_TAG_TRAIN = 13
_TAG_TEST = 14
_TAG_POOL = 15
_TAG_BATCH = 16


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


@dataclass
class StreamConfig:
    mode: str = "multi_domain"
    n_tasks: int = 5
    classes_per_task: int = 5
    d_in: int = 32
    train_per_class: int = 200
    test_per_class: int = 100
    noise_scale: float = 0.3
    mean_scale: float = 1.0
    pretrain_per_class: int = 20
    pretrain_label_noise: float = 0.3
    domain_spread: float = 1.0
    min_domain_separation: float = 0.8
    seed: int = 7

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"stream.mode must be one of {MODES}, got {self.mode!r}")
        for name in ("n_tasks", "classes_per_task"):
            if getattr(self, name) < 2:
                raise ConfigError(f"stream.{name} must be >= 2, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"stream.seed must be >= 0, got {self.seed}")
        for name in ("d_in", "train_per_class", "test_per_class", "pretrain_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"stream.{name} must be >= 1, got {getattr(self, name)}")
        if self.noise_scale < 0 or self.mean_scale <= 0:
            raise ConfigError("stream.noise_scale must be >= 0 and stream.mean_scale > 0")
        if not 0.0 <= self.pretrain_label_noise <= 1.0:
            raise ConfigError(f"stream.pretrain_label_noise must lie in [0, 1], got {self.pretrain_label_noise}")
        if self.mode == "multi_domain" and self.min_domain_separation < 0:
            raise ConfigError("stream.min_domain_separation must be >= 0")


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

    def images_by_class(self) -> dict[int, np.ndarray]:
        return {c.class_id: self.train_x[self.train_y == c.class_id] for c in self.classes}


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

    def all_classes(self) -> list:
        return [c for task in self.tasks for c in task.classes]


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
        means = [
            [rotations[t] @ base_means[t][k] + offsets[t] for k in range(config.classes_per_task)]
            for t in range(config.n_tasks)
        ]
        worst = np.inf
        for a in range(config.n_tasks):
            for b in range(a + 1, config.n_tasks):
                for ma in means[a]:
                    for mb in means[b]:
                        worst = min(worst, float(np.linalg.norm(ma - mb)))
        if config.n_tasks == 1 or worst >= config.min_domain_separation:
            return [(rotations[t], offsets[t]) for t in range(config.n_tasks)]
        spread *= 1.3
    raise ConfigError(
        "could not satisfy min_domain_separation; lower the floor or raise domain_spread"
    )


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
    config.validate()
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
    for c in all_classes:
        rng = _rng(seed, _TAG_POOL, c.class_id)
        x = c.mean + c.noise_scale * rng.normal(size=(config.pretrain_per_class, c.mean.size))
        label = np.full(config.pretrain_per_class, c.token_id, dtype=np.int64)
        flip = rng.random(config.pretrain_per_class) < config.pretrain_label_noise
        others = tokens[tokens != c.token_id]
        if others.size:
            label[flip] = rng.choice(others, size=int(flip.sum()))
        xs.append(x)
        ys.append(label)
    return np.concatenate(xs), np.concatenate(ys)


def batches(task: TaskSpec, batch_size: int, seed: int, iterations: int):
    """Yield `iterations` batches sampled with replacement from task.train.

    Each batch is (images, class ids, row indices into task.train_x).
    Batch i is a pure function of (seed, task_id, i): regenerating the
    stream and re-running gives identical batches.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = task.train_x.shape[0]
    for it in range(1, iterations + 1):
        rng = _rng(seed, _TAG_BATCH, task.task_id, it)
        idx = rng.integers(0, n, size=batch_size)
        yield Tensor(task.train_x[idx]), task.train_y[idx], idx


# ---------------------------------------------------------------------------
# serialization


def save_stream(stream: StreamSpec, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "mode": stream.mode,
        "seed": stream.seed,
        "dims": {"d_in": stream.d_in},
        "pretrain_pool": {
            "x": stream.pretrain_x.tolist(),
            "token_ids": stream.pretrain_tokens.tolist(),
        },
        "tasks": [
            {
                "task_id": task.task_id,
                "classes": [
                    {
                        "class_id": c.class_id,
                        "token_id": c.token_id,
                        "mean": c.mean.tolist(),
                        "noise_scale": float(c.noise_scale),
                        "domain_id": c.domain_id,
                    }
                    for c in task.classes
                ],
                "train": {
                    "x": task.train_x.tolist(),
                    "class_ids": task.train_y.tolist(),
                },
                "test": {
                    "x": task.test_x.tolist(),
                    "class_ids": task.test_y.tolist(),
                },
            }
            for task in stream.tasks
        ],
    }
    write_canonical(doc, path)


_NUMBERS = frozenset((int, float))
_INTEGERS = frozenset((int,))


def _first_outside(values: list, types: frozenset) -> int | None:
    """Index of the first element whose exact type is not in `types`, or None.

    JSON decoding gives exact types (a bool is a `bool`, never an `int`), so
    one set check clears a whole list; only a list that fails it is walked.
    """
    if types.issuperset(map(type, values)):
        return None
    return next(j for j, v in enumerate(values) if type(v) not in types)


def _array(values: list, dtype, name: str) -> np.ndarray:
    try:
        out = np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise StreamFormatError(f"field {name} holds a number out of {np.dtype(dtype).name} range") from exc
    if not np.isfinite(out).all():
        raise StreamFormatError(f"field {name} holds a non-finite number")
    return out


class _Reader:
    """Schema walker that names the offending field on any mismatch.

    Lists of numbers are checked a row at a time and converted with one
    `np.array`.
    """

    def __init__(self, doc):
        self.doc = doc

    def get(self, obj, key, kind, where):
        if not isinstance(obj, dict) or key not in obj:
            raise StreamFormatError(f"missing field {where}{key}")
        value = obj[key]
        if kind is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise StreamFormatError(f"field {where}{key} must be a number")
            return float(value)
        if kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise StreamFormatError(f"field {where}{key} must be an integer")
            return value
        if kind is str:
            if not isinstance(value, str):
                raise StreamFormatError(f"field {where}{key} must be a string")
            return value
        if kind is list:
            if not isinstance(value, list):
                raise StreamFormatError(f"field {where}{key} must be a list")
            return value
        if kind is dict:
            if not isinstance(value, dict):
                raise StreamFormatError(f"field {where}{key} must be an object")
            return value
        raise AssertionError(kind)

    def matrix(self, obj, key, width, where):
        rows = self.get(obj, key, list, where)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != width:
                raise StreamFormatError(f"field {where}{key}[{i}] must be a list of {width} numbers")
            j = _first_outside(row, _NUMBERS)
            if j is not None:
                raise StreamFormatError(f"field {where}{key}[{i}][{j}] must be a number")
        return _array(rows, np.float64, where + key).reshape(len(rows), width)

    def int_list(self, obj, key, where):
        values = self.get(obj, key, list, where)
        i = _first_outside(values, _INTEGERS)
        if i is not None:
            raise StreamFormatError(f"field {where}{key}[{i}] must be an integer")
        return _array(values, np.int64, where + key)

    def vector(self, obj, key, width, where):
        values = self.get(obj, key, list, where)
        if len(values) != width:
            raise StreamFormatError(f"field {where}{key} must be a list of {width} numbers")
        i = _first_outside(values, _NUMBERS)
        if i is not None:
            raise StreamFormatError(f"field {where}{key}[{i}] must be a number")
        return _array(values, np.float64, where + key)


def load_stream(path) -> StreamSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    r = _Reader(doc)
    version = r.get(doc, "schema_version", int, "")
    if version != SCHEMA_VERSION:
        raise StreamFormatError(f"field schema_version: unsupported value {version}")
    mode = r.get(doc, "mode", str, "")
    if mode not in MODES:
        raise StreamFormatError(f"field mode: must be one of {MODES}, got {mode!r}")
    seed = r.get(doc, "seed", int, "")
    dims = r.get(doc, "dims", dict, "")
    d_in = r.get(dims, "d_in", int, "dims.")

    pool = r.get(doc, "pretrain_pool", dict, "")
    pool_x = r.matrix(pool, "x", d_in, "pretrain_pool.")
    pool_tokens = r.int_list(pool, "token_ids", "pretrain_pool.")
    if pool_x.shape[0] != pool_tokens.size:
        raise StreamFormatError("field pretrain_pool: x and token_ids lengths differ")

    tasks = []
    for ti, task_doc in enumerate(r.get(doc, "tasks", list, "")):
        where = f"tasks[{ti}]."
        task_id = r.get(task_doc, "task_id", int, where)
        classes = []
        for ci, class_doc in enumerate(r.get(task_doc, "classes", list, where)):
            cwhere = f"{where}classes[{ci}]."
            classes.append(
                ClassSpec(
                    class_id=r.get(class_doc, "class_id", int, cwhere),
                    token_id=r.get(class_doc, "token_id", int, cwhere),
                    mean=r.vector(class_doc, "mean", d_in, cwhere),
                    noise_scale=r.get(class_doc, "noise_scale", float, cwhere),
                    domain_id=r.get(class_doc, "domain_id", int, cwhere),
                )
            )
        train = r.get(task_doc, "train", dict, where)
        test = r.get(task_doc, "test", dict, where)
        train_x = r.matrix(train, "x", d_in, where + "train.")
        train_y = r.int_list(train, "class_ids", where + "train.")
        test_x = r.matrix(test, "x", d_in, where + "test.")
        test_y = r.int_list(test, "class_ids", where + "test.")
        if train_x.shape[0] != train_y.size:
            raise StreamFormatError(f"field {where}train: x and class_ids lengths differ")
        if test_x.shape[0] != test_y.size:
            raise StreamFormatError(f"field {where}test: x and class_ids lengths differ")
        tasks.append(
            TaskSpec(task_id=task_id, classes=classes, train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y)
        )
    if not tasks:
        raise StreamFormatError("field tasks: must contain at least one task")
    return StreamSpec(mode=mode, seed=seed, d_in=d_in, pretrain_x=pool_x, pretrain_tokens=pool_tokens, tasks=tasks)
