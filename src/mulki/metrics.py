"""Accuracy matrix over a task stream and its four summary metrics.

The matrix has N + 1 rows for an N-task stream: row 0 is the initial
model before any task, row i the model after finishing task i. Column j
is accuracy on task j's test set (columns indexed 1..N below, matching
the written formulas). Row 0 is excluded from every summary.

  transfer     mean over tasks j >= 2 of the accuracy models 1..j-1
               achieve on the not-yet-seen task j
  avg          mean of all entries from rows 1..N
  last         mean of the final row
  current_avg  mean over rows i of the mean over seen tasks j <= i

Prediction is argmax cosine similarity between image embeddings and
candidate class text embeddings. In class_incremental mode the
candidate set is the classes seen up to the evaluated task; in
multi_domain mode it is the task's own classes.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def _as_matrix(values) -> np.ndarray:
    """`values` as an (N + 1) x N float array, its accuracies checked to lie in [0, 1]."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] + 1:
        raise ContractError(f"accuracy matrix must be (N + 1) x N, got {arr.shape}")
    if arr.shape[1] < 1:
        raise ContractError("accuracy matrix needs at least one task")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ContractError("accuracy entries must lie in [0, 1]")
    return arr


def transfer(matrix) -> float:
    """Zero-shot quality on unseen tasks: cells strictly above the diagonal.

    Per task j >= 2, average rows 1..j-1 (models that have not seen j),
    then average over j. Undefined for single-task streams.
    """
    a = _as_matrix(matrix)
    n = a.shape[1]
    if n < 2:
        raise ContractError("transfer needs at least two tasks")
    per_task = []
    for j in range(2, n + 1):
        per_task.append(np.mean([a[i, j - 1] for i in range(1, j)]))
    return float(np.mean(per_task))


def avg(matrix) -> float:
    return float(_as_matrix(matrix)[1:].mean())


def last(matrix) -> float:
    return float(_as_matrix(matrix)[-1].mean())


def current_avg(matrix) -> float:
    """Average over checkpoints of accuracy on the tasks seen so far."""
    a = _as_matrix(matrix)
    n = a.shape[1]
    rows = [a[i, :i].mean() for i in range(1, n + 1)]
    return float(np.mean(rows))


# The summary metrics by name, in report order: metrics.json keys and the
# columns of `report` and of the ablation table.
SUMMARIES = {"transfer": transfer, "avg": avg, "last": last, "current_avg": current_avg}


def summaries(matrix) -> dict:
    return {name: summary(matrix) for name, summary in SUMMARIES.items()}


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, task, candidates: list) -> float:
    """Accuracy of `model` on `task`'s test set.

    `candidates` is the label space, a list of (class_id, token_id) pairs
    (see evaluation_candidates).
    """
    if not candidates:
        raise ContractError("evaluate: empty candidate set")
    if task.test_x.shape[0] == 0:
        raise ContractError("evaluate: empty test set")

    class_ids = np.array([c for c, _ in candidates], dtype=np.int64)
    token_ids = [t for _, t in candidates]

    img = model.encode_images(task.test_x).data
    txt = model.encode_texts(token_ids).data
    img = img / np.linalg.norm(img, axis=1, keepdims=True)
    txt = txt / np.linalg.norm(txt, axis=1, keepdims=True)
    predicted = class_ids[np.argmax(img @ txt.T, axis=1)]
    return float(np.mean(predicted == task.test_y))


def seen_candidates(stream, upto_task_id: int) -> list:
    """(class_id, token_id) pairs for every class in tasks 1..upto_task_id."""
    out = []
    for task in stream.tasks:
        if task.task_id <= upto_task_id:
            out.extend((c.class_id, c.token_id) for c in task.classes)
    if not out:
        raise ContractError(f"no tasks with id <= {upto_task_id}")
    return out


def evaluation_candidates(stream, model_row: int, task) -> list:
    """Candidate set for matrix cell (model_row, task).

    multi_domain: the task's own label space.
    class_incremental: classes of every task up to max(model_row,
    task.task_id), i.e. the classes the model has seen, extended through
    the evaluated task when scoring ahead of training.
    """
    if stream.mode == "multi_domain":
        return [(c.class_id, c.token_id) for c in task.classes]
    return seen_candidates(stream, max(model_row, task.task_id))


def metrics_document(matrix) -> dict:
    """The persisted metrics payload for a finished run; row 0 is the zero-shot row."""
    a = _as_matrix(matrix)
    return {"matrix": a.tolist(), **summaries(a), "zero_shot_row": a[0].tolist()}
