"""Per-class prototypes: unit vectors tracking class feature means.

A store is seeded at task start from the initial model's features and
then pulled toward the student's current features by an exponential
moving average whose smoothing factor ramps up over iterations:

    p <- normalize(gamma * p + (1 - gamma) * batch_class_mean)
    gamma <- min(gamma + gamma_step, gamma_max)

gamma advances once per update call, not once per class, so splitting
one update into per-class calls only differs through the schedule.
Prototypes live outside the autodiff graph; they are buffers, and
feeding non-detached features into an update is a contract violation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DegenerateInputError
from .tensor import Tensor


def _mean_rows(features, what: str) -> np.ndarray:
    if isinstance(features, Tensor):
        if features.requires_grad:
            raise ContractError(f"{what}: features must be detached")
        features = features.data
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ContractError(f"{what}: need a non-empty [n, d] feature block, got shape {arr.shape}")
    return np.add.reduce(arr, axis=0) / arr.shape[0]  # arr.mean(axis=0) without its Python wrapper


def _normalize(vec: np.ndarray, class_id) -> np.ndarray:
    norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's formula for a 1-D vector
    if norm == 0.0:
        raise DegenerateInputError(f"class {class_id}: feature mean has zero norm")
    return vec / norm


class PrototypeStore:
    """Mapping class_id -> unit prototype vector, plus the gamma schedule."""

    def __init__(self, gamma0: float = 0.0, gamma_step: float = 0.04, gamma_max: float = 0.98):
        if not 0.0 <= gamma0 <= gamma_max <= 1.0:
            raise ContractError(f"invalid gamma schedule: start {gamma0}, cap {gamma_max}")
        self._gamma0 = float(gamma0)
        self.gamma_step = float(gamma_step)
        self.gamma_max = float(gamma_max)
        self._updates = 0
        self._protos: dict[int, np.ndarray] = {}

    @property
    def gamma(self) -> float:
        # closed form, not accumulation: gamma after k updates is exactly
        # min(gamma0 + k*step, cap), immune to repeated-addition drift
        return min(self._gamma0 + self._updates * self.gamma_step, self.gamma_max)

    @classmethod
    def init_from_model(
        cls,
        c0,
        images_by_class: dict,
        gamma0: float = 0.0,
        gamma_step: float = 0.04,
        gamma_max: float = 0.98,
    ) -> "PrototypeStore":
        """Seed prototypes with the initial model's normalized class means."""
        store = cls(gamma0=gamma0, gamma_step=gamma_step, gamma_max=gamma_max)
        for class_id, images in images_by_class.items():
            images = np.asarray(images, dtype=np.float64)
            if images.ndim != 2 or images.shape[0] == 0:
                raise ContractError(f"class {class_id}: need a non-empty [n, d_in] image block")
            feats = c0.encode_images(images).data
            store._protos[int(class_id)] = _normalize(feats.mean(axis=0), class_id)
        return store

    @property
    def classes(self) -> list[int]:
        return list(self._protos.keys())

    def __len__(self) -> int:
        return len(self._protos)

    def get(self, class_id: int) -> np.ndarray:
        if class_id not in self._protos:
            raise KeyError(f"no prototype for class {class_id}")
        return self._protos[class_id].copy()

    def matrix(self, class_ids) -> Tensor:
        """Prototypes stacked in the given class order, as a constant tensor."""
        rows = []
        for class_id in class_ids:
            if class_id not in self._protos:
                raise KeyError(f"no prototype for class {class_id}")
            rows.append(self._protos[class_id])
        if not rows:
            raise ContractError("matrix: empty class list")
        return Tensor(np.stack(rows))

    def ema_update(self, features_by_class: dict) -> None:
        """Blend each present class's prototype toward its batch feature mean.

        All classes in the call share the same gamma; the schedule then
        advances once.
        """
        means = {}
        for class_id, feats in features_by_class.items():
            if class_id not in self._protos:
                raise ContractError(f"ema_update: unknown class {class_id}")
            means[class_id] = _mean_rows(feats, f"ema_update class {class_id}")
        g = self.gamma
        for class_id, m in means.items():
            blended = g * self._protos[class_id] + (1.0 - g) * m
            self._protos[class_id] = _normalize(blended, class_id)
        self._updates += 1

    def purge(self) -> None:
        """Drop every prototype and reset gamma; idempotent."""
        self._protos.clear()
        self._updates = 0
