"""Per-class prototypes: unit vectors tracking class feature means.

A store holds one task's prototypes as one [K, d] array, row k for the
task's k-th class (its position in `task.class_ids`); a stack's is
[S, K, d], slice s for seed s. It is seeded at task start from the
initial model's features and then pulled toward the student's current
features by an exponential moving average whose smoothing factor ramps
up over iterations:

    p <- normalize(gamma * p + (1 - gamma) * batch_class_mean)
    gamma <- min(gamma + gamma_step, gamma_max)

gamma advances once per update call, not once per class or seed, so
splitting one update into per-class calls only differs through the
schedule. Prototypes live outside the autodiff graph: updates read plain
feature arrays, and `matrix` hands out a constant copy that later
updates do not reach.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .tensor import Tensor


def _normalize(vec: np.ndarray, position) -> np.ndarray:
    norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's formula for a 1-D vector
    if norm == 0.0:
        raise ContractError(f"class position {position}: feature mean has zero norm")
    return vec / norm


class PrototypeStore:
    """One unit prototype per class (and seed of a stack), as the rows of `rows` in the task's class order, plus the gamma schedule."""

    def __init__(self, rows, gamma0: float = 0.0, gamma_step: float = 0.04, gamma_max: float = 0.98):
        self.rows = np.array(rows, dtype=np.float64)
        self._gamma0 = float(gamma0)
        self.gamma_step = float(gamma_step)
        self.gamma_max = float(gamma_max)
        self._updates = 0

    @property
    def gamma(self) -> float:
        # closed form, not accumulation: gamma after k updates is exactly
        # min(gamma0 + k*step, cap), immune to repeated-addition drift
        return min(self._gamma0 + self._updates * self.gamma_step, self.gamma_max)

    @classmethod
    def init_from_model(
        cls,
        c0,
        images_by_class: list,
        lead: tuple = (),
        gamma0: float = 0.0,
        gamma_step: float = 0.04,
        gamma_max: float = 0.98,
    ) -> "PrototypeStore":
        """Seed prototype k with `c0`'s normalized mean over `images_by_class[k]`: a frozen stack's
        per seed (its seed axis is `lead`), or one model's, copied to every seed of `lead`."""
        rows = []
        for position, images in enumerate(images_by_class):
            images = np.asarray(images, dtype=np.float64)
            if images.ndim != 2 or images.shape[0] == 0:
                raise ContractError(f"class position {position}: need a non-empty [n, d_in] image block")
            mean = c0.encode_images(images).data.mean(axis=-2)
            rows.append(np.reshape([_normalize(vec, position) for vec in mean.reshape(-1, mean.shape[-1])], mean.shape))
        if not rows:
            raise ContractError("init_from_model: no classes")
        rows = np.broadcast_to(np.stack(rows, axis=-2), lead + (len(rows), rows[0].shape[-1]))
        return cls(rows, gamma0=gamma0, gamma_step=gamma_step, gamma_max=gamma_max)

    def matrix(self) -> Tensor:
        """The prototypes, row k for class position k, as a constant tensor of its own."""
        return Tensor(self.rows.copy())

    def ema_update(self, feats: np.ndarray, positions: np.ndarray) -> None:
        """Blend each present class's prototype toward its mean over the batch rows `feats[positions == k]`.

        Seed s of a stack ([S, B, d] feats, [S, B] positions) updates its own
        rows. All classes and seeds share the call's gamma; the schedule then
        advances once. A position outside the rows is refused before any write.
        """
        k, d = self.rows.shape[-2:]
        by_seed = positions.reshape(-1, positions.shape[-1])
        present = [sorted(set(seed_positions)) for seed_positions in by_seed.tolist()]
        if any(seen and (seen[0] < 0 or seen[-1] >= k) for seen in present):
            raise ContractError(f"ema_update: class positions must lie in [0, {k}), got {present}")
        g = self.gamma
        for rows, seed_feats, seed_positions, seen in zip(self.rows.reshape(-1, k, d), feats.reshape(-1, *feats.shape[-2:]), by_seed, present):
            for position in seen:
                block = seed_feats[seed_positions == position]
                mean = np.add.reduce(block, axis=0) / block.shape[0]  # block.mean(axis=0) without its Python wrapper
                rows[position] = _normalize(g * rows[position] + (1.0 - g) * mean, position)
        self._updates += 1
