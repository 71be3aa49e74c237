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

import numpy as np

from .errors import ContractError
from .tensor import Tensor, row_dots


def _normalized(means: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """[n, d] `means` over their norms, row i of class position positions[i]; the first zero row raises."""
    norms = np.sqrt(row_dots(means))  # math.sqrt(vec.dot(vec)) per row, np.linalg.norm's formula
    if 0.0 in norms:
        raise ContractError(f"class position {positions[np.argmax(norms == 0.0)]}: feature mean has zero norm")
    return means / norms[:, None]


class PrototypeStore:
    """One unit prototype per class (and seed of a stack), as the rows of `rows` in the task's class order, plus the gamma schedule."""

    def __init__(self, rows, gamma0: float = 0.0, gamma_step: float = 0.04, gamma_max: float = 0.98):
        self.rows = np.array(rows, dtype=np.float64, order="C")  # C order: `ema_update` writes through a flat view
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
        means = []
        for position, images in enumerate(images_by_class):
            images = np.asarray(images, dtype=np.float64)
            if images.ndim != 2 or images.shape[0] == 0:
                raise ContractError(f"class position {position}: need a non-empty [n, d_in] image block")
            means.append(c0.encode_images(images).data.mean(axis=-2))
        if not means:
            raise ContractError("init_from_model: no classes")
        means = np.stack(means)  # [K, *the model's seed axis, d]
        positions = np.arange(len(means)).repeat(means[0].size // means.shape[-1])
        rows = np.moveaxis(_normalized(means.reshape(-1, means.shape[-1]), positions).reshape(means.shape), 0, -2)
        return cls(np.broadcast_to(rows, lead + rows.shape[-2:]), gamma0=gamma0, gamma_step=gamma_step, gamma_max=gamma_max)

    def matrix(self) -> Tensor:
        """The prototypes, row k for class position k, as a constant tensor of its own."""
        return Tensor(self.rows.copy())

    def ema_update(self, feats: np.ndarray, positions: np.ndarray) -> None:
        """Blend each present class's prototype toward its mean over the batch rows `feats[positions == k]`.

        Seed s of a stack ([S, B, d] feats, [S, B] positions) updates its own
        rows. All classes and seeds share the call's gamma; the schedule then
        advances once. A position outside the rows, or a blend of zero norm, is
        refused before any write. One scatter-add sums each (seed, class) cell's
        rows in batch order from -0.0 (x + -0.0 is x), the sums of the loop over
        cells this replaced (np.add.reduce per block), so every bit is the loop's.
        """
        k, d = self.rows.shape[-2:]
        by_seed = positions.reshape(-1, positions.shape[-1])
        if by_seed.size and (np.minimum.reduce(by_seed, axis=None) < 0 or np.maximum.reduce(by_seed, axis=None) >= k):
            present = [sorted(set(seed_positions)) for seed_positions in by_seed.tolist()]
            raise ContractError(f"ema_update: class positions must lie in [0, {k}), got {present}")
        rows = self.rows.reshape(-1, d)  # a view: the store is C-contiguous
        cells = (by_seed + np.arange(0, rows.shape[0], k)[:, None]).reshape(-1)  # seed s, position p: cell s * K + p
        sums = np.full(rows.size, -0.0)  # element by element: numpy's 1-D `at` loop is the fast one
        np.add.at(sums, (cells[:, None] * d + np.arange(d)).reshape(-1), feats.reshape(-1))
        counts = np.bincount(cells, minlength=rows.shape[0])
        present, g = counts.nonzero()[0], self.gamma
        rows[present] = _normalized(g * rows[present] + (1.0 - g) * (sums.reshape(rows.shape)[present] / counts[present, None]), present % k)
        self._updates += 1
