"""Parameter-space integration: the running weight ensemble.

During a task the trainer keeps a running uniform average of parameter
snapshots: the task's starting parameters, then the live parameters
every `interval` iterations. After m averaging events the ensemble
equals the plain mean of those m + 1 vectors, as in stochastic weight
averaging. What the trainer does with the mean (hand it onward at task
end, and under `hyper.ensemble` "ewe" also load it into the live
parameters after every `ewe_eta`-th averaging) is decided in
`runner.train_task`.

The drift penalty (squared distance to the previous task's final
parameters) lives in losses.wc_loss; this module owns the ensemble
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class WEState:
    """Running ensemble over one task's training window.

    theta_hat: current uniform mean of the sampled parameter vectors.
    m:         number of averaging events so far (m = floor(k / interval)
               after iteration k).
    """

    theta_hat: np.ndarray
    m: int
    interval: int

    def __post_init__(self):
        if self.m < 0:
            raise ContractError(f"averaging count must be >= 0, got {self.m}")


def we_init(theta_start: np.ndarray, interval: int) -> WEState:
    """Start an ensemble at a task's initial parameters."""
    theta_start = np.asarray(theta_start, dtype=np.float64)
    return WEState(theta_hat=theta_start.copy(), m=0, interval=int(interval))


def we_step(state: WEState, theta_current: np.ndarray, k: int) -> bool:
    """Fold iteration k's parameters into the ensemble when k hits the interval.

    At the m-th averaging event the update is

        theta_hat <- theta / (m + 1) + theta_hat * m / (m + 1)

    computed in the incremental form theta_hat + (theta - theta_hat)/(m+1)
    so a constant stream is a bitwise fixed point. theta_hat stays the
    uniform mean of the start vector and the m sampled vectors. Returns
    True if an averaging happened.
    """
    if k < 1:
        raise ContractError(f"iteration index must be >= 1, got {k}")
    if k % state.interval != 0:
        return False
    theta_current = np.asarray(theta_current, dtype=np.float64)
    if theta_current.shape != state.theta_hat.shape:
        raise ContractError(
            f"we_step: parameter length changed, {theta_current.shape} vs {state.theta_hat.shape}"
        )
    state.m += 1
    state.theta_hat = state.theta_hat + (theta_current - state.theta_hat) / (state.m + 1)
    return True
