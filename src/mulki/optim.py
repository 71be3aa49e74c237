"""AdamW with decoupled weight decay, operating on Tensor leaves.

Bias-corrected first/second moments, then a multiplicative decay applied
before the moment update each step (so a step with zero gradient and
nonzero decay shrinks parameters, and a step with zero gradient and zero
decay is a no-op).

A step runs element-wise over flat buffers: the parameters are
`tensor.Leaves` (a model's `parameters()`, whose buffer the optimizer
steps in place), or are packed into such a buffer at construction. The
step reads the gradients from the Leaves' flat gradient buffer, where
backward passes write them, without gathering them first. The moments
are flat too; each parameter keeps its own step count. A parameter whose
grad is None is masked out of the step, so its data, moments and step
count stay untouched even under weight decay (no write reaches its
lanes). Every other element goes through the same numpy expressions as a
per-parameter loop (tests/reference_ops.py), so the result is the same
bits.

This is the single place in the package that rewrites parameter storage
during training; graphs never span an optimizer step.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError


class AdamW:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        if lr < 0:
            raise ContractError(f"invalid learning rate {lr}")
        if not 0.0 <= betas[0] < 1.0 or not 0.0 <= betas[1] < 1.0:
            raise ContractError(f"invalid betas {betas}")
        self.params = params if isinstance(params, T.Leaves) else T.pack(list(params))
        self.lr = float(lr)
        self.beta1 = float(betas[0])
        self.beta2 = float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._sizes = [p.size for p in self.params]
        self.reset_moments()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def reset_moments(self) -> None:
        """Forget all moment estimates, e.g. after parameters jump."""
        self._m = np.zeros_like(self.params.flat)
        self._v = np.zeros_like(self.params.flat)
        self._t = [0] * len(self._sizes)

    def _correction(self, beta: float, live: list):
        """1 - beta**t per parameter: one float when every live parameter shares t, else per element."""
        steps = {t for t, on in zip(self._t, live) if on}
        if len(steps) == 1:
            return 1.0 - beta ** steps.pop()
        return np.repeat([1.0 - beta**t if on else 1.0 for t, on in zip(self._t, live)], self._sizes)

    def step(self) -> None:
        live = [p.grad is not None for p in self.params]
        if not any(live):
            return
        self._t = [t + on for t, on in zip(self._t, live)]
        mask = True if all(live) else np.repeat(live, self._sizes)
        grad = self.params.flat_grad()
        theta, m, v = self.params.flat, self._m, self._v
        # the per-parameter expressions term by term, with two scratch buffers (the scaled
        # gradient, later the update; its square, later the denominator); theta, m and v
        # change in live lanes only, so what masked lanes of the gradient hold never matters
        if self.weight_decay != 0.0:
            np.multiply(theta, 1.0 - self.lr * self.weight_decay, out=theta, where=mask)
        sq = np.multiply(grad, grad)
        np.multiply(sq, 1.0 - self.beta2, out=sq)
        np.multiply(v, self.beta2, out=v, where=mask)
        np.add(v, sq, out=v, where=mask)
        g = np.multiply(grad, 1.0 - self.beta1)
        np.multiply(m, self.beta1, out=m, where=mask)
        np.add(m, g, out=m, where=mask)
        update = np.divide(m, self._correction(self.beta1, live), out=g)
        update *= self.lr
        denom = np.divide(v, self._correction(self.beta2, live), out=sq)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        np.subtract(theta, update, out=theta, where=mask)
