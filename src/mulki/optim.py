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
are flat too, and all parameters share one step count. Every parameter
must have a gradient at each step (training gives each one a gradient
every iteration); a parameter whose grad is None is a ContractError,
raised before anything changes. Every element goes through the same
numpy expressions as a per-parameter loop (tests/reference_ops.py), so
the result is the same bits.

This is the single place in the package that rewrites parameter storage
during training; graphs never span an optimizer step.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ContractError


class AdamW:
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params if isinstance(params, T.Leaves) else T.pack(list(params))
        self.lr = float(lr)
        self.beta1 = float(betas[0])
        self.beta2 = float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.reset_moments()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def reset_moments(self) -> None:
        """Forget all moment estimates, e.g. after parameters jump."""
        self._m = np.zeros_like(self.params.flat)
        self._v = np.zeros_like(self.params.flat)
        self._t = 0

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError(f"AdamW.step: parameter {i} (shape {p.shape}) has no gradient")
        self._t += 1
        grad = self.params.flat_grad()
        theta, m, v = self.params.flat, self._m, self._v
        # the per-parameter expressions term by term, with two scratch buffers (the scaled
        # gradient, later the update; its square, later the denominator)
        if self.weight_decay != 0.0:
            theta *= 1.0 - self.lr * self.weight_decay
        sq = np.multiply(grad, grad)
        sq *= 1.0 - self.beta2
        v *= self.beta2
        v += sq
        g = np.multiply(grad, 1.0 - self.beta1)
        m *= self.beta1
        m += g
        update = np.divide(m, 1.0 - self.beta1**self._t, out=g)
        update *= self.lr
        denom = np.divide(v, 1.0 - self.beta2**self._t, out=sq)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        theta -= update
