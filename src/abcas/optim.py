"""Adam with bias correction.

Defaults follow the training recipe used here: beta1 = 0 (first moment
collapses to the raw gradient) and beta2 = 0.999.
"""

from __future__ import annotations

import numpy as np

from .nn import ParamStore

__all__ = ["Adam"]

EPS = 1e-8  # added to the root of the bias-corrected second moment


class Adam:
    """Adam on ``store.flat``: moments ``m``, ``v`` are flat vectors of the
    same shape, and each step updates the whole vector at once."""

    def __init__(self, store: ParamStore, lr: float, beta1: float = 0.0,
                 beta2: float = 0.999):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.m = np.zeros_like(store.flat)
        self.v = np.zeros_like(store.flat)

    def step(self) -> None:
        """Apply one update from the gradients currently in the store."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        g, m, v, p = self.store.grad_flat, self.m, self.v, self.store.flat
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
