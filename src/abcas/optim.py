"""Adam with bias correction, plus an optional variance-rectified update.

Defaults follow the training recipe used here: beta1 = 0 (first moment
collapses to the raw gradient) and beta2 = 0.999. The rectified variant
falls back to a plain momentum step while the second-moment estimate is
still too noisy; it is off by default.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import ParamStore

__all__ = ["Adam"]

EPS = 1e-8  # added to the root of the second moment in the rectified step


class Adam:
    """Adam on ``store.flat``: moments ``m``, ``v`` are flat vectors of the
    same shape, and each step updates the whole vector at once."""

    def __init__(self, store: ParamStore, lr: float, beta1: float = 0.0,
                 beta2: float = 0.999, rectify: bool = False):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.rectify = rectify
        self.t = 0
        self.m = np.zeros_like(store.flat)
        self.v = np.zeros_like(store.flat)

    def step(self) -> None:
        """Apply one update from the gradients currently in the store."""
        self.t += 1
        t = self.t
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        rect = 1.0  # lr * 1.0 == lr, so the plain update is the rectified one unscaled
        if self.rectify:
            rho_inf = 2.0 / (1.0 - b2) - 1.0
            rho_t = rho_inf - 2.0 * t * b2 ** t / bc2
            if rho_t > 4.0:
                rect = math.sqrt(
                    ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                    / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
                )
            else:
                rect = None
        g, m, v, p = self.store.grad_flat, self.m, self.v, self.store.flat
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bc1
        if rect is None:
            p -= self.lr * m_hat
        else:
            p -= self.lr * rect * m_hat / (np.sqrt(v / bc2) + EPS)
