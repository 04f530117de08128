"""Adaptive bound control of the spectral-norm multiplier.

The controller watches the critic gap ``dist = max(C_real) - min(C_fake)``
on discriminator steps, keeps a running average ``dm`` with constant
``alpha = 0.9999``, and maps it to a restriction exponent and multiplier:

    clbr = clamp(dm / beta, 0, 0.98)
    r    = clbr / (1 - clbr)
    m    = 0.9 ** r

A large average gap tightens the bound (larger r, smaller m); when the
distributions overlap (dm <= 0) the controller relaxes fully to m = 1,
i.e. plain spectral normalization. The clamp keeps the map monotone and
bounded once dm approaches or exceeds beta, where the raw formula would
go negative; it caps r at 0.98 / 0.02 = 49.

All controller arithmetic is plain 64-bit, so a logged dist sequence can
be replayed bit-exactly through the two-line recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AbcasState", "CLBR_CAP", "DECAY_BASE", "target_multiplier"]

CLBR_CAP = 0.98
DECAY_BASE = 0.9


def target_multiplier(dm: float, beta: float) -> tuple[float, float]:
    """The pure (dm, beta) -> (r, m) map, clamped as described above."""
    clbr = min(max(dm / beta, 0.0), CLBR_CAP)
    r = clbr / (1.0 - clbr)
    return r, DECAY_BASE ** r


@dataclass
class AbcasState:
    """Controller variables; one instance owned by one training loop.

    ``mode`` is "adaptive" or "fixed". In fixed mode the multiplier stays
    at ``m0`` forever and neither ``r`` nor ``dm`` is updated, which is
    how the fixed-m sweep settings run.
    """

    beta: float = 4.0
    alpha: float = 0.9999
    mode: str = "adaptive"
    m0: float = 1.0
    r: float = 0.0
    dm: float = 0.0
    counter: int = 0
    m: float = 1.0
    last_dist: float = 0.0

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown controller mode {self.mode!r}")
        if self.mode == "fixed":
            if not 0.0 < self.m0 <= 1.0:
                raise ValueError(f"fixed multiplier must be in (0, 1], got {self.m0}")
            self.m = self.m0

    def begin_step(self) -> None:
        """Advance the step counter; called exactly once per training step."""
        self.counter += 1

    def observe_and_update(self, c_real, c_fake) -> None:
        """Feed one batch of critic outputs.

        Only acts on discriminator steps (odd counter); calls on even
        steps validate their inputs but leave the state untouched.
        """
        c_real = np.asarray(c_real)
        c_fake = np.asarray(c_fake)
        if c_real.size == 0 or c_fake.size == 0:
            raise ValueError("empty critic batch")
        if not (np.isfinite(c_real).all() and np.isfinite(c_fake).all()):
            raise ValueError("non-finite critic values")
        if self.counter % 2 == 0:
            return
        dist = float(c_real.max()) - float(c_fake.min())
        self.last_dist = dist
        if self.mode == "fixed":
            return
        self.dm = self.alpha * self.dm + (1.0 - self.alpha) * dist
        self.r, self.m = target_multiplier(self.dm, self.beta)
