"""Adaptive bound control of the spectral-norm multiplier.

The training loop calls the controller once per discriminator step, with
critic batches it has already checked to be finite. The controller takes
the critic gap ``dist = max(C_real) - min(C_fake)``, keeps a running
average ``dm`` with constant ``alpha = 0.9999``, and maps it to a
restriction exponent and multiplier:

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
    how the fixed-m sweep settings run. The arguments are checked by
    :meth:`abcas.train.TrainConfig.validate`.
    """

    beta: float = 4.0
    alpha: float = 0.9999
    mode: str = "adaptive"
    m0: float = 1.0
    r: float = 0.0
    dm: float = 0.0
    m: float = 1.0
    last_dist: float = 0.0

    def __post_init__(self):
        if self.mode == "fixed":
            self.m = self.m0

    def observe_and_update(self, c_real, c_fake) -> None:
        """Feed one discriminator step's finite, non-empty critic batches."""
        self.last_dist = float(c_real.max()) - float(c_fake.min())
        if self.mode == "adaptive":
            self.dm = self.alpha * self.dm + (1.0 - self.alpha) * self.last_dist
            self.r, self.m = target_multiplier(self.dm, self.beta)
