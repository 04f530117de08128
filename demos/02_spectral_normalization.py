"""Normalized weights: sigma(W') lands on the multiplier m, for any W scale.

W' = m * W / sigma_hat, so the spectral norm of the effective weight is m
up to the power-iteration estimation error, and rescaling W changes
nothing. This is the per-layer mechanism the bound controller drives.
"""

import numpy as np

from abcas.linalg import init_power_iter_state, power_iterate, spectral_norm_exact
from abcas.specnorm import normalized_weight

rng = np.random.default_rng(3)
W = 10.0 * rng.standard_normal((16, 16))
print(f"raw weight: sigma(W) = {spectral_norm_exact(W):.4f}")
print()

state = power_iterate(W, init_power_iter_state(16, seed=4), steps=2000, rel_tol=1e-14)

print("m        sigma(W')")
for m in (1.0, 0.9, 0.8, 0.5):
    print(f"{m:.2f}     {spectral_norm_exact(normalized_weight(W, state, m)):.10f}")

print()
for c in (0.1, 1.0, 250.0):
    state_c = power_iterate(c * W, init_power_iter_state(16, seed=4), steps=2000, rel_tol=1e-14)
    Wp = normalized_weight(c * W, state_c, 0.9)
    print(f"scale c = {c:7.1f}: sigma(normalized(c*W)) = {spectral_norm_exact(Wp):.10f}")
print("scaling the raw weight does not move the normalized one (degree-0 homogeneity)")
