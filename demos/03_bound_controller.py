"""Controller response to synthetic critic-gap sequences.

Feeds hand-made dist profiles through the running average and prints how
the restriction exponent r and the multiplier m = 0.9^r react: a large
sustained gap tightens the bound, overlap relaxes it back toward m = 1.
The running average (alpha = 0.9999) makes the response deliberately slow.
"""

import numpy as np

from abcas.controller import AbcasState, target_multiplier

print("the pure map from averaged distance to (r, m), beta = 4:")
print("  dm      r         m")
for dm in (0.0, 0.5, 1.0, 2.0, 3.0, 3.9, 8.0):
    r, m = target_multiplier(dm, 4.0)
    print(f"  {dm:4.1f}   {r:7.3f}   {m:.4f}")
print()

# a gap that opens for a while, then the distributions overlap again
profile = [("wide gap (dist = 6)", 6.0, 15000), ("overlap (dist = -0.5)", -0.5, 15000)]
state = AbcasState(beta=4.0)
print("simulated training, controller updates on odd steps only:")
for label, dist, steps in profile:
    for _ in range(steps // 2):  # one call per discriminator step
        # craft critic batches realizing the wanted gap
        state.observe_and_update(np.array([dist]), np.array([0.0]))
    print(f"after {steps:6d} steps of {label:22s}: dm = {state.dm:7.4f}  "
          f"r = {state.r:6.4f}  m = {state.m:.4f}")

print()
print("fixed mode never moves:")
fixed = AbcasState(mode="fixed", m0=0.7)
for _ in range(1000 // 2):
    fixed.observe_and_update(np.array([100.0]), np.array([-100.0]))
print(f"after 1000 steps of huge gaps: r = {fixed.r}, m = {fixed.m}")
