"""The Dirac-GAN: the smallest regime where the spectral-norm bound visibly acts.

The target is one point x* = (0.5, 0), the generator G(z) = Wz + b (b plays
the generated point) and the critic one spectrally normalized dense layer
(Mescheder et al., arXiv 1801.04406). Unregularized gradient play does not
converge here: G orbits the point. Five arms run one seed each, and the
table reports G's distance |b - x*| over the second half of the run and the
multiplier m at the end. Takes a couple of seconds on one core.
"""

import numpy as np

from abcas.nn import NetworkSpec, dense
from abcas.train import TrainConfig, TrainHooks, eval_baseline, run_training

STEPS = 4000
TARGET = np.float32([0.5, 0.0])
data = np.tile(TARGET, (256, 1))
g_spec = NetworkSpec((1,), [dense(1, 2)])
d_spec = NetworkSpec((2,), [dense(2, 1, normalized=True)])

arms = [("SN (m = 1)", dict(mode="fixed", m=1.0)),
        ("fixed m = 0.5", dict(mode="fixed", m=0.5)),
        ("fixed m = 0.25", dict(mode="fixed", m=0.25)),
        ("adaptive beta 0.02", dict(mode="adaptive", beta=0.02)),
        ("adaptive beta 0.005", dict(mode="adaptive", beta=0.005))]

print(f"{STEPS} steps, seed 0; distance |b - x*| over steps {STEPS // 2}..{STEPS}")
print("arm                   mean dist  max dist  final m")
for label, arm in arms:
    cfg = TrainConfig(steps=STEPS, batch_size=16, lr_d=5e-3, lr_g=5e-3, beta1=0.0,
                      alpha=0.999, seed=0, eval_every=10, latent_dim=1, eval_samples=16, **arm)
    dists, records = [], []

    def on_eval(step, g_store, d_store):
        if step >= STEPS // 2:
            dists.append(np.linalg.norm(g_store.params[0]["b"].astype(np.float64) - TARGET))

    run_training(cfg, eval_baseline(cfg, data, g_spec), g_spec, d_spec,
                 hooks=TrainHooks(on_record=records.append, on_eval=on_eval))
    print(f"{label:20s}  {np.mean(dists):9.3f}  {max(dists):8.3f}  {records[-1].m:7.3f}")

print()
print("No arm converges: G keeps orbiting the point. One seed cannot rank the arms;")
print("ROADMAP item 24 has 20,000-step runs over three seeds.")
