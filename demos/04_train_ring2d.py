"""Desk-scale adaptive training on the 8-mode ring, through the library API.

Runs a few thousand alternating steps and prints the metric trajectory:
losses, the critic gap and its running average, the controller state and
the kernel-MMD distance between real data and generated samples. Takes
a couple of seconds on one core.
"""

from abcas import nn
from abcas.data import generate_ring2d
from abcas.train import TrainConfig, TrainHooks, eval_baseline, run_training

cfg = TrainConfig(steps=3000, batch_size=16, seed=0, eval_every=500,
                  latent_dim=8, mode="adaptive", beta=4.0, eval_samples=512)
data = generate_ring2d(4096, k_modes=8, radius=0.7, sigma=0.05, seed=0)
g_spec = nn.mlp_generator(cfg.latent_dim, [64, 64], 2)
d_spec = nn.mlp_discriminator(2, [64, 64])

records = []
run_training(cfg, eval_baseline(cfg, data, g_spec), g_spec, d_spec,
             hooks=TrainHooks(on_record=records.append))

print("step   d_loss   g_loss   dist     dm        r         m         mmd2")
for rec in records:
    if rec.step % 500 == 0:
        print(f"{rec.step:5d}  {rec.d_loss:7.4f}  {rec.g_loss:7.4f}  "
              f"{rec.dist:7.4f}  {rec.dm:8.5f}  {rec.r:8.6f}  {rec.m:.6f}  {rec.mmd2:.5f}")

start, final = records[0].mmd2, records[-1].mmd2
print()
print(f"mmd2 went from {start:.5f} to {final:.5f} "
      f"({'improved' if final < start else 'did not improve'} by {start / max(final, 1e-12):.0f}x)")
