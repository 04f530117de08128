"""Alternating GAN training with adaptive spectral-norm bound control.

Odd steps update the discriminator and feed the controller, even steps
update the generator; the spectral norm of every normalized layer is
re-estimated once per step (one persistent power-iteration step) and the
effective weights m * W / sigma are rebuilt before any forward pass.
Two time scales are realized purely as different learning rates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .controller import AbcasState
from .metrics import (MetricsRecord, median_heuristic_bandwidth, mmd2_unbiased,
                      within_set_mean)
from .nn import NetworkSpec, ParamStore, backward, forward
from .optim import Adam
from .specnorm import apply_norm_backward, init_spectral_states, refresh

__all__ = [
    "NumericAbort",
    "TrainConfig",
    "TrainHooks",
    "d_loss",
    "d_loss_grads",
    "g_loss",
    "g_loss_grad",
    "run_training",
    "sample_latent",
    "sigmoid",
    "softplus",
]


class NumericAbort(RuntimeError):
    """Raised when a loss, critic output or evaluation sample stops being finite."""

    def __init__(self, step: int, last_record: Optional[MetricsRecord], what: str):
        self.step = step
        self.last_record = last_record
        super().__init__(f"non-finite {what} at step {step}")


@dataclass
class TrainConfig:
    steps: int = 1000
    batch_size: int = 16
    lr_d: float = 5e-4
    lr_g: float = 1e-4
    beta1: float = 0.0
    beta2: float = 0.999
    alpha: float = 0.9999
    beta: float = 4.0
    mode: str = "adaptive"
    m: float = 1.0
    seed: int = 0
    eval_every: int = 250
    latent_dim: int = 8
    rectify: bool = False
    eval_samples: int = 1024

    def validate(self) -> None:
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2 (the critic gap needs a max and a min)")
        # comparisons with nan are false, so each check below also rejects nan
        for name in ("lr_d", "lr_g", "beta"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.steps < 0 or self.eval_every < 1 or self.latent_dim < 1:
            raise ValueError("steps, eval_every and latent_dim must be positive")
        if self.eval_samples < 2:
            raise ValueError("eval_samples must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # adaptive runs ignore m, but it is written to the manifest, which
        # must stay a valid config in either mode
        if not 0.0 < self.m <= 1.0:
            raise ValueError(f"m must be in (0, 1], got {self.m}")


# ---------------------------------------------------------------------------
# non-saturating losses (raw pre-sigmoid critic outputs)

def softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + e^t), overflow-safe."""
    t = np.asarray(t)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def sigmoid(t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-t) in float64 from one exp, overflow-safe."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


def d_loss(c_real, c_fake) -> float:
    """mean softplus(-C_real) + mean softplus(C_fake)."""
    c_real = np.asarray(c_real, dtype=np.float64)
    c_fake = np.asarray(c_fake, dtype=np.float64)
    return float(softplus(-c_real).sum() / c_real.size + softplus(c_fake).sum() / c_fake.size)


def d_loss_grads(c_real, c_fake):
    c_real = np.asarray(c_real)
    c_fake = np.asarray(c_fake)
    gr = -sigmoid(-np.asarray(c_real, dtype=np.float64)) / c_real.size
    gf = sigmoid(np.asarray(c_fake, dtype=np.float64)) / c_fake.size
    return gr.astype(c_real.dtype, copy=False), gf.astype(c_fake.dtype, copy=False)


def g_loss(c_fake) -> float:
    """mean softplus(-C_fake)."""
    c_fake = np.asarray(c_fake, dtype=np.float64)
    return float(softplus(-c_fake).sum() / c_fake.size)


def g_loss_grad(c_fake):
    c_fake = np.asarray(c_fake)
    g = -sigmoid(-np.asarray(c_fake, dtype=np.float64)) / c_fake.size
    return g.astype(c_fake.dtype, copy=False)


# ---------------------------------------------------------------------------

@dataclass
class TrainHooks:
    on_record: Optional[Callable[[MetricsRecord], None]] = None
    on_eval: Optional[Callable[[int, ParamStore, ParamStore], None]] = None


def _critic_vector(y: np.ndarray) -> np.ndarray:
    return y.reshape(y.shape[0])


def sample_latent(rng, n: int, g_spec: NetworkSpec) -> np.ndarray:
    """``n`` float32 standard-normal generator inputs, drawn in C order."""
    return rng.standard_normal((n, *g_spec.input_shape)).astype(np.float32)


def run_training(cfg: TrainConfig, dataset: np.ndarray, g_spec: NetworkSpec,
                 d_spec: NetworkSpec, hooks: TrainHooks | None = None) -> list[MetricsRecord]:
    """Run the full loop and return one metrics record per step.

    Row 0 is a pre-training evaluation (the MMD baseline); rows 1..steps
    follow the counter. Losses and the MMD column carry their last
    computed value forward between the steps that refresh them. The MMD
    bandwidth is frozen at step 0 so the column is comparable across the
    run, and the real evaluation set's within-set kernel mean is computed
    once then. Raises :class:`NumericAbort` on the first non-finite loss,
    critic output or generated evaluation sample (step 0's included).
    """
    cfg.validate()
    hooks = hooks or TrainHooks()
    data = np.ascontiguousarray(np.asarray(dataset, dtype=np.float32))
    n_data = len(data)
    if n_data < 1:
        raise ValueError("empty dataset")
    if data.shape[1:] != tuple(d_spec.input_shape):
        raise ValueError(
            f"dataset sample shape {data.shape[1:]} does not match the "
            f"discriminator input {tuple(d_spec.input_shape)}"
        )
    seed = cfg.seed

    g_store = ParamStore(g_spec, seed=(seed, 0))
    d_store = ParamStore(d_spec, seed=(seed, 1))
    d_spectral = init_spectral_states(d_spec, d_store, seed=(seed, 2))
    controller = AbcasState(beta=cfg.beta, alpha=cfg.alpha, mode=cfg.mode, m0=cfg.m)
    opt_g = Adam(g_store, cfg.lr_g, cfg.beta1, cfg.beta2, rectify=cfg.rectify)
    opt_d = Adam(d_store, cfg.lr_d, cfg.beta1, cfg.beta2, rectify=cfg.rectify)
    rng_train = np.random.default_rng([seed, 3])

    # fixed real evaluation sample and frozen bandwidth
    n_eval_real = min(cfg.eval_samples, n_data)
    eval_idx = np.random.default_rng([seed, 4]).choice(n_data, size=n_eval_real, replace=False)
    real_eval = data[eval_idx].reshape(n_eval_real, -1).astype(np.float64)

    def gen_eval_samples(step: int) -> np.ndarray:
        z = sample_latent(np.random.default_rng([seed, 5, step]), cfg.eval_samples, g_spec)
        fake, _ = forward(g_spec, g_store, z)
        return fake.reshape(cfg.eval_samples, -1).astype(np.float64)

    t0 = time.perf_counter()
    fake0 = gen_eval_samples(0)
    if not np.isfinite(fake0).all():
        raise NumericAbort(0, None, "generated evaluation sample")
    bandwidth = median_heuristic_bandwidth(np.vstack([real_eval, fake0]), seed=[seed, 6])
    real_within = within_set_mean(real_eval, bandwidth)
    last_mmd = mmd2_unbiased(real_eval, fake0, bandwidth, x_within=real_within)

    steps_per_epoch = max(1, n_data // cfg.batch_size)
    records: list[MetricsRecord] = []

    def emit(rec: MetricsRecord) -> None:
        records.append(rec)
        if hooks.on_record:
            hooks.on_record(rec)

    emit(MetricsRecord(step=0, epoch=0, d_loss=0.0, g_loss=0.0,
                       dist=controller.last_dist, dm=controller.dm, r=controller.r,
                       m=controller.m, mmd2=last_mmd,
                       wall_ms=(time.perf_counter() - t0) * 1e3))
    if hooks.on_eval:
        hooks.on_eval(0, g_store, d_store)

    def abort(step: int, what: str):
        raise NumericAbort(step, records[-1] if records else None, what)

    last_d = 0.0
    last_g = 0.0
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        controller.begin_step()
        # the step's one multiplier: observe_and_update changes controller.m
        # before the norm backward, which must use the m the forward used
        m = controller.m
        effective = refresh(d_spectral, d_store, m)
        z = sample_latent(rng_train, cfg.batch_size, g_spec)
        x_real = data[rng_train.integers(0, n_data, cfg.batch_size)]

        if controller.counter % 2 == 1:
            x_fake, _ = forward(g_spec, g_store, z)
            y_real, tape_real = forward(d_spec, d_store, x_real, weights=effective)
            y_fake, tape_fake = forward(d_spec, d_store, x_fake, weights=effective)
            # the D update needs no gradient with respect to the samples
            tape_real.input_grad = tape_fake.input_grad = False
            c_real = _critic_vector(y_real)
            c_fake = _critic_vector(y_fake)
            if not (np.isfinite(c_real).all() and np.isfinite(c_fake).all()):
                abort(step, "critic output")
            controller.observe_and_update(c_real, c_fake)
            last_d = d_loss(c_real, c_fake)
            if not math.isfinite(last_d):
                abort(step, "discriminator loss")
            gr, gf = d_loss_grads(c_real, c_fake)
            d_store.zero_grad()
            backward(tape_real, gr.reshape(y_real.shape))
            backward(tape_fake, gf.reshape(y_fake.shape))
            apply_norm_backward(d_spectral, d_store, m)
            opt_d.step()
        else:
            x_fake, tape_g = forward(g_spec, g_store, z)
            y_fake, tape_d = forward(d_spec, d_store, x_fake, weights=effective)
            # G's update needs neither G's input gradient nor D's parameter gradients
            tape_g.input_grad = False
            tape_d.param_grads = False
            c_fake = _critic_vector(y_fake)
            if not np.isfinite(c_fake).all():
                abort(step, "critic output")
            last_g = g_loss(c_fake)
            if not math.isfinite(last_g):
                abort(step, "generator loss")
            g_store.zero_grad()
            dx = backward(tape_d, g_loss_grad(c_fake).reshape(y_fake.shape))
            backward(tape_g, dx)
            opt_g.step()

        if step % cfg.eval_every == 0 or step == cfg.steps:
            fake = gen_eval_samples(step)
            if not np.isfinite(fake).all():
                abort(step, "generated evaluation sample")
            last_mmd = mmd2_unbiased(real_eval, fake, bandwidth, x_within=real_within)
            if hooks.on_eval:
                hooks.on_eval(step, g_store, d_store)

        emit(MetricsRecord(step=step, epoch=step // steps_per_epoch,
                           d_loss=last_d, g_loss=last_g,
                           dist=controller.last_dist, dm=controller.dm,
                           r=controller.r, m=controller.m, mmd2=last_mmd,
                           wall_ms=(time.perf_counter() - t0) * 1e3))
    return records
