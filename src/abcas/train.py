"""Alternating GAN training with adaptive spectral-norm bound control.

Odd steps update the discriminator and feed the controller, even steps
update the generator; the spectral norm of every normalized layer is
re-estimated once per step (one persistent power-iteration step) and the
effective weights m * W / sigma are rebuilt before any forward pass.
Two time scales are realized purely as different learning rates. Every
evaluation of a conv generator generates its samples in cache-sized
chunks (:func:`generate`), which is exact; a dense generator runs in one.
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
from .nn import NetworkSpec, ParamStore, backward, forward, per_sample, shape_plan
from .optim import Adam
from .specnorm import apply_norm_backward, init_spectral_states, refresh

__all__ = [
    "EVAL_CHUNK_BYTES",
    "EvalBaseline",
    "NumericAbort",
    "TrainConfig",
    "TrainHooks",
    "d_loss",
    "d_loss_grads",
    "eval_baseline",
    "g_loss",
    "g_loss_grad",
    "generate",
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
    eval_samples: int = 1024

    def validate(self) -> None:
        if self.mode not in ("adaptive", "fixed"):
            raise ValueError(f"mode must be adaptive or fixed, got {self.mode!r}")
        # the critic gap takes a max and a min of each batch; the MMD needs two eval samples
        for name, low in (("batch_size", 2), ("steps", 0), ("eval_every", 1),
                          ("latent_dim", 1), ("eval_samples", 2), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        # comparisons with nan are false, so each check below also rejects nan
        for name in ("lr_d", "lr_g", "beta"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
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

def _ignore(*args) -> None:
    pass


@dataclass
class TrainHooks:
    """Callbacks of :func:`run_training`; each defaults to a no-op, and ``None`` is not a hook."""

    on_record: Callable[[MetricsRecord], None] = _ignore
    on_eval: Callable[[int, ParamStore, ParamStore], None] = _ignore


def _critic_vector(y: np.ndarray) -> np.ndarray:
    return y.reshape(y.shape[0])


def sample_latent(rng, n: int, g_spec: NetworkSpec) -> np.ndarray:
    """``n`` float32 standard-normal generator inputs, drawn in C order."""
    return rng.standard_normal((n, *g_spec.input_shape)).astype(np.float32)


@dataclass(frozen=True, eq=False)
class EvalBaseline:
    """The step-0 evaluation, shared by every run with the same inputs.

    ``seed``, ``eval_samples`` and ``g_spec`` are what it was built from,
    and ``data`` is the float32 training set the runs that share it train
    on. The rest is what it holds: the fixed real evaluation set, the MMD
    bandwidth frozen for the whole run so the column stays comparable, the
    real set's within-set kernel mean and the step-0 MMD.
    """

    seed: int
    eval_samples: int
    g_spec: NetworkSpec
    data: np.ndarray
    real_eval: np.ndarray
    bandwidth: float
    real_within: float
    mmd2: float

    def check(self, cfg: TrainConfig, g_spec: NetworkSpec) -> None:
        """Raise ``ValueError`` naming the first input this baseline was not built from."""
        for name in ("seed", "eval_samples"):
            if getattr(self, name) != getattr(cfg, name):
                raise ValueError(f"evaluation baseline was built for {name} "
                                 f"{getattr(self, name)}, not {getattr(cfg, name)}")
        if self.g_spec != g_spec:
            raise ValueError("evaluation baseline was built for another generator spec")


# The most bytes that one chunk of :func:`generate` holds in a conv
# generator's widest layer output. At 256 KB a blobs16 chunk of 64 samples
# keeps its activations and columns within a 2 MB L2 cache.
EVAL_CHUNK_BYTES = 256 * 1024


def generate(g_spec: NetworkSpec, g_store: ParamStore, z: np.ndarray,
             fwd: Callable) -> np.ndarray:
    """The generator's output on the latent batch ``z``, run through ``fwd`` in chunks.

    ``fwd`` is :func:`~abcas.nn.forward` or a wrapper of it. A generator
    that is :func:`~abcas.nn.per_sample` (a conv generator) gives the bits
    of one pass under any chunking; a chunk is as many samples as fit
    :data:`EVAL_CHUNK_BYTES` in the widest layer output, and at least one.
    Any other generator runs ``z`` as one chunk.
    """
    if per_sample(g_spec):
        widest = max(math.prod(shape) for shape in [g_spec.input_shape, *shape_plan(g_spec)])
        chunk = max(1, EVAL_CHUNK_BYTES // (widest * g_store.dtype.itemsize))
    else:
        chunk = len(z)
    return np.concatenate([fwd(g_spec, g_store, z[i:i + chunk])[0]
                           for i in range(0, len(z), chunk)])


def _eval_sample(cfg: TrainConfig, g_spec: NetworkSpec, g_store: ParamStore,
                 step: int) -> np.ndarray:
    """The generator's evaluation sample at ``step``, flattened to float64 rows.

    The latents come from one draw for the whole sample, so the random
    stream does not depend on how :func:`generate` chunks them.
    """
    z = sample_latent(np.random.default_rng([cfg.seed, 5, step]), cfg.eval_samples, g_spec)
    fake = generate(g_spec, g_store, z, forward)
    return fake.reshape(cfg.eval_samples, -1).astype(np.float64)


def eval_baseline(cfg: TrainConfig, dataset: np.ndarray, g_spec: NetworkSpec) -> EvalBaseline:
    """The step-0 evaluation of a run with ``cfg``'s seed and evaluation size.

    It depends on nothing else in ``cfg``, so runs that differ only in
    ``mode``, ``m``, ``beta`` or the optimizer settings can share one.
    Raises :class:`NumericAbort` at step 0 when the initial generator's
    evaluation sample is not finite.
    """
    data = np.ascontiguousarray(np.asarray(dataset, dtype=np.float32))
    if len(data) < 1:
        raise ValueError("empty dataset")
    seed = cfg.seed
    n_eval_real = min(cfg.eval_samples, len(data))
    eval_idx = np.random.default_rng([seed, 4]).choice(len(data), size=n_eval_real, replace=False)
    real_eval = data[eval_idx].reshape(n_eval_real, -1).astype(np.float64)
    fake0 = _eval_sample(cfg, g_spec, ParamStore(g_spec, seed=(seed, 0)), 0)
    if not np.isfinite(fake0).all():
        raise NumericAbort(0, None, "generated evaluation sample")
    bandwidth = median_heuristic_bandwidth(real_eval, fake0, seed=[seed, 6])
    real_within = within_set_mean(real_eval, bandwidth)
    return EvalBaseline(seed, cfg.eval_samples, g_spec, data, real_eval, bandwidth, real_within,
                        mmd2_unbiased(real_eval, fake0, bandwidth, x_within=real_within))


def run_training(cfg: TrainConfig, baseline: EvalBaseline, g_spec: NetworkSpec,
                 d_spec: NetworkSpec, hooks: TrainHooks | None = None) -> ParamStore:
    """Train on ``baseline.data`` and return the trained generator.

    Each step's metrics record goes to ``hooks.on_record`` and is not
    kept. Row 0 is the pre-training evaluation (``baseline``); rows
    1..steps are the training steps. Losses and the MMD column carry their
    last computed value forward between the steps that refresh them. A
    ``baseline`` built from another seed, evaluation size or generator
    spec raises ``ValueError``. Raises :class:`NumericAbort` on the first
    non-finite loss, critic output or generated evaluation sample.

    A D step keeps G's output, not its tape, stacked under the real batch.
    A :func:`~abcas.nn.per_sample` (conv) critic scores all the rows in one
    pass, with the bits of two: its tape's ``parts`` keep the parameter
    gradients' bits too. A dense critic scores them in two passes, real
    rows, then fake.
    """
    cfg.validate()
    hooks = hooks or TrainHooks()
    baseline.check(cfg, g_spec)
    data = baseline.data
    n_data = len(data)
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
    opt_g = Adam(g_store, cfg.lr_g, cfg.beta1, cfg.beta2)
    opt_d = Adam(d_store, cfg.lr_d, cfg.beta1, cfg.beta2)
    rng_train = np.random.default_rng([seed, 3])

    t0 = time.perf_counter()
    last_mmd = baseline.mmd2
    last_d = last_g = 0.0
    steps_per_epoch = max(1, n_data // cfg.batch_size)
    n = cfg.batch_size
    halves = (slice(0, n), slice(n, 2 * n))
    # each D-step critic pass: the rows of the stacked batch it scores, its tape's parts
    d_passes = [(slice(0, 2 * n), halves)] if per_sample(d_spec) else [(s, ()) for s in halves]

    def emit(step: int, t0: float) -> MetricsRecord:
        rec = MetricsRecord(step=step, epoch=step // steps_per_epoch, d_loss=last_d,
                            g_loss=last_g, dist=controller.last_dist, dm=controller.dm,
                            r=controller.r, m=controller.m, mmd2=last_mmd,
                            wall_ms=(time.perf_counter() - t0) * 1e3)
        hooks.on_record(rec)
        return rec

    def abort(step: int, what: str):
        # row 0 is emitted before the first step, so there is always a last row
        raise NumericAbort(step, last, what)

    def score(step: int, x: np.ndarray, effective):
        # the critic's outputs on the batch x, checked finite, and the tape
        y, tape = forward(d_spec, d_store, x, weights=effective)
        c = _critic_vector(y)
        if not np.isfinite(c).all():
            abort(step, "critic output")
        return c, tape

    last = emit(0, t0)
    hooks.on_eval(0, g_store, d_store)
    for step in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        # the step's one multiplier: observe_and_update changes controller.m
        # before the norm backward, which must use the m the forward used
        m = controller.m
        effective = refresh(d_spectral, d_store, m)
        z = sample_latent(rng_train, cfg.batch_size, g_spec)
        # the real batch's indices, drawn every step to keep the random stream; D's step gathers it
        real = rng_train.integers(0, n_data, cfg.batch_size)

        if step % 2 == 1:
            # D needs only G's output: G's tape is freed before the critic runs
            x = np.concatenate((data[real], forward(g_spec, g_store, z)[0]))
            scored = [(rows, parts, *score(step, x[rows], effective)) for rows, parts in d_passes]
            c = np.concatenate([out for _, _, out, _ in scored])
            c_real, c_fake = c[:n], c[n:]
            controller.observe_and_update(c_real, c_fake)
            last_d = d_loss(c_real, c_fake)
            if not math.isfinite(last_d):
                abort(step, "discriminator loss")
            grad = np.concatenate(d_loss_grads(c_real, c_fake))
            d_store.zero_grad()
            for rows, parts, _, tape in scored:
                # the D update needs no gradient with respect to the samples
                tape.parts, tape.input_grad = parts, False
                backward(tape, grad[rows].reshape(tape.out_shape))
            apply_norm_backward(d_spectral, d_store, m)
            opt_d.step()
        else:
            # nothing needs G's input gradient, nor D's parameter gradients
            x_fake, tape_g = forward(g_spec, g_store, z)
            tape_g.input_grad = False
            c_fake, tape_fake = score(step, x_fake, effective)
            tape_fake.param_grads = False
            last_g = g_loss(c_fake)
            if not math.isfinite(last_g):
                abort(step, "generator loss")
            g_store.zero_grad()
            dx = backward(tape_fake, g_loss_grad(c_fake).reshape(tape_fake.out_shape))
            backward(tape_g, dx)
            opt_g.step()

        if step % cfg.eval_every == 0 or step == cfg.steps:
            fake = _eval_sample(cfg, g_spec, g_store, step)
            if not np.isfinite(fake).all():
                abort(step, "generated evaluation sample")
            last_mmd = mmd2_unbiased(baseline.real_eval, fake, baseline.bandwidth,
                                     x_within=baseline.real_within)
            hooks.on_eval(step, g_store, d_store)
        last = emit(step, t0)
    return g_store
