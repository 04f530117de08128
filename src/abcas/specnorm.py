"""Spectral weight normalization with an external multiplier.

A wrapped layer uses the effective weight ``W' = m * W / sigma_hat``
where ``sigma_hat`` comes from persistent power iteration and ``m`` is
supplied from outside (a fixed value, or the adaptive controller). The
backward pass treats the estimated singular vectors ``u, v`` as
constants; the finite-difference oracle in the tests is the binding
correctness criterion for that convention.

Biases are never normalized: they do not affect the Lipschitz constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PowerIterState, init_power_iter_state, power_iteration_step, reshape_conv_weight
from .nn import NetworkSpec, ParamStore

__all__ = [
    "EPS_DIV",
    "SpectralLayerState",
    "apply_norm_backward",
    "backward_through_norm",
    "init_spectral_states",
    "normalized_weight",
    "refresh",
    "weight_as_matrix",
]

# sigma estimates below this mean the weight is effectively zero; scaling
# by m / EPS_DIV would explode, so such layers pass W through unscaled.
EPS_DIV = 1e-12

_NORMALIZABLE = ("dense", "conv2d")


@dataclass
class SpectralLayerState:
    """Power-iteration state plus the multiplier and degeneracy of this step."""

    power: PowerIterState
    m: float = 1.0
    degenerate: bool = False


def weight_as_matrix(W: np.ndarray) -> np.ndarray:
    """2-d view of a weight: dense matrices pass through, conv kernels flatten."""
    if W.ndim == 2:
        return W
    return reshape_conv_weight(W)


def init_spectral_states(spec: NetworkSpec, store: ParamStore, seed) -> dict[int, SpectralLayerState]:
    """One state per layer flagged ``normalized``, with seeded unit-norm u."""
    prefix = list(seed) if isinstance(seed, (tuple, list)) else [int(seed)]
    states: dict[int, SpectralLayerState] = {}
    for i, layer in enumerate(spec.layers):
        if not layer.normalized:
            continue
        if layer.kind not in _NORMALIZABLE:
            raise ValueError(f"layer {i} ({layer.kind}) cannot be spectrally normalized")
        rows = store.params[i]["W"].shape[0]
        states[i] = SpectralLayerState(power=init_power_iter_state(rows, prefix + [i]))
    return states


def normalized_weight(W: np.ndarray, state: SpectralLayerState) -> np.ndarray:
    """Effective weight ``m * W / sigma_hat`` for the current step.

    Requires a power-iteration step this training step. A degenerate
    estimate (sigma below EPS_DIV) returns W unscaled and flags the
    layer instead of dividing by the floor.
    """
    sigma = state.power.sigma_hat
    if sigma < EPS_DIV:
        state.degenerate = True
        return W
    state.degenerate = False
    return (state.m / sigma) * W


def refresh(states: dict[int, SpectralLayerState], store: ParamStore, m: float,
            power_steps: int = 1) -> dict[int, np.ndarray]:
    """Advance power iteration and compute every layer's effective weight.

    Called once per training step (the per-layer sigma is computed once
    per loop body). Leaves u, v, sigma and m in each state for the
    backward pass, which reads W from the store: W must not change between.
    """
    effective: dict[int, np.ndarray] = {}
    for i, state in states.items():
        W = store.params[i]["W"]
        Wm = weight_as_matrix(W)
        for _ in range(power_steps):
            state.power = power_iteration_step(Wm, state.power)
        state.m = float(m)
        effective[i] = normalized_weight(W, state)
    return effective


def backward_through_norm(state: SpectralLayerState, W: np.ndarray,
                          grad_wrt_eff: np.ndarray) -> np.ndarray:
    """Map dL/dW' to dL/dW with u, v held constant; ``W`` is the stored weight.

    With sigma = u^T W v treated as a function of W only through the
    explicit W (u, v frozen):

        dL/dW = (m / sigma) * G - (m / sigma^2) * <G, W> * u v^T

    For a degenerate layer W' = W and the gradient passes through.
    """
    if state.degenerate:
        return grad_wrt_eff
    pw = state.power
    if pw.v is None:
        raise RuntimeError("backward_through_norm requires the same-step refresh")
    Wm = weight_as_matrix(W)
    G = grad_wrt_eff.reshape(Wm.shape)
    sigma = pw.sigma_hat
    inner = float(np.sum(np.asarray(G, dtype=np.float64) * Wm))
    dW = (state.m / sigma) * G - (state.m * inner / sigma**2) * np.outer(pw.u, pw.v)
    return dW.reshape(grad_wrt_eff.shape).astype(grad_wrt_eff.dtype, copy=False)


def apply_norm_backward(states: dict[int, SpectralLayerState], store: ParamStore) -> None:
    """Convert accumulated dL/dW' gradients into dL/dW, in place."""
    for i, state in states.items():
        g = store.grads[i]["W"]
        g[...] = backward_through_norm(state, store.params[i]["W"], g)
