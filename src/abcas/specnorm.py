"""Spectral weight normalization with an external multiplier.

A wrapped layer uses the effective weight ``W' = m * W / sigma_hat``
where ``sigma_hat`` comes from persistent power iteration and ``m`` is
the one multiplier of the current step (a fixed value, or the adaptive
controller's), passed in by the caller. The state of a layer is just its
:class:`~abcas.linalg.PowerIterState`. The backward pass treats the
estimated singular vectors ``u, v`` as constants; the finite-difference
oracle in the tests is the binding correctness criterion for that
convention.

Biases are never normalized: they do not affect the Lipschitz constant.
"""

from __future__ import annotations

import numpy as np

from .linalg import PowerIterState, init_power_iter_state, power_iteration_step
from .nn import ParamStore

__all__ = [
    "EPS_DIV",
    "apply_norm_backward",
    "backward_through_norm",
    "init_spectral_states",
    "normalized_weight",
    "refresh",
]

# sigma estimates below this mean the weight is effectively zero; scaling
# by m / EPS_DIV would explode, so such (degenerate) layers pass W through
# unscaled, in both the forward and the backward pass.
EPS_DIV = 1e-12

_NORMALIZABLE = ("dense", "conv2d")


def init_spectral_states(store: ParamStore, seed) -> dict[int, PowerIterState]:
    """One power-iteration state per ``normalized`` layer of ``store.spec``, with seeded unit-norm u."""
    prefix = list(seed) if isinstance(seed, (tuple, list)) else [int(seed)]
    states: dict[int, PowerIterState] = {}
    for i, layer in enumerate(store.spec.layers):
        if not layer.normalized:
            continue
        if layer.kind not in _NORMALIZABLE:
            raise ValueError(f"layer {i} ({layer.kind}) cannot be spectrally normalized")
        rows = store.params[i]["W"].shape[0]
        states[i] = init_power_iter_state(rows, prefix + [i])
    return states


def normalized_weight(W: np.ndarray, state: PowerIterState, m: float) -> np.ndarray:
    """Effective weight ``m * W / sigma_hat``, or W unscaled if the layer is degenerate.

    ``state`` must come from a power-iteration step on this W. A
    degenerate estimate (sigma below EPS_DIV) returns W instead of
    dividing by the floor.
    """
    sigma = state.sigma_hat
    if sigma < EPS_DIV:
        return W
    return (m / sigma) * W


def refresh(states: dict[int, PowerIterState], store: ParamStore, m: float) -> dict[int, np.ndarray]:
    """Advance power iteration one step and compute every layer's effective weight.

    Called once per training step with that step's multiplier ``m``.
    Leaves u, v and sigma in ``states`` for the backward pass, which reads
    W from the store and must get the same ``m``: W must not change between.
    """
    effective: dict[int, np.ndarray] = {}
    for i, state in states.items():
        W = store.params[i]["W"]
        states[i] = state = power_iteration_step(W.reshape(len(W), -1), state)
        effective[i] = normalized_weight(W, state, m)
    return effective


def backward_through_norm(state: PowerIterState, W: np.ndarray, m: float,
                          grad_wrt_eff: np.ndarray) -> np.ndarray:
    """Overwrite dL/dW' with dL/dW, u, v held constant; ``W`` is the stored weight.

    With sigma = u^T W v treated as a function of W only through the
    explicit W (u, v frozen):

        dL/dW = (m / sigma) * G - (m / sigma^2) * <G, W> * u v^T

    The float64 result is rounded straight into ``grad_wrt_eff``, which
    must be contiguous and is returned. For a degenerate layer W' = W and
    the gradient passes through unchanged.
    """
    sigma = state.sigma_hat
    if sigma < EPS_DIV:
        return grad_wrt_eff
    if state.v is None:
        raise RuntimeError("backward_through_norm requires the same-step refresh")
    Wm = W.reshape(len(W), -1)
    G = grad_wrt_eff.reshape(Wm.shape)
    # float32 products are exact in float64, so this is <G, W> of the float64 values
    inner = float(np.multiply(G, Wm, dtype=np.float64).sum())
    # u v^T by broadcasting, scaled in place
    dW = np.multiply(state.u[:, None], state.v)
    dW *= m * inner / sigma**2
    np.subtract((m / sigma) * G, dW, out=G)
    return grad_wrt_eff


def apply_norm_backward(states: dict[int, PowerIterState], store: ParamStore, m: float) -> None:
    """Convert accumulated dL/dW' gradients into dL/dW in place, with the step's ``m``."""
    for i, state in states.items():
        backward_through_norm(state, store.params[i]["W"], m, store.grads[i]["W"])
