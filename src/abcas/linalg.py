"""Dense spectral-norm estimation.

Two independent routes to the largest singular value live here:

* :func:`power_iteration_step`, the cheap estimator used during training
  (one step per training iteration, persistent ``u`` across steps), and
* :func:`spectral_norm_exact`, a cyclic-Jacobi eigensolve of the Gram
  matrix meant as a test oracle for small matrices.

All accumulation happens in 64-bit regardless of the input dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerIterState",
    "init_power_iter_state",
    "power_iteration_step",
    "power_iterate",
    "spectral_norm_exact",
]


@dataclass
class PowerIterState:
    """Persistent power-iteration state for one weight matrix.

    ``u`` approximates the leading left singular vector (unit norm),
    ``sigma_hat`` the current spectral-norm estimate. ``v`` caches the
    right vector from the most recent step; the normalization backward
    pass treats ``(u, v)`` as constants and needs them from the same step.
    """

    u: np.ndarray
    sigma_hat: float = 0.0
    v: np.ndarray | None = None


def init_power_iter_state(rows: int, seed) -> PowerIterState:
    """Unit-normalized Gaussian start vector, deterministic under ``seed``.

    ``seed`` may be an int or a sequence of ints (e.g. run seed plus layer
    index) so that every layer gets its own reproducible stream.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(rows)
    u /= np.linalg.norm(u)
    return PowerIterState(u=u)


def power_iteration_step(W: np.ndarray, state: PowerIterState) -> PowerIterState:
    """One full power-iteration update for the leading singular pair.

    Computes ``v = normalize(W^T u)``, ``u' = normalize(W v)`` and the
    estimate ``sigma_hat = u'^T W v``, which collapses to ``||W v||``.
    The estimate is a Rayleigh quotient, hence a lower bound on the true
    spectral norm up to rounding.

    A zero matrix (or a degenerate zero intermediate) leaves ``u``
    unchanged and returns ``sigma_hat = 0`` instead of normalizing a zero
    vector.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={W.ndim}")
    rows, _cols = W.shape
    u = np.asarray(state.u, dtype=np.float64)
    if u.shape != (rows,):
        raise ValueError(
            f"power-iteration vector has length {u.shape[0]}, matrix has {rows} rows"
        )
    # each norm as np.linalg.norm computes it for a vector: sqrt(x . x)
    v = W.T @ u
    nv = math.sqrt(v.dot(v))
    if nv == 0.0:
        return PowerIterState(u=u.copy(), sigma_hat=0.0, v=None)
    v /= nv
    wv = W @ v
    nu = math.sqrt(wv.dot(wv))
    if nu == 0.0:
        return PowerIterState(u=u.copy(), sigma_hat=0.0, v=None)
    return PowerIterState(u=wv / nu, sigma_hat=nu, v=v)


def power_iterate(
    W: np.ndarray,
    state: PowerIterState,
    steps: int = 100,
    rel_tol: float = 0.0,
) -> PowerIterState:
    """Run up to ``steps`` power-iteration updates.

    With ``rel_tol > 0`` stops early once the estimate changes by less
    than ``rel_tol`` relatively between consecutive steps.
    """
    for _ in range(steps):
        prev = state.sigma_hat
        state = power_iteration_step(W, state)
        if rel_tol > 0.0:
            ref = max(abs(state.sigma_hat), 1e-300)
            if abs(state.sigma_hat - prev) <= rel_tol * ref:
                break
    return state


# Gram matrices larger than 64x64 are refused: the Jacobi solve below is
# an exact oracle for desk-scale matrices, not a general eigensolver.
_MAX_GRAM_SIDE = 64


def spectral_norm_exact(W: np.ndarray) -> float:
    """Largest singular value by a cyclic-Jacobi eigensolve of the Gram matrix.

    Test oracle, deliberately independent of power iteration. The
    eigenproblem runs on the smaller Gram side, so ``min(rows, cols)``
    must be at most 64. Accuracy is ~1e-10 relative.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={W.ndim}")
    rows, cols = W.shape
    if min(rows, cols) > _MAX_GRAM_SIDE:
        raise ValueError(
            f"matrix {rows}x{cols} too large for the exact oracle "
            f"(min side must be <= {_MAX_GRAM_SIDE})"
        )
    G = W.T @ W if cols <= rows else W @ W.T
    lam = _jacobi_eigenvalues(G)
    return float(math.sqrt(max(float(lam.max()), 0.0)))


def _jacobi_eigenvalues(
    G: np.ndarray, rel_tol: float = 1e-13, max_sweeps: int = 60
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps over all (p, q) pairs, zeroing one off-diagonal entry per
    rotation, until the off-diagonal Frobenius norm drops below
    ``rel_tol`` times the matrix norm. Rotations whose pivot is already
    negligible are skipped, which makes late sweeps cheap.
    """
    A = np.array(G, dtype=np.float64)
    n = A.shape[0]
    if n == 1:
        return A[0, :1].copy()
    scale = float(np.linalg.norm(A))
    if scale == 0.0:
        return np.zeros(n)
    skip_tol = rel_tol * scale / n
    for _ in range(max_sweeps):
        off2 = float(np.sum(A * A) - np.sum(np.diag(A) ** 2))
        if off2 <= (rel_tol * scale) ** 2:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip_tol:
                    continue
                app = A[p, p]
                aqq = A[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                Ap = A[p, :].copy()
                Aq = A[q, :].copy()
                A[p, :] = c * Ap - s * Aq
                A[q, :] = s * Ap + c * Aq
                Ap = A[:, p].copy()
                Aq = A[:, q].copy()
                A[:, p] = c * Ap - s * Aq
                A[:, q] = s * Ap + c * Aq
                # Analytic values for the rotated 2x2 block are more
                # accurate than the vector updates above.
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
    return np.diag(A).copy()
