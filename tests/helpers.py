"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: finite
differences for gradients, naive 6-loop convolutions for conv layers,
a padded window-view im2col, a per-tap strided-add col2im, and a
double-loop MMD estimator. Also a runner for code that needs a fresh
interpreter.
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import abcas


def central_diff_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function, entry by entry (64-bit)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def rel_err(a, b):
    """Norm-based relative error between two gradient tensors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def conv2d_naive(x, W, b, stride, padding):
    """Direct 6-loop convolution, (N,C,H,W) x (co,ci,kh,kw) -> (N,co,Ho,Wo)."""
    n, c, hi, wi = x.shape
    co, ci, kh, kw = W.shape
    assert c == ci
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (hi + 2 * padding - kh) // stride + 1
    wo = (wi + 2 * padding - kw) // stride + 1
    y = np.zeros((n, co, ho, wo), dtype=np.float64)
    for ni in range(n):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for a in range(kh):
                        for bb in range(kw):
                            for ch in range(ci):
                                acc += W[o, ch, a, bb] * xp[ni, ch, i * stride + a, j * stride + bb]
                    y[ni, o, i, j] = acc + b[o]
    return y


def convtranspose2d_naive(x, W, b, stride, padding):
    """Direct transposed convolution by scatter-add, kernel (ci,co,kh,kw)."""
    n, ci, hi, wi = x.shape
    ci_w, co, kh, kw = W.shape
    assert ci == ci_w
    ho = (hi - 1) * stride - 2 * padding + kh
    wo = (wi - 1) * stride - 2 * padding + kw
    acc = np.zeros((n, co, ho + 2 * padding, wo + 2 * padding), dtype=np.float64)
    for ni in range(n):
        for ch in range(ci):
            for i in range(hi):
                for j in range(wi):
                    v = x[ni, ch, i, j]
                    for o in range(co):
                        for a in range(kh):
                            for bb in range(kw):
                                acc[ni, o, i * stride + a, j * stride + bb] += v * W[ch, o, a, bb]
    y = acc[:, :, padding:padding + ho, padding:padding + wo]
    return y + b.reshape(1, -1, 1, 1)


def im2col_window(x, k, s, p):
    """im2col of np.pad(x) by a strided window view, (N,C,H,W) -> (N, C*k*k, Ho*Wo)."""
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    n, c, ho, wo = win.shape[:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, ho * wo)


def col2im_loop(cols, out_shape, kh, kw, s, p):
    """col2im by one strided add per kernel tap, taps in (i, j) order."""
    n, c, h, w = out_shape
    ho = (h + 2 * p - kh) // s + 1
    wo = (w + 2 * p - kw) // s + 1
    acc = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            acc[:, :, i:i + s * ho:s, j:j + s * wo:s] += cols6[:, :, i, j]
    return acc[:, :, p:p + h, p:p + w]


def gradcheck_layer(spec, x, seed=0, tol=1e-4, h=1e-5):
    """Analytic gradients vs central differences for input and every parameter.

    Runs the library forward/backward once against a random linear
    functional of the output, then finite-differences the same scalar.
    Returns the worst relative error seen (raises on violation).
    """
    from abcas.nn import ParamStore, backward, forward

    store = ParamStore(spec, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(99)
    for lp in store.params:
        for name, arr in lp.items():
            arr += 0.1 * rng.standard_normal(arr.shape)
    y, tape = forward(spec, store, x)
    c = rng.standard_normal(y.shape)

    store.zero_grad()
    dx = backward(tape, c)
    worst = 0.0

    def loss_of_input(xv):
        yv, _ = forward(spec, store, xv)
        return float(np.sum(c * yv))

    err = rel_err(dx, central_diff_grad(loss_of_input, x, h))
    assert err < tol, f"input gradient rel err {err}"
    worst = max(worst, err)

    for i, lp in enumerate(store.params):
        for name in lp:
            orig = lp[name].copy()

            def loss_of_param(pv, i=i, name=name, orig=orig):
                store.params[i][name][...] = pv
                yv, _ = forward(spec, store, x)
                store.params[i][name][...] = orig
                return float(np.sum(c * yv))

            fd = central_diff_grad(loss_of_param, orig, h)
            err = rel_err(store.grads[i][name], fd)
            assert err < tol, f"layer {i} param {name} rel err {err}"
            worst = max(worst, err)
    return worst


def nudge_off_kinks(x, margin=0.05):
    """Move entries away from zero so finite differences never straddle a kink."""
    x = x.copy()
    small = np.abs(x) < margin
    x[small] += margin * np.where(x[small] >= 0, 1.0, -1.0)
    return x


# dataset tensors that parse as ABT1 but cannot be trained on
UNUSABLE_DATASETS = {
    "empty": np.zeros((0, 2), np.float32),
    "one_row": np.zeros((1, 2), np.float32),
    "nan": np.array([[0.1, 0.2], [np.nan, 0.3], [0.4, 0.5]], np.float32),
    "no_values": np.zeros((64, 0), np.float32),
}


def raw_abt1(arr):
    """ABT1 file bytes packed by hand, so that payloads the writer rejects can be stored."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = b"ABT1" + struct.pack("<BB", 0, arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def mmd2_bruteforce(x, y, bw):
    """Unbiased squared MMD by explicit double loops (Gaussian kernel)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = len(x), len(y)

    def k(a, b):
        d = a - b
        return math.exp(-float(np.dot(d, d)) / (2.0 * bw * bw))

    sxx = sum(k(x[i], x[j]) for i in range(n) for j in range(n) if i != j)
    syy = sum(k(y[i], y[j]) for i in range(m) for j in range(m) if i != j)
    sxy = sum(k(x[i], y[j]) for i in range(n) for j in range(m))
    return sxx / (n * (n - 1)) + syy / (m * (m - 1)) - 2.0 * sxy / (n * m)


# each run_training abort site no other test reaches: the NumericAbort text
# and the step at which break_training_at makes it fire (step 10 evaluates
# in both the tiny CLI config and _tiny_setup(steps=12))
ABORT_SITES = {
    "real_critic": ("critic output", 3),
    "fake_critic_d_step": ("critic output", 3),
    "fake_critic_g_step": ("critic output", 4),
    "d_loss": ("discriminator loss", 3),
    "g_loss": ("generator loss", 4),
    "eval_sample": ("generated evaluation sample", 10),
}


def break_training_at(monkeypatch, site):
    """Make the training loop see one non-finite value at ``ABORT_SITES[site]``'s step.

    ``train.refresh`` runs once at the start of every training step, so
    counting its calls gives the step the other patched names are called in.
    A critic site poisons one row by its place among the step's critic
    outputs, in one pass or several: a D step scores its real batch, then
    its fake one; a G step its fake batch alone. The step's latent draw
    gives the batch size.
    """
    from abcas import train

    step = ABORT_SITES[site][1]
    now = {"step": 0, "rows": 0, "batch": 0}
    real_refresh, real_latent = train.refresh, train.sample_latent

    def refresh(*args):
        now["step"] += 1
        now["rows"] = 0
        return real_refresh(*args)

    def sample_latent(rng, n, spec):
        now["batch"] = n
        return real_latent(rng, n, spec)

    def poison(name, bad):
        # the named function's result at the step
        real = getattr(train, name)

        def patched(*args):
            out = real(*args)
            return bad(out) if now["step"] == step else out

        monkeypatch.setattr(train, name, patched)

    def nan_row(c):
        at = (now["batch"] if site == "fake_critic_d_step" else 0) - now["rows"]
        now["rows"] += len(c)
        bad = c.copy()
        if 0 <= at < len(c):
            bad[at] = np.nan
        return bad

    monkeypatch.setattr(train, "refresh", refresh)
    if "critic" in site:
        monkeypatch.setattr(train, "sample_latent", sample_latent)
        poison("_critic_vector", nan_row)
    elif site == "d_loss":
        poison("d_loss", lambda _: math.nan)
    elif site == "g_loss":
        poison("g_loss", lambda _: math.inf)
    else:
        poison("_eval_sample", lambda fake: np.full_like(fake, np.nan))


def abcas_env(**extra):
    """The environment of a fresh interpreter that imports this abcas, plus ``extra``."""
    src = Path(abcas.__file__).resolve().parents[1]
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))


def run_python(code):
    """Standard output of ``code`` run by a fresh interpreter that imports this abcas."""
    return subprocess.run([sys.executable, "-c", code], env=abcas_env(), capture_output=True,
                          text=True, check=True).stdout.strip()
