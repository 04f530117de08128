"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings as the suite executes. The training criteria (7 and 9) share one
set of seeded 20,000-step runs through a session-scoped fixture, which
runs each as its own ``python -m abcas train`` process.
"""

import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from abcas import cli, nn
from abcas.controller import AbcasState, target_multiplier
from abcas.linalg import init_power_iter_state, power_iterate, spectral_norm_exact
from abcas.metrics import mmd2_unbiased
from abcas.nn import NetworkSpec, ParamStore, convtranspose2d, forward
from abcas.specnorm import init_spectral_states, refresh
from abcas.data import generate_ring2d
from abcas.train import (TrainConfig, TrainHooks, d_loss, d_loss_grads, eval_baseline, g_loss,
                         g_loss_grad, run_training)

from helpers import (
    abcas_env,
    central_diff_grad,
    gradcheck_layer,
    mmd2_bruteforce,
    nudge_off_kinks,
    rel_err,
)


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_power_iteration_accuracy():
    # 50 seeded matrices, 3x3 to 64x96, singular gap >= 5%, 100 persistent-u
    # steps, rel err < 1e-4 vs the Jacobi oracle, in under 5 seconds.
    # The gap filter for rejection sampling uses lapack (selection only);
    # the accuracy reference is the in-repo Jacobi oracle.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sizes = [(3, 3), (64, 96)]
    while len(sizes) < 50:
        sizes.append((int(rng.integers(3, 65)), int(rng.integers(3, 97))))
    worst = 0.0
    for k, (r, c) in enumerate(sizes):
        while True:
            W = rng.standard_normal((r, c))
            sv = np.linalg.svd(W, compute_uv=False)
            if sv[0] > 0 and (sv[0] - sv[1]) / sv[0] >= 0.05:
                break
        exact = spectral_norm_exact(W)
        st = power_iterate(W, init_power_iter_state(r, seed=[2024, k]), steps=100)
        worst = max(worst, abs(st.sigma_hat - exact) / exact)
    elapsed = time.perf_counter() - t0
    _report(1, "power-iteration accuracy",
            worst < 1e-4 and elapsed < 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_normalization_contract():
    # 20 random layers, converged sigma, m in {0.5, 0.9, 1.0}:
    # sigma(W') within m * [0.999, 1.001] per the Jacobi oracle.
    rng = np.random.default_rng(7)
    failures = []
    for k in range(20):
        if k % 2 == 0:
            W = rng.standard_normal((int(rng.integers(2, 33)), int(rng.integers(2, 33))))
        else:
            W = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(1, 4)), 4, 4))
        Wm = W.reshape(len(W), -1)
        st = power_iterate(Wm, init_power_iter_state(Wm.shape[0], seed=[7, k]),
                           steps=20000, rel_tol=1e-14)
        for m in (0.5, 0.9, 1.0):
            sig = spectral_norm_exact((m / st.sigma_hat) * Wm)
            if not m * 0.999 <= sig <= m * 1.001:
                failures.append((k, m, sig))
    _report(2, "normalization contract", not failures,
            str(failures[:3]) if failures else "60 layer/m combinations")


def test_criterion_3_lipschitz_bound():
    # 3-layer ReLU discriminator, every layer normalized with m = 0.8:
    # |D(x1) - D(x2)| <= 0.8^3 * |x1 - x2| * (1 + 1e-4) on 10,000 pairs.
    m = 0.8
    spec = nn.mlp_discriminator(6, [24, 24])
    store = ParamStore(spec, seed=31, dtype=np.float64)
    states = init_spectral_states(spec, store, seed=32)
    states = {i: power_iterate(store.params[i]["W"], st, steps=5000, rel_tol=1e-14)
              for i, st in states.items()}
    eff = refresh(states, store, m=m)
    rng = np.random.default_rng(33)
    x1 = 2.0 * rng.standard_normal((10000, 6))
    x2 = 2.0 * rng.standard_normal((10000, 6))
    y1, _ = forward(spec, store, x1, weights=eff)
    y2, _ = forward(spec, store, x2, weights=eff)
    gaps = np.abs(y1 - y2)[:, 0]
    bound = (m ** 3) * np.linalg.norm(x1 - x2, axis=1) * (1.0 + 1e-4)
    ok = bool(np.all(gaps <= bound))
    _report(3, "Lipschitz bound", ok,
            f"max ratio {(gaps / bound).max():.6f}")


def test_criterion_4_gradient_oracle():
    # every layer kind, both losses, and the normalization backward pass
    # match central finite differences (64-bit, h = 1e-5) to rel err < 1e-4.
    rng = np.random.default_rng(41)
    worst = 0.0

    cases = [
        (NetworkSpec((3,), [nn.dense(3, 5)]), rng.standard_normal((4, 3))),
        (NetworkSpec((2, 5, 5), [nn.conv2d(2, 3, kernel=3, stride=2, padding=1)]),
         rng.standard_normal((2, 2, 5, 5))),
        (NetworkSpec((3, 3, 3), [convtranspose2d(3, 2, kernel=4, stride=2, padding=1)]),
         rng.standard_normal((2, 3, 3, 3))),
        (NetworkSpec((6,), [nn.lrelu()]), nudge_off_kinks(rng.standard_normal((4, 6)))),
        (NetworkSpec((6,), [nn.relu()]), nudge_off_kinks(rng.standard_normal((4, 6)))),
        (NetworkSpec((6,), [nn.tanh()]), rng.standard_normal((4, 6))),
        (NetworkSpec((6,), [nn.layernorm()]), rng.standard_normal((4, 6))),
        (NetworkSpec((6,), [nn.pixelnorm()]), rng.standard_normal((4, 6))),
    ]
    for spec, x in cases:
        worst = max(worst, gradcheck_layer(spec, x, tol=1e-4, h=1e-5))

    # both losses, w.r.t. the critic outputs
    cr = rng.standard_normal(8)
    cf = rng.standard_normal(8)
    _, grad = d_loss_grads(cr, cf)
    gr, gf = grad[:len(cr)], grad[len(cr):]
    worst = max(worst, rel_err(gr, central_diff_grad(lambda v: d_loss(v, cf), cr)))
    worst = max(worst, rel_err(gf, central_diff_grad(lambda v: d_loss(cr, v), cf)))
    worst = max(worst, rel_err(g_loss_grad(cf)[1], central_diff_grad(g_loss, cf)))

    # spectral-norm backward through a full network pass
    from abcas.nn import backward
    from abcas.specnorm import apply_norm_backward
    spec = NetworkSpec((3,), [nn.dense(3, 4, normalized=True), nn.relu(), nn.dense(4, 1)])
    store = ParamStore(spec, seed=42, dtype=np.float64)
    store.params[0]["W"] += 0.3 * rng.standard_normal((4, 3))
    states = init_spectral_states(spec, store, seed=43)
    x = rng.standard_normal((5, 3)) + 0.2
    states = {i: power_iterate(store.params[i]["W"], st, steps=5000, rel_tol=1e-14)
              for i, st in states.items()}
    eff = refresh(states, store, m=0.8)
    y, tape = forward(spec, store, x, weights=eff)
    store.zero_grad()
    backward(tape, np.ones_like(y))
    apply_norm_backward(states, store, m=0.8)
    u, v = states[0].u, states[0].v
    base = store.params[0]["W"].copy()

    def composite_loss(Wv):
        sigma = float(u @ Wv @ v)
        store.params[0]["W"][...] = Wv
        yv, _ = forward(spec, store, x, weights={0: (0.8 / sigma) * Wv})
        store.params[0]["W"][...] = base
        return float(np.sum(yv))

    worst = max(worst, rel_err(store.grads[0]["W"], central_diff_grad(composite_loss, base)))
    _report(4, "gradient oracle", worst < 1e-4, f"worst rel err {worst:.2e}")


def test_criterion_5_controller_unit_suite():
    problems = []

    # example: overlapping distributions leave the bound fully relaxed
    st = AbcasState()
    for _ in range(3):  # three D steps
        st.observe_and_update(np.array([0.1]), np.array([0.5]))
    if not (st.r == 0.0 and st.m == 1.0):
        problems.append("overlap example")

    # example: dm = 2, beta = 4 -> clbr 0.5, r 1, m 0.9 exactly
    if target_multiplier(2.0, 4.0) != (1.0, 0.9):
        problems.append("steady-state example")

    # example: dm = 0 then one dist = 10 lands at the alpha complement
    st = AbcasState()
    st.observe_and_update(np.array([10.0]), np.array([0.0]))
    if st.dm != 0.9999 * 0.0 + (1.0 - 0.9999) * 10.0 or abs(st.dm - 0.001) > 1e-12:
        problems.append("running-average example")

    # monotonicity of r (and antitonicity of m) over 1000 grid points
    grid = np.linspace(0.0, 0.98 * 4.0, 1000)
    rs, ms = zip(*(target_multiplier(float(d), 4.0) for d in grid))
    if not all(a <= b for a, b in zip(rs, rs[1:])):
        problems.append("r monotonicity")
    if not all(a >= b for a, b in zip(ms, ms[1:])):
        problems.append("m antitonicity")

    # a training run's even (G) steps leave the controller untouched: each
    # even row carries the previous odd (D) step's values, which do move
    cfg = TrainConfig(steps=40, batch_size=4, eval_every=20, latent_dim=4, eval_samples=32,
                      alpha=0.9, beta=0.05)
    data = generate_ring2d(64, 8, 0.7, 0.05, seed=0)
    rows = []
    run_training(cfg, eval_baseline(cfg, data, nn.mlp_generator(4, [8, 8], 2)),
                 nn.mlp_generator(4, [8, 8], 2), nn.mlp_discriminator(2, [8, 8]),
                 TrainHooks(on_record=lambda rec: rows.append((rec.dist, rec.dm, rec.r, rec.m))))
    if rows[2::2] != rows[1::2] or len(set(rows[1::2])) != cfg.steps // 2:
        problems.append("even-step no-op")

    # bitwise replay of a 10,000-update logged dist sequence
    rng = np.random.default_rng(55)
    st = AbcasState(beta=4.0)
    logged = []
    for _ in range(10000):
        st.observe_and_update(rng.standard_normal(16) + rng.uniform(0, 5),
                              rng.standard_normal(16))
        logged.append((st.last_dist, st.dm, st.r, st.m))
    dm = 0.0
    for dist, dm_logged, r_logged, m_logged in logged:
        dm = 0.9999 * dm + (1.0 - 0.9999) * dist
        clbr = min(max(dm / 4.0, 0.0), 0.98)
        r = clbr / (1.0 - clbr)
        if dm != dm_logged or r != r_logged or 0.9 ** r != m_logged:
            problems.append("bitwise replay")
            break

    _report(5, "controller unit suite", not problems, ", ".join(problems))


def test_criterion_6_mmd_oracle():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 65))
        d = int(rng.integers(1, 6))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal((m, d)) + rng.uniform(-1, 1)
        bw = float(rng.uniform(0.3, 3.0))
        worst = max(worst, abs(mmd2_unbiased(x, y, bw) - mmd2_bruteforce(x, y, bw)))
    _report(6, "MMD oracle", worst < 1e-12, f"worst abs diff {worst:.2e}")


# ---------------------------------------------------------------------------
# desk-scale training runs (criteria 7 and 9 share them)

DESK_CFG = """
dataset = ring2d
ring_modes = 8
dataset_size = 4096
steps = 20000
batch_size = 16
eval_every = 1000
eval_samples = 1024
latent_dim = 8
g_hidden = 64,64
d_hidden = 64,64
seed = 11
"""

DESK_SETTINGS = {
    "fixed_1.0": ["--mode", "fixed", "--m", "1.0"],
    "fixed_0.7": ["--mode", "fixed", "--m", "0.7"],
    "abcas_b4": ["--mode", "adaptive", "--beta", "4.0"],
}


def _train_child(cfg, out, flags):
    """(exit code, stderr, ``out``, seconds) of one ``abcas train`` in its own process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "abcas", "train", "--config", str(cfg),
                           "--out", str(out)] + flags,
                          env=abcas_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                          text=True, timeout=1200)  # twice criterion 7's bound
    return proc.returncode, proc.stderr, out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """{(label, "first" | "repeat"): (exit code, stderr, run dir, seconds)}.

    Each setting runs twice, each time in a fresh interpreter with one BLAS
    thread, at most two at a time (one on a 1-CPU host).
    """
    root = tmp_path_factory.mktemp("desk")
    cfg = root / "desk.cfg"
    cfg.write_text(DESK_CFG)
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        futures = {(label, which): pool.submit(_train_child, cfg, root / which / label, flags)
                   for which in ("first", "repeat") for label, flags in DESK_SETTINGS.items()}
    return {key: future.result() for key, future in futures.items()}


def _read_rows(metrics_path):
    lines = metrics_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_7_desk_scale_training(desk_runs):
    problems = []
    details = []
    for label in DESK_SETTINGS:
        code, err, out, elapsed = desk_runs[label, "first"]
        if code != 0:
            problems.append(f"{label} aborted (exit {code}): {err.strip()}")
        if elapsed >= 600.0:
            problems.append(f"{label} too slow ({elapsed:.0f}s)")
        details.append(f"{label} {elapsed:.0f}s")

    rows = _read_rows(desk_runs["abcas_b4", "first"][2] / "metrics.csv")
    mmd_start = float(rows[0]["mmd2"])
    mmd_final = float(rows[-1]["mmd2"])
    if not mmd_final <= 0.5 * mmd_start:
        problems.append(f"mmd2 {mmd_start:.4f} -> {mmd_final:.4f} not halved")
    details.append(f"mmd2 {mmd_start:.4f} -> {mmd_final:.4f}")

    r_values = [float(row["r"]) for row in rows]
    if not any(r > 0.0 for r in r_values):
        problems.append("r never rose above 0")
    bad_m = [row for row in rows
             if abs(float(row["m"]) - 0.9 ** float(row["r"])) > 1e-12]
    if bad_m:
        problems.append(f"{len(bad_m)} rows with m != 0.9^r")

    _report(7, "desk-scale training behavior", not problems,
            "; ".join(details + problems))


def test_criterion_8_sweep_shape(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("""
dataset = ring2d
dataset_size = 256
steps = 150
batch_size = 8
eval_every = 50
eval_samples = 64
latent_dim = 4
g_hidden = 16,16
d_hidden = 16,16
seed = 5
sweep_fixed_m = 0.5,0.6,0.7,0.8,0.9,1.0
sweep_abcas_beta = 1,4
""")
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    lines = (out / "summary.csv").read_text().strip().splitlines()
    ok = code == 0 and len(lines) == 9 and "best_step" in lines[0]
    settings = [line.split(",")[0] for line in lines[1:]]
    expected = [f"fixed_m{v}" for v in ("0.5", "0.6", "0.7", "0.8", "0.9", "1")] \
        + ["abcas_beta1", "abcas_beta4"]
    ok = ok and settings == expected
    # summary best values equal an independent re-scan of each sub-run
    for line in lines[1:]:
        setting, _, _, _, _, best_mmd2, best_step = line.split(",")
        rows = _read_rows(out / setting / "metrics.csv")
        col = [float(r["mmd2"]) for r in rows]
        best_i = int(np.argmin(col))
        ok = ok and float(best_mmd2) == min(col)
        ok = ok and int(best_step) == int(rows[best_i]["step"])
    _report(8, "sweep shape", ok, f"{len(lines) - 1} rows")


def test_criterion_9_determinism(desk_runs):
    # the first run and its repeat ran in separate processes
    problems = []
    for label in DESK_SETTINGS:
        code, err, out, _ = desk_runs[label, "repeat"]
        if code != 0:
            problems.append(f"{label} repeat aborted: {err.strip()}")
            continue
        first = desk_runs[label, "first"][2] / "metrics.csv"
        a = [",".join(line.split(",")[:-1]) for line in first.read_text().splitlines()]
        b = [",".join(line.split(",")[:-1]) for line in (out / "metrics.csv").read_text().splitlines()]
        if a != b:
            problems.append(f"{label} metrics differ")
    _report(9, "determinism", not problems, ", ".join(problems))
