"""Traced run: per-module timings from outside the program.

The workload's command runs in this process through ``abcas.cli.main``,
alternating an untraced and a traced run on the same generated config.
For the traced one, :class:`Tracer` replaces names where their caller
looks them up (``abcas.train.forward``, not ``abcas.nn.forward``, since
``from .nn import forward`` binds the name at import time) with wrappers
that record each call's duration and self time (duration minus the time
of wrapped calls made inside it). Nothing under ``src/abcas`` changes.

Afterwards every layer of the mlp networks (at ring2d's shapes) and of
the conv networks (at blobs16's shapes) is replayed alone through the
public ``forward`` / ``backward`` on a one-layer ``NetworkSpec``, so that
every traced run reports the same metric names.

Checks on the trace itself: the traced run's outputs must pass the same
checks as the untraced run and match its digest; every training step of
the same parity and eval status must make exactly the same calls; and
the self times of spans inside training steps must not exceed the
program's own training time (``train.self_share`` is the rest).

Each span reports ``<span>_us`` (or ``_ms``), the mean self time per
call, and ``<span>.calls``, calls per training step over the command.
Which end-to-end metric each should move, and on which workload (D, G:
``d_step_ms_p01``, ``g_step_ms_p01``; eval: ``eval_step_ms_p05``):

=====================================  ==========================================
per-layer metric                       end-to-end metric it should move
=====================================  ==========================================
nn.fwd.g, nn.fwd.d, nn.bwd.d_dstep,    D and G on blobs16; little on ring2d
nn.bwd.g
nn.bwd.d_gstep, nn.bwd.d_gstep_share   G on blobs16 only; D stays put
nn.conv.*.fwd_us / .bwd_us             D and G on blobs16
nn.mlp.*.fwd_us / .bwd_us              D and G on ring2d and sweep-ring2d
nn.fwd.g_eval, metrics.mmd2            eval on ring2d and sweep-ring2d; D and G
                                       stay put
optim.adam_d, optim.adam_g             D resp. G on ring2d; none on blobs16
specnorm.refresh, linalg.power_step    D and G on ring2d
specnorm.norm_bwd, controller.observe, D on ring2d
train.loss
metrics.bandwidth, data.load,          setup_s, mostly on sweep-ring2d
config.load
data.write_tensor, data.bytes_written, eval on sweep-ring2d (checkpoints are
cli.checkpoint                         written inside eval steps)
metrics.csv_row                        none gated: rows are written between steps
train.self_share                       training time outside every span above
trace_overhead                         none: traced / untraced p01 step time - 1
=====================================  ==========================================
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import harness

sys.path.insert(0, str(harness.SRC))

import numpy as np  # noqa: E402

from abcas import cli, data, nn, specnorm, train  # noqa: E402
from abcas.config import build_networks, parse_config_text, resolve_settings  # noqa: E402

# span name -> unit of its mean self time per call
SPAN_UNITS = {
    "config.load": "ms",
    "data.load": "ms",
    "metrics.bandwidth": "ms",
    "nn.fwd.g": "us",
    "nn.fwd.d": "us",
    "nn.bwd.d_dstep": "us",
    "nn.bwd.d_gstep": "us",
    "nn.bwd.g": "us",
    "nn.fwd.g_eval": "ms",
    "metrics.mmd2": "ms",
    "specnorm.refresh": "us",
    "linalg.power_step": "us",
    "specnorm.norm_bwd": "us",
    "controller.observe": "us",
    "train.loss": "us",
    "optim.adam_d": "us",
    "optim.adam_g": "us",
    "cli.checkpoint": "us",
    "data.write_tensor": "us",
    "metrics.csv_row": "us",
}

# The layer replays use these workloads' shapes.
REPLAY_FAMILIES = {"mlp": "ring2d", "conv": "blobs16"}
REPLAY_SECONDS = 0.08
REPLAY_MIN_REPS = 20


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.stack: list[int] = []
        self.steps = 0
        self.train_ms = 0.0
        self.in_step_self_ns = 0
        self.bytes_written = 0
        # per training step: ((parity, has_eval), Counter of span calls)
        self.step_keys: list[tuple[int, bool]] = []
        self.step_calls: list[Counter] = []
        self._new_run(None, None)
        self._saved: list[tuple[object, str, object]] = []

    def _new_run(self, g_spec, d_spec) -> None:
        self.g_spec, self.d_spec = g_spec, d_spec
        self.step = 0
        self.in_step = False
        self.after_update = True  # G forwards before the first step are evals

    def span(self, name, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        self.stack.append(0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            own = duration - self.stack.pop()
            if self.stack:
                self.stack[-1] += duration
            self.self_ns[name] += own
            self.calls[name] += 1
            if self.in_step:
                self.in_step_self_ns += own
                self.step_calls[-1][name] += 1

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        tr = self
        orig = {name: getattr(train, name) for name in (
            "forward", "backward", "refresh", "apply_norm_backward", "mmd2_unbiased",
            "median_heuristic_bandwidth", "d_loss", "d_loss_grads", "g_loss", "g_loss_grad")}

        def timed(name, fn):
            return lambda *a, **k: tr.span(name, fn, *a, **k)

        def build(settings, shape):
            g_spec, d_spec = build_networks(settings, shape)
            tr._new_run(g_spec, d_spec)
            return g_spec, d_spec

        def hooks(on_record, on_eval):
            def record(rec):
                if rec.step >= 1:
                    tr.in_step = False
                    tr.steps += 1
                    tr.train_ms += rec.wall_ms
                return tr.span("metrics.csv_row", on_record, rec)

            def evaluate(step, g_store, d_store):
                if tr.in_step:
                    tr.step_keys[-1] = (tr.step_keys[-1][0], True)
                return tr.span("cli.checkpoint", on_eval, step, g_store, d_store)

            return cli_hooks(on_record=record, on_eval=evaluate)

        def write_tensor(path, arr):
            tr.span("data.write_tensor", cli_write, path, arr)
            tr.bytes_written += os.path.getsize(path)

        def forward(spec, store, x, weights=None):
            if spec is tr.d_spec:
                name = "nn.fwd.d"
            else:
                name = "nn.fwd.g_eval" if tr.after_update else "nn.fwd.g"
            return tr.span(name, orig["forward"], spec, store, x, weights)

        def backward(tape, grad_out):
            if tape.spec is tr.g_spec:
                name = "nn.bwd.g"
            else:
                name = "nn.bwd.d_dstep" if tr.step % 2 == 1 else "nn.bwd.d_gstep"
            return tr.span(name, orig["backward"], tape, grad_out)

        def refresh(*args, **kwargs):
            tr.step += 1
            tr.in_step = True
            tr.after_update = False
            tr.step_keys.append((tr.step % 2, False))
            tr.step_calls.append(Counter())
            return tr.span("specnorm.refresh", orig["refresh"], *args, **kwargs)

        class Adam(train.Adam):
            def step(self):
                name = "optim.adam_g" if self.store.spec is tr.g_spec else "optim.adam_d"
                tr.span(name, super().step)
                tr.after_update = True

        class AbcasState(train.AbcasState):
            def observe_and_update(self, c_real, c_fake):
                return tr.span("controller.observe", super().observe_and_update, c_real, c_fake)

        cli_hooks, cli_write = cli.TrainHooks, cli.write_tensor_file
        self._patch(cli, "load_settings", timed("config.load", cli.load_settings))
        self._patch(cli, "build_networks", build)
        self._patch(cli, "TrainHooks", hooks)
        self._patch(cli, "write_tensor_file", write_tensor)
        self._patch(data.DatasetSpec, "load", timed("data.load", data.DatasetSpec.load))
        self._patch(specnorm, "power_iteration_step",
                    timed("linalg.power_step", specnorm.power_iteration_step))
        self._patch(train, "forward", forward)
        self._patch(train, "backward", backward)
        self._patch(train, "refresh", refresh)
        self._patch(train, "apply_norm_backward",
                    timed("specnorm.norm_bwd", orig["apply_norm_backward"]))
        self._patch(train, "mmd2_unbiased", timed("metrics.mmd2", orig["mmd2_unbiased"]))
        self._patch(train, "median_heuristic_bandwidth",
                    timed("metrics.bandwidth", orig["median_heuristic_bandwidth"]))
        for name in ("d_loss", "d_loss_grads", "g_loss", "g_loss_grad"):
            self._patch(train, name, timed("train.loss", orig[name]))
        self._patch(train, "Adam", Adam)
        self._patch(train, "AbcasState", AbcasState)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- checks and metrics -------------------------------------------------

    def check(self) -> list[str]:
        problems = []
        reference: dict[tuple[int, bool], Counter] = {}
        for step, (key, calls) in enumerate(zip(self.step_keys, self.step_calls), start=1):
            ref = reference.setdefault(key, calls)
            if calls != ref:
                problems.append(f"traced step {step} {key}: calls {dict(calls)} != {dict(ref)}")
                break
        missing = [name for name in SPAN_UNITS if not self.calls[name]]
        if missing:
            problems.append(f"spans never called: {missing}")
        if not 0.0 <= self.self_share() < 1.0:
            problems.append(f"span self times do not fit in training time "
                            f"(self share {self.self_share():.4f})")
        return problems

    def self_share(self) -> float:
        return 1.0 - self.in_step_self_ns / 1e6 / self.train_ms

    def metrics(self, commands: int) -> dict[str, float]:
        out = {}
        for name, unit in SPAN_UNITS.items():
            calls = self.calls[name]
            scale = 1e3 if unit == "us" else 1e6
            out[f"{name}_{unit}"] = self.self_ns[name] / max(calls, 1) / scale
            out[f"{name}.calls"] = calls / self.steps
        out["nn.bwd.d_gstep_share"] = self.self_ns["nn.bwd.d_gstep"] / 1e6 / self.train_ms
        out["train.self_share"] = self.self_share()
        out["data.bytes_written"] = self.bytes_written / commands
        return out


# ---------------------------------------------------------------------------
# per-layer replay

def family_specs(seed: int) -> dict[str, tuple[nn.NetworkSpec, nn.NetworkSpec, int]]:
    """(G spec, D spec, batch size) of each network family at its workload's shapes."""
    specs = {}
    for family, name in REPLAY_FAMILIES.items():
        text = harness.config_text(harness.WORKLOADS[name], seed)
        settings = resolve_settings(parse_config_text(text, where=name))
        sample = settings.dataset_spec().load()[:1]
        g_spec, d_spec = build_networks(settings, tuple(sample.shape[1:]))
        specs[family] = (g_spec, d_spec, settings.train.batch_size)
    return specs


def replay_names() -> dict[str, str]:
    """Replay metric name -> unit, for the layer lists of both families."""
    names = {}
    for family, (g_spec, d_spec, _) in family_specs(0).items():
        for net, spec in (("g", g_spec), ("d", d_spec)):
            for i, layer in enumerate(spec.layers):
                for phase in ("fwd", "bwd"):
                    names[f"nn.{family}.{net}.{i}.{layer.kind}.{phase}_us"] = "us"
    return names


def _call_us(fn, setup=None) -> float:
    """Mean µs per call over the middle half of repeated calls (robust, not quantized)."""
    times = []
    deadline = time.perf_counter() + REPLAY_SECONDS
    while len(times) < REPLAY_MIN_REPS or time.perf_counter() < deadline:
        arg = setup() if setup else None
        start = time.perf_counter_ns()
        fn(arg)
        times.append(time.perf_counter_ns() - start)
    times.sort()
    middle = times[len(times) // 4: len(times) - len(times) // 4]
    return sum(middle) / len(middle) / 1e3


def replay_layers(specs, seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 99])
    out = {}
    for family, (g_spec, d_spec, batch) in specs.items():
        for net, spec in (("g", g_spec), ("d", d_spec)):
            in_shapes = [tuple(spec.input_shape)] + nn.shape_plan(spec)[:-1]
            for i, layer in enumerate(spec.layers):
                one = nn.NetworkSpec(input_shape=in_shapes[i], layers=[layer])
                store = nn.ParamStore(one, seed=[seed, i])
                x = rng.standard_normal((batch, *in_shapes[i])).astype(np.float32)
                y, _ = nn.forward(one, store, x)
                grad = rng.standard_normal(y.shape).astype(np.float32)
                stem = f"nn.{family}.{net}.{i}.{layer.kind}"
                out[f"{stem}.fwd_us"] = _call_us(lambda _: nn.forward(one, store, x))
                out[f"{stem}.bwd_us"] = _call_us(
                    lambda tape: nn.backward(tape, grad), lambda: nn.forward(one, store, x)[1])
    return out


# ---------------------------------------------------------------------------

def per_layer_units() -> dict[str, str]:
    units = {}
    for name, unit in SPAN_UNITS.items():
        units[f"{name}_{unit}"] = unit
        units[f"{name}.calls"] = "calls/step"
    units.update({"nn.bwd.d_gstep_share": "share", "train.self_share": "share",
                  "data.bytes_written": "bytes", "trace_overhead": "share"})
    units.update(replay_names())
    return units


def _run_cli(workload, cfg: Path, out: Path) -> int:
    with open(out.parent / f"{out.name}.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        return cli.main([workload.command, "--config", str(cfg), "--out", str(out)])


def _step_ms_p01(checks, steps: int, eval_every: int) -> float:
    d, g, _ = harness.split_steps([w for ch in checks for w in ch.walls], steps, eval_every)
    return harness.percentile(d + g, 1)


def run_traced(workload, seed: int, seconds: float, work: Path):
    cfg = harness.generate_config(workload, seed, work / "config.cfg")
    shape = harness.config_int(cfg, "steps"), harness.config_int(cfg, "eval_every")
    tracer = Tracer()
    untraced_ms, traced_ms, runs = [], [], []
    start = time.perf_counter()
    while not runs or harness.fits(start, len(runs) // 2, seconds):
        k = len(runs) // 2
        out = work / f"untraced{k}"
        plain = harness.checked_exit(workload, cfg, out, _run_cli(workload, cfg, out))
        tracer.install()
        try:
            out = work / f"traced{k}"
            code = _run_cli(workload, cfg, out)
        finally:
            tracer.uninstall()
        traced = harness.checked_exit(workload, cfg, out, code)
        runs += [plain, traced]
        if not any(ch.problems for ch in plain + traced):
            untraced_ms.append(_step_ms_p01(plain, *shape))
            traced_ms.append(_step_ms_p01(traced, *shape))
    harness.mark_digest_mismatches(runs)
    problems = [f"{'traced' if j % 2 else 'untraced'} command {j // 2} {ch.label}: {p}"
                for j, checks in enumerate(runs) for ch in checks for p in ch.problems]
    attempted, failed = harness.tally(runs)
    trace_problems = tracer.check()
    if trace_problems:
        problems += [f"trace: {p}" for p in trace_problems]
        failed += 1
        attempted += 1
    if not traced_ms:
        raise RuntimeError("no traced command passed its checks: " + "; ".join(problems))

    metrics = tracer.metrics(len(runs) // 2)
    metrics["trace_overhead"] = statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0
    metrics.update(replay_layers(family_specs(seed), seed))
    info = {"problems": problems, "traced_commands": len(traced_ms),
            "untraced_step_ms_p01": untraced_ms, "traced_step_ms_p01": traced_ms,
            "traced_steps": tracer.steps, "digest": harness.combined_digest(runs[0])}
    return metrics, attempted, failed, info
