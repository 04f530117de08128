"""Tests of the benchmark harness's own derivations and checks.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

HEADER = "step,epoch,d_loss,g_loss,dist,dm,r,m,mmd2,wall_ms"


def write_run(run_dir: Path, walls, mmd=None, r=0.0, status="ok") -> Path:
    """A finished run with one row per wall time; mmd2 defaults to 0.4 then 0.1."""
    run_dir.mkdir(parents=True, exist_ok=True)
    mmd = mmd or [0.4] + [0.1] * (len(walls) - 1)
    rows = [HEADER]
    for step, (wall, value) in enumerate(zip(walls, mmd)):
        rows.append(f"{step},0,0.5,0.7,0.1,0.01,{r!r},{0.9 ** r!r},{value!r},{wall!r}")
    (run_dir / "metrics.csv").write_text("\n".join(rows) + "\n")
    (run_dir / "status.txt").write_text(status + "\n")
    return run_dir


TRAIN = harness.Workload("t", "train", "configs/ring2d.cfg", 1)


def test_walls_skip_the_baseline_row(tmp_path):
    run = write_run(tmp_path / "r", [50.0, 1.0, 2.0, 3.0, 4.0])
    walls = harness.step_walls(harness.read_rows(run / "metrics.csv"))
    assert walls == [(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)]
    # 10 ms of steps in a 2.5 s process leaves 2.49 s of set-up
    assert harness.setup_seconds(2.5, walls) == pytest.approx(2.49)


def test_split_steps_by_parity_and_eval():
    walls = [(1, 1.0), (2, 10.0), (3, 3.0), (4, 40.0), (5, 2.0), (6, 20.0), (7, 70.0)]
    assert harness.split_steps(walls, 7, 4) == ([1.0, 3.0, 2.0], [10.0, 20.0], [40.0, 70.0])


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1000, 0, -1)]
    assert harness.percentile(values, 99) == 990.0
    assert harness.percentile(values, 5) == 50.0
    assert harness.percentile([3.0], 5) == 3.0


def test_digest_ignores_wall_ms_only(tmp_path):
    a = write_run(tmp_path / "a", [5.0, 1.0, 2.0])
    b = write_run(tmp_path / "b", [7.0, 9.0, 8.0])
    c = write_run(tmp_path / "c", [5.0, 1.0, 2.0], mmd=[0.4, 0.1, 0.1000001])
    digest = harness.metrics_digest
    assert digest(a / "metrics.csv") == digest(b / "metrics.csv")
    assert digest(a / "metrics.csv") != digest(c / "metrics.csv")


def test_check_run_dir(tmp_path):
    assert harness.check_run_dir(write_run(tmp_path / "ok", [1.0] * 3, r=2.0), 2, "adaptive") == []
    assert harness.check_run_dir(write_run(tmp_path / "rows", [1.0] * 3), 3, "adaptive")
    assert harness.check_run_dir(write_run(tmp_path / "mmd", [1.0] * 3, mmd=[0.4, 0.3, 0.21]),
                                 2, "adaptive")
    assert harness.check_run_dir(write_run(tmp_path / "st", [1.0] * 3, status="aborted step 2"),
                                 2, "adaptive")
    bad_m = write_run(tmp_path / "m", [1.0] * 3)
    text = (bad_m / "metrics.csv").read_text().replace(",0.0,1.0,", ",0.0,0.5,", 1)
    (bad_m / "metrics.csv").write_text(text)
    assert harness.check_run_dir(bad_m, 2, "adaptive")
    assert harness.check_run_dir(bad_m, 2, "fixed") == []


def command(tmp_path, name, walls, run_s, **kw):
    out = write_run(tmp_path / name, walls, **kw)
    checks = harness.check_outputs(TRAIN, out, len(walls) - 1)
    return harness.CommandResult(run_s, 100.0, checks)


def test_failed_commands_count_and_lose_their_timings(tmp_path):
    walls = [9.0, 1.0, 3.0, 1.0, 3.0, 7.0]
    commands = [
        command(tmp_path, "c0", walls, 1.0),
        command(tmp_path, "c1", walls, 2.0),
        command(tmp_path, "c2", [9.0] + [100.0] * 5, 50.0, mmd=[0.4] + [0.3] * 5),
        command(tmp_path, "c3", [9.0] + [50.0] * 5, 3.0, mmd=[0.4] + [0.1] * 4 + [0.05]),
    ]
    harness.mark_digest_mismatches([c.checks for c in commands])
    assert [bool(c.checks[0].problems) for c in commands] == [False, False, True, True]
    metrics, info = harness.end_to_end_metrics(commands, steps=5, eval_every=100)
    assert set(metrics) == set(harness.END_TO_END_UNITS)
    assert metrics["ok_share"] == 0.5
    assert info["commands_measured"] == 2 and info["samples_d_g_eval"] == [4, 4, 2]
    assert (metrics["d_step_ms_p01"], metrics["g_step_ms_p01"]) == (1.0, 3.0)
    assert metrics["eval_step_ms_p05"] == 7.0
    assert metrics["setup_s"] == pytest.approx(1.5 - 0.015)
    assert info["unsteady"]["run_s"] == 1.5
    assert info["unsteady"]["steps_per_s"] == pytest.approx(10 / 0.030)


def test_sweep_summary_must_match_a_rescan(tmp_path):
    sweep = harness.Workload("s", "sweep", "configs/ring2d_sweep.cfg", 2)
    write_run(tmp_path / "a", [1.0] * 3, mmd=[0.4, 0.1, 0.2])
    write_run(tmp_path / "b", [1.0] * 3)
    (tmp_path / "summary.csv").write_text(
        "setting,mode,m,beta,status,best_mmd2,best_step\n"
        "a,fixed,0.5,,ok,0.10000000000000001,1\n"
        "b,fixed,0.6,,ok,0.3,1\n")
    checks = harness.check_outputs(sweep, tmp_path, 2)
    assert [bool(ch.problems) for ch in checks] == [False, True]


def test_generated_config_carries_seed_and_overrides():
    text = harness.config_text(harness.WORKLOADS["blobs16"], 7)
    keys = {}
    for line in text.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if key.strip():
            assert key.strip() not in keys, f"duplicate key {key}"
            keys[key.strip()] = value.strip()
    assert keys["seed"] == "7" and keys["steps"] == "500" and keys["arch"] == "conv"


def test_benchmark_json_matches_the_harness():
    import tracing
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


def test_tracer_counts_every_step_alike(tmp_path):
    import tracing
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("dataset_size = 256\nsteps = 12\neval_every = 4\neval_samples = 64\n"
                   "g_hidden = 8\nd_hidden = 8,8\n")
    tracer = tracing.Tracer()
    original = tracing.train.forward
    tracer.install()
    try:
        assert tracing.cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    assert tracing.train.forward is original
    assert tracer.check() == []
    m = tracer.metrics(commands=1)
    assert m["nn.fwd.g.calls"] == 1.0 and m["nn.fwd.d.calls"] == 1.5
    assert m["nn.bwd.d_dstep.calls"] == 1.0 and m["nn.bwd.d_gstep.calls"] == 0.5
    assert m["linalg.power_step.calls"] == 3.0  # one per normalized D layer
    assert m["nn.fwd.g_eval.calls"] == 4 / 12  # step 0 plus steps 4, 8, 12
    assert 0.0 <= m["train.self_share"] < 1.0
