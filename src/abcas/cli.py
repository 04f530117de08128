"""Experiment runner: single runs, fixed-m vs adaptive sweeps, trajectory export.

    abcas train --config PATH [--seed N] [--out DIR] [--mode adaptive|fixed]
                [--m F] [--beta F]
    abcas sweep --config PATH [--out DIR] [--resume]
    abcas traj RUN_DIR

Exit codes: 0 success, 1 config error, 2 numeric abort, 3 I/O error
while writing the run directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import shutil
import sys
from pathlib import Path
from time import monotonic

import numpy as np

from . import __version__
from .config import (ConfigError, Settings, build_networks, load_settings, manifest_text,
                     parse_config_text, resolve_settings)
from .data import TensorFileError, write_tensor_file
from .metrics import CSV_HEADER
from .nn import forward
from .train import (EvalBaseline, NumericAbort, TrainHooks, eval_baseline, generate,
                    run_training, sample_latent)

__all__ = ["main", "cmd_train", "cmd_sweep", "cmd_traj"]

OK, CONFIG_ERROR, NUMERIC_ABORT, IO_ERROR = 0, 1, 2, 3
# the longest a metrics.csv row waits for a checkpoint before it is written
ROW_WRITE_SECONDS = 1.0


def _run_inputs(settings: Settings) -> tuple[np.ndarray, EvalBaseline | NumericAbort]:
    """The dataset and step-0 evaluation baseline of a run.

    A sweep builds them once, from its one read of its config: each
    setting is that read with its own mode, m or beta, none of which the
    baseline depends on. In place of the baseline comes the step-0
    ``NumericAbort`` when the initial generator's evaluation sample is
    not finite; every run that is given it reports it as its own abort.
    A dataset that cannot be read is a config error.
    """
    try:
        data = settings.dataset_spec().load()
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    g_spec, _ = build_networks(settings, tuple(data.shape[1:]))
    try:
        return data, eval_baseline(settings.train, data, g_spec)
    except NumericAbort as exc:
        return data, exc


def _run_one(settings: Settings, out_dir: Path, data: np.ndarray,
             baseline: EvalBaseline | NumericAbort) -> str:
    """Train one configuration into out_dir. Returns the status it wrote."""
    g_spec, d_spec = build_networks(settings, tuple(data.shape[1:]))
    out_dir.mkdir(parents=True, exist_ok=True)
    # a rerun replaces the earlier run's outputs; manifest.cfg is rewritten below
    for name in ("status.txt", "samples.abt", "metrics.csv"):
        (out_dir / name).unlink(missing_ok=True)
    ckpt_root = out_dir / "checkpoints"
    if ckpt_root.exists():
        shutil.rmtree(ckpt_root)
    (out_dir / "manifest.cfg").write_text(
        manifest_text(settings, f"abcas-{__version__}", out_dir.name))

    aborted = baseline if isinstance(baseline, NumericAbort) else None
    with open(out_dir / "metrics.csv", "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        # rows are formatted and written in batches, outside every step's wall:
        # with the row of the last checkpoint's step, once ROW_WRITE_SECONDS
        # have passed since the last write, and on every way out
        pending = []
        checkpoint_step = 0  # row 0 is recorded before step 0's checkpoint
        written_at = monotonic()

        def write_pending():
            nonlocal written_at
            try:
                fh.writelines(rec.to_csv_row() + "\n" for rec in pending)
            finally:
                pending.clear()
            fh.flush()
            written_at = monotonic()

        def on_record(rec):
            pending.append(rec)
            if rec.step == checkpoint_step or monotonic() - written_at >= ROW_WRITE_SECONDS:
                write_pending()

        def on_eval(step, g_store, d_store):
            nonlocal checkpoint_step
            ckpt = ckpt_root / f"step_{step:06d}"
            ckpt.mkdir(parents=True, exist_ok=True)
            write_tensor_file(ckpt / "g.abt", g_store.flat)
            write_tensor_file(ckpt / "d.abt", d_store.flat)
            checkpoint_step = step

        try:
            if aborted is None:
                g_store = run_training(settings.train, baseline, g_spec, d_spec,
                                       hooks=TrainHooks(on_record=on_record, on_eval=on_eval))
        except NumericAbort as exc:
            aborted = exc
        finally:
            write_pending()

    if aborted is not None:
        print(f"abcas: {aborted}", file=sys.stderr)
        if aborted.last_record is not None:
            print(f"abcas: last finite record: {aborted.last_record.to_csv_row()}",
                  file=sys.stderr)
        status = f"aborted step {aborted.step}"
        (out_dir / "status.txt").write_text(status + "\n")
        return status

    z = sample_latent(np.random.default_rng([settings.train.seed, 7]),
                      settings.train.eval_samples, g_spec)
    # nn.forward, not train.forward: perfbench's tracer counts every G pass
    # through train.forward outside a training step as an evaluation
    write_tensor_file(out_dir / "samples.abt", generate(g_spec, g_store, z, forward))
    (out_dir / "status.txt").write_text("ok\n")
    return "ok"


def cmd_train(config_path: str, out: str | None, overrides: dict[str, str]) -> int:
    out_dir = Path(out) if out else Path("runs") / Path(config_path).stem
    try:
        settings = load_settings(config_path, overrides)
        return OK if _run_one(settings, out_dir, *_run_inputs(settings)) == "ok" else NUMERIC_ABORT
    except (ConfigError, TensorFileError) as exc:
        print(f"abcas: config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except OSError as exc:  # unreadable inputs are ConfigErrors, so this is a write
        return _io_error(exc)


def _best_mmd(metrics_path: Path) -> tuple[float, int] | None:
    """Row-wise minimum of the mmd2 column and the first step attaining it;
    None if the file is missing or does not decode and parse as metrics."""
    best = None
    try:
        with open(metrics_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            i_step, i_mmd = header.index("step"), header.index("mmd2")
            for row in reader:
                # a write cut short mid-row (an I/O error) leaves a partial last row
                if len(row) != len(header):
                    continue
                value, step = float(row[i_mmd]), int(row[i_step])
                if best is None or value < best[0]:
                    best = (value, step)
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    return best


def cmd_sweep(config_path: str, out: str | None, resume: bool) -> int:
    try:
        base = load_settings(config_path)
    except ConfigError as exc:
        print(f"abcas: config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    # one run directory per setting, named with :g; refuse values that share one
    points: dict[str, dict[str, str]] = {}
    for key, prefix, mode, param, values in (
            ("sweep_fixed_m", "fixed_m", "fixed", "m", base.sweep_fixed_m),
            ("sweep_abcas_beta", "abcas_beta", "adaptive", "beta", base.sweep_abcas_beta)):
        for value in values:
            label = f"{prefix}{value:g}"
            if label in points:
                print(f"abcas: config error: {key} values {float(points[label][param])!r} and "
                      f"{value!r} would share the run directory {label}", file=sys.stderr)
                return CONFIG_ERROR
            points[label] = {"mode": mode, param: f"{value:.17g}"}
    if not points:
        print("abcas: config error: sweep_fixed_m and sweep_abcas_beta are both empty; "
              "a sweep needs at least one setting", file=sys.stderr)
        return CONFIG_ERROR
    out_dir = Path(out) if out else Path("runs") / (Path(config_path).stem + "_sweep")
    # each setting is this one read with its own overrides; later edits change none
    raw = parse_config_text(manifest_text(base, f"abcas-{__version__}", out_dir.name))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _io_error(exc)
    # an error here is reported by every setting, as when each loaded its own data
    try:
        shared = _run_inputs(base)
    except (ConfigError, TensorFileError) as exc:
        shared = exc

    summary = ["setting,mode,m,beta,status,best_mmd2,best_step\n"]
    for label, overrides in points.items():
        sub_dir = out_dir / label
        status_path = sub_dir / "status.txt"
        status = None
        if resume:
            # skip only a finished run of this config; the sweep's own values may differ
            try:
                status = status_path.read_text().strip()
                ran, want = (re.sub(r"(?m)^sweep_\w+ = .*\n", "", text) for text in (
                    (sub_dir / "manifest.cfg").read_text(),
                    manifest_text(resolve_settings(raw, overrides), f"abcas-{__version__}", label)))
            except (OSError, ValueError):  # none was written, or it cannot be read
                status = ran = want = None
            if ran != want or not re.fullmatch(r"ok|aborted step \d+", status or ""):
                status = None
        if status is not None:
            print(f"abcas sweep: {label}: skipped (already {status})")
        else:
            try:
                settings = resolve_settings(raw, overrides)
                if isinstance(shared, Exception):
                    raise shared
                status = _run_one(settings, sub_dir, *shared)
            except (ConfigError, TensorFileError) as exc:
                print(f"abcas sweep: {label}: config error: {exc}", file=sys.stderr)
                status = "config error"
            except OSError as exc:
                print(f"abcas sweep: {label}: I/O error: {exc}", file=sys.stderr)
                status = "io error"
            if status in ("config error", "io error"):
                try:
                    sub_dir.mkdir(parents=True, exist_ok=True)
                    status_path.write_text(status + "\n")
                except OSError:
                    try:
                        status_path.unlink(missing_ok=True)  # the next --resume reruns it
                    except OSError:  # nor can it be removed; --resume reruns it too
                        pass
            print(f"abcas sweep: {label}: {status}")
        # a config error's metrics.csv, if any, is an earlier run's; an I/O
        # error's is this run's, since a run deletes the old one first
        best = None if status == "config error" else _best_mmd(sub_dir / "metrics.csv")
        summary.append(",".join((label, overrides["mode"], overrides.get("m", ""),
                                 overrides.get("beta", ""), status.replace(" ", "_"),
                                 f"{best[0]:.17g}" if best else "",
                                 str(best[1]) if best else "")) + "\n")
    return _write_text(out_dir / "summary.csv", "".join(summary))


def cmd_traj(run_dir: str) -> int:
    metrics_path = Path(run_dir) / "metrics.csv"
    try:
        text = metrics_path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"abcas: cannot read {metrics_path}: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    lines = ["step,r,m\n"]
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    missing = [name for name in ("step", "r", "m") if name not in header]
    if missing:
        print(f"abcas: {metrics_path}: missing column {', '.join(missing)}", file=sys.stderr)
        return CONFIG_ERROR
    picks = [header.index(name) for name in ("step", "r", "m")]
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            print(f"abcas: {metrics_path}: line {reader.line_num} has {len(row)} fields, "
                  f"the header has {len(header)}", file=sys.stderr)
            return CONFIG_ERROR
        # copy field strings verbatim so the projection is exact
        lines.append(",".join(row[j] for j in picks) + "\n")
    return _write_text(Path(run_dir) / "r_traj.csv", "".join(lines))


def _io_error(exc: OSError) -> int:
    print(f"abcas: I/O error: {exc}", file=sys.stderr)
    return IO_ERROR


def _write_text(path: Path, text: str) -> int:
    """Write ``text`` to ``path``; an error is reported as an I/O error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        return _io_error(exc)
    return OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abcas",
        description="Spectrally normalized GAN training with adaptive bound control.",
    )
    parser.add_argument("--version", action="version", version=f"abcas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--out")
    p_train.add_argument("--mode", choices=("adaptive", "fixed"))
    p_train.add_argument("--m", type=float, help="fixed-mode multiplier")
    p_train.add_argument("--beta", type=float, help="controller distance target")

    p_sweep = sub.add_parser("sweep", help="run the fixed-m / adaptive comparison grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip settings already finished under this config")

    p_traj = sub.add_parser("traj", help="project (step, r, m) out of a run's metrics")
    p_traj.add_argument("run_dir")

    args = parser.parse_args(argv)
    if args.command == "train":
        overrides = {key: f"{value:.17g}" if isinstance(value, float) else str(value)
                     for key in ("seed", "mode", "m", "beta")
                     if (value := getattr(args, key)) is not None}
        return cmd_train(args.config, args.out, overrides)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.out, args.resume)
    return cmd_traj(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
