"""Golden outputs: short CLI runs must reproduce recorded sha256 digests.

The digests cover each run's ``metrics.csv`` without ``wall_ms``, every
checkpoint file, ``samples.abt``, ``manifest.cfg``, ``status.txt`` and a
sweep's ``summary.csv``. They hold
for the numpy build, BLAS build and CPU features recorded next to them;
on any other environment the test skips and names both.

Re-record ``tests/golden.json`` with

    PYTHONPATH=src python tests/test_golden.py

only in a change that means to change numbers. It first prints every
entry whose digest changed, with each ``metrics.csv``'s differing columns.
"""

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from abcas import cli

GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# name -> (command, config file, lines appended to it, extra flags)
RUNS = {
    "ring2d": ("train", "ring2d.cfg", "steps = 400", []),
    "blobs16": ("train", "blobs16.cfg", "steps = 200", []),
    "ring2d_fixed_m": ("train", "ring2d.cfg", "steps = 200", ["--mode", "fixed", "--m", "0.7"]),
    "ring2d_sweep": ("sweep", "ring2d_sweep.cfg",
                     "steps = 200\nsweep_fixed_m = 0.7\nsweep_abcas_beta = 4", []),
}


def environment() -> dict:
    """The numpy build, the BLAS build and the CPU features the BLAS picks its kernels by."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}: {blas.get('openblas configuration', '')}",
            "cpu_features": config["SIMD Extensions"]["found"]}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def metrics_entry(path: Path) -> dict:
    """Digests of metrics.csv without wall_ms: the whole file, each column and each row."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    keep = [j for j, name in enumerate(header) if name != "wall_ms"]
    table = [[row[j] for j in keep] for row in [header] + rows]
    return {"sha256": _sha("".join(",".join(row) + "\n" for row in table)),
            "columns": {col[0]: _sha("\n".join(col))[:16] for col in zip(*table)},
            "rows": "".join(_sha(",".join(row))[:8] for row in table[1:])}


def record_run(name: str, work: Path) -> dict:
    """Run one golden configuration under ``work`` and digest what it wrote."""
    command, config, extra, flags = RUNS[name]
    cfg = work / f"{name}.cfg"
    cfg.write_text((CONFIGS / config).read_text() + "\n" + extra + "\n")
    out = work / name
    assert cli.main([command, "--config", str(cfg), "--out", str(out)] + flags) == 0
    entries = {}
    # metrics.csv first, so that a numeric change is reported with its row and columns
    for path in sorted(out.rglob("*"), key=lambda p: (p.name != "metrics.csv", p)):
        rel = path.relative_to(out).as_posix()
        if path.name == "metrics.csv":
            entries[rel] = metrics_entry(path)
        elif path.suffix == ".abt" or path.name in ("manifest.cfg", "status.txt", "summary.csv"):
            entries[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return entries


def entry_difference(want, got) -> str | None:
    """How a digest entry ``got`` departs from the recorded ``want``, or None."""
    if got is None:
        return "missing"
    if got == want:
        return None
    if not isinstance(want, dict):
        return "sha256 differs"
    # row digests give the first differing row, column digests every
    # differing column; single cells are not recorded
    row = next((k // 8 for k in range(0, max(len(want["rows"]), len(got["rows"])), 8)
                if want["rows"][k:k + 8] != got["rows"][k:k + 8]), "none")
    cols = [c for c in want["columns"] if want["columns"][c] != got["columns"].get(c)]
    return (f"first differing row {row} after the header; "
            f"differing columns {', '.join(cols) or 'none'}")


def differences(expected: dict, actual: dict) -> list[str]:
    """Every entry where ``actual`` departs from ``expected``, in recorded file order."""
    found = [f"{rel}: {diff}" for rel, want in expected.items()
             if (diff := entry_difference(want, actual.get(rel))) is not None]
    return found + [f"{rel}: not in the recording" for rel in sorted(set(actual) - set(expected))]


@pytest.fixture(scope="module")
def golden():
    recorded = json.loads(GOLDEN.read_text())
    here = environment()
    if recorded["environment"] != here:
        pytest.skip(f"golden digests were recorded on {recorded['environment']}, "
                    f"this environment is {here}")
    return recorded


@pytest.mark.parametrize("name", RUNS)
def test_golden_outputs(golden, name, tmp_path):
    diffs = differences(golden["runs"][name], record_run(name, tmp_path))
    assert not diffs, f"{name}: {'; '.join(diffs)}; environment {golden['environment']}"


def test_mismatch_report_names_first_row_and_column(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("step,d_loss,mmd2,wall_ms\n0,1,0.5,7\n1,1,0.25,8\n2,2,0.125,9\n")
    want = {"metrics.csv": metrics_entry(path)}
    path.write_text("step,d_loss,mmd2,wall_ms\n0,1,0.5,1\n1,1,0.25,2\n2,2,0.125,3\n")
    assert differences(want, {"metrics.csv": metrics_entry(path)}) == []
    path.write_text("step,d_loss,mmd2,wall_ms\n0,1,0.5,7\n1,1,0.3,8\n2,3,0.125,9\n")
    assert differences(want, {"metrics.csv": metrics_entry(path)}) == [
        "metrics.csv: first differing row 1 after the header; differing columns d_loss, mmd2"]
    assert differences(want, {}) == ["metrics.csv: missing"]
    assert differences({}, want) == ["metrics.csv: not in the recording"]


def test_differences_lists_every_changed_entry(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("step,mmd2,wall_ms\n0,0.5,7\n1,0.25,8\n")
    want = {"metrics.csv": metrics_entry(path), "g.abt": "11", "status.txt": "22"}
    path.write_text("step,mmd2,wall_ms\n0,0.5,7\n1,0.3,8\n")
    got = {"metrics.csv": metrics_entry(path), "g.abt": "11", "status.txt": "44",
           "samples.abt": "55"}
    assert differences(want, got) == [
        "metrics.csv: first differing row 1 after the header; differing columns mmd2",
        "status.txt: sha256 differs",
        "samples.abt: not in the recording"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: record_run(name, Path(tmp)) for name in RUNS}
    # what the re-recording changes, so that its log can name it
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    changed = [f"{name}/{line}" for name in runs
               for line in differences(old.get(name, {}), runs[name])]
    print("\n".join(changed) or "no digest changed")
    GOLDEN.write_text(json.dumps({"environment": environment(), "runs": runs}, indent=1) + "\n")
    print(f"recorded {sum(map(len, runs.values()))} digests in {GOLDEN}", file=sys.stderr)
