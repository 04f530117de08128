"""abcas benchmark: one run of one workload.

    python3 perfbench/run.py --workload ring2d|blobs16|sweep-ring2d \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. ``--trace 0`` drives the real
``abcas`` commands as child processes and reports the end-to-end metrics;
``--trace 1`` runs the same command in-process, times calls into each
module from outside (see ``tracing.py``) and reports the per-layer
metrics. Both check the program's outputs. Human-readable lines come
first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. A fuller record,
including the environment and the same-seed digest, is written to
``perfbench/work/<workload>-seed<N>-trace<T>.json``.

BLAS and OpenMP are pinned to one thread in every child and in this
process; one command runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (harness.SRC / "abcas" / "__init__.py").is_file():
        print(f"perfbench: no abcas sources under {harness.SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = harness.WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if args.trace:
        os.environ.update(harness.THREAD_ENV)  # before numpy is first imported
        import tracing
        metrics, attempted, failed, info = tracing.run_traced(
            workload, args.seed, args.seconds, work)
        units = tracing.per_layer_units()
    else:
        metrics, attempted, failed, info = harness.run_untraced(
            workload, args.seed, args.seconds, work)
        units = harness.END_TO_END_UNITS

    # Same-seed digests recorded at the commit that introduced the benchmark:
    # a mismatch means the float arithmetic of training changed since.
    reference = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())
    expected = reference.get(workload.name, {}).get(str(args.seed))
    info["digest_reference"] = ("no reference for this seed" if expected is None
                                else "match" if expected == info["digest"]
                                else f"differs from {expected}")
    env = harness.environment()
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in info.get("problems", []):
        print(f"FAILED {problem}")
    for key, value in info.pop("unsteady", {}).items():
        print(f"unsteady {key} = {value:.6g}")
    for key, value in info.items():
        if key != "problems":
            print(f"info {key} = {value}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, info=info, environment=env)
    (harness.WORK / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
