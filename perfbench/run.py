"""NSYNC benchmark: one command, three workloads, end to end or layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` additionally repeats the measured phase with span wrappers
around each layer's public calls and reports the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in this
directory for the workloads, metric definitions and the layer map.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every process it starts.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("campaign_cold", "offline_native", "fleet_native")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    from common import nproc

    work = WORK / f"{args.workload}-{os.getpid()}"
    trace_dir = None
    if args.trace:
        trace_dir = WORK / f"trace-{args.workload}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "fleet_native":
            import fleet as workload
        else:
            import research as workload
        result = workload.run(
            args.workload, args.seed, args.seconds, work, trace_dir
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    print("env " + json.dumps(env))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # A layer this workload bypasses reads 0.
        declared = {m["name"] for m in spec["per_layer"]}
        unknown = set(result.layers) - declared
        if unknown:
            raise ValueError(f"undeclared per-layer metrics: {sorted(unknown)}")
        values = {name: result.layers.get(name, 0.0) for name in declared}
        wanted = spec["per_layer"]
    else:
        values = result.end_to_end
        wanted = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{'attempted':28s} {result.attempted:14d}")
    print(f"{'failed':28s} {result.failed:14d}")
    for note in result.notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and result.valid,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
