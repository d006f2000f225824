"""pplab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is the ``src`` tree next to this directory.
Every interpreter it starts is fresh, single-process and pinned to one BLAS
and one pplab thread. With ``--trace 0`` it measures set-up three times
(two set-up-only interpreters and the measuring one) and the workload for
three passes or more, about ``--seconds`` in all, and reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics from a traced
run. Human-readable lines come first; the last stdout line is the JSON
result. The full record (machine, per-scenario times, row checks, metrics)
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PINNED = {
    "PPLAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}
SETUP_ONLY_RUNS = 2
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}


def start_worker(args: list[str], timeout: float) -> dict:
    """Start worker.py in a fresh pinned interpreter; its last stdout line."""
    env = {**os.environ, **PINNED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "worker.py"), *args, "--launched-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(record: dict, setup_samples: list[float]) -> dict:
    """wall_s sums, over the workload's scenarios, the median of that
    scenario's times over the passes: each scenario run is one sample."""
    passes = record["passes"]
    wall = sum(
        statistics.median(p["scenarios"][i]["wall_s"] for p in passes) for i in range(len(passes[0]["scenarios"]))
    )
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "reps_per_s": record["replications"] / wall,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def report(record: dict, metrics: dict, units: dict) -> None:
    """Human-readable summary: machine, scenarios, row checks, metrics."""
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    passes = record["passes"]
    print(f"passes {len(passes)} untraced" + (f", {len(record['traced_passes'])} traced" if "traced_passes" in record else ""))
    for i, sc in enumerate(passes[0]["scenarios"]):
        walls = [p["scenarios"][i]["wall_s"] for p in passes]
        print(f"  scenario {sc['scenario']:<18} median {statistics.median(walls):8.3f} s of {len(walls)} runs"
              f"   own verdict passed={sc['passed']}")
    if record["rows_recorded_for_seed"]:
        print(f"rows identical to the recorded seed-{record['seed']} rows: {record['rows_identical']}, moved: {record['rows_moved']}")
    else:
        print(f"rows: {len(record['rows'])} checked against the reference tolerance (no recorded rows for seed {record['seed']})")
    print(f"failed_share {record['failed'] / record['attempted']:.6g} ({record['failed']} of {record['attempted']} scenario runs)")
    for problem in record["problems"]:
        print("  problem: " + problem.replace("\n", "\n    "))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pplab" / "__init__.py").is_file():
        print(f"no pplab source tree at {SRC}", file=sys.stderr)
        return 2
    with open(BENCH / "workloads.json") as fh:
        if args.workload not in json.load(fh):
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    setup_samples = []
    if not args.trace:
        setup_samples = [start_worker(["--setup-only"], SETUP_TIMEOUT_S)["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    record = start_worker(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        3 * args.seconds + 60,
    )
    if args.trace:
        from tracer import LAYER_METRICS

        metrics, units = record["layers"], LAYER_METRICS
    else:
        setup_samples.append(record["setup_s"])
        metrics, units = end_to_end(record, setup_samples), END_TO_END_UNITS
    record["setup_samples_s"] = setup_samples
    record["metrics"] = metrics
    report(record, metrics, units)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
