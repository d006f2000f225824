"""Record the reference rows the benchmark's correctness gate compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

For each workload (default: all) it runs one untraced pass per seed in
SEEDS, each in a fresh pinned interpreter, and writes to reference.json:

- the emitted CSV rows, by row key, for the default seed 42 and the
  held-out seed 7, so a run at either seed reports how many rows are
  bit-identical and how many moved or went missing;
- per row key, the mean and sigma of ``distance`` over all SEEDS, where
  sigma is the larger of the spread over seeds and the mean reported
  stderr. A run at any seed fails a row that is more than
  ``checks.TOLERANCE_SIGMAS`` sigma from that mean.

Re-record whenever workloads.json changes (the gate refuses reference
statistics recorded for another workload definition), and say in the
change which rows moved and why.
"""

from __future__ import annotations

import json
import statistics
import sys

import checks
from run import start_worker
from worker import load_workloads

RECORDED_SEEDS = (42, 7)
SEEDS = RECORDED_SEEDS + tuple(range(1001, 1011))


def record_workload(name: str, configs: list[dict]) -> dict:
    by_seed = {}
    for seed in SEEDS:
        rec = start_worker(["--workload", name, "--seed", str(seed), "--seconds", "0"], 600)
        by_seed[seed] = rec["rows"]
        print(f"{name} seed {seed}: {sum(p['wall_s'] for p in rec['passes']):.2f} s", file=sys.stderr)
    keys = [r["key"] for r in by_seed[SEEDS[0]]]
    if len(set(keys)) != len(keys):
        raise SystemExit(f"{name}: a row key is emitted more than once")
    stats = {}
    for i, key in enumerate(keys):
        rows = [by_seed[s][i] for s in SEEDS]
        if any(r["key"] != key for r in rows):
            raise SystemExit(f"{name}: row {i} has different keys across seeds")
        dists = [r["distance"] for r in rows]
        sigma = max(statistics.stdev(dists), statistics.fmean(r["stderr"] for r in rows))
        stats[key] = {"mean": statistics.fmean(dists), "sigma": sigma}
    return {
        "digest": checks.workload_digest(configs),
        "stats": stats,
        "rows": {str(s): {r["key"]: r["csv"] for r in by_seed[s]} for s in RECORDED_SEEDS},
    }


def main(argv: list[str]) -> int:
    workloads = load_workloads()
    try:
        with open(checks.REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference["seeds"] = list(SEEDS)
    for name in argv or list(workloads):
        reference["workloads"][name] = record_workload(name, workloads[name]["configs"])
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
