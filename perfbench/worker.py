"""One benchmark run inside a fresh interpreter whose threads run.py pins.

Usage (run.py starts it; PYTHONPATH must name the checkout's ``src``):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --launched-ns NS
    python3 perfbench/worker.py --setup-only --launched-ns NS

The run sets up as ``pplab run`` does, then runs the workload's scenarios
through ``pplab.scenarios.run`` and ``pplab.reporting.emit``, pass after pass,
until the time budget is spent, and gates every scenario run with
``checks``. With ``--trace 1`` half the budget runs untraced and half under
the span tracer. The last stdout line is the run's record as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
MIN_PASSES = 3


def load_workloads() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def replications(cfg: dict) -> int:
    """Per-replication RNG streams a scenario simulates (bootstrap excluded):
    reps at each t for the distance scenarios and flats, side-A
    configurations for the transport scenarios, and every simulated stream
    of the glauber and Mecke checks. Every count comes from the config
    itself; workloads.json states the parameters it relies on."""
    p = cfg.get("params", {})
    reps, grid = cfg["reps"], cfg["t_grid"]
    name = cfg["scenario"]
    if name == "polytope":
        by_t = {float(k): v for k, v in p["reps_by_t"].items()}
        return sum(by_t[float(t)] for t in grid)
    if name in ("gilbert-midpoints", "kr-estimate"):
        return p["n_configs"] * (len(grid) if name == "gilbert-midpoints" else 1)
    if name == "glauber-verify":
        functionals = 3
        commutation = len(p["commutation_s"]) * functionals * 2 * p["commutation_reps"]
        return 2 * reps + commutation + len(p["s_grid"]) * reps
    if name == "mecke-verify":
        return 8 * reps  # four test functions, Poisson and binomial
    return reps * len(grid)


def import_program():
    """Import what ``pplab run`` imports, plus the scipy submodules the
    pair kernels import on first use; refuse a pplab from outside the checkout."""
    import pplab

    if Path(pplab.__file__).resolve().parent != SRC / "pplab":
        raise SystemExit(f"pplab imported from {pplab.__file__}, not from {SRC}")
    import scipy.spatial
    import scipy.spatial.distance  # noqa: F401
    from pplab import cli, reporting, scenarios  # noqa: F401

    return scenarios, reporting


def warm_caches() -> None:
    """First call of the lru-cached quadrature constants every bound needs."""
    from pplab import bounds

    bounds.cube_pair_integrals(2, 0.1)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "pinned": {k: os.environ.get(k) for k in ("PPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_pass(configs, scenarios, reporting, rows_dir: Path, tracer=None, first_id: int = 0) -> list[dict]:
    """Run and emit every scenario once; one entry per scenario run."""
    runs = []
    for i, cfg in enumerate(configs):
        if tracer is not None:
            tracer.scenario = first_id + i
        t0 = time.perf_counter()
        try:
            result = scenarios.run(cfg)
            path = reporting.emit(result.rows, "csv", rows_dir / f"{i}-{cfg.scenario}.csv")
        except Exception:  # a scenario that raises is one failed operation
            runs.append({"scenario": cfg.scenario, "wall_s": time.perf_counter() - t0,
                         "error": traceback.format_exc(), "passed": False, "rows": [], "csv": ""})
            continue
        wall = time.perf_counter() - t0
        rows = [{c: getattr(r, c) for c in reporting.COLUMNS} for r in result.rows]
        runs.append({"scenario": cfg.scenario, "wall_s": wall, "error": None,
                     "passed": bool(result.passed), "rows": rows, "csv": path.read_text()})
    return runs


def timed_passes(budget: float, run_one, min_passes: int = 1) -> list[list[dict]]:
    """At least min_passes; another only while it is expected to end within budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_one(len(passes)))
        last = sum(r["wall_s"] for r in passes[-1])
        if len(passes) >= min_passes and time.perf_counter() - start + last > budget:
            return passes


def gate(passes: list[list[dict]], baseline: list[dict], stats: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every scenario run of every pass.

    A run must emit exactly the row keys recorded for its scenario, each
    once, and exactly the bytes of the baseline run of its scenario:
    repeated passes and the traced passes re-run the same seed."""
    expected = checks.expected_keys(stats)
    attempted = failed = 0
    problems = []
    for runs in passes:
        for run, base in zip(runs, baseline):
            attempted += 1
            if run["error"]:
                found = [f"{run['scenario']} raised:\n{run['error']}"]
            else:
                found = checks.key_problems(run["scenario"], [checks.row_key(r) for r in run["rows"]],
                                            expected.get(run["scenario"], set()))
                for row in run["rows"]:
                    found += checks.row_problems(row, stats.get(checks.row_key(row)))
                if run["csv"] != base["csv"]:
                    found.append(f"{run['scenario']}: emitted rows differ from the first untraced pass")
            failed += bool(found)
            problems += found
    return attempted, failed, problems


def row_records(runs: list[dict]) -> list[dict]:
    """Rows of one pass with their emitted CSV lines, in emission order."""
    out = []
    for run in runs:
        lines = run["csv"].splitlines()[1:]
        for row, line in zip(run["rows"], lines):
            out.append({"key": checks.row_key(row), "distance": row["distance"],
                        "stderr": row["stderr"], "csv": line})
    return out


def compare_recorded(recorded: dict, rows: list[dict]) -> tuple[int, int]:
    """(identical, moved) against the rows recorded for this seed, by key.
    A recorded row the run did not emit counts as moved."""
    emitted = {r["key"]: r["csv"] for r in rows}
    identical = sum(emitted.get(key) == line for key, line in recorded.items())
    return identical, len(recorded) - identical


def summarize(runs_per_pass: list[list[dict]]) -> list[dict]:
    return [{"wall_s": sum(r["wall_s"] for r in runs),
             "scenarios": [{k: r[k] for k in ("scenario", "wall_s", "passed")} for r in runs]}
            for runs in runs_per_pass]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched-ns", type=int, required=True, help="time.monotonic_ns() when the parent started this interpreter")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    scenarios, reporting = import_program()
    if args.trace:
        import tracer as spans

        tracer = spans.Tracer()
        tracer.install()
    warm_caches()
    setup_s = (time.monotonic_ns() - args.launched_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.uninstall()

    workload = load_workloads()[args.workload]
    configs = [scenarios.ScenarioConfig.from_dict({**c, "seed": args.seed}) for c in workload["configs"]]
    digest = checks.workload_digest(workload["configs"])
    try:
        reference = checks.load_reference(args.workload)
    except (FileNotFoundError, KeyError):
        reference = {}
    stats = reference.get("stats", {}) if reference.get("digest") == digest else {}
    rows_dir = OUT / "rows" / f"{args.workload}-seed{args.seed}"

    budget = args.seconds / 2 if args.trace else args.seconds
    # The median of three passes or more is robust to one slow pass; the
    # first pass of a fresh interpreter is often the slow one.
    untraced = timed_passes(
        budget, lambda k: run_pass(configs, scenarios, reporting, rows_dir), 1 if args.trace else MIN_PASSES
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "env": environment(),
        "replications": sum(replications(c) for c in workload["configs"]),
        "passes": summarize(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    all_passes = list(untraced)
    if tracer is not None:
        n = len(configs)
        tracer.install()
        try:
            traced = timed_passes(
                budget, lambda k: run_pass(configs, scenarios, reporting, rows_dir, tracer, k * n)
            )
        finally:
            tracer.uninstall()
        all_passes += traced
        names = [f"pass{k}:{c.scenario}" for k in range(len(traced)) for c in configs]
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz", names)
        record["traced_passes"] = summarize(traced)
        record["layers"] = spans.layer_metrics(
            tracer.arrays(),
            tracer.names,
            len(traced),
            statistics.median(p["wall_s"] for p in record["traced_passes"]),
            statistics.median(p["wall_s"] for p in record["passes"]),
        )

    attempted, failed, problems = gate(all_passes, untraced[0], stats)
    if not stats:
        problems.insert(0, f"no reference statistics for workload digest {digest}; re-record reference.json")
    rows = row_records(untraced[0])
    recorded = reference.get("rows", {}).get(str(args.seed)) if stats else None
    identical, moved = compare_recorded(recorded, rows) if recorded is not None else (0, 0)
    record.update({
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "rows": rows,
        "rows_recorded_for_seed": recorded is not None,
        "rows_identical": identical,
        "rows_moved": moved,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
