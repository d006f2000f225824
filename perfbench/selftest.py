"""Self-tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer as spans  # noqa: E402
import worker  # noqa: E402
from pplab import reporting, scenarios  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# One small config per patched layer path: both sides of the n=256 pair
# kernel switch, the diameter kernel, the law samplers, birth-death, Mecke, transport, flats.
SMALL = [
    {"scenario": "gilbert-edges", "d": 2, "t_grid": [50.0, 300.0], "reps": 1000, "params": {"lam": 1.0}},
    {"scenario": "gilbert-lengths", "d": 2, "t_grid": [50.0], "reps": 1000, "params": {"b": 1.0}},
    {"scenario": "distance-power", "d": 2, "t_grid": [50.0], "reps": 1000, "params": {"tau": 4.0}},
    {"scenario": "polytope", "d": 3, "t_grid": [100.0], "reps": 1000, "params": {"a": 1.0}},
    {"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "reps": 200, "params": {"commutation_reps": 100}},
    {"scenario": "mecke-verify", "d": 2, "t_grid": [20.0], "reps": 50, "params": {"n": 20}},
    {"scenario": "gilbert-midpoints", "d": 2, "t_grid": [200.0], "reps": 1000, "params": {"n_configs": 100}},
    {"scenario": "kr-estimate", "d": 2, "t_grid": [3.0], "reps": 1000, "params": {"n_configs": 100}},
    {"scenario": "flats", "d": 3, "t_grid": [100.0], "reps": 20, "params": {"constant_mc_samples": 200}},
]


def _parse(line: str) -> dict:
    row = dict(zip(reporting.COLUMNS, next(csv.reader([line]))))
    row["d"] = int(row["d"])
    for c in ("t", "distance", "stderr"):
        row[c] = float(row[c])
    return row


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(worker.load_workloads()))
def test_workload_configs_parse(name):
    configs = worker.load_workloads()[name]["configs"]
    # row keys name the scenario, so the gate needs each scenario once per workload
    assert len({c["scenario"] for c in configs}) == len(configs)
    for cfg in configs:
        parsed = scenarios.ScenarioConfig.from_dict({**cfg, "seed": 42})
        assert parsed.scenario == cfg["scenario"]
        assert worker.replications(cfg) > 0


def test_traced_rows_identical_to_untraced(tmp_path):
    configs = [scenarios.ScenarioConfig.from_dict({**c, "seed": 3}) for c in SMALL]
    untraced = worker.run_pass(configs, scenarios, reporting, tmp_path / "untraced")
    tracer = spans.Tracer()
    originals = (scenarios.run, scenarios.derive_rng, scenarios.Configuration.__dict__["from_array"])
    tracer.install()
    try:
        traced = worker.run_pass(configs, scenarios, reporting, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert (scenarios.run, scenarios.derive_rng, scenarios.Configuration.__dict__["from_array"]) == originals
    for a, b in zip(untraced, traced):
        assert a["error"] is None and b["error"] is None
        assert a["csv"] == b["csv"], a["scenario"]
    layers = spans.layer_metrics(tracer.arrays(), tracer.names, 1, 1.0, 1.0)
    for name in ("rng.streams", "transform.pair_calls", "transform.diameter_calls", "glauber.sim_calls",
                 "glauber.survivor_calls", "configuration.adds", "metrics.ot_solves", "metrics.cost_evals",
                 "metrics.dist1d_calls", "sampling.flats_drawn", "bounds.haar_samples", "sampling.poisson_calls",
                 "bounds.calls", "reporting.bytes", "laws.cdf_self_s", "laws.sample_self_s"):
        assert layers[name] > 0, name
    # the kd-tree side of the pair-kernel switch was reached
    assert layers["transform.pair_us.n_ge_256"] > 0


def test_self_time_subtracts_children():
    tree = {
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
    }
    assert list(spans.self_times(tree)) == [6.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("name", sorted(worker.load_workloads()))
def test_negative_control_perturbed_row(name):
    ref = checks.load_reference(name)
    assert ref["digest"] == checks.workload_digest(worker.load_workloads()[name]["configs"])
    for line in ref["rows"]["42"].values():
        row = _parse(line)
        stats = ref["stats"][checks.row_key(row)]
        assert checks.row_problems(row, stats) == []
        # rows that do not vary with the seed have sigma 0 and must not move at all
        moved = {**row, "distance": stats["mean"] + (10 * stats["sigma"] or 1e-6)}
        assert checks.row_problems(moved, stats), line


def test_negative_control_tv_above_one():
    ref = checks.load_reference("pair-stats")
    row = next(r for r in map(_parse, ref["rows"]["42"].values()) if r["distance_name"].startswith("tv"))
    bad = {**row, "distance": 1.0000000000000002}
    assert any("above 1" in p for p in checks.row_problems(bad, {"mean": 1.0, "sigma": 1.0}))
    for value in (float("nan"), float("inf"), -1e-300):
        assert checks.row_problems({**row, "distance": value}, {"mean": 0.0, "sigma": 1.0})


def _recorded_run(name: str, seed: str = "42") -> tuple[list[dict], dict]:
    """One pass of the workload's recorded rows, as run_pass returns it."""
    ref = checks.load_reference(name)
    runs = []
    for cfg in worker.load_workloads()[name]["configs"]:
        lines = [line for key, line in ref["rows"][seed].items() if key.startswith(cfg["scenario"] + "|")]
        runs.append({"scenario": cfg["scenario"], "wall_s": 1.0, "error": None, "passed": True,
                     "rows": [_parse(line) for line in lines], "csv": "\n".join(["header", *lines]) + "\n"})
    return runs, ref


def _drop_last_row(run: dict) -> dict:
    lines = run["csv"].splitlines()
    return {**run, "rows": run["rows"][:-1], "csv": "\n".join(lines[:-1]) + "\n"}


@pytest.mark.parametrize("name", sorted(worker.load_workloads()))
def test_negative_control_missing_or_repeated_row(name):
    runs, ref = _recorded_run(name)
    assert worker.gate([runs], runs, ref["stats"])[:2] == (len(runs), 0)
    dropped = [_drop_last_row(runs[0]), *runs[1:]]
    empty = [{**runs[0], "rows": [], "csv": "header\n"}, *runs[1:]]
    repeated = [{**runs[0], "rows": runs[0]["rows"] + runs[0]["rows"][-1:]}, *runs[1:]]
    for bad in (dropped, empty, repeated):
        # compared with itself as the baseline, so only the row-key check can fail it
        attempted, failed, problems = worker.gate([bad], bad, ref["stats"])
        assert (attempted, failed) == (len(runs), 1), problems
    # without reference statistics every run fails, even one that emits no rows
    assert worker.gate([empty], empty, {})[:2] == (len(runs), len(runs))


def test_missing_recorded_row_counts_as_moved():
    runs, ref = _recorded_run("pair-stats")
    rows = worker.row_records(runs)
    recorded = ref["rows"]["42"]
    assert worker.compare_recorded(recorded, rows) == (len(recorded), 0)
    assert worker.compare_recorded(recorded, rows[:-1]) == (len(recorded) - 1, 1)
    assert worker.compare_recorded(recorded, []) == (0, len(recorded))


def test_raising_scenario_is_a_failed_operation(tmp_path):
    cfg = scenarios.ScenarioConfig.from_dict(
        {"scenario": "kr-estimate", "t_grid": [3.0], "seed": 1, "params": {"mode": "no-such-mode"}}
    )
    runs = worker.run_pass([cfg], scenarios, reporting, tmp_path)
    assert "ValueError" in runs[0]["error"]
    attempted, failed, _ = worker.gate([runs], runs, {})
    assert (attempted, failed) == (1, 1)


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(worker.load_workloads())
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flats", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
