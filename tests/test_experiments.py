import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from oracles import parse_csv, parse_json
from pplab import cli, metrics, reporting, sampling, scenarios, transform
from pplab.geometry import Domain
from pplab.rng import _threads, derive_rng, replicate
from pplab.scenarios import ResultRow, ScenarioConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_cli(*args, cwd=None):
    """Run ``python -m pplab.cli`` with the repo's ``src`` first on PYTHONPATH.

    The path is absolute, so the child finds pplab from any working
    directory whether or not the package is installed.
    """
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "pplab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _tiny_rows():
    return [
        ResultRow(
            scenario="gilbert-edges",
            d=2,
            t=50.0,
            statistic="edge-count",
            distance_name="wasserstein",
            distance=0.123456789012345,
            stderr=0.01,
            bound=0.4,
            bound_form="moment-form",
            rate_pred=-1.0,
            seed=7,
        ),
        ResultRow(
            scenario="gilbert-edges",
            d=2,
            t=100.0,
            statistic="edge-count",
            distance_name="wasserstein",
            distance=0.05,
            stderr=0.009,
            bound=None,
            bound_form="",
            rate_pred=None,
            seed=7,
        ),
    ]


def test_distance_power_threshold_t_must_be_on_grid():
    # an off-grid threshold_t used to leave the threshold unchecked: this
    # config ran and passed with an unreachable dk_threshold
    params = {"tau": 4.0, "dk_threshold": 1e-9, "threshold_t": 75.0}
    cfg = ScenarioConfig(scenario="distance-power", t_grid=(50.0, 100.0), params=params)
    with pytest.raises(ValueError, match="threshold_t 75.0 is not in t_grid"):
        cfg.validate()
    ScenarioConfig(scenario="distance-power", t_grid=(50.0, 100.0),
                   params={**params, "threshold_t": 100.0}).validate()


@pytest.mark.parametrize("scenario", ["glauber-verify", "mecke-verify", "kr-estimate"])
def test_one_point_grid_scenarios_reject_longer_grids(scenario):
    # these runners read one t (glauber-verify none), so the other points of
    # a longer grid would be dropped without a word
    with pytest.raises(ValueError, match="one-point t_grid"):
        ScenarioConfig.from_dict({"scenario": scenario, "t_grid": [1.0, 3.0, 10.0]})
    ScenarioConfig.from_dict({"scenario": scenario, "t_grid": [10.0]})


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="nope").validate()
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="gilbert-edges", t_grid=(100.0, 50.0)).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="gilbert-edges", reps=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="gilbert-edges", reps=10).validate()  # distance scenario
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"scenario": "flats", "bogus": 1})
    cfg = ScenarioConfig.from_dict(
        {"scenario": "mecke-verify", "d": 2, "t_grid": [20.0], "reps": 50, "seed": 3}
    )
    assert cfg.scenario == "mecke-verify"
    # one replication has no sample standard error: its rows would carry NaN
    for scenario in ("flats", "mecke-verify", "glauber-verify", "kr-estimate"):
        with pytest.raises(ValueError, match=">= 2"):
            ScenarioConfig(scenario=scenario, d=3, reps=1).validate()
        ScenarioConfig(scenario=scenario, d=3, reps=2).validate()


@pytest.mark.parametrize(
    "scenario, key, value, kind, accepted",
    [
        ("gilbert-edges", "d", 2.7, "an integer", 2000.0),
        ("gilbert-edges", "reps", 1000.9, "an integer", 2000.0),
        ("gilbert-edges", "seed", True, "an integer", 2000.0),
        ("gilbert-edges", "d", "2", "an integer", 2000.0),
        ("gilbert-lengths", "cells", 8.9, "an integer", 8.0),
        ("mecke-verify", "n", 10.7, "an integer", 10.0),
        ("kr-estimate", "n_configs", True, "an integer", 300.0),
        ("flats", "m", 1.5, "an integer", 1.0),
        ("flats", "constant_mc_samples", "200000", "an integer", 200_000.0),
        ("glauber-verify", "commutation_reps", 1000.5, "an integer", 1000.0),
        ("gilbert-edges", "lam", True, "a number", 1),
        ("distance-power", "tau", "4.0", "a number", 4),
    ],
    ids=["fractional-d", "fractional-reps", "bool-seed", "string-d", "fractional-cells", "fractional-n",
         "bool-n_configs", "fractional-m", "string-constant_mc_samples", "fractional-commutation_reps",
         "bool-lam", "string-tau"],
)
def test_config_integers_are_not_truncated(scenario, key, value, kind, accepted):
    # int() turned d 2.7 into 2, reps 1000.9 into 1000 and seed true into 1;
    # cells 8.9 ran 8 cells as tv-8cell, n 10.7 ran n = 10 and lam true ran as 1.0
    def config(v):
        if key in ("d", "reps", "seed"):
            return {"scenario": scenario, key: v}
        return {"scenario": scenario, "params": {key: v}}

    with pytest.raises(ValueError, match=f"{key} must be {kind}, got {value!r}"):
        ScenarioConfig.from_dict(config(value))
    # an integral float is an integer, and an integer is a number
    cfg = ScenarioConfig.from_dict(config(accepted))
    assert getattr(cfg, key, None) in (None, 2000)


@pytest.mark.parametrize(
    "t_grid",
    [(0.0,), (-50.0, 50.0), (float("nan"),), (50.0, float("inf"))],
    ids=["zero", "negative", "nan", "inf"],
)
def test_t_grid_entries_positive_and_finite(t_grid):
    # t = 0 passed validation and then divided by zero in gilbert-edges, and
    # a NaN passes the strictly-increasing check
    with pytest.raises(ValueError, match="t_grid entries must be positive and finite"):
        ScenarioConfig(scenario="gilbert-edges", t_grid=t_grid).validate()


@pytest.mark.parametrize(
    "reps_by_t, message",
    [
        ({"100.0": 1}, ">= 2"),  # one replication: a 1e-06 stderr from the variance floor
        ({"100.0": 0}, ">= 2"),  # no replication: a division by zero
        ({"100.0": 999}, "at least 1000"),
        ({"100.0": 3000, "200.0": 1000}, "not in t_grid"),  # silently unused
        ({"abc": 2000}, "reps_by_t key 'abc' is not a number"),  # float()'s message named no key
    ],
    ids=["one-rep", "zero-reps", "below-1000", "unknown-t", "non-numeric-key"],
)
def test_polytope_reps_by_t_validated(reps_by_t, message):
    cfg = ScenarioConfig(scenario="polytope", d=3, t_grid=(100.0, 400.0), reps=1000,
                         params={"reps_by_t": reps_by_t})
    with pytest.raises(ValueError, match=message):
        scenarios.run(cfg)


def test_polytope_reps_by_t_override_is_used():
    # an integer-valued key names the same t as the float in t_grid
    override = ScenarioConfig(scenario="polytope", d=3, t_grid=(100.0,), reps=1000, seed=5,
                              params={"reps_by_t": {"100": 2000}})
    plain = ScenarioConfig(scenario="polytope", d=3, t_grid=(100.0,), reps=2000, seed=5)
    assert scenarios.run(override).rows == scenarios.run(plain).rows


def test_glauber_small_reps_rows_have_standard_errors():
    # reps // 4 is 1 here; the default commutation run count must still give
    # every commutation row a finite standard error
    cfg = ScenarioConfig(scenario="glauber-verify", d=1, t_grid=(1.0,), reps=4, seed=3)
    res = scenarios.run(cfg)
    commutation = [r for r in res.rows if r.statistic.startswith("commutation-")]
    assert len(commutation) == 6
    assert all(np.isfinite(r.stderr) for r in res.rows)
    cfg.params = {"commutation_reps": 1}
    with pytest.raises(ValueError, match="commutation_reps must be >= 2"):
        scenarios.run(cfg)


def test_glauber_tv_rows_carry_bootstrap_errors():
    # the TV rows get a bootstrap stderr; the verdicts stay fixed-threshold
    cfg = ScenarioConfig(scenario="glauber-verify", d=1, t_grid=(1.0,), reps=300, seed=4,
                         params={"commutation_reps": 2})
    rows = [r for r in scenarios.run(cfg).rows if r.distance_name.startswith("tv")]
    assert len(rows) == 6
    for r in rows:
        assert 0 < r.stderr < 0.1
        if r.bound is not None:
            assert r.passed == (r.distance < r.bound)
    assert scenarios.run(cfg).rows == scenarios.run(cfg).rows


def _committed_configs():
    """Every config the repository runs: ``configs/*.json``, the benchmark
    workloads and the ``pplab verify`` scenarios."""
    for path in sorted((SRC.parent / "configs").glob("*.json")):
        yield pytest.param(json.loads(path.read_text()), id=path.name)
    workloads = json.loads((SRC.parent / "perfbench" / "workloads.json").read_text())
    for name, workload in workloads.items():
        for i, config in enumerate(workload["configs"]):
            yield pytest.param(config, id=f"workload-{name}-{i}")
    for suite, config in cli.VERIFY_CONFIGS.items():
        yield pytest.param(config, id=f"verify-{suite}")


@pytest.mark.parametrize("config", _committed_configs())
def test_committed_configs_load(config):
    cfg = ScenarioConfig.from_dict(config)
    assert cfg.scenario in scenarios.SCENARIO_NAMES


def test_every_param_is_read_by_its_runner_and_set_by_a_committed_config():
    # a knob that only tests set is one that no program run exercises
    import inspect

    configs = [p.values[0] for p in _committed_configs()]
    committed = {(c["scenario"], key) for c in configs for key in c.get("params", {})}
    # README's "Scenario parameters" list names every param of each scenario
    readme = (SRC.parent / "README.md").read_text().split("Scenario parameters")[1].split("\n\n")[1]
    documented = {line.split("`")[1]: line for line in readme.split("\n- ")}
    for scenario, spec in scenarios._SCENARIOS.items():
        source = inspect.getsource(spec.runner)
        for key in spec.params:
            assert f'"{key}"' in source, f"the {scenario} runner never reads {key!r}"
            assert (scenario, key) in committed, f"no committed config sets {scenario} {key!r}"
            assert f"`{key}`" in documented[scenario], f"README does not list {scenario} {key!r}"


@pytest.mark.parametrize(
    "scenario, params, unknown",
    [
        ("flats", {"m": 1, "constant_mc_sample": 2}, "constant_mc_sample"),
        ("gilbert-edges", {"lam": 1.0, "reps_by_t": {"50.0": 2000}}, "reps_by_t"),
        ("kr-estimate", {"n_config": 100}, "n_config"),
    ],
    ids=["typo", "polytope-only", "kr-typo"],
)
def test_unknown_params_rejected(scenario, params, unknown):
    # a misspelt or foreign key used to be ignored, so the default ran instead
    data = {"scenario": scenario, "d": 3, "t_grid": [50.0], "params": params}
    with pytest.raises(ValueError, match=f"unknown params for {scenario}: \\['{unknown}'\\]"):
        ScenarioConfig.from_dict(data)


def test_emit_csv_single_row(tmp_path):
    path = reporting.emit(_tiny_rows()[:1], "csv", tmp_path / "out.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(reporting.COLUMNS)
    assert len(lines) == 2


def test_emit_rejects_empty_and_unknown(tmp_path):
    with pytest.raises(ValueError):
        reporting.emit([], "csv", tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(ValueError):
        reporting.emit(_tiny_rows(), "yaml", tmp_path / "x.yaml")


def test_round_trip_csv_json(tmp_path):
    rows = _tiny_rows()
    csv_path = reporting.emit(rows, "csv", tmp_path / "r.csv")
    parsed = parse_csv(csv_path)
    json_path = reporting.emit(rows, "json", tmp_path / "r.json")
    parsed_json = parse_json(json_path)
    for rec_c, rec_j, row in zip(parsed, parsed_json, rows):
        for col in ("t", "distance", "stderr", "bound", "rate_pred"):
            v = getattr(row, col)
            if v is None:
                assert rec_c[col] is None and rec_j[col] is None
            else:
                assert abs(rec_c[col] - v) < 1e-12
                assert abs(rec_j[col] - v) < 1e-12
        assert rec_c["scenario"] == rec_j["scenario"] == row.scenario


def test_gnuplot_dat(tmp_path):
    path = reporting.emit(_tiny_rows(), "gnuplot-dat", tmp_path / "r.dat")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# scenario")
    assert len(lines) == 3
    assert " " in lines[1] and "," not in lines[1]


def test_run_determinism_byte_identical(tmp_path):
    cfg = ScenarioConfig(
        scenario="mecke-verify", d=2, t_grid=(10.0,), reps=120, seed=9, params={"n": 10}
    )
    r1 = scenarios.run(cfg)
    r2 = scenarios.run(cfg)
    p1 = reporting.emit(r1.rows, "csv", tmp_path / "a.csv")
    p2 = reporting.emit(r2.rows, "csv", tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


def _scaled_uniform(scale, rng):
    return scale * rng.random()


def test_replicate_is_the_stream_comprehension(monkeypatch):
    expected = [2.0 * derive_rng(11, 5, i).random() for i in range(13)]
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    assert replicate(_scaled_uniform, (2.0,), 13, 11, 5) == expected
    monkeypatch.setenv("PPLAB_THREADS", "2")
    assert replicate(_scaled_uniform, (2.0,), 13, 11, 5) == expected
    assert replicate(_scaled_uniform, (2.0,), 1, 11, 5) == expected[:1]


# every scenario, at small sizes, through the replication driver
POOLED_CONFIGS = {
    "gilbert-edges": dict(d=2, t_grid=(15.0,), reps=1000, seed=4),
    "gilbert-lengths": dict(d=2, t_grid=(15.0,), reps=1000, seed=4, params={"cells": 16}),
    "distance-power": dict(d=2, t_grid=(15.0,), reps=1000, seed=4),
    "polytope": dict(d=3, t_grid=(20.0,), reps=1000, seed=4),
    "gilbert-midpoints": dict(d=2, t_grid=(20.0,), seed=4, params={"n_configs": 100}),
    "flats": dict(d=3, t_grid=(20.0,), reps=20, seed=4, params={"constant_mc_samples": 200}),
    "glauber-verify": dict(d=1, t_grid=(1.0,), reps=50, seed=4,
                           params={"s_grid": [0.5, 1.0], "commutation_s": [0.5],
                                   "commutation_reps": 4}),
    "mecke-verify": dict(d=2, t_grid=(10.0,), reps=50, seed=4, params={"n": 10}),
    "kr-estimate": dict(d=2, t_grid=(3.0,), seed=4, params={"n_configs": 100}),
}


@pytest.mark.parametrize("scenario", POOLED_CONFIGS)
def test_worker_pool_matches_serial(monkeypatch, scenario):
    cfg = ScenarioConfig(scenario=scenario, **POOLED_CONFIGS[scenario])
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    serial = scenarios.run(cfg)
    monkeypatch.setenv("PPLAB_THREADS", "2")
    pooled = scenarios.run(cfg)
    assert pooled.rows == serial.rows
    assert json.dumps(pooled.summary, default=str) == json.dumps(serial.summary, default=str)


@pytest.mark.parametrize("scenario", ["mecke-verify", "glauber-verify"])
def test_one_worker_pool_per_run(monkeypatch, scenario):
    # mecke-verify replicates once per case, glauber-verify once per
    # simulator, commutation side and horizon; all share the pool that
    # scenarios.run opens, and a serial run opens none
    import concurrent.futures

    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    cfg = ScenarioConfig(scenario=scenario, **POOLED_CONFIGS[scenario])
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    serial = scenarios.run(cfg)
    assert made == []
    monkeypatch.setenv("PPLAB_THREADS", "2")
    pooled = scenarios.run(cfg)
    assert made == [2]
    assert [repr(r) for r in pooled.rows] == [repr(r) for r in serial.rows]


@pytest.mark.parametrize("value", ["abc", "0"])
def test_threads_rejects_bad_value(monkeypatch, value):
    monkeypatch.setenv("PPLAB_THREADS", value)
    with pytest.raises(ValueError, match=f"PPLAB_THREADS.*'{value}'"):
        _threads()
    # scenarios.run checks it up front, before the runner starts
    monkeypatch.setattr(scenarios._SCENARIOS["kr-estimate"], "runner",
                        lambda cfg, params: pytest.fail("the runner started"))
    cfg = ScenarioConfig(scenario="kr-estimate", t_grid=(5.0,), params={"n_configs": 100})
    with pytest.raises(ValueError, match="PPLAB_THREADS"):
        scenarios.run(cfg)
    monkeypatch.delenv("PPLAB_THREADS")
    assert _threads() == 1


def test_midpoint_configs_over_64_atoms_complete(monkeypatch):
    # a = 10 puts about 80 midpoints into a configuration at t = 50; each
    # replication keeps all of its atoms, with no cap
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    points = replicate(sampling.poisson_points, (Domain("cube", 2), 50.0), 100, 3)
    mids = [transform.pair_midpoints(p, [len(p)], 50.0 ** -0.5)[0] for p in points]
    assert max(len(m) for m in mids) > 64
    cfg = ScenarioConfig(
        scenario="gilbert-midpoints",
        d=2,
        t_grid=(50.0,),
        seed=3,
        params={"a": 10.0, "n_configs": 100},
    )
    rows = scenarios.run(cfg).rows
    assert [r.distance_name for r in rows] == ["kr-surrogate", "kr-noise-floor"]
    # the ragged per-replication arrays cross the process pool unchanged
    monkeypatch.setenv("PPLAB_THREADS", "2")
    assert scenarios.run(cfg).rows == rows


def _dense_midpoints(pts, cutoff):
    """Midpoints of one configuration's pairs i < j within the cutoff, from
    the dense upper triangle in row-major order."""
    iu, ju = np.triu_indices(len(pts), k=1)
    keep = np.linalg.norm(pts[iu] - pts[ju], axis=1) <= cutoff
    return (pts[iu[keep]] + pts[ju[keep]]) / 2.0


def test_midpoint_side_a_is_each_configurations_midpoints(monkeypatch):
    # side A holds, in replication order, the midpoints of each configuration
    # the runner draws, as the per-configuration dense reference gives them
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    sides = []
    empirical_kr = metrics.empirical_kr

    def record(side_a, side_b):
        sides.append(side_a)
        return empirical_kr(side_a, side_b)

    monkeypatch.setattr(metrics, "empirical_kr", record)
    t, a = 200.0, 1.0
    cfg = ScenarioConfig(scenario="gilbert-midpoints", d=2, t_grid=(t,), seed=42,
                         params={"a": a, "n_configs": 100})
    scenarios.run(cfg)
    cutoff = min(t ** (-1.0 / 2), a * t ** (-2.0 / 2))
    points = replicate(sampling.poisson_points, (Domain("cube", 2), t), 100, 42)
    oracle = [_dense_midpoints(p, cutoff) for p in points]

    def same(side, configs):
        want = scenarios._side(configs, 2)
        return all(g.shape == w.shape and np.array_equal(g, w) for g, w in zip(side, want))

    (side_a,) = sides
    assert same(side_a, oracle)
    # negative control: two configurations' midpoints swapped
    i, j = [k for k, m in enumerate(oracle) if len(m)][:2]
    oracle[i], oracle[j] = oracle[j], oracle[i]
    assert not same(side_a, oracle)


def test_cli_run_and_exit_codes(tmp_path):
    config = {
        "scenario": "mecke-verify",
        "d": 2,
        "t_grid": [10.0],
        "reps": 600,
        "seed": 2,
        "params": {"n": 10},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "rows.csv"
    proc = _run_cli(
        "run", "--config", str(cfg_path), "--output", str(out_path), cwd=str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert out_path.exists()
    assert "summary:" in proc.stdout


def test_cli_run_unwritable_output_keeps_the_rows(tmp_path):
    # an --output that is a directory died in reporting.emit with a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "mecke-verify", "d": 2, "t_grid": [10.0], "reps": 600,
                                    "seed": 2, "params": {"n": 10}}))
    proc = _run_cli("run", "--config", str(cfg_path), "--output", str(tmp_path), cwd=str(tmp_path))
    assert proc.returncode == 1, proc.stderr + proc.stdout
    assert "output error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mecke-verify t=") == 8
    assert "summary:" in proc.stdout


def test_cli_usage_error_is_exit_1(tmp_path):
    proc = _run_cli("run", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    proc2 = _run_cli("frobnicate")
    assert proc2.returncode == 1
    assert "usage:" in proc2.stderr
    assert "invalid choice" in proc2.stderr


@pytest.mark.parametrize(
    "config",
    [
        {"scenario": "gilbert-edges", "t_grid": 5},
        42,
        {"scenario": "gilbert-edges", "params": [1]},
        {"scenario": "gilbert-edges", "t_grid": ["a"]},
        {"scenario": "gilbert-edges", "reps": [1000]},
        {"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "params": {"s_grid": ["a"]}},
        {"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "params": {"s_grid": 3}},
        {"scenario": "gilbert-edges", "seed": -1},
    ],
    ids=["scalar-grid", "bare-value", "list-params", "string-grid", "list-reps", "string-s_grid",
         "scalar-s_grid", "negative-seed"],
)
def test_cli_run_rejects_malformed_config(tmp_path, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    proc = _run_cli("run", "--config", str(cfg_path), cwd=str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("reps_by_t", [{"100.0": [5]}, [1], {"100.0": 2000.5}, {"abc": 2000}],
                         ids=["list-value", "list", "fractional-value", "non-numeric-key"])
def test_cli_run_rejects_malformed_reps_by_t(tmp_path, capsys, reps_by_t):
    # a list value raised an uncaught TypeError and a list an AttributeError
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "polytope", "d": 3, "t_grid": [100.0],
                                    "params": {"reps_by_t": reps_by_t}}))
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "rows.csv")]) == 1
    assert "config error: reps_by_t" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"scenario": "gilbert-lengths", "params": {"cells": 0}}, "cells"),
        ({"scenario": "mecke-verify", "t_grid": [10.5]}, "n"),
        ({"scenario": "mecke-verify", "t_grid": [10.0], "params": {"n": 1}}, "n"),
        ({"scenario": "gilbert-edges", "params": {"lam": float("nan")}}, "lam"),
        ({"scenario": "flats", "d": 3, "params": {"ball_radius": -1}}, "ball_radius"),
        ({"scenario": "kr-estimate", "params": {"n_configs": 0}}, "n_configs"),
        ({"scenario": "kr-estimate", "params": {"n_configs": 99}}, "n_configs"),
        ({"scenario": "gilbert-midpoints", "t_grid": [20.0], "params": {"n_configs": 50}}, "n_configs"),
        ({"scenario": "flats", "d": 3, "params": {"constant_mc_samples": 1}}, "constant_mc_samples"),
        ({"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "params": {"commutation_reps": 1}},
         "commutation_reps"),
        ({"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "params": {"commutation_s": [True]}},
         "commutation_s"),
        ({"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "params": {"s_grid": ["a"]}}, "s_grid"),
        ({"scenario": "glauber-verify", "d": 1, "t_grid": [1.0], "params": {"s_grid": 3}}, "s_grid"),
    ],
    ids=["zero-cells", "fractional-t-without-n", "binomial-n-1", "nan-lam", "negative-ball_radius",
         "zero-n_configs", "kr-n_configs-99", "midpoints-n_configs-50", "constant_mc_samples-1",
         "commutation_reps-1", "bool-commutation_s", "string-s_grid", "scalar-s_grid"],
)
def test_cli_run_rejects_params_out_of_range(tmp_path, capsys, monkeypatch, config, key):
    # each of these used to run or fail late: cells 0 passed with tv-0cell = 0, t = 10.5 ran
    # n = 10 and labelled its rows t = 10, n = 1 passed every k = 2 binomial row
    # with gap 0, ball_radius -1 reported a negative target mean, commutation_s
    # true ran as s = 1, and lam NaN, n_configs 0 and the malformed s_grid
    # failed with a message that named no param or with a traceback; n_configs
    # below 100, constant_mc_samples 1 and commutation_reps 1 failed only
    # after the draws
    def refuse(*args, **kwargs):
        raise AssertionError("drew before rejecting the config")

    monkeypatch.setattr(scenarios, "replicate_blocks", refuse)
    monkeypatch.setattr(scenarios, "replicate", refuse)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "rows.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} ")
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("tau", [6.0, 1.5])
def test_cli_distance_power_needs_tau_2d(tmp_path, capsys, monkeypatch, tau):
    # only tau = 2d has the closed-form Levy target, on either side of d
    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking tau")

    monkeypatch.setattr(scenarios, "replicate_blocks", refuse)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "distance-power", "d": 2, "t_grid": [50.0],
                                    "params": {"tau": tau}}))
    assert cli.main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "rows.csv")]) == 1
    assert "scenario error: closed-form target needs tau = 2d" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def test_cli_list_scenarios():
    proc = _run_cli("list-scenarios")
    assert proc.returncode == 0
    for name in scenarios.SCENARIO_NAMES:
        assert name in proc.stdout


@pytest.mark.parametrize("suite, reps", [("mecke", "0"), ("glauber", "-5"), ("ot", "0")])
def test_cli_verify_rejects_bad_reps(suite, reps):
    # an explicit count is used as given: 0 must not fall back to the default
    proc = _run_cli("verify", "--suite", suite, "--reps", reps)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "scenario error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_verify_ot_suite():
    proc = _run_cli("verify", "--suite", "ot", "--reps", "40")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout


def test_ot_verification_instances_cover_empty_and_shared_atoms():
    from pplab.verify_ot import run_ot_verification

    report = run_ot_verification(seed=0, instances=200)
    assert report["passed"]
    assert report["empty_configs"] > 0
    assert 0 < report["shared_entries"] < report["cost_entries"]


def _second_best_assignment(cost):
    """The cheapest permutation that is not optimal (the optimum when every
    permutation ties), in the return form of ``linear_sum_assignment``."""
    from itertools import permutations

    n = len(cost)
    totals = {p: cost[np.arange(n), list(p)].sum() for p in permutations(range(n))}
    best = min(totals.values())
    worse = [p for p in totals if totals[p] > best]
    pick = min(worse, key=totals.get) if worse else min(totals, key=totals.get)
    return np.arange(n), np.array(pick)


@pytest.mark.parametrize(
    "owner, attr, broken",
    [
        (scipy.optimize, "linear_sum_assignment", _second_best_assignment),
        # atoms at the same location no longer match
        (metrics, "_tv_cost_matrix", lambda side_a, side_b: np.maximum.outer(side_a[1], side_b[1])),
    ],
    ids=["second-best-permutation", "cost-ignores-coincident-atoms"],
)
def test_ot_verification_negative_controls(monkeypatch, capsys, owner, attr, broken):
    monkeypatch.setattr(owner, attr, broken)
    assert cli.main(["verify", "--suite", "ot"]) == 2
    assert "FAILURES" in capsys.readouterr().out


def test_discretized_tv_stays_in_unit_interval():
    # samples on disjoint supports sit at TV 1, where the rounded half-l1
    # sum can land one ulp above it
    rng = np.random.default_rng(0)
    worst = max(
        metrics.tv_discretized(rng.uniform(0, 1, 20), rng.uniform(2, 3, 20), 40)
        for _ in range(200)
    )
    assert worst <= 1.0


def test_gilbert_lengths_row_names_its_cells():
    cfg = ScenarioConfig(scenario="gilbert-lengths", d=2, t_grid=(50.0,), seed=2,
                         params={"cells": 8})
    assert [r.distance_name for r in scenarios.run(cfg).rows] == ["tv-8cell"]


def test_scenario_rows_reproducible_fields():
    cfg = ScenarioConfig(scenario="kr-estimate", d=2, t_grid=(2.0,), reps=10, seed=5, params={"n_configs": 110})
    res = scenarios.run(cfg)
    assert {r.distance_name for r in res.rows} == {"kr-surrogate", "kr-noise-floor"}
    surrogate = [r for r in res.rows if r.distance_name == "kr-surrogate"][0]
    floor = [r for r in res.rows if r.distance_name == "kr-noise-floor"][0]
    assert surrogate.distance >= 0 and floor.distance >= 0


def test_kr_row_fails_at_exactly_three_sigma_over_the_floor():
    # the A6 / A11 rule is estimate - floor < 3 sigma, so equality fails
    cfg = ScenarioConfig(scenario="kr-estimate")
    at_edge = metrics.KrEstimate(estimate=2.5, noise_floor=1.0, noise_floor_std=0.5)
    assert not scenarios._kr_rows(cfg, 3.0, "kr", at_edge, None, "")[0].passed
    below = metrics.KrEstimate(estimate=2.4, noise_floor=1.0, noise_floor_std=0.5)
    assert scenarios._kr_rows(cfg, 3.0, "kr", below, None, "")[0].passed


@pytest.mark.parametrize(
    "scenario, params",
    [
        ("gilbert-midpoints", {"n_configs": 100}),
        ("kr-estimate", {"mode": "identity-mapping", "n_configs": 100}),
    ],
    ids=["midpoints", "identity-mapping"],
)
def test_kr_scenarios_make_no_lp_call(monkeypatch, scenario, params):
    # the surrogate is an assignment problem; the LP is only the certified
    # general solver of `pplab verify --suite ot`
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called on a scenario path")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    cfg = ScenarioConfig(scenario=scenario, d=2, t_grid=(50.0,), seed=4, params=params)
    rows = scenarios.run(cfg).rows
    assert [r.distance_name for r in rows] == ["kr-surrogate", "kr-noise-floor"]


def test_rate_sanity_slope_to_800():
    # measured Wasserstein distance vs the Poisson target falls at least like
    # t^(-1/2) across the wide grid (the predicted rate is t^(-1))
    cfg = ScenarioConfig(
        scenario="gilbert-edges",
        d=2,
        t_grid=(50.0, 100.0, 200.0, 400.0, 800.0),
        reps=20_000,
        seed=11,
    )
    res = scenarios.run(cfg)
    assert res.summary["slope"] <= -0.5


def test_vectorized_line_pair_formulas_match_lstsq():
    from oracles import AffineFlat, flat_distance_midpoint
    from pplab.sampling import sample_poisson_flats

    frames = sample_poisson_flats(3, 1, 4.0, 1.0, derive_rng(99))
    assert len(frames) >= 2
    counted = scenarios._count_close_line_pairs(frames, np.inf, np.inf)
    assert counted == len(frames) * (len(frames) - 1) // 2
    # spot-check distances and midpoints against the least-squares solver
    import itertools

    flats = [AffineFlat(base=f[0], directions=f[1:]) for f in frames]
    bases, dirs = frames[:, 0], frames[:, 1]
    for i, j in itertools.islice(itertools.combinations(range(len(flats)), 2), 12):
        dist_ref, mid_ref = flat_distance_midpoint(flats[i], flats[j])
        w = bases[i] - bases[j]
        c = dirs[i] @ dirs[j]
        fu, fv = w @ dirs[i], w @ dirs[j]
        t2 = (fv - c * fu) / (1 - c * c)
        t1 = c * t2 - fu
        p1 = bases[i] + t1 * dirs[i]
        p2 = bases[j] + t2 * dirs[j]
        assert np.linalg.norm(p1 - p2) == pytest.approx(dist_ref, abs=1e-9)
        assert np.allclose((p1 + p2) / 2, mid_ref, atol=1e-9)


def _all_pairs_line_geometry(frames):
    """Closest-point distance, midpoint and the general-position flag of every pair."""
    bases, dirs = frames[:, 0], frames[:, 1]
    iu, ju = np.triu_indices(len(frames), k=1)
    u, v = dirs[iu], dirs[ju]
    w = bases[iu] - bases[ju]
    c = np.einsum("ij,ij->i", u, v)
    fu = np.einsum("ij,ij->i", w, u)
    fv = np.einsum("ij,ij->i", w, v)
    denom = 1.0 - c * c
    ok = denom > 1e-14
    t2 = np.where(ok, (fv - c * fu) / np.where(ok, denom, 1.0), 0.0)
    t1 = c * t2 - fu
    p1 = bases[iu] + t1[:, None] * u
    p2 = bases[ju] + t2[:, None] * v
    return np.linalg.norm(p1 - p2, axis=1), (p1 + p2) / 2.0, ok


def _all_pairs_close_count(frames, eps, ball_radius):
    """Every pair through the exact formulas, without pruning."""
    dist, mid, ok = _all_pairs_line_geometry(frames)
    return int((ok & (dist <= eps) & (np.linalg.norm(mid, axis=1) <= ball_radius)).sum())


def _line_frames(*lines):
    return np.array([[base, direction] for base, direction in lines], dtype=float)


def test_pruned_line_pair_count_matches_all_pairs():
    from pplab.sampling import sample_poisson_flats

    t, ball_radius = 100.0, 0.6
    eps = t**-2.0
    total = 0
    for i in range(300):
        frames = sample_poisson_flats(3, 1, t, ball_radius + eps, derive_rng(42, i))
        got = scenarios._count_close_line_pairs(frames, eps, ball_radius)
        assert got == _all_pairs_close_count(frames, eps, ball_radius)
        total += got
    assert total > 0


FLAT_BLOCK_ARGS = (3, 1, 100.0, 0.6 + 100.0**-2, 0.6, 100.0**-2)  # d, m, t, window, ball, eps


def test_flat_block_counts_match_per_flat_oracle():
    # the block's own variates, redrawn whole, made into frames one flat at
    # a time and counted over every pair with the exact formulas
    from oracles import flat_variates, per_flat_frames

    d, m, t, window, ball_radius, eps = FLAT_BLOCK_ARGS
    got = scenarios._flat_pair_counts(*FLAT_BLOCK_ARGS, derive_rng(43, 0, 0), 120)
    counts, radii, gauss = flat_variates(d, m, t, window, derive_rng(43, 0, 0), 120)
    frames = per_flat_frames(d, m, radii, gauss)
    want = [_all_pairs_close_count(f, eps, ball_radius) for f in np.split(frames, np.cumsum(counts)[:-1])]
    assert np.array_equal(got, want)
    assert sum(want) > 0


def test_flat_block_counts_do_not_depend_on_run_size(monkeypatch):
    from pplab.sampling import sample_poisson_flats

    whole = scenarios._flat_pair_counts(*FLAT_BLOCK_ARGS, derive_rng(44, 0, 0), 500)
    assert whole.sum() > 0
    for run_points in (1, 97, 5_000, 10**9):
        monkeypatch.setattr(sampling, "_RUN_POINTS", run_points)
        assert np.array_equal(scenarios._flat_pair_counts(*FLAT_BLOCK_ARGS, derive_rng(44, 0, 0), 500), whole)
    # a block of one replication draws as the one-process sampler
    d, m, t, window, ball_radius, eps = FLAT_BLOCK_ARGS
    for seed in range(5):
        frames = sample_poisson_flats(d, m, t, window, derive_rng(seed))
        one = scenarios._flat_pair_counts(*FLAT_BLOCK_ARGS, derive_rng(seed), 1)
        assert one.tolist() == [scenarios._count_close_line_pairs(frames, eps, ball_radius)]


def test_line_pair_at_the_cutoff_is_counted():
    # eps set to each pair's distance as the exact formulas round it: the
    # pruning must never drop a pair the exact test keeps
    rng = np.random.default_rng(5)
    for _ in range(200):
        frames = np.empty((2, 2, 3))
        frames[:, 0] = rng.uniform(-0.3, 0.3, size=(2, 3))
        g = rng.standard_normal((2, 3))
        frames[:, 1] = g / np.linalg.norm(g, axis=1, keepdims=True)
        (dist,), _, _ = _all_pairs_line_geometry(frames)
        assert scenarios._count_close_line_pairs(frames, dist, np.inf) == 1


@pytest.mark.parametrize("factor, expected", [(0.999, 1), (1.001, 0)])
def test_line_pair_distance_either_side_of_eps(factor, expected):
    eps = 1e-4
    h = factor * eps / 2
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([np.cos(0.7), np.sin(0.7), 0.0])
    frames = _line_frames(
        (np.array([0.0, 0.0, -h]) + 0.3 * u, u),
        (np.array([0.0, 0.0, h]) - 0.2 * v, v),
    )
    assert scenarios._count_close_line_pairs(frames, eps, 0.6) == expected
    assert _all_pairs_close_count(frames, eps, 0.6) == expected


@pytest.mark.parametrize("sin2, expected", [(2e-14, 1), (0.5e-14, 0)])
def test_near_parallel_line_pairs_either_side_of_denominator_floor(sin2, expected):
    # 1 - c^2 = sin^2 of the angle; pairs at or below 1e-14 are degenerate
    eps = 1e-4
    phi = np.arcsin(np.sqrt(sin2))
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([np.cos(phi), np.sin(phi), 0.0])
    frames = _line_frames(
        (np.array([0.0, 0.0, -eps / 4]), u),
        (np.array([0.0, 0.0, eps / 4]), v),
    )
    assert scenarios._count_close_line_pairs(frames, eps, 0.6) == expected
    assert _all_pairs_close_count(frames, eps, 0.6) == expected
