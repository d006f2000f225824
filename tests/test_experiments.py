import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pplab import reporting, scenarios
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


def test_glauber_small_reps_rows_have_standard_errors():
    # reps // 4 is 1 here; the default commutation run count must still give
    # every commutation row a finite standard error
    cfg = ScenarioConfig(scenario="glauber-verify", d=1, t_grid=(1.0,), reps=4, seed=3)
    res = scenarios.run(cfg)
    commutation = [r for r in res.rows if r.statistic.startswith("commutation-")]
    assert len(commutation) == 6
    assert all(np.isfinite(r.stderr) for r in res.rows)
    cfg.params = {"commutation_reps": 1}
    with pytest.raises(ValueError, match="at least 2 replications"):
        scenarios.run(cfg)


CONFIGS = sorted((SRC.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_configs_load(path):
    cfg = ScenarioConfig.from_dict(json.loads(path.read_text()))
    assert cfg.scenario in scenarios.SCENARIO_NAMES


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
    parsed = reporting.parse_csv(csv_path)
    json_path = reporting.emit(rows, "json", tmp_path / "r.json")
    parsed_json = reporting.parse_json(json_path)
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


def test_worker_pool_matches_serial(monkeypatch):
    cfg = ScenarioConfig(
        scenario="gilbert-edges", d=2, t_grid=(15.0,), reps=1000, seed=4
    )
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    serial = scenarios.run(cfg)
    monkeypatch.setenv("PPLAB_THREADS", "3")
    pooled = scenarios.run(cfg)
    assert serial.rows[0].distance == pooled.rows[0].distance
    assert serial.rows[0].stderr == pooled.rows[0].stderr


@pytest.mark.parametrize("value", ["abc", "0"])
def test_threads_rejects_bad_value(monkeypatch, value):
    monkeypatch.setenv("PPLAB_THREADS", value)
    with pytest.raises(ValueError, match=f"PPLAB_THREADS.*'{value}'"):
        scenarios._threads()
    # also a scenario that never fans out
    cfg = ScenarioConfig(scenario="kr-estimate", t_grid=(5.0,), params={"n_configs": 5})
    with pytest.raises(ValueError, match="PPLAB_THREADS"):
        scenarios.run(cfg)
    monkeypatch.delenv("PPLAB_THREADS")
    assert scenarios._threads() == 1


def test_midpoint_configs_over_cap_raise():
    # a cutoff of 1 joins almost every pair of about 50 points: far above 64
    with pytest.raises(ValueError, match=r"configuration 0 has \d+ midpoints.*cap of 64"):
        scenarios._midpoint_config_chunk((2, 50.0, 1.0, 64), 3, 0, 5)
    cfg = ScenarioConfig(
        scenario="gilbert-midpoints",
        d=2,
        t_grid=(50.0,),
        seed=3,
        params={"a": 10.0, "n_configs": 20},
    )
    with pytest.raises(ValueError, match="cap of 64"):
        scenarios.run(cfg)


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


def test_cli_usage_error_is_exit_1(tmp_path):
    proc = _run_cli("run", "--config", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "config error" in proc.stderr
    proc2 = _run_cli("frobnicate")
    assert proc2.returncode == 1
    assert "usage:" in proc2.stderr
    assert "invalid choice" in proc2.stderr


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


def test_discretized_tv_stays_in_unit_interval():
    # samples on disjoint supports sit at TV 1, where the rounded half-l1
    # sum can land one ulp above it
    rng = np.random.default_rng(0)
    worst = max(
        scenarios._discretized_tv(rng.uniform(0, 1, 20), rng.uniform(2, 3, 20), 40)
        for _ in range(200)
    )
    assert worst <= 1.0


def test_scenario_rows_reproducible_fields():
    cfg = ScenarioConfig(scenario="kr-estimate", d=2, t_grid=(2.0,), reps=10, seed=5, params={"n_configs": 110})
    res = scenarios.run(cfg)
    assert {r.distance_name for r in res.rows} == {"kr-surrogate", "kr-noise-floor"}
    surrogate = [r for r in res.rows if r.distance_name == "kr-surrogate"][0]
    floor = [r for r in res.rows if r.distance_name == "kr-noise-floor"][0]
    assert surrogate.distance >= 0 and floor.distance >= 0


def test_rate_sanity_slope_to_800():
    # measured Wasserstein distance vs the Poisson target falls at least like
    # t^(-1/2) across the wide grid (the predicted rate is t^(-1))
    cfg = ScenarioConfig(
        scenario="gilbert-edges",
        d=2,
        t_grid=(50.0, 100.0, 200.0, 400.0, 800.0),
        reps=20_000,
        seed=11,
        params={"n_boot": 60},
    )
    res = scenarios.run(cfg)
    assert res.summary["slope"] <= -0.5


def test_vectorized_line_pair_formulas_match_lstsq():
    from pplab.geometry import AffineFlat, flat_distance_midpoint
    from pplab.rng import derive_rng
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
    from pplab.rng import derive_rng
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
