"""Experiment scenarios: simulate a statistic across an intensity grid,
measure its distance to the analytic target, and set the measured value
against the corresponding explicit bound.

Replications fan out over a process pool when PPLAB_THREADS asks for one;
every replication owns a derived RNG stream, so results do not depend on
the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import exp, sqrt

import numpy as np

from . import bounds as bnd
from . import glauber as glb
from . import metrics, sampling, transform
from .configuration import Configuration
from .geometry import Domain, unit_ball_volume
from .laws import PoissonLaw
from .rng import derive_rng

SCENARIO_NAMES = (
    "gilbert-edges",
    "gilbert-lengths",
    "gilbert-midpoints",
    "distance-power",
    "flats",
    "polytope",
    "glauber-verify",
    "mecke-verify",
    "kr-estimate",
)

DISTANCE_SCENARIOS = ("gilbert-edges", "gilbert-lengths", "distance-power", "polytope")


@dataclass
class ScenarioConfig:
    scenario: str
    d: int = 2
    t_grid: tuple = (50.0,)
    reps: int = 1000
    seed: int = 0
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.scenario not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        grid = list(self.t_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be nonempty and strictly increasing")
        if self.reps < 2:
            raise ValueError("replications must be >= 2 for a sample standard error")
        if self.scenario in DISTANCE_SCENARIOS and self.reps < 1000:
            raise ValueError("distance estimation scenarios need at least 1000 replications")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {"scenario", "d", "t_grid", "reps", "seed", "params"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        cfg = cls(
            scenario=data.get("scenario", ""),
            d=int(data.get("d", 2)),
            t_grid=tuple(data.get("t_grid", (50.0,))),
            reps=int(data.get("reps", 1000)),
            seed=int(data.get("seed", 0)),
            params=dict(data.get("params", {})),
        )
        cfg.validate()
        return cfg


@dataclass
class ResultRow:
    scenario: str
    d: int
    t: float
    statistic: str
    distance_name: str
    distance: float
    stderr: float
    bound: float | None
    bound_form: str
    rate_pred: float | None
    seed: int
    passed: bool = True


@dataclass
class RunResult:
    rows: list
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary.get("passed", False))


def _row(cfg, t, statistic, distance_name, distance, stderr, bound=None, bound_form="",
         rate_pred=None, passed=True, d=None) -> ResultRow:
    """One row of cfg's scenario; ``d`` defaults to the config's dimension."""
    return ResultRow(
        scenario=cfg.scenario,
        d=cfg.d if d is None else d,
        t=t,
        statistic=statistic,
        distance_name=distance_name,
        distance=distance,
        stderr=stderr,
        bound=bound,
        bound_form=bound_form,
        rate_pred=rate_pred,
        seed=cfg.seed,
        passed=passed,
    )


def _kr_rows(cfg, t, statistic, kr, bound, bound_form, rate_pred=None) -> list:
    """The KR-surrogate row and the same-law noise-floor row it is read against.

    The surrogate is biased upward at finite sample sizes, so it passes when
    it stays within 3 sigma of the noise floor rather than below the bound.
    """
    ok = kr.estimate <= kr.noise_floor + 3 * kr.noise_floor_std
    return [
        _row(cfg, t, statistic, "kr-surrogate", kr.estimate, kr.noise_floor_std,
             bound, bound_form, rate_pred, passed=ok),
        _row(cfg, t, statistic, "kr-noise-floor", kr.noise_floor, kr.noise_floor_std),
    ]


def _gap_row(cfg, t, statistic, lhs, rhs, pooled, d=None) -> ResultRow:
    """An identity check: |lhs - rhs| within 3 pooled sigma (exact when pooled is 0)."""
    gap = abs(lhs - rhs)
    return _row(cfg, t, statistic, "lhs-rhs-gap", gap, pooled, 3 * pooled, "3 pooled sigma",
                passed=gap < 3 * pooled or pooled == 0.0, d=d)


def _threads() -> int:
    """Worker count from PPLAB_THREADS: unset means 1, else a positive integer."""
    raw = os.environ.get("PPLAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"PPLAB_THREADS must be a positive integer, got {raw!r}")
    return threads


def _parallel_chunks(fn, static_args: tuple, reps: int, seed: int):
    """Run fn(static_args, seed, lo, hi) over [0, reps) and concatenate.

    Chunks are assembled in index order, so the result is identical for any
    worker count.
    """
    threads = _threads()
    if threads == 1:
        return np.asarray(fn(static_args, seed, 0, reps))
    n_chunks = min(reps, threads * 4)
    edges = np.linspace(0, reps, n_chunks + 1, dtype=int)
    spans = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_chunk_worker, [(fn, static_args, seed, lo, hi) for lo, hi in spans]))
    return np.concatenate(parts)


def _chunk_worker(packed):
    fn, static_args, seed, lo, hi = packed
    return np.asarray(fn(static_args, seed, lo, hi))


# ---------------------------------------------------------------------------
# Per-replication statistic workers (top level so the pool can pickle them).
# ---------------------------------------------------------------------------


def _cube_stat_chunk(args, seed, lo, hi):
    """scale * kernel(pts, *kernel_args) on Poisson(t) uniform points of [0, 1]^d."""
    d, t, kernel, kernel_args, scale = args  # kernel is top level, so the pool can pickle it
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        rng = derive_rng(seed, i)
        pts = rng.uniform(size=(rng.poisson(t), d))
        out[i - lo] = scale * kernel(pts, *kernel_args)
    return out


def _reversed_diameter_chunk(args, seed, lo, hi):
    d, t = args
    out = np.empty(hi - lo)
    scale = t ** (4.0 / (d - 1))
    sphere = Domain("sphere", d)
    for i in range(lo, hi):
        rng = derive_rng(seed, i)
        pts = sphere.sample(rng, rng.poisson(t))
        if len(pts) < 2:
            out[i - lo] = np.inf  # no pair at all
        else:
            out[i - lo] = scale * (2.0 - transform.max_pair_distance(pts))
    return out


def _flat_pair_midpoint_count_chunk(args, seed, lo, hi):
    d, m, t, window_radius, ball_radius, eps = args
    if (d, m) != (3, 1):
        raise ValueError("vectorized flat-pair path covers lines in R^3")
    out = np.empty(hi - lo)
    for i in range(lo, hi):
        rng = derive_rng(seed, i)
        flats = sampling.sample_poisson_flats(d, m, t, window_radius, rng)
        out[i - lo] = _count_close_line_pairs(flats, eps, ball_radius)
    return out


def _count_close_line_pairs(frames, eps, ball_radius) -> int:
    """Pairs of lines within ``eps`` whose closest-point midpoint lies in the ball.

    ``frames`` is the ``(n, 2, 3)`` base/direction array of
    ``sampling.sample_poisson_flats``.  With M = B x U row by row, the
    symmetrized M U^T holds w . (u_i x u_j) = +-dist |u_i x u_j| for
    w = b_i - b_j, and |u_i x u_j|^2 = 1 - c^2.  Pairs further apart than
    2 eps are dropped up front; that slack dwarfs the rounding of either
    form, so only the survivors need the exact per-pair formulas below.
    """
    n = len(frames)
    if n < 2:
        return 0
    bases, dirs = frames[:, 0], frames[:, 1]
    cross = np.cross(bases, dirs) @ dirs.T
    triple = cross + cross.T
    cos = dirs @ dirs.T
    with np.errstate(invalid="ignore"):  # 0 * inf on the diagonal when eps is infinite
        near = triple * triple <= 4.0 * eps * eps * (1.0 - cos * cos)
    iu, ju = np.nonzero(np.triu(near, k=1))
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
    dist = np.linalg.norm(p1 - p2, axis=1)
    mid = (p1 + p2) / 2.0
    close = ok & (dist <= eps) & (np.linalg.norm(mid, axis=1) <= ball_radius)
    return int(close.sum())


def _midpoint_config_chunk(args, seed, lo, hi):
    """Flattened midpoint coordinates per replication, padded row layout.

    A replication with more than ``max_atoms`` midpoints does not fit the
    row and raises rather than being truncated.
    """
    d, t, cutoff, max_atoms = args
    out = np.full((hi - lo, 1 + max_atoms * d), np.nan)
    for i in range(lo, hi):
        rng = derive_rng(seed, i)
        pts = rng.uniform(size=(rng.poisson(t), d))
        mids = transform.pair_midpoints(pts, cutoff)
        if len(mids) > max_atoms:
            raise ValueError(
                f"configuration {i} has {len(mids)} midpoints, "
                f"more than the cap of {max_atoms} atoms per configuration"
            )
        out[i - lo, 0] = len(mids)
        out[i - lo, 1 : 1 + mids.size] = mids.ravel()
    return out


# ---------------------------------------------------------------------------
# Distance estimators with bootstrap uncertainties.
# ---------------------------------------------------------------------------


def _wasserstein_to_poisson(counts: np.ndarray, lam: float) -> float:
    emp = metrics.EmpiricalDistribution.from_counts(counts.astype(int))
    return metrics.wasserstein1(emp, PoissonLaw(lam))


def _bootstrap_se(values: np.ndarray, statistic, n_boot: int, seed: int) -> float:
    rng = derive_rng(seed, 77_003)
    n = len(values)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        stats[b] = statistic(values[rng.integers(0, n, size=n)])
    return float(stats.std(ddof=1))


def _bootstrap_se_poisson_w1(counts: np.ndarray, lam: float, n_boot: int, seed: int) -> float:
    """Bootstrap spread of the integer Wasserstein distance, resampling the
    count histogram directly (equivalent to i.i.d. resampling)."""
    from scipy import stats as sps

    rng = derive_rng(seed, 77_003)
    n = len(counts)
    hist = np.bincount(counts.astype(int))
    kmax = max(len(hist) - 1, int(sps.poisson.ppf(1 - 1e-14, lam)) + 2)
    pois_cdf = sps.poisson.cdf(np.arange(kmax + 1), lam)
    pmf = hist / n
    out = np.empty(n_boot)
    for b in range(n_boot):
        resampled = rng.multinomial(n, pmf)
        emp_cdf = np.cumsum(resampled) / n
        full = np.ones(kmax + 1)
        full[: len(emp_cdf)] = emp_cdf
        out[b] = np.abs(full - pois_cdf).sum()
    return float(out.std(ddof=1))


def _discretized_tv(a: np.ndarray, b: np.ndarray, cells: int) -> float:
    hi = max(float(a.max()), float(b.max()))
    if hi <= 0:
        return 0.0
    edges = np.linspace(0.0, hi * (1 + 1e-12), cells + 1)
    pa = np.histogram(a, bins=edges)[0] / len(a)
    pb = np.histogram(b, bins=edges)[0] / len(b)
    return metrics.clamp_tv(0.5 * float(np.abs(pa - pb).sum()))


def _fit_loglog_slope(ts, ds):
    ts = np.asarray(ts, dtype=float)
    ds = np.asarray(ds, dtype=float)
    keep = ds > 0
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(ts[keep]), np.log(ds[keep]), 1)[0])


# ---------------------------------------------------------------------------
# Scenario runners.
# ---------------------------------------------------------------------------


def _run_gilbert_edges(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    lam = float(cfg.params.get("lam", 1.0))
    n_boot = int(cfg.params.get("n_boot", 200))
    target = PoissonLaw(0.5 * unit_ball_volume(d) * lam)
    rows = []
    for t in cfg.t_grid:
        theta = lam ** (1.0 / d) * t ** (-2.0 / d)
        args = (d, t, transform.pair_count_within, (theta,), 1)
        counts = _parallel_chunks(_cube_stat_chunk, args, cfg.reps, cfg.seed)
        dw = _wasserstein_to_poisson(counts, target.lam)
        se = _bootstrap_se_poisson_w1(counts, target.lam, n_boot, cfg.seed)
        moments = bnd.gilbert_moments(d, t, theta, mode="poisson")
        bound = bnd.ustat_poisson_bound(moments, target.lam, k=2, mode="poisson")
        rows.append(_row(cfg, t, "edge-count", "wasserstein", dw, se, bound, "moment-form",
                         -min(2.0 / d, 1.0), passed=dw + 3 * se <= bound))
    slope = _fit_loglog_slope(cfg.t_grid, [r.distance for r in rows])
    slope_ok = len(cfg.t_grid) < 2 or slope <= -0.5
    passed = all(r.passed for r in rows) and slope_ok
    return RunResult(
        rows,
        {
            "passed": passed,
            "slope": slope,
            "slope_threshold": -0.5,
            "target_mean": target.lam,
        },
    )


def _run_gilbert_lengths(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    lam = float(cfg.params.get("lam", 1.0))
    b = float(cfg.params.get("b", 1.0))
    cells = int(cfg.params.get("cells", 64))
    tv_threshold = float(cfg.params.get("tv_threshold", 0.1))
    # the target draws are cheap, so a larger target sample keeps the
    # two-sample noise floor of the discretized TV below the signal
    target_factor = int(cfg.params.get("target_factor", 10))
    limits = bnd.gilbert_limit_laws(d, lam, b=b, tau=2 * d)
    rows = []
    for idx, t in enumerate(cfg.t_grid):
        theta = lam ** (1.0 / d) * t ** (-2.0 / d)
        scale = t ** (2.0 * b / d)
        args = (d, t, transform.pair_sum_power, (b, theta), scale)
        stat = _parallel_chunks(_cube_stat_chunk, args, cfg.reps, cfg.seed)
        target = limits.edge_length.sample_many(
            derive_rng(cfg.seed, 555_001, idx), target_factor * cfg.reps
        )
        tv = _discretized_tv(stat, target, cells)
        se = _bootstrap_se(
            stat,
            lambda s: _discretized_tv(s, target, cells),
            int(cfg.params.get("n_boot", 100)),
            cfg.seed + idx,
        )
        r = bnd.r_term(d, t, theta).value
        bound = bnd.thm_main_bound(bnd.gilbert_intensity_error(d, t, theta), r, k=2)
        rows.append(_row(cfg, t, "edge-length-sum", "tv-64cell", tv, se, bound,
                         "r-form (upper bounds the discretized TV)", -min(2.0 / d, 1.0),
                         passed=tv + 3 * se <= bound))
    dists = [r.distance for r in rows]
    decreasing = all(b <= a for a, b in zip(dists, dists[1:]))
    passed = decreasing and dists[-1] < tv_threshold and all(r.passed for r in rows)
    return RunResult(
        rows,
        {
            "passed": passed,
            "decreasing": decreasing,
            "final_tv": dists[-1],
            "tv_threshold": tv_threshold,
            "note": "discretized TV lower-bounds the true TV",
        },
    )


def _run_distance_power(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    tau = float(cfg.params.get("tau", 2 * d))
    threshold = float(cfg.params.get("dk_threshold", 0.08))
    threshold_t = float(cfg.params.get("threshold_t", cfg.t_grid[len(cfg.t_grid) // 2]))
    limits = bnd.gilbert_limit_laws(d, 1.0, b=1.0, tau=tau)
    levy = limits.distance_power_levy
    if levy is None:
        raise ValueError("closed-form target needs tau = 2d")
    if d in (1, 2):
        rate = -0.2
    else:
        rate = -2.0 / (3 * d + 2)
    rows = []
    for t in cfg.t_grid:
        scale = t ** (-2.0 * tau / d)
        args = (d, t, transform.pair_sum_inverse_power, (tau,), scale)
        stat = _parallel_chunks(_cube_stat_chunk, args, cfg.reps, cfg.seed)
        emp = metrics.EmpiricalDistribution.from_samples(stat)
        dk = metrics.kolmogorov(emp, levy)
        se = _bootstrap_se(
            stat,
            lambda s: metrics.kolmogorov(metrics.EmpiricalDistribution.from_samples(s), levy),
            int(cfg.params.get("n_boot", 100)),
            cfg.seed,
        )
        rows.append(_row(cfg, t, "distance-power-sum", "kolmogorov", dk, se, None,
                         "constant not explicit; rate reported", rate))
    at_threshold = [r.distance for r in rows if abs(r.t - threshold_t) < 1e-9]
    threshold_ok = not at_threshold or at_threshold[0] < threshold
    decreasing = len(rows) < 2 or rows[0].distance > rows[-1].distance
    passed = threshold_ok and decreasing
    return RunResult(
        rows,
        {
            "passed": passed,
            "decreasing_ends": decreasing,
            "dk_threshold": threshold,
            "threshold_t": threshold_t,
            "levy_scale": levy.scale,
            "series_window": limits.distance_power.window,
            "series_tail_mean": limits.distance_power.truncation_tail_mean,
        },
    )


def _configs_from_padded(flat: np.ndarray, d: int, space: str) -> list:
    configs = []
    for row in flat:
        n = int(row[0])
        pts = row[1 : 1 + n * d].reshape(n, d)
        configs.append(Configuration.from_array(pts, space=space))
    return configs


def _run_gilbert_midpoints(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    a = float(cfg.params.get("a", 1.0))
    n_configs = int(cfg.params.get("n_configs", 300))
    kd = unit_ball_volume(d)
    rows = []
    for t in cfg.t_grid:
        theta = t ** (-1.0 / d)  # keeps t^2 theta^d growing
        cutoff = min(theta, a * t ** (-2.0 / d))
        space = f"midpoints({d})"
        flat = _parallel_chunks(
            _midpoint_config_chunk, (d, t, cutoff, 64), n_configs, cfg.seed
        )
        side_a = _configs_from_padded(flat, d, space)
        mass = 0.5 * kd * a**d
        rng_b = derive_rng(cfg.seed, 888_001)
        side_b = [
            Configuration.from_array(rng_b.uniform(size=(rng_b.poisson(mass), d)), space=space)
            for _ in range(n_configs)
        ]
        kr = metrics.empirical_kr(side_a, side_b)
        a_tilde = a * t ** (-2.0 / d)
        bound = bnd.thm_main_bound(
            bnd.gilbert_intensity_error(d, t, a_tilde), bnd.r_term(d, t, cutoff).value, k=2
        )
        rows += _kr_rows(cfg, t, "midpoint-process", kr, bound + kr.noise_floor,
                         "r-form plus same-law noise floor", -min(2.0 / d, 1.0))
    passed = all(r.passed for r in rows)
    return RunResult(rows, {"passed": passed, "target_mass": 0.5 * kd * a**d})


def _run_flats(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    m = int(cfg.params.get("m", 1))
    a = float(cfg.params.get("a", 1.0))
    ball_radius = float(cfg.params.get("ball_radius", 0.6))
    mc_samples = int(cfg.params.get("constant_mc_samples", 200_000))
    sc = bnd.flats_constant(d, m)
    vol_k = unit_ball_volume(d) * ball_radius**d
    rows = []
    for t in cfg.t_grid:
        eps = a * t ** (-2.0 / (d - 2 * m))
        window = ball_radius + eps
        counts = _parallel_chunks(
            _flat_pair_midpoint_count_chunk,
            (d, m, t, window, ball_radius, eps),
            cfg.reps,
            cfg.seed,
        )
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / sqrt(cfg.reps))
        target = sc * a ** (d - 2 * m) * vol_k
        err = abs(mean - target)
        rows.append(_row(cfg, t, "flat-midpoint-count", "mean-abs-error", err, se, 3 * se,
                         "3-sigma (intensity is exact at every t)", -1.0, passed=err <= 3 * se))
    mc_mean, mc_se = bnd.flats_constant_mc(d, m, mc_samples, rng_seed=cfg.seed)
    mc_err = abs(mc_mean - sc)
    rows.append(_row(cfg, cfg.t_grid[-1], "flats-constant", "closed-form-vs-haar-mc", mc_err,
                     mc_se, 3 * mc_se, "3-sigma", passed=mc_err <= 3 * mc_se))
    passed = all(r.passed for r in rows)
    return RunResult(
        rows,
        {"passed": passed, "constant": sc, "target_mean": sc * a ** (d - 2 * m) * vol_k},
    )


def _run_polytope(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    a = float(cfg.params.get("a", 1.0))
    gap_threshold = float(cfg.params.get("gap_threshold", 0.02))
    # the trend across t sits near the Monte Carlo noise floor at modest
    # replication counts; per-t overrides let the cheap small-t runs carry
    # enough replications to resolve it
    reps_by_t = {float(k): int(v) for k, v in cfg.params.get("reps_by_t", {}).items()}
    rows = []
    for t in cfg.t_grid:
        reps = reps_by_t.get(float(t), cfg.reps)
        scaled = _parallel_chunks(_reversed_diameter_chunk, (d, t), reps, cfg.seed)
        p_emp = float((scaled > a).mean())
        _, _, tail = bnd.polytope_law(d, t, a)
        gap = abs(p_emp - tail)
        se = sqrt(max(p_emp * (1 - p_emp), 1e-12) / reps)
        rows.append(_row(cfg, t, "scaled-reversed-diameter", "tail-abs-error", gap, se, None,
                         "constant not explicit; rate reported", -min(4.0 / (d - 1), 1.0)))
    final_ok = rows[-1].distance < gap_threshold
    shrink_ok = len(rows) < 2 or rows[-1].distance < rows[0].distance
    passed = final_ok and shrink_ok
    return RunResult(
        rows,
        {
            "passed": passed,
            "limit_tail": bnd.polytope_law(d, cfg.t_grid[-1], a)[2],
            "gap_threshold": gap_threshold,
        },
    )


def _run_glauber_verify(cfg: ScenarioConfig) -> RunResult:
    mass = float(cfg.params.get("mass", 5.0))
    s_tv = float(cfg.params.get("s_tv", 1.0))
    s_grid = tuple(cfg.params.get("s_grid", (0.5, 1.0, 2.0, 4.0, 8.0)))
    commutation_s = tuple(cfg.params.get("commutation_s", (0.5, 1.0)))
    commutation_reps = int(cfg.params.get("commutation_reps", max(2, cfg.reps // 4)))
    domain = Domain("cube", 1)
    target = glb.TargetIntensity.from_domain(domain, scale=mass)

    # event-driven vs exact-law simulators, compared through their count laws
    omega0 = Configuration.from_points([0.25, 0.5, 0.75], space=domain.space_tag)
    ed = np.empty(cfg.reps, dtype=int)
    ex = np.empty(cfg.reps, dtype=int)
    for i in range(cfg.reps):
        rng = derive_rng(cfg.seed, 1, i)
        ed[i] = glb.simulate_event_driven(omega0, target, s_tv, rng).total()
        rng2 = derive_rng(cfg.seed, 2, i)
        ex[i] = glb.simulate_exact_law(omega0, target, s_tv, rng2).total()
    tv = metrics.tv_integer(
        metrics.EmpiricalDistribution.from_counts(ed),
        metrics.EmpiricalDistribution.from_counts(ex),
    )
    rows = [
        _row(cfg, s_tv, "count-law", "tv-two-simulators", tv, 0.0, 0.02, "acceptance threshold",
             passed=tv < 0.02, d=1)
    ]

    # commutation for three 1-Lipschitz functionals
    functionals = {
        "count": lambda w: float(w.total()),
        "capped-window-count": lambda w: float(min(w.count_interval(0.0, 0.3), 10)),
        "occupancy": lambda w: float(w.count_interval(0.0, 0.3) >= 1),
    }
    y_loc = 0.15
    for f_idx, (name, h) in enumerate(functionals.items()):
        for s in commutation_s:
            lhs, rhs, pooled = glb.commutation_check(
                omega0, y_loc, h, target, s, commutation_reps, cfg.seed + 101 + f_idx
            )
            rows.append(_gap_row(cfg, s, f"commutation-{name}", lhs, rhs, pooled, d=1))

    # ergodicity from the empty configuration
    table = glb.ergodicity_check(
        Configuration(space=domain.space_tag), target, s_grid, cfg.reps, cfg.seed + 71
    )
    tvs = [tv_s for _, tv_s in table]
    monotone = all(b <= a + 0.01 for a, b in zip(tvs, tvs[1:]))
    for (s, tv_s) in table:
        settled = (1 - exp(-s)) > 0.999
        rows.append(_row(cfg, s, "ergodicity", "tv-to-stationary-counts", tv_s, 0.0,
                         0.03 if settled else None, "acceptance threshold once 1-e^-s > 0.999",
                         passed=tv_s < 0.03 if settled else True, d=1))
    passed = all(r.passed for r in rows) and monotone
    return RunResult(rows, {"passed": passed, "ergodicity_monotone": monotone})


def _run_mecke_verify(cfg: ScenarioConfig) -> RunResult:
    t = float(cfg.t_grid[-1])
    n = int(cfg.params.get("n", int(t)))
    radius = float(cfg.params.get("radius", 0.1))
    domain = Domain("cube", cfg.d)
    cases = []
    for mode in ("poisson", "binomial"):
        cases.append((1, sampling.ConstantG(1), mode))
        cases.append((1, sampling.SingletonNeighborG(radius), mode))
        cases.append((2, sampling.PairProximityG(radius), mode))
        cases.append((2, sampling.NeighborCountG(radius), mode))
    rows = []
    for k, g, mode in cases:
        lhs, rhs, pooled = sampling.mecke_check(
            domain,
            t,
            k,
            g,
            cfg.reps,
            cfg.seed + 13 * k + (0 if mode == "poisson" else 1),
            mode=mode,
            n=n,
        )
        statistic = f"tuple-sum-k{k}-{type(g).__name__}-{mode}"
        rows.append(_gap_row(cfg, t if mode == "poisson" else n, statistic, lhs, rhs, pooled))
    passed = all(r.passed for r in rows)
    return RunResult(rows, {"passed": passed})


def _run_kr_estimate(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    t = float(cfg.t_grid[-1])
    n_configs = int(cfg.params.get("n_configs", 300))
    mode = cfg.params.get("mode", "identity-mapping")
    domain = Domain("cube", d)
    space = f"pushforward({d})"
    if mode == "identity-mapping":
        kernel = transform.identity_kernel(target_space=space)
        side_a = []
        for i in range(n_configs):
            rng = derive_rng(cfg.seed, 3, i)
            mu = sampling.sample_poisson(domain, t, rng)
            pushed = transform.induce(mu, kernel)
            side_a.append(pushed)
        rng_b = derive_rng(cfg.seed, 4)
        side_b = [
            Configuration.from_array(
                domain.sample(rng_b, rng_b.poisson(t * domain.mass)), space=space
            )
            for _ in range(n_configs)
        ]
    elif mode == "poisson-counts":
        lam = float(cfg.params.get("lam", 1.0))
        rng = derive_rng(cfg.seed, 5)

        def count_config():
            n = int(rng.poisson(lam))
            return Configuration({0.0: n} if n else {}, space="counts")

        side_a = [count_config() for _ in range(n_configs)]
        side_b = [count_config() for _ in range(n_configs)]
    else:
        raise ValueError(f"unknown kr-estimate mode {mode!r}")
    kr = metrics.empirical_kr(side_a, side_b)
    rows = _kr_rows(cfg, t, f"kr-{mode}", kr, kr.noise_floor + 3 * kr.noise_floor_std,
                    "same-law noise floor + 3 sigma")
    return RunResult(rows, {"passed": rows[0].passed})


_RUNNERS = {
    "gilbert-edges": _run_gilbert_edges,
    "gilbert-lengths": _run_gilbert_lengths,
    "gilbert-midpoints": _run_gilbert_midpoints,
    "distance-power": _run_distance_power,
    "flats": _run_flats,
    "polytope": _run_polytope,
    "glauber-verify": _run_glauber_verify,
    "mecke-verify": _run_mecke_verify,
    "kr-estimate": _run_kr_estimate,
}


def run(config: ScenarioConfig) -> RunResult:
    """Run one scenario; every row is reproducible from (config, seed)."""
    config.validate()
    _threads()  # a bad PPLAB_THREADS fails every scenario, fanned out or not
    return _RUNNERS[config.scenario](config)
