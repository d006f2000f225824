"""Experiment scenarios: simulate a statistic across an intensity grid,
measure its distance to the analytic target, and set the measured value
against the corresponding explicit bound.

`_SCENARIOS` declares each scenario once: its runner, the kind and default
of each of its params, and its grid and replication rules.
`ScenarioConfig.validate` checks a config against it before any draw and
hands the runner its params typed, every default filled in.

Every replication loop goes through the block driver of `rng`: block b of
a statistic draws from the stream derived from (seed, stream ids, b), and
the blocks fan out over the one process pool that `run` opens when
PPLAB_THREADS asks for one, so results do not depend on the worker count.
`glauber-verify`, the pair statistics of `gilbert-edges`,
`gilbert-lengths`, `distance-power` and `polytope`, the flat-pair counts
of `flats` and the `mecke-verify` checks draw in blocks of `rng.BLOCK`
replications through `rng.replicate_blocks`: a pair-statistic block draws
its point counts, then its points in runs of replications, and takes each
run's statistics from one ragged `transform` call; a flats block draws its
flat counts and base radii, then counts each run's lines with one such call.
`flats` grid point i draws from (seed, i, b), `mecke-verify` check c from
(seed, c, b).
`gilbert-midpoints` and `kr-estimate` use blocks of one replication
through `rng.replicate`, and hand their configurations to
`metrics.empirical_kr` as ragged ``(points, counts)`` sides;
`gilbert-midpoints` first takes the midpoints of a grid point's
configurations from one ragged `transform` call.  Draws made
once per grid point or per side (target samples, side-B configurations)
stay sequential on their own single streams.  Every error bar on a 1-D
distance comes from the one `_bootstrap_se`, and each call names the
stream it draws from: (seed, 77 003) at every t of `gilbert-edges` and
`distance-power`, (seed + grid index, 77 003) in `gilbert-lengths`, and
(seed, 77 004, j) for TV row j of `glauber-verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from math import exp, isfinite, pi, sqrt
from numbers import Integral, Real

import numpy as np

from . import bounds as bnd
from . import glauber as glb
from . import metrics, sampling, transform
from .configuration import Configuration  # noqa: F401 (perfbench/selftest.py reads it here)
from .geometry import Domain, unit_ball_volume
from .laws import LevyLaw, PoissonLaw
from .rng import derive_rng, replicate, replicate_blocks, worker_pool


@dataclass
class ScenarioConfig:
    scenario: str
    d: int = 2
    t_grid: tuple = (50.0,)
    reps: int = 1000
    seed: int = 0
    params: dict = field(default_factory=dict)

    def validate(self) -> dict:
        """Check the config against its `_SCENARIOS` entry; return the params
        checked by their kinds and typed, every default filled in."""
        if self.scenario not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        spec = _SCENARIOS[self.scenario]
        if not isinstance(self.params, dict):
            raise ValueError("params must be an object")
        unknown = sorted(set(self.params) - set(spec.params))
        if unknown:
            raise ValueError(f"unknown params for {self.scenario}: {unknown}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        grid = _grid(self.t_grid, "t_grid")
        if spec.one_point_grid and len(grid) > 1:
            raise ValueError(f"{self.scenario} takes a one-point t_grid, got {len(grid)} points")
        _check_reps(self.reps, spec.least_reps)
        params = {}
        for key, (kind, default) in spec.params.items():
            value = self.params[key] if key in self.params else default(self) if callable(default) else default
            params[key] = kind(value, key, self)
        return params

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("a config must be an object")
        extra = set(data) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        kwargs = {"scenario": "", **data}
        for key in ("d", "reps", "seed"):
            if key in data:
                kwargs[key] = _as_int(data[key], key)
        if "t_grid" in data:
            kwargs["t_grid"] = _grid(data["t_grid"], "t_grid")
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _check_reps(reps: int, least: int) -> int:
    if reps < 2:
        raise ValueError("replications must be >= 2 for a sample standard error")
    if reps < least:
        raise ValueError(f"distance estimation scenarios need at least {least} replications")
    return reps


# Param kinds: kind(value, key, cfg) checks a param and returns it typed.

def _as_int(value, name: str) -> int:
    """``value`` as an int; a bool, a non-number or a fraction is an error, never truncated."""
    integral = isinstance(value, Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _count(value, key, cfg, least=1) -> int:
    n = _as_int(value, key)
    if n < least:
        raise ValueError(f"{key} must be >= {least}, got {value!r}")
    return n


def _real(value, key, cfg, positive=False) -> float:
    """A finite number, an integer included; a bool or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if not isfinite(value) or positive and value <= 0:
        raise ValueError(f"{key} must be {'positive and ' * positive}finite, got {value!r}")
    return float(value)


_positive = partial(_real, positive=True)  # lengths, masses, intensities and thresholds
_kr_count = partial(_count, least=metrics.MIN_KR_CONFIGS)  # configurations per side of a KR estimate


def _grid(value, key, cfg=None) -> tuple:
    """A nonempty, strictly increasing list of positive finite numbers, as given."""
    try:
        grid = tuple(value)
    except TypeError:
        raise ValueError(f"{key} must be a list") from None
    if any(isinstance(t, bool) or not isinstance(t, Real) for t in grid):
        raise ValueError(f"{key} must be a list of numbers")
    if not all(isfinite(t) and t > 0 for t in grid):
        raise ValueError(f"{key} entries must be positive and finite")
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{key} must be nonempty and strictly increasing")
    return grid


def _grid_point(value, key, cfg) -> float:
    """A point of ``t_grid``; an unmatched one would leave its check unread."""
    t = _real(value, key, cfg)
    if not any(abs(s - t) < 1e-9 for s in cfg.t_grid):
        raise ValueError(f"{key} {t!r} is not in t_grid")
    return t


def _reps_by_t(value, key, cfg) -> dict:
    """Per-t replication overrides {t: reps}, each t on the grid."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object")
    out = {}
    for t, reps in value.items():
        try:
            on_grid = float(t) in cfg.t_grid
        except (TypeError, ValueError):
            raise ValueError(f"{key} key {t!r} is not a number") from None
        if not on_grid:
            raise ValueError(f"{key} key {t!r} is not in t_grid")
        out[float(t)] = _check_reps(_as_int(reps, f"{key}[{t!r}]"), _SCENARIOS[cfg.scenario].least_reps)
    return out


def _mecke_n(cfg) -> float:
    """The default binomial n is t; a fractional t has no such n."""
    t = cfg.t_grid[-1]
    if not float(t).is_integer():
        raise ValueError(f"n must be given when t is not an integer, got t = {t!r}")
    return t


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
         rate_pred=None, passed=True) -> ResultRow:
    """One row of cfg's scenario, in the config's dimension."""
    return ResultRow(
        scenario=cfg.scenario,
        d=cfg.d,
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

    The surrogate is biased upward at finite sample sizes, so it passes on
    an excess over the noise floor below 3 sigma, not on the bound.
    """
    ok = kr.estimate - kr.noise_floor < 3 * kr.noise_floor_std
    return [
        _row(cfg, t, statistic, "kr-surrogate", kr.estimate, kr.noise_floor_std,
             bound, bound_form, rate_pred, passed=ok),
        _row(cfg, t, statistic, "kr-noise-floor", kr.noise_floor, kr.noise_floor_std),
    ]


def _side(point_sets, d) -> tuple:
    """The ``(points, counts)`` side of `metrics.empirical_kr` holding the
    configurations ``point_sets``, each an ``(n_i, d)`` array."""
    return np.concatenate(point_sets).reshape(-1, d), np.array([len(p) for p in point_sets])


def _gap_row(cfg, t, statistic, lhs, rhs, pooled) -> ResultRow:
    """An identity check: |lhs - rhs| within 3 pooled sigma (exact when pooled is 0)."""
    gap = abs(lhs - rhs)
    return _row(cfg, t, statistic, "lhs-rhs-gap", gap, pooled, 3 * pooled, "3 pooled sigma",
                passed=gap < 3 * pooled or pooled == 0.0)


# ---------------------------------------------------------------------------
# Per-replication and per-block statistics (top level so the pool of the
# replication driver can pickle them).
# ---------------------------------------------------------------------------

def _block_stat(domain, t, stat, stat_args, rng, size):
    """stat(points, counts, *stat_args) for a block of ``size`` Poisson(t)
    samples of ``domain``, one value per replication.

    Draws all the point counts first, then the points run by run
    (``sampling._runs``) from the one block generator; ``stat`` gets each
    run's points, grouped by replication, and their counts.
    """
    counts = rng.poisson(t, size)
    return np.concatenate([stat(domain.sample(rng, stop - start), counts[lo:hi], *stat_args)
                           for lo, hi, start, stop in sampling._runs(counts)])


def _reversed_diameter_exceeds(points, counts, scale, a):
    """Per replication of points on the unit sphere, whether
    scale * (2 - diameter) > a; True below two points.

    That fails iff some pair has scale * (2 - |x - y|) <= a.  Since
    |x - y|^2 + |x + y|^2 = 4 for unit vectors, such a pair has
    |x + y| <= sqrt(4 - (2 - a / scale)^2), so the candidates come from an
    antipode search at that radius (plus 1e-12 under the root, far above
    the rounding of |x| = 1 and of the distance), and each is decided by
    the formula on its distance.
    """
    radius = sqrt(4.0 - (2.0 - a / scale) ** 2 + 1e-12)
    rep, dist = transform.antipodal_pairs(points, counts, radius)
    out = np.ones(len(counts), dtype=bool)
    out[rep[scale * (2.0 - dist) <= a]] = False
    return out


def _flat_pair_counts(d, m, t, window_radius, ball_radius, eps, rng, size):
    """``transform.close_line_pair_counts`` of each of a block of ``size``
    Poisson line processes hitting the window ball.  Draws the block's flat
    counts, then its base radii, then run by run (``sampling._runs``) the
    Gaussians of ``sampling.sample_flats``, and counts each run with one
    ragged call; a block of one draws as ``sampling.sample_poisson_flats``.
    """
    counts = rng.poisson(sampling.flats_hitting_mass(d, m, t, window_radius), size)
    radii = window_radius * rng.uniform(size=counts.sum()) ** (1.0 / (d - m))
    return np.concatenate([
        transform.close_line_pair_counts(sampling.sample_flats(d, m, radii[start:stop], rng),
                                         counts[lo:hi], eps, ball_radius)
        for lo, hi, start, stop in sampling._runs(counts)
    ])


# ---------------------------------------------------------------------------
# Distance estimators with bootstrap uncertainties.
# ---------------------------------------------------------------------------


def _bootstrap_se(resampled, rng: np.random.Generator, n_boot: int) -> float:
    """Bootstrap standard error: the ddof=1 spread of ``resampled(rng)``, the
    statistic on one resample drawn from ``rng``, over ``n_boot`` resamples.

    A resample of n real draws takes n indices; one of an empirical pmf of n
    integer draws redraws the histogram multinomially, which is i.i.d.
    resampling of the draws at O(bins) instead of O(n) cost.
    """
    return float(np.std([resampled(rng) for _ in range(n_boot)], ddof=1))


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


def _run_gilbert_edges(cfg: ScenarioConfig, params: dict) -> RunResult:
    d = cfg.d
    lam = params["lam"]
    target = PoissonLaw(0.5 * unit_ball_volume(d) * lam)
    rows = []
    for t in cfg.t_grid:
        theta = lam ** (1.0 / d) * t ** (-2.0 / d)
        args = (Domain("cube", d), t, transform.pair_counts_within, (theta,))
        counts = replicate_blocks(_block_stat, args, cfg.reps, cfg.seed)
        n = counts.size
        # the grid 0..K covers the sample and all but 1e-14 of the target's mass
        k = max(int(counts.max()), int(target.ppf(1 - 1e-14)) + 2)
        cdf = target.cdf(np.arange(k + 1))
        dw = metrics.wasserstein1(np.bincount(counts, minlength=k + 1) / n, cdf)
        # each resampled histogram is written into one grid-sized buffer
        pmf, grid = np.bincount(counts) / n, np.zeros(k + 1)

        def resampled_w1(rng):
            grid[: len(pmf)] = rng.multinomial(n, pmf) / n
            return metrics.wasserstein1(grid, cdf)

        se = _bootstrap_se(resampled_w1, derive_rng(cfg.seed, 77_003), 200)
        bound = bnd.ustat_poisson_bound(bnd.gilbert_moments(d, t, theta), target.lam, k=2)
        rows.append(_row(cfg, t, "edge-count", "wasserstein", dw, se, bound, "moment-form",
                         -min(2.0 / d, 1.0), passed=dw + 3 * se <= bound))
    slope = _fit_loglog_slope(cfg.t_grid, [r.distance for r in rows])
    slope_ok = len(cfg.t_grid) < 2 or slope <= -0.5
    passed = all(r.passed for r in rows) and slope_ok
    return RunResult(rows, {"passed": passed, "slope": slope, "slope_threshold": -0.5, "target_mean": target.lam})


def _run_gilbert_lengths(cfg: ScenarioConfig, params: dict) -> RunResult:
    d = cfg.d
    lam, b, cells, tv_threshold = params["lam"], params["b"], params["cells"], params["tv_threshold"]
    limit = bnd.edge_length_law(d, lam, b)
    rows = []
    for idx, t in enumerate(cfg.t_grid):
        theta = lam ** (1.0 / d) * t ** (-2.0 / d)
        args = (Domain("cube", d), t, transform.pair_sums_power, (b, theta))
        stat = t ** (2.0 * b / d) * replicate_blocks(_block_stat, args, cfg.reps, cfg.seed)
        # the target draws are cheap, so a target sample ten times larger keeps
        # the two-sample noise floor of the discretized TV below the signal
        target = limit.sample_many(derive_rng(cfg.seed, 555_001, idx), 10 * cfg.reps)
        tv = metrics.tv_discretized(stat, target, cells)
        n = stat.size
        se = _bootstrap_se(lambda rng: metrics.tv_discretized(stat[rng.integers(0, n, size=n)], target, cells),
                           derive_rng(cfg.seed + idx, 77_003), 100)
        r = bnd.r_term(d, t, theta).value
        bound = bnd.thm_main_bound(bnd.gilbert_intensity_error(d, t, theta), r, k=2)
        rows.append(_row(cfg, t, "edge-length-sum", f"tv-{cells}cell", tv, se, bound,
                         "r-form (upper bounds the discretized TV)", -min(2.0 / d, 1.0),
                         passed=tv + 3 * se <= bound))
    dists = [r.distance for r in rows]
    decreasing = all(b <= a for a, b in zip(dists, dists[1:]))
    passed = decreasing and dists[-1] < tv_threshold and all(r.passed for r in rows)
    return RunResult(rows, {"passed": passed, "decreasing": decreasing, "final_tv": dists[-1],
                            "tv_threshold": tv_threshold, "note": "discretized TV lower-bounds the true TV"})


def _run_distance_power(cfg: ScenarioConfig, params: dict) -> RunResult:
    d = cfg.d
    tau, threshold, threshold_t = params["tau"], params["dk_threshold"], params["threshold_t"]
    if not abs(tau - 2 * d) < 1e-12:
        raise ValueError("closed-form target needs tau = 2d")
    levy = LevyLaw(scale=pi * unit_ball_volume(d) ** 2 / 8.0)
    if d in (1, 2):
        rate = -0.2
    else:
        rate = -2.0 / (3 * d + 2)
    rows = []
    for t in cfg.t_grid:
        args = (Domain("cube", d), t, transform.pair_sums_inverse_power, (tau,))
        stat = t ** (-2.0 * tau / d) * replicate_blocks(_block_stat, args, cfg.reps, cfg.seed)
        dk = metrics.kolmogorov(stat, levy)
        n = stat.size
        se = _bootstrap_se(lambda rng: metrics.kolmogorov(stat[rng.integers(0, n, size=n)], levy),
                           derive_rng(cfg.seed, 77_003), 100)
        rows.append(_row(cfg, t, "distance-power-sum", "kolmogorov", dk, se, None,
                         "constant not explicit; rate reported", rate))
    threshold_ok = next(r.distance for r in rows if abs(r.t - threshold_t) < 1e-9) < threshold
    decreasing = len(rows) < 2 or rows[0].distance > rows[-1].distance
    passed = threshold_ok and decreasing
    return RunResult(rows, {"passed": passed, "decreasing_ends": decreasing, "dk_threshold": threshold,
                            "threshold_t": threshold_t, "levy_scale": levy.scale})


def _run_gilbert_midpoints(cfg: ScenarioConfig, params: dict) -> RunResult:
    d = cfg.d
    a, n_configs = params["a"], params["n_configs"]
    kd = unit_ball_volume(d)
    rows = []
    for t in cfg.t_grid:
        theta = t ** (-1.0 / d)  # keeps t^2 theta^d growing
        cutoff = min(theta, a * t ** (-2.0 / d))
        points = replicate(sampling.poisson_points, (Domain("cube", d), t), n_configs, cfg.seed)
        side_a = transform.pair_midpoints(*_side(points, d), cutoff)
        mass = 0.5 * kd * a**d
        rng_b = derive_rng(cfg.seed, 888_001)
        side_b = _side([rng_b.uniform(size=(rng_b.poisson(mass), d)) for _ in range(n_configs)], d)
        kr = metrics.empirical_kr(side_a, side_b)
        a_tilde = a * t ** (-2.0 / d)
        bound = bnd.thm_main_bound(
            bnd.gilbert_intensity_error(d, t, a_tilde), bnd.r_term(d, t, cutoff).value, k=2
        )
        rows += _kr_rows(cfg, t, "midpoint-process", kr, bound + kr.noise_floor,
                         "r-form plus same-law noise floor", -min(2.0 / d, 1.0))
    passed = all(r.passed for r in rows)
    return RunResult(rows, {"passed": passed, "target_mass": 0.5 * kd * a**d})


def _run_flats(cfg: ScenarioConfig, params: dict) -> RunResult:
    d = cfg.d
    m, a, ball_radius = params["m"], params["a"], params["ball_radius"]
    sc = bnd.flats_constant(d, m)
    target = sc * a ** (d - 2 * m) * (unit_ball_volume(d) * ball_radius**d)
    if (d, m) != (3, 1):
        raise ValueError("vectorized flat-pair path covers lines in R^3")
    rows = []
    for idx, t in enumerate(cfg.t_grid):
        eps = a * t ** (-2.0 / (d - 2 * m))
        args = (d, m, t, ball_radius + eps, ball_radius, eps)
        counts = replicate_blocks(_flat_pair_counts, args, cfg.reps, cfg.seed, idx)
        se = float(counts.std(ddof=1) / sqrt(cfg.reps))
        err = abs(float(counts.mean()) - target)
        rows.append(_row(cfg, t, "flat-midpoint-count", "mean-abs-error", err, se, 3 * se,
                         "3-sigma (intensity is exact at every t)", -1.0, passed=err <= 3 * se))
    mc_mean, mc_se = bnd.flats_constant_mc(d, m, params["constant_mc_samples"], rng_seed=cfg.seed)
    mc_err = abs(mc_mean - sc)
    rows.append(_row(cfg, cfg.t_grid[-1], "flats-constant", "closed-form-vs-haar-mc", mc_err,
                     mc_se, 3 * mc_se, "3-sigma", passed=mc_err <= 3 * mc_se))
    passed = all(r.passed for r in rows)
    return RunResult(rows, {"passed": passed, "constant": sc, "target_mean": target})


def _run_polytope(cfg: ScenarioConfig, params: dict) -> RunResult:
    d = cfg.d
    a, gap_threshold = params["a"], params["gap_threshold"]
    rows = []
    for t in cfg.t_grid:
        # the trend across t sits near the Monte Carlo noise floor at modest
        # replication counts; per-t overrides let the cheap small-t runs carry
        # enough replications to resolve it
        reps = params["reps_by_t"].get(float(t), cfg.reps)
        _, _, tail = bnd.polytope_law(d, t, a)  # rejects a regime the antipode search cannot take
        args = (Domain("sphere", d), t, _reversed_diameter_exceeds, (t ** (4.0 / (d - 1)), a))
        p_emp = float(replicate_blocks(_block_stat, args, reps, cfg.seed).mean())
        gap = abs(p_emp - tail)
        se = sqrt(max(p_emp * (1 - p_emp), 1e-12) / reps)
        rows.append(_row(cfg, t, "scaled-reversed-diameter", "tail-abs-error", gap, se, None,
                         "constant not explicit; rate reported", -min(4.0 / (d - 1), 1.0)))
    final_ok = rows[-1].distance < gap_threshold
    shrink_ok = len(rows) < 2 or rows[-1].distance < rows[0].distance
    passed = final_ok and shrink_ok
    return RunResult(rows, {"passed": passed, "limit_tail": tail, "gap_threshold": gap_threshold})


def _run_glauber_verify(cfg: ScenarioConfig, params: dict) -> RunResult:
    if cfg.d != 1:
        raise ValueError("glauber-verify runs on the line: needs d = 1")
    s_tv = 1.0  # the time at which the two simulators' count laws are compared
    mass = params["mass"]
    omega0 = np.array([0.25, 0.5, 0.75])
    window = (0.0, 0.3)

    # event-driven vs exact-law simulators, compared through their count laws
    sim = (omega0, mass, s_tv, window)
    ed = replicate_blocks(glb.simulate_event_driven, sim, cfg.reps, cfg.seed, 1)[:, 0]
    ex = replicate_blocks(glb.simulate_exact_law, sim, cfg.reps, cfg.seed, 2)[:, 0]
    pa, pb = metrics.integer_pmfs(ed, ex)
    tv = metrics.tv_pmfs(pa, pb)
    # bootstrap error bars on the TV rows; the verdicts stay fixed-threshold
    n_boot = 200

    def resampled_tv(rng):
        return metrics.tv_pmfs(rng.multinomial(ed.size, pa) / ed.size, rng.multinomial(ex.size, pb) / ex.size)

    se = _bootstrap_se(resampled_tv, derive_rng(cfg.seed, 77_004, 0), n_boot)
    rows = [
        _row(cfg, s_tv, "count-law", "tv-two-simulators", tv, se, 0.02, "acceptance threshold",
             passed=tv < 0.02)
    ]

    # commutation for three 1-Lipschitz functionals of the (total, window) counts
    functionals = {
        "count": glb.total_count,
        "capped-window-count": glb.capped_window_count,
        "occupancy": glb.window_occupancy,
    }
    y_loc = 0.15
    for f_idx, (name, phi) in enumerate(functionals.items()):
        for s in params["commutation_s"]:
            lhs, rhs, pooled = glb.commutation_check(
                omega0, y_loc, phi, mass, s, window, params["commutation_reps"], cfg.seed + 101 + f_idx
            )
            rows.append(_gap_row(cfg, s, f"commutation-{name}", lhs, rhs, pooled))

    # ergodicity from the empty configuration
    table = glb.ergodicity_check(0, mass, params["s_grid"], cfg.reps, cfg.seed + 71)
    tvs = [tv_s for _, tv_s, _ in table]
    monotone = all(b <= a + 0.01 for a, b in zip(tvs, tvs[1:]))
    for j, (s, tv_s, counts) in enumerate(table, start=1):
        emp, pois, tail = metrics.poisson_pmfs(counts, mass)
        n = counts.size
        se = _bootstrap_se(lambda rng: metrics.tv_pmfs(rng.multinomial(n, emp) / n, pois, tail),
                           derive_rng(cfg.seed, 77_004, j), n_boot)
        settled = (1 - exp(-s)) > 0.999
        rows.append(_row(cfg, s, "ergodicity", "tv-to-stationary-counts", tv_s, se,
                         0.03 if settled else None, "acceptance threshold once 1-e^-s > 0.999",
                         passed=tv_s < 0.03 if settled else True))
    passed = all(r.passed for r in rows) and monotone
    return RunResult(rows, {"passed": passed, "ergodicity_monotone": monotone})


def _run_mecke_verify(cfg: ScenarioConfig, params: dict) -> RunResult:
    t, n = float(cfg.t_grid[-1]), params["n"]
    radius = 0.1  # of the test functions' neighbourhoods
    domain = Domain("cube", cfg.d)
    # (source, row t, label): a Poisson(t) sample, then a binomial one of n points
    cases = [(g, *source) for source in ((None, t, "poisson"), (n, n, "binomial"))
             for g in (sampling.ConstantG(1), sampling.SingletonNeighborG(radius),
                       sampling.PairProximityG(radius), sampling.NeighborCountG(radius))]
    rows = []
    for c, (g, source, row_t, label) in enumerate(cases):
        lhs, rhs, pooled = sampling.mecke_check(domain, t, g, cfg.reps, cfg.seed, c, n=source)
        rows.append(_gap_row(cfg, row_t, f"tuple-sum-k{g.k}-{type(g).__name__}-{label}", lhs, rhs, pooled))
    passed = all(r.passed for r in rows)
    return RunResult(rows, {"passed": passed})


def _run_kr_estimate(cfg: ScenarioConfig, params: dict) -> RunResult:
    d = cfg.d
    t = float(cfg.t_grid[-1])
    n_configs, mode = params["n_configs"], params["mode"]
    if mode != "identity-mapping":
        raise ValueError(f"unknown kr-estimate mode {mode!r}")
    domain = Domain("cube", d)
    # the identity map leaves each configuration as drawn
    side_a = _side(replicate(sampling.poisson_points, (domain, t), n_configs, cfg.seed, 3), d)
    rng_b = derive_rng(cfg.seed, 4)
    side_b = _side([sampling.poisson_points(domain, t, rng_b) for _ in range(n_configs)], d)
    kr = metrics.empirical_kr(side_a, side_b)
    rows = _kr_rows(cfg, t, f"kr-{mode}", kr, kr.noise_floor + 3 * kr.noise_floor_std,
                    "same-law noise floor + 3 sigma")
    return RunResult(rows, {"passed": rows[0].passed})


@dataclass
class _Scenario:
    """A scenario's runner, its params as {key: (kind, default)} (a callable
    default is computed from the config), whether its runner reads a single t
    (a longer grid would be dropped) and its least replications per t."""

    runner: object
    params: dict
    one_point_grid: bool = False
    least_reps: int = 2


_SCENARIOS = {
    "gilbert-edges": _Scenario(_run_gilbert_edges, {"lam": (_positive, 1.0)}, least_reps=1000),
    "gilbert-lengths": _Scenario(_run_gilbert_lengths, {"b": (_real, 1.0), "lam": (_positive, 1.0),
                                 "cells": (_count, 64), "tv_threshold": (_positive, 0.1)}, least_reps=1000),
    "gilbert-midpoints": _Scenario(_run_gilbert_midpoints, {"a": (_positive, 1.0),
                                                            "n_configs": (_kr_count, 300)}),
    "distance-power": _Scenario(_run_distance_power, {
        "tau": (_real, lambda cfg: 2 * cfg.d), "dk_threshold": (_positive, 0.08),
        "threshold_t": (_grid_point, lambda cfg: cfg.t_grid[len(cfg.t_grid) // 2])}, least_reps=1000),
    "flats": _Scenario(_run_flats, {"m": (_count, 1), "a": (_positive, 1.0), "ball_radius": (_positive, 0.6),
                                    "constant_mc_samples": (partial(_count, least=2), 200_000)}),
    "polytope": _Scenario(_run_polytope, {"a": (_positive, 1.0), "gap_threshold": (_positive, 0.02),
                                          "reps_by_t": (_reps_by_t, {})}, least_reps=1000),
    "glauber-verify": _Scenario(_run_glauber_verify, {
        "mass": (_positive, 5.0), "s_grid": (_grid, (0.5, 1.0, 2.0, 4.0, 8.0)),
        "commutation_s": (_grid, (0.5, 1.0)),
        "commutation_reps": (partial(_count, least=2), lambda cfg: max(2, cfg.reps // 4)),
    }, one_point_grid=True),
    "mecke-verify": _Scenario(_run_mecke_verify, {"n": (partial(_count, least=2), _mecke_n)}, one_point_grid=True),
    # the runner checks mode, as it checks tau and (d, m): a scenario error, still before any draw
    "kr-estimate": _Scenario(_run_kr_estimate, {"mode": (lambda value, key, cfg: value, "identity-mapping"),
                                                "n_configs": (_kr_count, 300)}, one_point_grid=True),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def run(config: ScenarioConfig) -> RunResult:
    """Run one scenario; every row is reproducible from (config, seed)."""
    params = config.validate()
    # one pool serves every replication loop of the scenario; a bad
    # PPLAB_THREADS fails here, fanned out or not
    with worker_pool():
        return _SCENARIOS[config.scenario].runner(config, params)
