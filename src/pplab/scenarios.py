"""Experiment scenarios: simulate a statistic across an intensity grid,
measure its distance to the analytic target, and set the measured value
against the corresponding explicit bound.

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
flat counts and base radii, then each run's flats.  `flats` grid point i
draws from (seed, i, b) and `mecke-verify` check c from (seed, c, b).
`gilbert-midpoints` and `kr-estimate` use blocks of one replication
through `rng.replicate`, and hand their configurations to
`metrics.empirical_kr` as ragged ``(points, counts)`` sides.  Draws made
once per grid point or per side (target samples, side-B configurations,
bootstraps) stay sequential on their own single streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, sqrt
from numbers import Real

import numpy as np

from . import bounds as bnd
from . import glauber as glb
from . import metrics, sampling, transform
from .configuration import Configuration  # noqa: F401 (perfbench/selftest.py reads it here)
from .geometry import Domain, unit_ball_volume
from .laws import PoissonLaw
from .rng import derive_rng, replicate, replicate_blocks, worker_pool

# the params keys each runner reads; any other key is a configuration error
_PARAMS = {
    "gilbert-edges": ("lam", "n_boot"),
    "gilbert-lengths": ("b", "lam", "cells", "tv_threshold", "target_factor", "n_boot"),
    "gilbert-midpoints": ("a", "n_configs"),
    "distance-power": ("tau", "dk_threshold", "threshold_t", "n_boot"),
    "flats": ("m", "a", "ball_radius", "constant_mc_samples"),
    "polytope": ("a", "gap_threshold", "reps_by_t"),
    "glauber-verify": ("mass", "s_tv", "s_grid", "commutation_s", "commutation_reps"),
    "mecke-verify": ("n", "radius"),
    "kr-estimate": ("mode", "n_configs", "lam"),
}
SCENARIO_NAMES = tuple(_PARAMS)

DISTANCE_SCENARIOS = ("gilbert-edges", "gilbert-lengths", "distance-power", "polytope")
# runners that read one t (glauber-verify reads none): a longer grid would be dropped
ONE_POINT_GRID_SCENARIOS = ("glauber-verify", "mecke-verify", "kr-estimate")


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
        if not isinstance(self.params, dict):
            raise ValueError("params must be an object")
        if any(isinstance(t, bool) or not isinstance(t, Real) for t in self.t_grid):
            raise ValueError("t_grid must be a list of numbers")
        unknown = sorted(set(self.params) - set(_PARAMS[self.scenario]))
        if unknown:
            raise ValueError(f"unknown params for {self.scenario}: {unknown}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        grid = list(self.t_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be nonempty and strictly increasing")
        if self.scenario in ONE_POINT_GRID_SCENARIOS and len(grid) > 1:
            raise ValueError(f"{self.scenario} takes a one-point t_grid, got {len(grid)} points")
        self._check_reps(self.reps)
        for t, reps in self.params.get("reps_by_t", {}).items():
            if float(t) not in grid:
                raise ValueError(f"reps_by_t key {t!r} is not in t_grid")
            self._check_reps(int(reps))
        if self.scenario == "distance-power" and "threshold_t" in self.params:
            # an unmatched threshold_t would leave the threshold unchecked
            threshold_t = float(self.params["threshold_t"])
            if not any(abs(t - threshold_t) < 1e-9 for t in grid):
                raise ValueError(f"threshold_t {threshold_t!r} is not in t_grid")

    def _check_reps(self, reps: int) -> None:
        if reps < 2:
            raise ValueError("replications must be >= 2 for a sample standard error")
        if self.scenario in DISTANCE_SCENARIOS and reps < 1000:
            raise ValueError("distance estimation scenarios need at least 1000 replications")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("a config must be an object")
        known = {"scenario", "d", "t_grid", "reps", "seed", "params"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        try:
            cfg = cls(
                scenario=data.get("scenario", ""),
                d=int(data.get("d", 2)),
                t_grid=tuple(data.get("t_grid", (50.0,))),
                reps=int(data.get("reps", 1000)),
                seed=int(data.get("seed", 0)),
                params=data.get("params", {}),
            )
        except TypeError:  # int() of a list, or a t_grid that is not a list
            raise ValueError("d, reps and seed must be integers, t_grid a list") from None
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


def _gap_row(cfg, t, statistic, lhs, rhs, pooled, d=None) -> ResultRow:
    """An identity check: |lhs - rhs| within 3 pooled sigma (exact when pooled is 0)."""
    gap = abs(lhs - rhs)
    return _row(cfg, t, statistic, "lhs-rhs-gap", gap, pooled, 3 * pooled, "3 pooled sigma",
                passed=gap < 3 * pooled or pooled == 0.0, d=d)


# ---------------------------------------------------------------------------
# Per-replication and per-block statistics (top level so the pool of the
# replication driver can pickle them).
# ---------------------------------------------------------------------------

def _cube_stat(d, t, kernel, kernel_args, rng):
    """kernel(pts, *kernel_args) on Poisson(t) uniform points of [0, 1]^d."""
    return kernel(rng.uniform(size=(rng.poisson(t), d)), *kernel_args)


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
    """The close line-pair count (``_count_close_line_pairs``) of each of a
    block of ``size`` Poisson flat processes hitting the window ball.

    Draws the block's flat counts, then the base radii of all its flats,
    then, run by run (``sampling._runs``), the Gaussians of the run's flats
    through ``sampling.sample_flats``; a block of one replication draws as
    ``sampling.sample_poisson_flats``.
    """
    counts = rng.poisson(sampling.flats_hitting_mass(d, m, t, window_radius), size)
    radii = window_radius * rng.uniform(size=counts.sum()) ** (1.0 / (d - m))
    out = []
    for lo, hi, start, stop in sampling._runs(counts):
        frames = sampling.sample_flats(d, m, radii[start:stop], rng)
        out += [_count_close_line_pairs(f, eps, ball_radius)
                for f in np.split(frames, np.cumsum(counts[lo:hi - 1]))]
    return np.array(out)


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
    # b x u row by row, without np.cross's per-call overhead
    cross = (bases[:, [1, 2, 0]] * dirs[:, [2, 0, 1]] - bases[:, [2, 0, 1]] * dirs[:, [1, 2, 0]]) @ dirs.T
    triple = cross + cross.T
    cos = dirs @ dirs.T
    with np.errstate(invalid="ignore"):  # 0 * inf on the diagonal when eps is infinite
        near = triple * triple <= 4.0 * eps * eps * (1.0 - cos * cos)
    iu, ju = np.nonzero(near)
    iu, ju = iu[iu < ju], ju[iu < ju]
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


# ---------------------------------------------------------------------------
# Distance estimators with bootstrap uncertainties.
# ---------------------------------------------------------------------------


def _bootstrap_se(values: np.ndarray, statistic, n_boot: int, seed: int) -> float:
    rng = derive_rng(seed, 77_003)
    n = len(values)
    stats = np.empty(n_boot)
    for b in range(n_boot):
        stats[b] = statistic(values[rng.integers(0, n, size=n)])
    return float(stats.std(ddof=1))


def _bootstrap_se_pmfs(samples, statistic, n_boot: int, rng: np.random.Generator) -> float:
    """Bootstrap spread of ``statistic(*pmfs)``, where each ``(pmf, n)`` of
    ``samples`` is the empirical pmf of n i.i.d. integer draws.  A resample
    redraws each histogram multinomially, which is i.i.d. resampling of the
    draws at O(bins) instead of O(n) cost."""
    out = np.empty(n_boot)
    for b in range(n_boot):
        out[b] = statistic(*(rng.multinomial(n, p) / n for p, n in samples))
    return float(out.std(ddof=1))


def _bootstrap_se_poisson_w1(counts: np.ndarray, cdf: np.ndarray, n_boot: int, seed: int) -> float:
    """Bootstrap spread of `metrics.wasserstein1` against ``cdf``."""
    pmf = np.zeros(len(cdf))

    def w1(resampled):
        pmf[: len(resampled)] = resampled
        return metrics.wasserstein1(pmf, cdf)

    n = len(counts)
    return _bootstrap_se_pmfs([(np.bincount(counts) / n, n)], w1, n_boot, derive_rng(seed, 77_003))


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
        args = (Domain("cube", d), t, transform.pair_counts_within, (theta,))
        counts = replicate_blocks(_block_stat, args, cfg.reps, cfg.seed)
        # the grid 0..K covers the sample and all but 1e-14 of the target's mass
        k = max(int(counts.max()), int(target.ppf(1 - 1e-14)) + 2)
        cdf = target.cdf(np.arange(k + 1))
        dw = metrics.wasserstein1(np.bincount(counts, minlength=k + 1) / counts.size, cdf)
        se = _bootstrap_se_poisson_w1(counts, cdf, n_boot, cfg.seed)
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
        args = (Domain("cube", d), t, transform.pair_sums_power, (b, theta))
        stat = t ** (2.0 * b / d) * replicate_blocks(_block_stat, args, cfg.reps, cfg.seed)
        target = limits.edge_length.sample_many(
            derive_rng(cfg.seed, 555_001, idx), target_factor * cfg.reps
        )
        tv = metrics.tv_discretized(stat, target, cells)
        se = _bootstrap_se(
            stat,
            lambda s: metrics.tv_discretized(s, target, cells),
            int(cfg.params.get("n_boot", 100)),
            cfg.seed + idx,
        )
        r = bnd.r_term(d, t, theta).value
        bound = bnd.thm_main_bound(bnd.gilbert_intensity_error(d, t, theta), r, k=2)
        rows.append(_row(cfg, t, "edge-length-sum", f"tv-{cells}cell", tv, se, bound,
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
        args = (Domain("cube", d), t, transform.pair_sums_inverse_power, (tau,))
        stat = t ** (-2.0 * tau / d) * replicate_blocks(_block_stat, args, cfg.reps, cfg.seed)
        dk = metrics.kolmogorov(stat, levy)
        se = _bootstrap_se(
            stat,
            lambda s: metrics.kolmogorov(s, levy),
            int(cfg.params.get("n_boot", 100)),
            cfg.seed,
        )
        rows.append(_row(cfg, t, "distance-power-sum", "kolmogorov", dk, se, None,
                         "constant not explicit; rate reported", rate))
    threshold_ok = next(r.distance for r in rows if abs(r.t - threshold_t) < 1e-9) < threshold
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


def _run_gilbert_midpoints(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    a = float(cfg.params.get("a", 1.0))
    n_configs = int(cfg.params.get("n_configs", 300))
    kd = unit_ball_volume(d)
    rows = []
    for t in cfg.t_grid:
        theta = t ** (-1.0 / d)  # keeps t^2 theta^d growing
        cutoff = min(theta, a * t ** (-2.0 / d))
        args = (d, t, transform.pair_midpoints, (cutoff,))
        side_a = _side(replicate(_cube_stat, args, n_configs, cfg.seed), d)
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


def _run_flats(cfg: ScenarioConfig) -> RunResult:
    d = cfg.d
    m = int(cfg.params.get("m", 1))
    a = float(cfg.params.get("a", 1.0))
    ball_radius = float(cfg.params.get("ball_radius", 0.6))
    mc_samples = int(cfg.params.get("constant_mc_samples", 200_000))
    sc = bnd.flats_constant(d, m)
    vol_k = unit_ball_volume(d) * ball_radius**d
    if (d, m) != (3, 1):
        raise ValueError("vectorized flat-pair path covers lines in R^3")
    rows = []
    for idx, t in enumerate(cfg.t_grid):
        eps = a * t ** (-2.0 / (d - 2 * m))
        window = ball_radius + eps
        args = (d, m, t, window, ball_radius, eps)
        counts = replicate_blocks(_flat_pair_counts, args, cfg.reps, cfg.seed, idx)
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
    target = glb.TargetIntensity.from_domain(Domain("cube", 1), scale=mass)
    omega0 = np.array([0.25, 0.5, 0.75])
    window = (0.0, 0.3)

    # event-driven vs exact-law simulators, compared through their count laws
    sim = (omega0, target, s_tv, window)
    ed = replicate_blocks(glb.simulate_event_driven, sim, cfg.reps, cfg.seed, 1)[:, 0]
    ex = replicate_blocks(glb.simulate_exact_law, sim, cfg.reps, cfg.seed, 2)[:, 0]
    pa, pb = metrics.integer_pmfs(ed, ex)
    tv = metrics.tv_pmfs(pa, pb)
    # bootstrap error bars on the TV rows; the verdicts stay fixed-threshold
    n_boot = 200
    se = _bootstrap_se_pmfs([(pa, ed.size), (pb, ex.size)], metrics.tv_pmfs, n_boot, derive_rng(cfg.seed, 77_004, 0))
    rows = [
        _row(cfg, s_tv, "count-law", "tv-two-simulators", tv, se, 0.02, "acceptance threshold",
             passed=tv < 0.02, d=1)
    ]

    # commutation for three 1-Lipschitz functionals of the (total, window) counts
    functionals = {
        "count": glb.total_count,
        "capped-window-count": glb.capped_window_count,
        "occupancy": glb.window_occupancy,
    }
    y_loc = 0.15
    for f_idx, (name, phi) in enumerate(functionals.items()):
        for s in commutation_s:
            lhs, rhs, pooled = glb.commutation_check(
                omega0, y_loc, phi, target, s, window, commutation_reps, cfg.seed + 101 + f_idx
            )
            rows.append(_gap_row(cfg, s, f"commutation-{name}", lhs, rhs, pooled, d=1))

    # ergodicity from the empty configuration
    table = glb.ergodicity_check(0, target, s_grid, cfg.reps, cfg.seed + 71)
    tvs = [tv_s for _, tv_s, _ in table]
    monotone = all(b <= a + 0.01 for a, b in zip(tvs, tvs[1:]))
    for j, (s, tv_s, counts) in enumerate(table, start=1):
        emp, pois, tail = metrics.poisson_pmfs(counts, target.mass)
        se = _bootstrap_se_pmfs(
            [(emp, counts.size)], lambda p: metrics.tv_pmfs(p, pois, tail), n_boot, derive_rng(cfg.seed, 77_004, j)
        )
        settled = (1 - exp(-s)) > 0.999
        rows.append(_row(cfg, s, "ergodicity", "tv-to-stationary-counts", tv_s, se,
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
    for c, (k, g, mode) in enumerate(cases):
        lhs, rhs, pooled = sampling.mecke_check(domain, t, k, g, cfg.reps, cfg.seed, c, mode=mode, n=n)
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
    if mode == "identity-mapping":
        # the identity map leaves each configuration as drawn
        side_a = _side(replicate(sampling.poisson_points, (domain, t), n_configs, cfg.seed, 3), d)
        rng_b = derive_rng(cfg.seed, 4)
        side_b = _side([sampling.poisson_points(domain, t, rng_b) for _ in range(n_configs)], d)
    elif mode == "poisson-counts":
        # every atom sits at 0
        lam = float(cfg.params.get("lam", 1.0))
        rng = derive_rng(cfg.seed, 5)
        side_a = _side([np.zeros((rng.poisson(lam), 1)) for _ in range(n_configs)], 1)
        side_b = _side([np.zeros((rng.poisson(lam), 1)) for _ in range(n_configs)], 1)
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
    # one pool serves every replication loop of the scenario; a bad
    # PPLAB_THREADS fails here, fanned out or not
    with worker_pool():
        return _RUNNERS[config.scenario](config)
