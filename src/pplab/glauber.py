"""Spatial birth-death dynamics whose invariant law is a finite-intensity
Poisson process, and the checks the ``glauber-verify`` scenario runs on it.

Two simulators are provided on purpose: the event-driven construction
(births at the intensity's total rate, unit per-particle death rate) and
the closed-form one-step law (thin the start, superpose an independent
Poisson sample).  Each serves as the other's oracle.  On top of them,
``commutation_check`` compares the gradient of the evolved functional with
the evolved gradient, and ``ergodicity_check`` follows the count law to
the stationary Poisson law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configuration import Configuration
from .geometry import Domain
from .rng import derive_rng, replicate


@dataclass(frozen=True)
class TargetIntensity:
    """Finite target intensity: total mass plus a normalized location sampler."""

    mass: float
    sampler: callable  # (rng, n) -> (n, d) array or (n,) array
    space: str = ""

    def __post_init__(self):
        if not (self.mass > 0 and np.isfinite(self.mass)):
            raise ValueError("total mass must be finite and positive")

    @classmethod
    def from_domain(cls, domain: Domain, scale: float = 1.0) -> "TargetIntensity":
        return cls(
            mass=scale * domain.mass,
            sampler=domain.sample,
            space=domain.space_tag,
        )


def _sample_locations(target: TargetIntensity, rng, n: int) -> list:
    if n == 0:
        return []
    pts = np.asarray(target.sampler(rng, n))
    if pts.ndim == 2 and pts.shape[1] == 1:
        pts = pts[:, 0]
    if pts.ndim == 1:
        return [float(v) for v in pts]
    return [row for row in pts]


def simulate_event_driven(
    omega: Configuration,
    target: TargetIntensity,
    s: float,
    rng: np.random.Generator,
) -> Configuration:
    """State of the birth-death process at time s started from omega.

    Births arrive as a homogeneous Poisson process of rate mass on [0, s]
    and are placed by the location sampler; every particle, initial or
    born, carries an independent unit-rate exponential lifetime.
    Returns the surviving configuration.
    """
    if s < 0:
        raise ValueError("horizon must be nonnegative")
    if s == 0:
        return omega.copy()
    final = Configuration(space=omega.space or target.space)

    initial_pts = omega.points()
    init_lifetimes = rng.exponential(size=len(initial_pts))
    n_births = rng.poisson(target.mass * s)
    birth_times = np.sort(rng.uniform(0.0, s, size=n_births))
    birth_locs = _sample_locations(target, rng, n_births)
    birth_lifetimes = rng.exponential(size=n_births)

    for p, life in zip(initial_pts, init_lifetimes):
        if life >= s:
            final.add(p)
    for t_b, loc, life in zip(birth_times, birth_locs, birth_lifetimes):
        if t_b + life >= s:
            final.add(loc)
    return final


def simulate_exact_law(
    omega: Configuration,
    target: TargetIntensity,
    s: float,
    rng: np.random.Generator,
) -> Configuration:
    """Sample the time-s law directly: keep each initial atom with
    probability e^(-s) and superpose a Poisson((1 - e^(-s)) * intensity)
    sample."""
    if s < 0:
        raise ValueError("horizon must be nonnegative")
    keep_p = np.exp(-s)
    out = Configuration(space=omega.space or target.space)
    for loc, mult in omega.atoms.items():
        kept = rng.binomial(mult, keep_p)
        if kept:
            out.add(loc, kept)
    n_new = rng.poisson((1.0 - keep_p) * target.mass)
    for loc in _sample_locations(target, rng, n_new):
        out.add(loc)
    return out


def survivor_count_event_driven(
    n_initial: int, mass: float, s: float, rng: np.random.Generator
) -> int:
    """Population size at time s of the event-driven run (counts only)."""
    init = int((rng.exponential(size=n_initial) >= s).sum()) if n_initial else 0
    n_births = rng.poisson(mass * s)
    if n_births == 0:
        return init
    birth_times = rng.uniform(0.0, s, size=n_births)
    lives = rng.exponential(size=n_births)
    return init + int((birth_times + lives >= s).sum())


def commutation_check(
    omega: Configuration,
    y,
    h,
    target: TargetIntensity,
    s: float,
    reps: int,
    rng_seed: int,
) -> tuple[float, float, float]:
    """Compare the gradient of the evolved functional with the evolved gradient.

    Left side: coupled runs sharing all randomness, the extra particle at y
    carrying its own lifetime.  Right side: e^(-s) times the Monte Carlo
    mean of the added-atom increment of h at time s.  Returns
    (lhs, rhs, pooled standard error).
    """
    if reps < 2:
        raise ValueError(f"need at least 2 replications for a standard error, got {reps}")
    if s == 0:
        plus = omega.copy()
        plus.add(y)
        v = float(h(plus) - h(omega))
        return v, v, 0.0
    lhs_vals = np.empty(reps)
    rhs_vals = np.empty(reps)
    decay = np.exp(-s)
    for i in range(reps):
        rng = derive_rng(rng_seed, 2 * i)
        g_s = simulate_event_driven(omega, target, s, rng)
        extra_life = rng.exponential()
        if extra_life >= s:
            plus = g_s.copy()
            plus.add(y)
            lhs_vals[i] = h(plus) - h(g_s)
        else:
            lhs_vals[i] = 0.0

        rng2 = derive_rng(rng_seed, 2 * i + 1)
        g_ind = simulate_event_driven(omega, target, s, rng2)
        plus2 = g_ind.copy()
        plus2.add(y)
        rhs_vals[i] = decay * (h(plus2) - h(g_ind))
    pooled = float(
        np.sqrt(lhs_vals.var(ddof=1) / reps + rhs_vals.var(ddof=1) / reps)
    )
    return float(lhs_vals.mean()), float(rhs_vals.mean()), pooled


def ergodicity_check(
    omega: Configuration,
    target: TargetIntensity,
    s_grid,
    reps: int,
    rng_seed: int,
) -> list[tuple[float, float, np.ndarray]]:
    """Per horizon s, (s, TV, counts): the total variation between the
    empirical count law of the event-driven state and the Poisson(mass)
    stationary count law, and the ``reps`` survivor counts it was measured on."""
    from .metrics import tv_against_poisson

    s_grid = list(s_grid)
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ValueError("horizon grid must be strictly increasing")
    n0 = omega.total()
    out = []
    for j, s in enumerate(s_grid):
        args = (n0, target.mass, s)
        counts = np.array(replicate(survivor_count_event_driven, args, reps, rng_seed, j))
        out.append((float(s), tv_against_poisson(counts, target.mass), counts))
    return out
