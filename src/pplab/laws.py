"""Analytic target laws for the limit experiments.

Each law exposes the pieces its comparisons need: a CDF where one exists
in closed form, a pmf for integer laws, and a sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats


@dataclass(frozen=True)
class PoissonLaw:
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("Poisson mean must be nonnegative")

    def pmf(self, k) -> np.ndarray:
        return stats.poisson.pmf(k, self.lam)

    def cdf(self, x) -> np.ndarray:
        return stats.poisson.cdf(x, self.lam)

    def cdf_left(self, x) -> np.ndarray:
        return stats.poisson.cdf(np.ceil(np.asarray(x, dtype=float)) - 1, self.lam)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.poisson(self.lam, size=size)

    @property
    def mean(self) -> float:
        return self.lam


@dataclass(frozen=True)
class CompoundPoissonLaw:
    """Sum of the atoms of a finite-intensity Poisson process on the reals.

    Equivalently a Poisson(mass) number of i.i.d. summands drawn by
    ``summand_sampler(rng, n)``.
    """

    mass: float
    summand_sampler: callable
    summand_mean: float = float("nan")

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("total mass must be nonnegative")

    def sample(self, rng: np.random.Generator) -> float:
        n = rng.poisson(self.mass)
        if n == 0:
            return 0.0
        return float(np.sum(self.summand_sampler(rng, n)))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        counts = rng.poisson(self.mass, size=size)
        total = int(counts.sum())
        if total == 0:
            return np.zeros(size)
        draws = self.summand_sampler(rng, total)
        out = np.zeros(size)
        np.add.at(out, np.repeat(np.arange(size), counts), draws)
        return out

    @property
    def mean(self) -> float:
        return self.mass * self.summand_mean


@dataclass(frozen=True)
class LevyLaw:
    """The 1/2-stable law on the positive axis with CDF erfc(sqrt(c / 2x))."""

    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = special.erfc(np.sqrt(self.scale / (2.0 * x[pos])))
        return out

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = (
            np.sqrt(self.scale / (2.0 * np.pi))
            * x[pos] ** -1.5
            * np.exp(-self.scale / (2.0 * x[pos]))
        )
        return out

    def ppf(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.scale / (2.0 * special.erfcinv(u) ** 2)

    def sample(self, rng: np.random.Generator, size=None):
        return self.ppf(rng.uniform(size=size))

    @property
    def median(self) -> float:
        return float(self.ppf(0.5))


@dataclass(frozen=True)
class StableSeriesLaw:
    """scale * sum of x^(-1/alpha) over a unit-intensity Poisson process on (0, T].

    The window T truncates the series; the neglected tail has mean
    scale * T^(1 - 1/alpha) / (1/alpha - 1), reported by
    ``truncation_tail_mean`` and documented with every sample batch.
    Only alpha in (0, 1) is supported; the summands are then so heavy
    tailed that no centering is needed.
    """

    alpha: float
    window: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("need 0 < alpha < 1")
        if self.window <= 0:
            raise ValueError("window must be positive")

    @property
    def truncation_tail_mean(self) -> float:
        inv = 1.0 / self.alpha
        return self.scale * self.window ** (1.0 - inv) / (inv - 1.0)

    def sample(self, rng: np.random.Generator) -> float:
        n = rng.poisson(self.window)
        if n == 0:
            return 0.0
        pts = rng.uniform(0.0, self.window, size=n)
        return float(self.scale * np.sum(pts ** (-1.0 / self.alpha)))

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        counts = rng.poisson(self.window, size=size)
        total = int(counts.sum())
        if total == 0:
            return np.zeros(size)
        pts = rng.uniform(0.0, self.window, size=total)
        out = np.zeros(size)
        np.add.at(out, np.repeat(np.arange(size), counts), pts ** (-1.0 / self.alpha))
        return self.scale * out


def stable_series_window(alpha: float, scale: float, target_median: float, rel: float = 1e-3) -> float:
    """Window size making the truncation-tail mean at most rel * target_median."""
    inv = 1.0 / alpha
    # scale * T^(1 - inv) / (inv - 1) <= rel * median
    t = (rel * target_median * (inv - 1.0) / scale) ** (1.0 / (1.0 - inv))
    return float(max(t, 1.0))


def sample_law(law, rng: np.random.Generator) -> float:
    """One draw from any of the analytic target laws."""
    return float(law.sample(rng))
