"""Analytic target laws for the limit experiments: Poisson for the edge
counts, compound Poisson for the edge-length sums and the 1/2-stable Levy
law for the distance-power sums.

Each law exposes the pieces its comparisons need: a CDF where one exists
in closed form, a pmf for integer laws, and a sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


def _no_nan(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("law evaluated at NaN")
    return x


@dataclass(frozen=True)
class PoissonLaw:
    """Poisson(lam) on the nonnegative integers.

    pmf, cdf and ppf use the same ``scipy.special`` formulas as
    ``scipy.stats.poisson`` and agree with it bit for bit (tests/test_laws.py).
    A scalar argument gives a numpy scalar, an array an array.
    """

    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("Poisson mean must be nonnegative")

    def pmf(self, k) -> np.ndarray:
        """exp(k log lam - log k! - lam) at the nonnegative integers, 0 elsewhere."""
        k = _no_nan(k)
        out = np.zeros(k.shape)
        on = (k >= 0) & np.isfinite(k) & (np.floor(k) == k)
        log_p = special.xlogy(k[on], self.lam) - special.gammaln(k[on] + 1) - self.lam
        out[on] = np.clip(np.exp(log_p), 0, 1)
        return out[()]

    def cdf(self, x) -> np.ndarray:
        """P(N <= x): the regularized incomplete gamma ``pdtr(floor(x), lam)``."""
        x = _no_nan(x)
        out = np.zeros(x.shape)
        on = x >= 0
        out[on] = np.clip(special.pdtr(np.floor(x[on]), self.lam), 0, 1)
        return out[()]

    def cdf_left(self, x) -> np.ndarray:
        """P(N < x)."""
        return self.cdf(np.ceil(np.asarray(x, dtype=float)) - 1)

    def ppf(self, q) -> np.ndarray:
        """Smallest k with P(N <= k) >= q, for 0 < q < 1: the inverse of
        ``pdtr`` in its mean argument, rounded up, then one step down when
        ``pdtr`` at the integer below already reaches q."""
        q = _no_nan(q)
        if not np.all((q > 0) & (q < 1)):
            raise ValueError("Poisson quantile needs 0 < q < 1")
        k = np.ceil(special.pdtrik(q, self.lam))
        below = np.maximum(k - 1, 0)
        return np.where(special.pdtr(below, self.lam) >= q, below, k)[()]

    def sample(self, rng: np.random.Generator, size=None):
        return rng.poisson(self.lam, size=size)


@dataclass(frozen=True)
class CompoundPoissonLaw:
    """Sum of the atoms of a finite-intensity Poisson process on the reals.

    Equivalently a Poisson(mass) number of i.i.d. summands drawn by
    ``summand_sampler(rng, n)``.
    """

    mass: float
    summand_sampler: callable

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


@dataclass(frozen=True)
class LevyLaw:
    """The 1/2-stable law on the positive axis with CDF erfc(sqrt(c / 2x))."""

    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def cdf(self, x) -> np.ndarray:
        x = _no_nan(x)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = special.erfc(np.sqrt(self.scale / (2.0 * x[pos])))
        return out

    def pdf(self, x) -> np.ndarray:
        x = _no_nan(x)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = (
            np.sqrt(self.scale / (2.0 * np.pi))
            * x[pos] ** -1.5
            * np.exp(-self.scale / (2.0 * x[pos]))
        )
        return out

    def ppf(self, u) -> np.ndarray:
        u = _no_nan(u)
        if not np.all((u >= 0) & (u < 1)):
            raise ValueError("Levy quantile needs 0 <= q < 1")
        return self.scale / (2.0 * special.erfcinv(u) ** 2)

    def sample(self, rng: np.random.Generator, size=None):
        return self.ppf(rng.uniform(size=size))


def sample_law(law, rng: np.random.Generator) -> float:
    """One draw from any of the analytic target laws."""
    return float(law.sample(rng))
