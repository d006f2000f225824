"""The Poisson law on ``scipy.special`` against ``scipy.stats.poisson``, and
the start-up path that keeps ``scipy.stats`` out of the package."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from pplab import metrics
from pplab.laws import LevyLaw, PoissonLaw
from pplab.rng import derive_rng

SRC = Path(__file__).resolve().parents[1] / "src"
MEANS = (0.0, 0.5, np.pi / 2, 5.0, 37.2, 400.0)
QUANTILES = (0.1, 0.5, 1 - 1e-12, 1 - 1e-14)


def _arguments(mu: float) -> np.ndarray:
    hi = mu + 12 * np.sqrt(mu) + 20
    ints = np.arange(-3, int(hi))
    return np.concatenate([ints, ints + 0.5, ints - 1e-9, np.linspace(-7.3, hi, 257)])


@pytest.mark.parametrize("mu", MEANS)
def test_poisson_law_matches_scipy_stats_bitwise(mu):
    law = PoissonLaw(mu)
    xs = _arguments(mu)
    assert np.array_equal(law.pmf(xs), stats.poisson.pmf(xs, mu))
    assert np.array_equal(law.pmf(xs.astype(int)), stats.poisson.pmf(xs.astype(int), mu))
    assert np.array_equal(law.cdf(xs), stats.poisson.cdf(xs, mu))
    assert np.array_equal(law.cdf_left(xs), stats.poisson.cdf(np.ceil(xs) - 1, mu))
    for k in (0, 3, -1, 2.5):
        assert law.pmf(k) == stats.poisson.pmf(k, mu)
        assert law.cdf(k) == stats.poisson.cdf(k, mu)
    for q in QUANTILES:
        assert law.ppf(q) == int(stats.poisson.ppf(q, mu))


def test_poisson_law_rejects_nan_and_bad_quantiles():
    law = PoissonLaw(5.0)
    for fn in (law.pmf, law.cdf, law.cdf_left, law.ppf):
        with pytest.raises(ValueError):
            fn(np.nan)
        with pytest.raises(ValueError):
            fn(np.array([1.0, np.nan]))
    for q in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            law.ppf(q)


def test_levy_law_rejects_nan():
    # cdf and pdf read a NaN as a nonpositive argument and gave 0.0
    law = LevyLaw(1.0)
    for fn in (law.cdf, law.pdf, law.ppf):
        with pytest.raises(ValueError, match="law evaluated at NaN"):
            fn(np.nan)
        with pytest.raises(ValueError, match="law evaluated at NaN"):
            fn(np.array([0.5, np.nan]))
    assert law.cdf(0.0) == 0.0 and law.pdf(-1.0) == 0.0


def test_levy_quantile_range():
    # no quantile outside [0, 1): erfcinv would fold 1.5 onto 0.5, give NaN
    # below 0 and divide by zero at 1
    law = LevyLaw(1.0)
    for q in (1.0, 1.5, 2.5, -0.5, np.array([0.5, 1.0])):
        with pytest.raises(ValueError, match="Levy quantile"):
            law.ppf(q)
    # an exact 0 draw of rng.uniform is a valid quantile level
    assert law.ppf(0.0) == 0.0
    assert law.cdf(law.ppf(0.5)) == pytest.approx(0.5, abs=1e-15)


def _tv_against_poisson_scipy(counts, lam):
    """The TV formula written directly on ``scipy.stats.poisson``."""
    counts = np.asarray(counts, dtype=int)
    kmax = max(int(counts.max()), int(stats.poisson.ppf(1 - 1e-12, lam))) if lam > 0 else int(counts.max())
    emp = np.bincount(counts, minlength=kmax + 1) / counts.size
    pois = stats.poisson.pmf(np.arange(kmax + 1), lam)
    tail = 1.0 - pois.sum()
    return min(max(0.5 * (float(np.abs(emp - pois).sum()) + max(tail, 0.0)), 0.0), 1.0)


@pytest.mark.parametrize("seed, lam, sample_lam", [(1, 5.0, 5.0), (2, np.pi / 2, 2.0), (3, 37.2, 37.2), (4, 0.0, 0.3)])
def test_tv_against_poisson_matches_scipy_formula_bitwise(seed, lam, sample_lam):
    counts = derive_rng(seed).poisson(sample_lam, size=2_000)
    assert metrics.tv_against_poisson(counts, lam) == _tv_against_poisson_scipy(counts, lam)


def test_startup_imports_no_scipy_stats():
    code = (
        "import sys\n"
        "import pplab.cli, pplab.scenarios\n"
        "from pplab import bounds\n"
        "bounds.cube_pair_integrals(2, 0.1)\n"
        "for name in ('scipy.stats', 'scipy.integrate', 'scipy.optimize'):\n"
        "    assert name not in sys.modules, name + ' imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
