"""Numeric evaluation of the explicit approximation bounds and constants,
and the compound Poisson limit law of the edge-length sums.

The pair-kernel integrals over the unit cube are polynomials in the cutoff
for d <= 2: exact for d = 1, and for d = 2 with four edge-strip and corner
constants stored as float literals (their quadrature oracle is in
tests/oracles.py).  Higher dimensions fall back to nested Monte Carlo with
a reported standard error.  The polytope limit term is the one adaptive
quadrature evaluated at run time.  Bounds and moments take their source as
``n``: None for a Poisson process, the point count for a binomial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, factorial, perm, pi, sqrt

import numpy as np

from .geometry import cube_shell_constant, unit_ball_volume
from .laws import CompoundPoissonLaw
from .rng import derive_rng

QUAD_ABS_TOL = 1e-12
_HAAR_RUN = 16_384  # Haar frame pairs per draw of flats_constant_mc


# ---------------------------------------------------------------------------
# Ball/cube intersection integrals.
#
# For d = 2 and cutoff u <= 1/2, a ball centred within u of one side (but
# not of two) is clipped by that side alone, and one within u of two
# adjacent sides by both.  In units of u, the integrals of the clipped area
# A and of A^2 over an edge strip and over a corner square are four fixed
# numbers.  They are the reprs of adaptive quadratures (1e-12 tolerance for
# the strip, 1e-11 for the corner) of the closed-form clipped area;
# tests/oracles.py keeps that quadrature and the tests hold each literal to
# it within 1e-11.  C1 = pi - 2/3 and C2 = pi - 29/24 in closed form.
# ---------------------------------------------------------------------------

EDGE_STRIP_C1 = 2.474925986923128  # integral over h in [0, 1] of the clipped area
EDGE_STRIP_C3 = 6.35298707647394  # ... of its square
CORNER_C2 = 1.933259320257704  # integral over the unit corner square of the clipped area
CORNER_C4 = 4.023977216595262  # ... of its square


def cube_pair_integrals(d: int, cutoff: float) -> tuple[float, float]:
    """(I2, I3) for the unit cube: with A(x) = vol(cube intersect B(x, u)),
    I2 = integral of A over the cube and I3 = integral of A^2.

    Closed form for d = 1 and, up to the four stored constants, for d = 2;
    requires cutoff <= 1/2 so that a ball can clip at most adjacent faces.
    """
    u = float(cutoff)
    if u < 0:
        raise ValueError("cutoff must be nonnegative")
    if u == 0.0:
        return 0.0, 0.0
    if u > 0.5:
        raise ValueError("quadrature path needs cutoff <= 1/2")
    if d == 1:
        return 2 * u - u * u, 4 * u * u - (10.0 / 3.0) * u**3
    if d == 2:
        core = (1 - 2 * u) ** 2
        edge = 4 * (1 - 2 * u)
        i2 = core * pi * u**2 + edge * u**3 * EDGE_STRIP_C1 + 4 * u**4 * CORNER_C2
        i3 = core * (pi * u**2) ** 2 + edge * u**5 * EDGE_STRIP_C3 + 4 * u**6 * CORNER_C4
        return i2, i3
    raise ValueError("quadrature path implemented for d <= 2; use the Monte Carlo path")


@dataclass(frozen=True)
class RTermResult:
    value: float
    r_hat: float
    stderr: float | None = None
    method: str = "quadrature"


def r_term(d: int, t: float, cutoff: float) -> RTermResult:
    """Maximal squared-inner-integral term for a pair kernel on the unit cube
    whose admissible set is {|x - y| <= cutoff}.

    The quadrature path covers d <= 2 with cutoff <= 1/2; otherwise a
    nested Monte Carlo estimate is returned with its standard error.
    ``r_hat`` is the uniform bound t * kappa_d * cutoff^d on the inner
    integral; the term itself is always dominated by 2 * mass * r_hat.
    """
    r_hat = t * unit_ball_volume(d) * cutoff**d
    if d <= 2 and cutoff <= 0.5:
        _, i3 = cube_pair_integrals(d, cutoff)
        return RTermResult(value=t**3 * i3, r_hat=r_hat)
    value, se = _r_term_nested_mc(d, t, cutoff)
    return RTermResult(value=value, r_hat=r_hat, stderr=se, method="mc")


def _r_term_nested_mc(d, t, cutoff, rng_seed=0, n_outer=100_000, n_inner=1_000):
    """(value, stderr) of the r term from ``n_outer`` uniform points of the
    cube, each with two independent ``n_inner``-draw estimates of its
    clipped ball volume."""
    rng = derive_rng(rng_seed, 31_337)
    kd = unit_ball_volume(d)
    ball_vol = kd * cutoff**d
    prods = np.empty(n_outer)
    chunk = max(1, 200_000 // max(1, 2 * n_inner * d))
    i = 0
    while i < n_outer:
        j = min(n_outer, i + chunk)
        nb = j - i
        x = rng.uniform(size=(nb, 1, d))
        # two independent inner estimates keep the product unbiased for A^2
        g = rng.standard_normal((nb, 2 * n_inner, d))
        g /= np.linalg.norm(g, axis=2, keepdims=True)
        radii = cutoff * rng.uniform(size=(nb, 2 * n_inner, 1)) ** (1.0 / d)
        y = x + g * radii
        inside = np.all((y >= 0.0) & (y <= 1.0), axis=2)
        a1 = ball_vol * inside[:, :n_inner].mean(axis=1)
        a2 = ball_vol * inside[:, n_inner:].mean(axis=1)
        prods[i:j] = a1 * a2
        i = j
    value = t**3 * float(prods.mean())
    se = t**3 * float(prods.std(ddof=1) / sqrt(n_outer))
    return value, se


# ---------------------------------------------------------------------------
# Moments of the edge-count statistic (sum over subsets of the tuple index
# set, each term a product of the pair integrals above).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentPair:
    """First and second moment of the induced process's total mass."""

    mean: float
    second_moment: float


def gilbert_moments(d: int, t: float, cutoff: float, n: int | None = None) -> MomentPair:
    """Closed-quadrature moments of the edge count on the unit cube."""
    i2, i3 = cube_pair_integrals(d, cutoff)
    if n is None:
        mean = 0.5 * t**2 * i2
        second = mean**2 + mean + t**3 * i3
    else:
        mean = 0.5 * perm(n, 2) * i2
        second = 0.25 * perm(n, 4) * i2**2 + perm(n, 3) * i3 + 0.5 * perm(n, 2) * i2
    return MomentPair(mean=mean, second_moment=second)


# ---------------------------------------------------------------------------
# Assembled bounds, for a Poisson source (n None) or a binomial source of n
# points, which adds 6^k k! x^2 / n.  Below k points, the kernel arity, the
# induced process is empty and the first term alone is the bound.
# ---------------------------------------------------------------------------


def _binomial_excess(k: int, x: float, n: int) -> float:
    return 6**k * factorial(k) * x**2 / n


def thm_main_bound(dtv: float, r: float, k: int, n: int | None = None, mass_l: float = 0.0) -> float:
    """Transport-distance bound between the induced process and its target:
    dtv + 2^(k+1)/k! * r, plus the binomial excess of mass_l."""
    if min(dtv, r, mass_l) < 0:
        raise ValueError("bound inputs must be nonnegative")
    if n is not None and n < k:
        return dtv
    out = dtv + 2.0 ** (k + 1) / factorial(k) * r
    if n is not None:
        out += _binomial_excess(k, mass_l, n)
    return out


def ustat_poisson_bound(moments: MomentPair, lam: float, k: int, n: int | None = None) -> float:
    """Wasserstein bound for approximating the tuple-count statistic by a
    Poisson variable with mean lam, from the statistic's first two moments."""
    m1, m2 = moments.mean, moments.second_moment
    base = abs(m1 - lam)
    if n is None:
        return base + 2.0 * (m2 - m1 - m1**2)
    if n < k:
        return base
    ratio = perm(n - k, k) / perm(n, k) if n >= 2 * k else 0.0
    return base + 2.0 * (m2 - m1 - ratio * m1**2) + _binomial_excess(k, m1, n)


def gilbert_intensity_error(d: int, t: float, a_tilde: float) -> float:
    """Uniform error bound between the pair-statistic intensity on the unit
    cube and its translation-invariant limit, for admissible distance sets
    inside [0, a_tilde].

    The cube's shell constant is instantiated explicitly from its parallel
    volume polynomial, so the bound is fully numeric (an upper bound, not
    an equality).
    """
    if a_tilde < 0:
        raise ValueError("a_tilde must be nonnegative")
    if a_tilde >= 1:
        raise ValueError("shell-bound regime needs a_tilde < 1")
    if t < 1:
        raise ValueError("needs t >= 1")
    kd = unit_ball_volume(d)
    ck = cube_shell_constant(d)
    return 2.0 * ck * kd * t**2 * (a_tilde ** (d + 1) + a_tilde ** (2 * d)) + 0.5 * kd * t * a_tilde**d


def edge_length_law(d: int, lam: float, b: float) -> CompoundPoissonLaw:
    """Compound Poisson limit of the edge-length power sums on a unit-volume
    convex body: Poisson(kappa_d lam / 2) summands |X|^b with X uniform in
    the centered ball of radius lam^(1/d)."""

    def summands(rng, size):
        return (lam ** (1.0 / d) * rng.uniform(size=size) ** (1.0 / d)) ** b

    return CompoundPoissonLaw(mass=0.5 * unit_ball_volume(d) * lam, summand_sampler=summands)


def flats_constant(d: int, m: int) -> float:
    """Intensity constant of the close-pair midpoint process of an isotropic
    flat process: half the binomial ratio times kappa_{d-m}^2 / kappa_d."""
    if not 1 <= m or not 2 * m < d:
        raise ValueError("need 1 <= m < d/2")
    return 0.5 * comb(d - m, m) / comb(d, m) * unit_ball_volume(d - m) ** 2 / unit_ball_volume(d)


def flats_constant_via_grassmannian(d: int, m: int) -> float:
    """Same constant assembled from the integrated subspace determinant;
    equals flats_constant identically."""
    from .geometry import integrated_subspace_determinant

    if not 1 <= m or not 2 * m < d:
        raise ValueError("need 1 <= m < d/2")
    kd2m = unit_ball_volume(d - 2 * m)
    return 0.5 * kd2m * integrated_subspace_determinant(d, m)


def flats_constant_mc(d: int, m: int, samples: int, rng_seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the constant via Haar frame pairs.

    Gaussian draws of shape (n, 2, d, m), in runs of at most ``_HAAR_RUN``
    pairs, are the stream of ``samples`` pairs of ``geometry.haar_frame``
    calls; the QR, the Gram matrices and the determinants are stacked over
    a run's pairs and match ``geometry.subspace_determinant`` sample by
    sample, so the run size bounds the memory and changes no number.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 Monte Carlo samples for a standard error, got {samples}")
    rng = derive_rng(rng_seed, 4242)
    vals = np.empty(samples)
    for start in range(0, samples, _HAAR_RUN):
        n = min(_HAAR_RUN, samples - start)
        q, _ = np.linalg.qr(rng.standard_normal((n, 2, d, m)))
        frames = q.swapaxes(2, 3).reshape(n, 2 * m, d)  # rows: both frames stacked
        det = np.linalg.det(frames @ frames.swapaxes(1, 2))
        vals[start:start + n] = np.sqrt(np.clip(det, 0.0, 1.0))  # rounding can leave det outside [0, 1]
    vals *= 0.5 * unit_ball_volume(d - 2 * m)
    return float(vals.mean()), float(vals.std(ddof=1) / sqrt(samples))


def polytope_law(d: int, t: float, a: float) -> tuple[float, float, float]:
    """Reversed-diameter intensity on [0, a] for points on the unit sphere.

    Returns (exact finite-t mass, limit mass, limit tail probability): the
    finite-t mass by adaptive quadrature of the one-dimensional reduction,
    the limit mass kappa_{d-1} 2^(d-2) a^((d-1)/2) / (d kappa_d), and
    exp(-limit mass) as the limiting no-point probability.
    """
    if d < 2:
        raise ValueError("needs d >= 2")
    if a < 0:
        raise ValueError("a must be nonnegative")
    if t < 1:
        raise ValueError("needs t >= 1")
    if a == 0.0:
        return 0.0, 0.0, 1.0
    eps = t ** (-4.0 / (d - 1))
    if 2.0 - a * eps <= 0:
        raise ValueError("parameter regime violated: need a * t^(-4/(d-1)) < 2")
    kd = unit_ball_volume(d)
    kdm1 = unit_ball_volume(d - 1)

    def integrand(u):
        inner = 4.0 * u - u * u * eps - eps * (2.0 * u - u * u * eps / 2.0) ** 2
        return max(inner, 0.0) ** ((d - 3) / 2.0) * (2.0 - u * eps)

    from scipy import integrate  # imported here to keep start-up light

    val, _ = integrate.quad(integrand, 0.0, a, epsabs=QUAD_ABS_TOL, epsrel=1e-11, limit=200)
    l_t = (d - 1) * kdm1 / (2.0 * d * kd) * val
    m_lim = kdm1 * 2.0 ** (d - 2) / (d * kd) * a ** ((d - 1) / 2.0)
    return l_t, m_lim, exp(-m_lim)


def polytope_limit_density(d: int, a: float) -> float:
    """Density of the limiting reversed-diameter intensity at a."""
    kd = unit_ball_volume(d)
    kdm1 = unit_ball_volume(d - 1)
    return (d - 1) / (d * kd) * kdm1 * 2.0 ** (d - 3) * a ** ((d - 3) / 2.0)
