"""Poisson and binomial process samplers, Poisson flat processes, and
Monte Carlo checks of the moment identities for sums over distinct tuples.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import perm

import numpy as np

from .configuration import Configuration
from .geometry import Domain, unit_ball_volume
from .rng import replicate


def sample_poisson(domain: Domain, t: float, rng: np.random.Generator) -> Configuration:
    """Poisson sample with intensity t times the domain's reference measure.

    The point count is Poisson(t * mass); locations are i.i.d. from the
    normalized reference measure.
    """
    if t < 0:
        raise ValueError("intensity multiplier must be nonnegative")
    n = rng.poisson(t * domain.mass)
    return Configuration.from_array(domain.sample(rng, n), space=domain.space_tag)


def sample_binomial(domain: Domain, n: int, rng: np.random.Generator) -> Configuration:
    """Exactly n i.i.d. points from the domain's normalized reference measure."""
    if n < 0:
        raise ValueError("point count must be nonnegative")
    return Configuration.from_array(domain.sample(rng, n), space=domain.space_tag)


def flats_hitting_mass(d: int, m: int, t: float, window_radius: float) -> float:
    """Mass of the flat-process intensity restricted to flats meeting B^d(R)."""
    return t * unit_ball_volume(d - m) * window_radius ** (d - m)


def sample_poisson_flats(
    d: int,
    m: int,
    t: float,
    window_radius: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Poisson process of m-flats in R^d hitting the centered ball of given radius.

    Returns an ``(n, m + 1, d)`` array: row 0 of each flat is its base point,
    rows 1..m its orthonormal directions.  Directions are Haar on the
    Grassmannian (QR of a Gaussian d x m matrix); given a direction, the
    translation is uniform on the (d-m)-ball of the window radius inside the
    orthogonal complement, which is exactly the hitting set of the window.

    The draws stay per flat and in the order Gaussian frame, Gaussian
    direction in the complement, uniform radius: the Gaussian sampler takes
    a variable number of words per draw, so bulk draws would change the
    stream.  The linear algebra is stacked over the flats and gives the same
    bits as one flat at a time.
    """
    if not 1 <= m or not 2 * m < d:
        raise ValueError("need 1 <= m < d/2")
    if t < 0:
        raise ValueError("intensity must be nonnegative")
    n = rng.poisson(flats_hitting_mass(d, m, t, window_radius))
    dm = d - m
    gauss = np.empty((n, d, m))
    g = np.empty((n, 1, dm))
    r = np.empty((n, 1, 1))
    for k in range(n):
        gauss[k] = rng.standard_normal((d, m))
        g[k, 0] = rng.standard_normal(dm)
        # a Python float power: the array power differs in the last ulp
        r[k] = window_radius * rng.uniform() ** (1.0 / dm)
    q, _ = np.linalg.qr(gauss)
    dirs = q.swapaxes(1, 2)  # (n, m, d)
    _, _, vt = np.linalg.svd(dirs, full_matrices=True)
    comp = vt[:, m:]  # (n, d-m, d), orthonormal complement rows
    # sqrt of the matmul self-product is bitwise the 1-D np.linalg.norm
    g /= np.sqrt(g @ g.swapaxes(1, 2))
    frames = np.empty((n, m + 1, d))
    frames[:, :1] = (r * g) @ comp
    frames[:, 1:] = dirs
    return frames


class MeckeTestFunction:
    """Bounded nonnegative test function g(y_1, ..., y_k, mu) for the
    distinct-tuple moment identities.

    ``tuple_value`` evaluates one tuple; ``config_sum``, when overridden,
    returns the sum over all ORDERED distinct k-tuples of a point array in
    one vectorized pass.  g must be symmetric in the tuple argument for the
    vectorized path to be valid.
    """

    k = 2
    bound = 1.0

    def tuple_value(self, pts: np.ndarray, config_pts: np.ndarray) -> float:
        raise NotImplementedError

    def config_sum(self, config_pts: np.ndarray) -> float:
        n = len(config_pts)
        if n < self.k:
            return 0.0
        total = 0.0
        for idx in combinations(range(n), self.k):
            for p in permutations(idx):
                total += self.tuple_value(config_pts[list(p)], config_pts)
        return total


class ConstantG(MeckeTestFunction):
    """g identically equal to one; both identity sides are factorial moments."""

    def __init__(self, k: int = 1):
        self.k = k
        self.bound = 1.0

    def tuple_value(self, pts, config_pts) -> float:
        return 1.0

    def config_sum(self, config_pts) -> float:
        return float(perm(len(config_pts), self.k))


class PairProximityG(MeckeTestFunction):
    """g(x1, x2) = 1(|x1 - x2| <= radius), independent of the configuration."""

    k = 2

    def __init__(self, radius: float):
        self.radius = radius
        self.bound = 1.0

    def tuple_value(self, pts, config_pts) -> float:
        return float(np.linalg.norm(pts[0] - pts[1]) <= self.radius)

    def config_sum(self, config_pts) -> float:
        n = len(config_pts)
        if n < 2:
            return 0.0
        diff = config_pts[:, None, :] - config_pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        within = d2 <= self.radius**2
        return float(within.sum() - n)  # drop the diagonal; ordered pairs


class SingletonNeighborG(MeckeTestFunction):
    """g(y, mu) = min(mu(B(y, r)), cap) / cap for single points."""

    k = 1

    def __init__(self, radius: float, cap: int = 10):
        self.radius = radius
        self.cap = cap
        self.bound = 1.0

    def tuple_value(self, pts, config_pts) -> float:
        center = np.atleast_2d(np.asarray(pts))[0]
        if len(config_pts) == 0:
            return 0.0
        d2 = np.sum((config_pts - center) ** 2, axis=1)
        return min(float((d2 <= self.radius**2).sum()), self.cap) / self.cap

    def config_sum(self, config_pts) -> float:
        n = len(config_pts)
        if n == 0:
            return 0.0
        diff = config_pts[:, None, :] - config_pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        counts = (d2 <= self.radius**2).sum(axis=1)
        return float((np.minimum(counts, self.cap) / self.cap).sum())


class NeighborCountG(MeckeTestFunction):
    """g(x1, x2, mu) = min(mu(B(x1, r)) + mu(B(x2, r)), cap) / cap.

    Depends on the surrounding configuration, so it exercises the
    added-atom convention of the identities.  Ball counts include the
    tuple's own points whenever they are charged by mu.
    """

    k = 2

    def __init__(self, radius: float, cap: int = 10):
        self.radius = radius
        self.cap = cap
        self.bound = 1.0

    def _ball_counts(self, centers: np.ndarray, config_pts: np.ndarray) -> np.ndarray:
        if len(config_pts) == 0:
            return np.zeros(len(centers))
        diff = centers[:, None, :] - config_pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        return (d2 <= self.radius**2).sum(axis=1)

    def tuple_value(self, pts, config_pts) -> float:
        c = self._ball_counts(np.asarray(pts), config_pts)
        return min(float(c[0] + c[1]), self.cap) / self.cap

    def config_sum(self, config_pts) -> float:
        n = len(config_pts)
        if n < 2:
            return 0.0
        counts = self._ball_counts(config_pts, config_pts)
        pair_sums = counts[:, None] + counts[None, :]
        vals = np.minimum(pair_sums, self.cap) / self.cap
        return float(vals.sum() - np.minimum(2 * counts, self.cap).sum() / self.cap)


def _mecke_sides(domain, t, k, g, mode, n, tuple_weight, rng) -> tuple[float, float]:
    """One replication of `mecke_check`: the left-side g-sum and the right-side term."""
    if mode == "poisson":
        pts = domain.sample(rng, rng.poisson(t * domain.mass))
        # fresh sample of the same law for the right side
        ambient = domain.sample(rng, rng.poisson(t * domain.mass))
    else:
        pts = domain.sample(rng, n)
        # the right side sees an (n - k)-point sample plus the added atoms
        ambient = domain.sample(rng, n - k) if n >= k else domain.sample(rng, 0)
    y = domain.sample(rng, k)
    augmented = np.vstack([ambient, y]) if len(ambient) else y
    val = g.tuple_value(y, augmented)
    if val < 0 or val > g.bound + 1e-12:
        raise ValueError("test function left its declared bound")
    return g.config_sum(pts), tuple_weight * val


def mecke_check(
    domain: Domain,
    t: float,
    k: int,
    g: MeckeTestFunction,
    reps: int,
    rng_seed: int,
    mode: str = "poisson",
    n: int | None = None,
) -> tuple[float, float, float]:
    """Monte Carlo both sides of the distinct-tuple moment identity.

    Left side: mean over replications of the g-sum over ordered distinct
    k-tuples of a fresh sample.  Right side: mean of
    mass^k * g(y, sample + atoms at y) with y a fresh i.i.d. k-tuple from
    the normalized reference measure -- against the k-fold intensity for a
    Poisson sample, and with (n)_k times an (n-k)-point sample in the
    binomial case.  Returns (lhs mean, rhs mean, pooled standard error).
    """
    if k not in (1, 2):
        raise ValueError("only k in {1, 2} is supported")
    if g.k != k:
        raise ValueError("test function arity does not match k")
    if not np.isfinite(g.bound):
        raise ValueError("test function must declare a finite bound")
    if mode not in ("poisson", "binomial"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "binomial":
        if n is None:
            raise ValueError("binomial mode needs the point count n")
        tuple_weight = float(perm(n, k))
    else:
        tuple_weight = (t * domain.mass) ** k

    args = (domain, t, k, g, mode, n, tuple_weight)
    lhs_vals, rhs_vals = np.array(replicate(_mecke_sides, args, reps, rng_seed)).T.copy()
    lhs_mean = float(lhs_vals.mean())
    rhs_mean = float(rhs_vals.mean())
    pooled = float(
        np.sqrt(lhs_vals.var(ddof=1) / reps + rhs_vals.var(ddof=1) / reps)
    )
    return lhs_mean, rhs_mean, pooled
