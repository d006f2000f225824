"""Poisson and binomial process samplers, Poisson flat processes, and
Monte Carlo checks of the moment identities for sums over distinct tuples.
"""

from __future__ import annotations

from math import perm

import numpy as np

from .configuration import Configuration
from .geometry import Domain, unit_ball_volume
from .metrics import mean_gap
from .rng import replicate_blocks
from .transform import _pairs_within, pair_counts_within


# Points (or flats) drawn at a time in a block; the draws do not depend on it.
_RUN_POINTS = 16_384


def _runs(counts):
    """``(lo, hi, start, stop)`` of the consecutive runs of a block whose
    replications have ``counts`` items each: replications lo .. hi - 1 hold
    items start .. stop - 1, at most about ``_RUN_POINTS`` of them (a run
    holds at least one replication).  Drawing a block's items run by run
    from its generator gives the same bits as one whole-block draw, in
    bounded memory."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        start = int(ends[lo] - counts[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, start + _RUN_POINTS, side="right")))
        yield lo, hi, start, int(ends[hi - 1])
        lo = hi


def poisson_points(domain: Domain, t: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson sample with intensity t times the domain's reference measure,
    as an ``(n, dim)`` array.

    The point count is Poisson(t * mass); locations are i.i.d. from the
    normalized reference measure.
    """
    if t < 0:
        raise ValueError("intensity multiplier must be nonnegative")
    return domain.sample(rng, rng.poisson(t * domain.mass))


def sample_poisson(domain: Domain, t: float, rng: np.random.Generator) -> Configuration:
    """`poisson_points` as a configuration."""
    return Configuration.from_array(poisson_points(domain, t, rng), space=domain.space_tag)


def sample_binomial(domain: Domain, n: int, rng: np.random.Generator) -> Configuration:
    """Exactly n i.i.d. points from the domain's normalized reference measure."""
    if n < 0:
        raise ValueError("point count must be nonnegative")
    return Configuration.from_array(domain.sample(rng, n), space=domain.space_tag)


def flats_hitting_mass(d: int, m: int, t: float, window_radius: float) -> float:
    """Mass of the flat-process intensity restricted to flats meeting B^d(R)."""
    return t * unit_ball_volume(d - m) * window_radius ** (d - m)


def sample_flats(d: int, m: int, radii: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``len(radii)`` independent m-flats in R^d, flat k at distance
    ``radii[k]`` from the origin.

    Returns an ``(n, m + 1, d)`` array: row 0 of each flat is its base point,
    rows 1..m its orthonormal directions.  The flats' Gaussians are one
    ``standard_normal((n, m + 1, d))`` draw.  Rows 1..m of a flat, as a
    d x m matrix, give its directions by QR, which are Haar on the
    Grassmannian.  Row 0 with the directions projected out is an isotropic
    Gaussian in the orthogonal complement (the rows are independent), so
    its direction, the base point's, is uniform on the complement's unit
    sphere.
    """
    if not 1 <= m or not 2 * m < d:
        raise ValueError("need 1 <= m < d/2")
    gauss = rng.standard_normal((len(radii), m + 1, d))
    q, _ = np.linalg.qr(gauss[:, 1:].swapaxes(1, 2))  # (n, d, m)
    dirs = q.swapaxes(1, 2)
    z = gauss[:, :1]
    z = z - (z @ q) @ dirs
    frames = np.empty_like(gauss)
    frames[:, :1] = z * (radii[:, None, None] / np.sqrt(z @ z.swapaxes(1, 2)))
    frames[:, 1:] = dirs
    return frames


def sample_poisson_flats(
    d: int,
    m: int,
    t: float,
    window_radius: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Poisson process of m-flats in R^d hitting the centered ball of given radius.

    Returns the ``(n, m + 1, d)`` frames of ``sample_flats``.  Directions
    are Haar on the Grassmannian; given them, the base point is uniform on
    the (d-m)-ball of the window radius inside the orthogonal complement,
    which is exactly the hitting set of the window.  Each variate is one
    array draw, in the order flat count, base radii (R U^(1/(d-m))), then
    the Gaussians of ``sample_flats``: a block of one replication of the
    ``flats`` scenario.
    """
    if t < 0:
        raise ValueError("intensity must be nonnegative")
    n = rng.poisson(flats_hitting_mass(d, m, t, window_radius))
    return sample_flats(d, m, window_radius * rng.uniform(size=n) ** (1.0 / (d - m)), rng)


def _ball_counts(points: np.ndarray, counts, radius: float) -> np.ndarray:
    """For each point, the points of its replication within ``radius``, itself included."""
    _, i, j, _ = _pairs_within(points, counts, radius)
    n = len(points)
    return 1 + np.bincount(i, minlength=n) + np.bincount(j, minlength=n)


def _tuple_ball_counts(y: np.ndarray, points: np.ndarray, counts, radius: float) -> np.ndarray:
    """``(size, k)`` counts of mu_r + atoms at y[r] within ``radius`` of each
    y[r, j], where mu_r is replication r's ``counts[r]`` points.

    The ambient points are counted by repeating y over its replication's
    points; the tuple's own atoms (y[r, j] itself among them) are added.
    """
    size, k = y.shape[:2]
    rep = np.repeat(np.arange(size), counts)
    r2 = radius * radius
    own = y[:, :, None] - y[:, None]
    out = (np.einsum("rijd,rijd->rij", own, own) <= r2).sum(axis=2)
    for j in range(k):
        diff = points - y[rep, j]
        out[:, j] += np.bincount(rep[np.einsum("id,id->i", diff, diff) <= r2], minlength=size)
    return out


class MeckeTestFunction:
    """Test function g(y_1, ..., y_k, mu) with values in [0, 1] for the
    distinct-tuple moment identities, evaluated on ragged batches.

    A batch holds the points of consecutive replications, ``counts[r]`` of
    them for replication r, whose configuration mu_r they are.
    ``block_sums(points, counts)`` returns, per replication, the sum of
    g(x, mu_r) over the ORDERED distinct k-tuples x of mu_r's points.
    ``block_values(y, points, counts)`` returns g(y[r], mu_r + atoms at
    y[r]) for the ``(size, k, d)`` tuples y.  The one-tuple definitions are
    the oracles in the tests.
    """

    k = 2

    def block_sums(self, points: np.ndarray, counts) -> np.ndarray:
        raise NotImplementedError

    def block_values(self, y: np.ndarray, points: np.ndarray, counts) -> np.ndarray:
        raise NotImplementedError


class ConstantG(MeckeTestFunction):
    """g identically equal to one; both identity sides are factorial moments."""

    def __init__(self, k: int = 1):
        self.k = k

    def block_sums(self, points, counts) -> np.ndarray:
        # (n)_k, zero below k points since one factor is then zero
        counts = np.asarray(counts)
        return np.prod([counts - i for i in range(self.k)], axis=0).astype(float)

    def block_values(self, y, points, counts) -> np.ndarray:
        return np.ones(len(y))


class PairProximityG(MeckeTestFunction):
    """g(x1, x2) = 1(|x1 - x2| <= radius), independent of the configuration."""

    k = 2

    def __init__(self, radius: float):
        self.radius = radius

    def block_sums(self, points, counts) -> np.ndarray:
        return 2.0 * pair_counts_within(points, counts, self.radius)

    def block_values(self, y, points, counts) -> np.ndarray:
        diff = y[:, 0] - y[:, 1]
        return (np.einsum("rd,rd->r", diff, diff) <= self.radius**2).astype(float)


class SingletonNeighborG(MeckeTestFunction):
    """g(y, mu) = min(mu(B(y, r)), cap) / cap for single points."""

    k = 1

    def __init__(self, radius: float, cap: int = 10):
        self.radius = radius
        self.cap = cap

    def block_sums(self, points, counts) -> np.ndarray:
        capped = np.minimum(_ball_counts(points, counts, self.radius), self.cap) / self.cap
        return np.bincount(np.repeat(np.arange(len(counts)), counts), weights=capped, minlength=len(counts))

    def block_values(self, y, points, counts) -> np.ndarray:
        return np.minimum(_tuple_ball_counts(y, points, counts, self.radius)[:, 0], self.cap) / self.cap


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

    def block_sums(self, points, counts) -> np.ndarray:
        """Per replication, sum over i != j of min(c_i + c_j, cap) / cap.

        That only depends on the capped ball counts a = min(c, cap), so with
        h the histogram of a replication's a it is
        sum_{a,b} h_a h_b min(a + b, cap) - sum_a h_a min(2a, cap), over cap.
        """
        size, cap = len(counts), self.cap
        capped = np.minimum(_ball_counts(points, counts, self.radius), cap)
        rep = np.repeat(np.arange(size), counts)
        hist = np.bincount(rep * (cap + 1) + capped, minlength=size * (cap + 1)).reshape(size, cap + 1)
        levels = np.arange(cap + 1)
        pair_table = np.minimum(levels[:, None] + levels[None, :], cap)
        sums = np.einsum("ra,ab,rb->r", hist, pair_table, hist) - hist @ np.minimum(2 * levels, cap)
        return sums / cap

    def block_values(self, y, points, counts) -> np.ndarray:
        return np.minimum(_tuple_ball_counts(y, points, counts, self.radius).sum(axis=1), self.cap) / self.cap


def _mecke_block(domain, t, g, n, tuple_weight, rng, size) -> np.ndarray:
    """Both sides of ``mecke_check`` for a block of ``size`` replications:
    ``(size, 2)`` rows of the left-side g-sum and the right-side term.

    Draws, each as one array draw: the left side's point counts and points,
    then the right side's ambient counts, tuples y and ambient points.  The
    points are drawn and evaluated run by run (``_runs``).
    """
    counts = rng.poisson(t * domain.mass, size) if n is None else np.full(size, n)
    sums = np.concatenate([g.block_sums(domain.sample(rng, stop - start), counts[lo:hi])
                           for lo, hi, start, stop in _runs(counts)])
    # the right side sees a fresh Poisson sample, or an (n - k)-point
    # sample, plus the added atoms
    ambient_counts = rng.poisson(t * domain.mass, size) if n is None else np.full(size, max(n - g.k, 0))
    y = domain.sample(rng, size * g.k).reshape(size, g.k, -1)
    val = np.concatenate([g.block_values(y[lo:hi], domain.sample(rng, stop - start), ambient_counts[lo:hi])
                          for lo, hi, start, stop in _runs(ambient_counts)])
    if np.any(val < 0) or np.any(val > 1 + 1e-12):
        raise ValueError("test function left its declared bound [0, 1]")
    return np.column_stack([sums, tuple_weight * val])


def mecke_check(
    domain: Domain, t: float, g: MeckeTestFunction, reps: int, seed: int, *stream: int, n: int | None = None
) -> tuple[float, float, float]:
    """Monte Carlo both sides of the distinct-tuple moment identity, for a
    Poisson(t * mass) sample (n None) or a binomial sample of n points.

    Left side: mean over replications of the g-sum over ordered distinct
    k-tuples of a fresh sample, k = ``g.k``.  Right side: mean of
    mass^k * g(y, sample + atoms at y) with y a fresh i.i.d. k-tuple from
    the normalized reference measure -- against the k-fold intensity for a
    Poisson sample, and with (n)_k times an (n-k)-point sample in the
    binomial case.  The replications run in blocks of ``rng.BLOCK`` on the
    streams (seed, *stream, b).  Returns (lhs mean, rhs mean, pooled
    standard error).
    """
    if g.k not in (1, 2):
        raise ValueError("only k in {1, 2} is supported")
    tuple_weight = (t * domain.mass) ** g.k if n is None else float(perm(n, g.k))
    args = (domain, t, g, n, tuple_weight)
    return mean_gap(*replicate_blocks(_mecke_block, args, reps, seed, *stream).T)
