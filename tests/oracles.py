"""Reference implementations the tests check the production kernels against.

None of these is on a scenario path: each is the slow, direct form of
something pplab computes another way (enumerated U-statistics for the pair
kernels, a Monte Carlo for the quadrature moments, adaptive quadrature for
the stored d = 2 pair-integral constants, the truncated stable series
behind the Levy target, a least-squares solver for the
closed-form line-pair distances, per-replication ``Configuration``
simulators and the exact time-s count law for the block samplers of
``pplab.glauber``, one-tuple Mecke test functions for the ragged block
sides of ``pplab.sampling``, spanning-tree vertex enumeration for the
transportation LP ``pplab.metrics.ot_exact``, readers for the emitted
files).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import combinations, permutations
from functools import lru_cache
from math import fsum, perm, pi, sqrt

import numpy as np
from scipy import integrate
from scipy.stats import binom, poisson

from pplab.bounds import QUAD_ABS_TOL
from pplab.configuration import Configuration
from pplab.rng import derive_rng
from pplab.geometry import orthocomplement_basis
from pplab.sampling import ConstantG, NeighborCountG, PairProximityG, SingletonNeighborG, flats_hitting_mass
from pplab.transform import SymmetricKernel, induce, pair_count_within

ORTHONORMAL_TOL = 1e-12
GENERAL_POSITION_TOL = 1e-10


def _dist(pts) -> float:
    return np.linalg.norm(np.asarray(pts[0]) - np.asarray(pts[1]))


def identity_kernel(target_space: str = "") -> SymmetricKernel:
    return SymmetricKernel(k=1, fn=lambda pts: pts[0], target_space=target_space)


def distance_kernel(cutoff: float | None = None) -> SymmetricKernel:
    """Pair kernel mapping (x, y) to |x - y|; domain is the cutoff ball if given."""
    dom = None if cutoff is None else (lambda pts: _dist(pts) <= cutoff)
    return SymmetricKernel(k=2, fn=lambda pts: float(_dist(pts)), dom=dom, target_space="R")


def midpoint_kernel(cutoff: float) -> SymmetricKernel:
    return SymmetricKernel(
        k=2,
        fn=lambda pts: (np.asarray(pts[0]) + np.asarray(pts[1])) / 2.0,
        dom=lambda pts: _dist(pts) <= cutoff,
        target_space="midpoints",
    )


def distance_power_kernel(tau: float) -> SymmetricKernel:
    """Pair kernel (x, y) -> |x - y|^(-tau); ties at distance zero are excluded."""
    return SymmetricKernel(
        k=2,
        fn=lambda pts: float(_dist(pts) ** (-tau)),
        dom=lambda pts: _dist(pts) > 0,
        target_space="R",
    )


def u_statistic_count(config: Configuration, kernel: SymmetricKernel, target_set=None) -> int:
    """Number of admissible k-subsets whose kernel value falls in the target set.

    ``target_set`` is None (whole space) or an (lo, hi) interval for real
    values.
    """
    induced = induce(config, kernel)
    if target_set is None:
        return induced.total()
    lo, hi = target_set
    return induced.count_interval(lo, hi)


def u_statistic_sum(config: Configuration, kernel: SymmetricKernel) -> float:
    """Sum of a real-valued symmetric kernel over unordered distinct k-subsets."""
    pts = config.points()
    vals = []
    for idx in combinations(range(len(pts)), kernel.k):
        tup = [pts[i] for i in idx]
        if kernel.in_domain(tup):
            vals.append(float(kernel.fn(tup)))
    return fsum(vals)


def edge_midpoint_process(config: Configuration, cutoff: float) -> Configuration:
    """Midpoints of all unordered point pairs at distance at most the cutoff."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return induce(config, midpoint_kernel(cutoff))


# d = 2 ball/cube intersection areas, in units of the ball radius, and the
# quadratures behind the edge-strip and corner constants of
# ``pplab.bounds.cube_pair_integrals``.


def _segment_area_unit(h: float) -> float:
    # area of {y in unit disc : y_1 <= -h}, 0 <= h <= 1
    if h >= 1.0:
        return 0.0
    return float(np.arccos(h) - h * np.sqrt(1.0 - h * h))


def _quadrant_excess_unit(a: float, b: float) -> float:
    # area of {y in unit disc : y_1 <= -a, y_2 <= -b}, needs a^2 + b^2 < 1
    if a * a + b * b >= 1.0:
        return 0.0

    def g(x):
        return 0.5 * (x * np.sqrt(1.0 - x * x) + np.arcsin(x)) - b * x

    hi = np.sqrt(1.0 - b * b)
    return float(g(hi) - g(a))


def disc_square_area_unit(h1: float, h2: float) -> float:
    """Area of the unit disc clipped by the quadrant {y_1 >= -h1, y_2 >= -h2}.

    h1, h2 are the center's distances to the two nearest (adjacent) sides,
    in units of the radius; h >= 1 means no clipping on that side.
    """
    area = pi
    if h1 < 1.0:
        area -= _segment_area_unit(h1)
    if h2 < 1.0:
        area -= _segment_area_unit(h2)
    area += _quadrant_excess_unit(h1, h2)
    return area


@lru_cache(maxsize=None)
def edge_strip_constants_2d() -> tuple[float, float]:
    """(C1, C3): integrals over h in [0, 1] of phi(h) and phi(h)^2, phi = pi - segment."""
    c1, _ = integrate.quad(
        lambda h: pi - _segment_area_unit(h), 0.0, 1.0, epsabs=QUAD_ABS_TOL, epsrel=1e-12
    )
    c3, _ = integrate.quad(
        lambda h: (pi - _segment_area_unit(h)) ** 2, 0.0, 1.0, epsabs=QUAD_ABS_TOL, epsrel=1e-12
    )
    return c1, c3


@lru_cache(maxsize=None)
def corner_constants_2d() -> tuple[float, float]:
    """(C2, C4): integrals over the unit corner square of the clipped area and its square."""
    c2, _ = integrate.dblquad(
        lambda h1, h2: disc_square_area_unit(h1, h2), 0.0, 1.0, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11
    )
    c4, _ = integrate.dblquad(
        lambda h1, h2: disc_square_area_unit(h1, h2) ** 2, 0.0, 1.0, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11
    )
    return c2, c4


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo first and second moment with their standard errors."""

    mean: float
    second_moment: float
    mean_se: float
    second_se: float


def gilbert_moments_mc(
    d: int,
    t: float,
    cutoff: float,
    reps: int,
    rng_seed: int,
    n: int | None = None,
) -> MomentEstimate:
    """Monte Carlo moments of the edge count on the unit cube, for a
    Poisson(t) source (n None) or n points; the oracle of
    ``bounds.gilbert_moments``."""
    counts = np.empty(reps)
    for i in range(reps):
        rng = derive_rng(rng_seed, i)
        npts = rng.poisson(t) if n is None else n
        pts = rng.uniform(size=(npts, d))
        counts[i] = pair_count_within(pts, cutoff)
    mean = float(counts.mean())
    second = float((counts**2).mean())
    return MomentEstimate(
        mean=mean,
        second_moment=second,
        mean_se=float(counts.std(ddof=1) / sqrt(reps)),
        second_se=float((counts**2).std(ddof=1) / sqrt(reps)),
    )


@dataclass(frozen=True)
class StableSeriesLaw:
    """scale * sum of x^(-1/alpha) over a unit-intensity Poisson process on (0, T],
    the series representation of the alpha-stable limits; alpha = 1/2 is
    the Levy law of ``pplab.laws.LevyLaw``.

    The window T truncates the series; the neglected tail has mean
    scale * T^(1 - 1/alpha) / (1/alpha - 1), ``truncation_tail_mean``.
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


@dataclass(frozen=True)
class AffineFlat:
    """m-dimensional affine subspace of R^d: base point plus orthonormal directions."""

    base: np.ndarray
    directions: np.ndarray  # (m, d), orthonormal rows

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", dirs)
        m, d = dirs.shape
        if base.shape != (d,):
            raise ValueError("base point dimension must match direction dimension")
        if not (1 <= m <= d - 1):
            raise ValueError("need 1 <= m <= d-1 directions")
        gram = dirs @ dirs.T
        if np.max(np.abs(gram - np.eye(m))) > ORTHONORMAL_TOL:
            raise ValueError("directions must be orthonormal")

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]


def flat_distance_midpoint(e: AffineFlat, f: AffineFlat) -> tuple[float, np.ndarray]:
    """Distance between two flats in general position and the midpoint of the
    realizing segment.

    Solves the least-squares problem min |(a + A u) - (b + B v)| over the
    coefficient vectors.  Raises if the direction spans are degenerate
    (parallel or partially parallel flats) or if the flats intersect.
    """
    if e.dim != f.dim:
        raise ValueError("flats live in different ambient dimensions")
    if e.m != f.m:
        raise ValueError("flats have different dimensions")
    a, b = e.base, f.base
    g = np.hstack([e.directions.T, -f.directions.T])  # d x 2m
    sv = np.linalg.svd(g, compute_uv=False)
    scale = max(1.0, float(np.linalg.norm(a - b)))
    if sv[-1] < GENERAL_POSITION_TOL:
        raise ValueError("flats are parallel or partially parallel (degenerate position)")
    w, *_ = np.linalg.lstsq(g, b - a, rcond=None)
    m = e.m
    p_e = a + e.directions.T @ w[:m]
    p_f = b + f.directions.T @ w[m:]
    dist = float(np.linalg.norm(p_e - p_f))
    if dist < GENERAL_POSITION_TOL * scale:
        raise ValueError("flats intersect (degenerate position)")
    return dist, (p_e + p_f) / 2.0


def flat_variates(d, m, t, window_radius, rng, size=None):
    """The flat counts, base radii and Gaussians of ``size`` Poisson flat
    processes (one when None), redrawn whole in the samplers' order."""
    counts = rng.poisson(flats_hitting_mass(d, m, t, window_radius), size)
    n = int(np.sum(counts))
    radii = window_radius * rng.uniform(size=n) ** (1.0 / (d - m))
    return counts, radii, rng.standard_normal((n, m + 1, d))


def per_flat_frames(d, m, radii, gauss) -> np.ndarray:
    """``sampling.sample_flats`` one flat at a time from its variates (base
    radius, Gaussian rows), through an SVD complement basis, as
    base/direction rows."""
    rows = np.empty((len(radii), m + 1, d))
    for k, (r, g) in enumerate(zip(radii, gauss)):
        q, _ = np.linalg.qr(g[1:].T)
        comp = orthocomplement_basis(q.T)
        coef = comp @ g[0]
        flat = AffineFlat(base=r * (coef / np.linalg.norm(coef)) @ comp, directions=q.T)
        rows[k, 0] = flat.base
        rows[k, 1:] = flat.directions
    return rows


# The Mecke test functions of ``pplab.sampling`` one tuple at a time: each
# g's definition, the generic sum over ordered distinct tuples built on it,
# and each g's dense pair-matrix sum, for the ragged block methods.


def mecke_tuple_value(g, pts, config_pts) -> float:
    """g(pts, mu) for one tuple ``pts`` and the configuration ``config_pts``."""
    pts, config_pts = np.asarray(pts), np.asarray(config_pts)
    if isinstance(g, ConstantG):
        return 1.0
    if isinstance(g, PairProximityG):
        return float(np.linalg.norm(pts[0] - pts[1]) <= g.radius)
    if len(config_pts):
        diff = pts[:, None, :] - config_pts[None, :, :]
        ball = (np.einsum("ijk,ijk->ij", diff, diff) <= g.radius**2).sum(axis=1)
    else:
        ball = np.zeros(len(pts))
    if isinstance(g, SingletonNeighborG):
        return min(float(ball[0]), g.cap) / g.cap
    if isinstance(g, NeighborCountG):
        return min(float(ball[0] + ball[1]), g.cap) / g.cap
    raise TypeError(f"no oracle for {type(g).__name__}")


def mecke_config_sum_loop(g, config_pts) -> float:
    """Sum of g over the ordered distinct k-tuples of ``config_pts``, one tuple at a time."""
    config_pts = np.asarray(config_pts)
    return sum(
        mecke_tuple_value(g, config_pts[list(idx)], config_pts)
        for idx in permutations(range(len(config_pts)), g.k)
    )


def mecke_config_sum(g, config_pts) -> float:
    """``mecke_config_sum_loop`` from each g's dense pair matrix."""
    config_pts = np.asarray(config_pts)
    n = len(config_pts)
    if isinstance(g, ConstantG):
        return float(perm(n, g.k))
    if n < g.k:
        return 0.0
    diff = config_pts[:, None, :] - config_pts[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= g.radius**2
    if isinstance(g, PairProximityG):
        return float(within.sum() - n)  # drop the diagonal; ordered pairs
    counts = within.sum(axis=1)
    if isinstance(g, SingletonNeighborG):
        return float((np.minimum(counts, g.cap) / g.cap).sum())
    if isinstance(g, NeighborCountG):
        vals = np.minimum(counts[:, None] + counts[None, :], g.cap) / g.cap
        return float(vals.sum() - np.minimum(2 * counts, g.cap).sum() / g.cap)
    raise TypeError(f"no oracle for {type(g).__name__}")


# Birth-death dynamics on the line, one replication per generator, on
# ``Configuration`` states: the direct forms of the block samplers in
# ``pplab.glauber``, and the exact time-s count law both must follow.


def simulate_event_driven_config(omega: Configuration, mass: float, s: float, rng) -> Configuration:
    """State at time s started from omega: births at rate mass on [0, s],
    placed uniformly on [0, 1], and a unit-rate exponential lifetime for
    every particle."""
    if s < 0:
        raise ValueError("horizon must be nonnegative")
    final = Configuration(space=omega.space)
    initial_pts = omega.points()
    init_lifetimes = rng.exponential(size=len(initial_pts))
    n_births = rng.poisson(mass * s)
    birth_times = np.sort(rng.uniform(0.0, s, size=n_births))
    birth_locs = rng.uniform(size=n_births).tolist()
    birth_lifetimes = rng.exponential(size=n_births)
    for p, life in zip(initial_pts, init_lifetimes):
        if life >= s:
            final.add(p)
    for t_b, loc, life in zip(birth_times, birth_locs, birth_lifetimes):
        if t_b + life >= s:
            final.add(loc)
    return final


def simulate_exact_law_config(omega: Configuration, mass: float, s: float, rng) -> Configuration:
    """The time-s law sampled directly: keep each atom with probability
    e^(-s), superpose a Poisson((1 - e^(-s)) * mass) sample of uniform
    locations."""
    if s < 0:
        raise ValueError("horizon must be nonnegative")
    keep_p = np.exp(-s)
    out = Configuration(space=omega.space)
    for loc, mult in omega.atoms.items():
        kept = rng.binomial(mult, keep_p)
        if kept:
            out.add(loc, kept)
    for loc in rng.uniform(size=rng.poisson((1.0 - keep_p) * mass)).tolist():
        out.add(loc)
    return out


def count_law_pmf(n0: int, mass: float, s: float, kmax: int) -> np.ndarray:
    """pmf on 0..kmax of Binomial(n0, e^(-s)) convolved with
    Poisson(mass (1 - e^(-s))): the time-s count of the dynamics started
    from n0 atoms.  For the count in a window A, pass the start atoms in A
    and the intensity mass of A."""
    keep = np.exp(-s)
    kept = binom.pmf(np.arange(n0 + 1), n0, keep)
    born = poisson.pmf(np.arange(kmax + 1), mass * (1.0 - keep))
    return np.convolve(kept, born)[: kmax + 1]


_FLOAT_COLS = ("t", "distance", "stderr", "bound", "rate_pred")
_INT_COLS = ("d", "seed")


def _typed(record: dict) -> dict:
    out = dict(record)
    for c in _FLOAT_COLS:
        v = out.get(c)
        out[c] = float(v) if v not in ("", None) else None
    for c in _INT_COLS:
        out[c] = int(out[c])
    return out


def parse_csv(path) -> list[dict]:
    """Read an emitted CSV back into typed dictionaries."""
    with open(path, newline="") as fh:
        return [_typed(record) for record in csv.DictReader(fh)]


def parse_json(path) -> list[dict]:
    with open(path) as fh:
        return [_typed(rec) for rec in json.load(fh)]


# ---------------------------------------------------------------------------
# The general-marginal oracle of the transportation LP ``metrics.ot_exact``.
# ---------------------------------------------------------------------------


def tree_vertex_ot_cost(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Minimum over all basic feasible solutions (spanning-tree supports)."""
    n, m = cost.shape
    all_edges = [(i, j) for i in range(n) for j in range(m)]
    best = np.inf
    need = n + m - 1
    for edge_set in combinations(range(len(all_edges)), need):
        edges = [all_edges[k] for k in edge_set]
        if not _is_spanning_tree(n, m, edges):
            continue
        flows = _solve_tree(n, m, edges, mu, nu)
        if flows is None or min(flows) < -1e-12:
            continue
        val = sum(f * cost[i, j] for f, (i, j) in zip(flows, edges))
        best = min(best, val)
    return float(best)


def _is_spanning_tree(n, m, edges) -> bool:
    parent = list(range(n + m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        a, b = find(i), find(n + j)
        if a == b:
            return False
        parent[a] = b
    root = find(0)
    return all(find(v) == root for v in range(n + m))


def _solve_tree(n, m, edges, mu, nu):
    # balance[v]: remaining supply (rows positive, columns negative)
    balance = list(mu) + [-v for v in nu]
    adj = {v: set() for v in range(n + m)}
    for e_idx, (i, j) in enumerate(edges):
        adj[i].add(e_idx)
        adj[n + j].add(e_idx)
    endpoints = [(i, n + j) for i, j in edges]
    flows = [0.0] * len(edges)
    order = [v for v in range(n + m) if len(adj[v]) == 1]
    alive = [True] * (n + m)
    while order:
        v = order.pop()
        if not alive[v] or not adj[v]:
            alive[v] = False
            continue
        e_idx = next(iter(adj[v]))
        a, b = endpoints[e_idx]
        w = b if v == a else a
        # the edge must carry v's whole remaining balance
        f = balance[v] if v < n else -balance[v]
        flows[e_idx] = f
        balance[v] = 0.0
        balance[w] -= f if w < n else -f
        adj[v].discard(e_idx)
        adj[w].discard(e_idx)
        alive[v] = False
        if len(adj[w]) == 1:
            order.append(w)
    return flows
