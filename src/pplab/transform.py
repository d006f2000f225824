"""Induced point processes from k-tuples, U-statistics, and rescalings.

The measure-level ``induce`` enumerates unordered subsets of distinct
points and is exact (integer multiplicities).  The ``pair_*`` helpers are
vectorized fast paths for the two-point kernels used by the experiment
scenarios.  Each has one production path: the cutoff kernels share a
kd-tree pair query sorted into row-major order, and the no-cutoff kernels
use ``pdist``.  Tests cross-check them against the enumeration path and,
bit for bit, against a dense upper-triangle reference kept in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import fsum

import numpy as np

from .configuration import Configuration

MAX_ENUMERATION_ARITY = 4


@dataclass
class SymmetricKernel:
    """Symmetric map f on k-tuples with a symmetric domain indicator.

    ``fn(pts)`` maps a (k, d) array (or length-k list of locations) to the
    target value; ``dom(pts)`` says whether the tuple lies in the kernel's
    domain.  Both must be invariant under permuting the tuple.
    """

    k: int
    fn: callable
    dom: callable = None
    target_space: str = ""

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("arity must be >= 1")
        if self.k > MAX_ENUMERATION_ARITY:
            raise ValueError(
                f"arity {self.k} exceeds the enumeration guard "
                f"({MAX_ENUMERATION_ARITY}); the applications use k <= 2"
            )
        if self.dom is None:
            self.dom = lambda pts: True

    def in_domain(self, pts) -> bool:
        return bool(self.dom(pts))


def identity_kernel(target_space: str = "") -> SymmetricKernel:
    return SymmetricKernel(k=1, fn=lambda pts: pts[0], target_space=target_space)


def distance_kernel(cutoff: float | None = None) -> SymmetricKernel:
    """Pair kernel mapping (x, y) to |x - y|; domain is the cutoff ball if given."""
    dom = None
    if cutoff is not None:
        dom = lambda pts: np.linalg.norm(np.asarray(pts[0]) - np.asarray(pts[1])) <= cutoff
    return SymmetricKernel(
        k=2,
        fn=lambda pts: float(np.linalg.norm(np.asarray(pts[0]) - np.asarray(pts[1]))),
        dom=dom,
        target_space="R",
    )


def midpoint_kernel(cutoff: float) -> SymmetricKernel:
    return SymmetricKernel(
        k=2,
        fn=lambda pts: (np.asarray(pts[0]) + np.asarray(pts[1])) / 2.0,
        dom=lambda pts: np.linalg.norm(np.asarray(pts[0]) - np.asarray(pts[1])) <= cutoff,
        target_space="midpoints",
    )


def distance_power_kernel(tau: float) -> SymmetricKernel:
    """Pair kernel (x, y) -> |x - y|^(-tau); ties at distance zero are excluded."""
    return SymmetricKernel(
        k=2,
        fn=lambda pts: float(np.linalg.norm(np.asarray(pts[0]) - np.asarray(pts[1])) ** (-tau)),
        dom=lambda pts: np.linalg.norm(np.asarray(pts[0]) - np.asarray(pts[1])) > 0,
        target_space="R",
    )


def induce(config: Configuration, kernel: SymmetricKernel) -> Configuration:
    """Point process of kernel values over unordered k-subsets of distinct points.

    Distinct points include multiplicity: an atom of multiplicity r counts
    as r points.  Each admissible subset contributes one unit of mass at
    its image; coinciding images accumulate multiplicity.
    """
    pts = config.points()
    out = Configuration(space=kernel.target_space or config.space)
    if len(pts) < kernel.k:
        return out
    for idx in combinations(range(len(pts)), kernel.k):
        tup = [pts[i] for i in idx]
        if not kernel.in_domain(tup):
            continue
        out.add(kernel.fn(tup))
    return out


def u_statistic_count(config: Configuration, kernel: SymmetricKernel, target_set=None) -> int:
    """Number of admissible k-subsets whose kernel value falls in the target set.

    ``target_set`` is None (whole space), an (lo, hi) interval for real
    values, or a predicate on values.
    """
    induced = induce(config, kernel)
    if target_set is None:
        return induced.total()
    if callable(target_set):
        return induced.count_in(target_set)
    lo, hi = target_set
    return induced.count_interval(lo, hi)


def u_statistic_sum(config: Configuration, kernel: SymmetricKernel) -> float:
    """Sum of a real-valued symmetric kernel over unordered distinct k-subsets."""
    pts = config.points()
    if len(pts) < kernel.k:
        return 0.0
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


@dataclass(frozen=True)
class RescaleLaw:
    """Dilation y -> t^gamma * y of a Euclidean target space."""

    gamma: float
    t: float

    @property
    def factor(self) -> float:
        return self.t**self.gamma


def rescale(config: Configuration, law: RescaleLaw) -> Configuration:
    """Dilate every atom location by t^gamma, keeping multiplicities."""
    out = Configuration(space=config.space)
    c = law.factor
    for loc, mult in config.atoms.items():
        if isinstance(loc, tuple):
            out.add(tuple(c * v for v in loc), mult)
        elif isinstance(loc, float):
            out.add(c * loc, mult)
        else:
            raise TypeError("rescale needs real or vector atom locations")
    return out


def signed_power_transform(
    config: Configuration, alpha: float, gamma: float, t: float
) -> Configuration:
    """Map each real atom h != 0 to sign(h) * t^gamma * |h|^(-alpha).

    Atoms exactly at zero are dropped.
    """
    if not 0 < alpha < 1:
        raise ValueError("need 0 < alpha < 1")
    out = Configuration(space=config.space)
    c = t**gamma
    for loc, mult in config.atoms.items():
        h = float(loc)
        if h == 0.0:
            continue
        out.add(float(np.sign(h)) * c * abs(h) ** (-alpha), mult)
    return out


# ---------------------------------------------------------------------------
# Vectorized pair statistics (scenario fast paths).
# ---------------------------------------------------------------------------


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def _pairs_within(pts: np.ndarray, cutoff: float):
    """Index pairs i < j with |x_i - x_j| <= cutoff, in row-major order.

    Returns ``(i, j, dist)``.  The kd-tree query runs at a radius a hair
    above the cutoff, and the pairs are then kept by the same
    ``np.linalg.norm(...) <= cutoff`` test that ``induce`` applies, so a
    pair at the cutoff up to rounding (a lattice, say) is decided as in
    the oracle rather than by the tree's squared-distance comparison.
    Row-major order makes the arrays, and any sum over them, equal bit
    for bit to the dense upper-triangle enumeration.  A negative cutoff
    admits no pair; a zero cutoff admits coincident points.
    """
    if len(pts) < 2 or cutoff < 0:
        none = np.empty(0, dtype=np.intp)
        return none, none, np.empty(0)
    from scipy.spatial import cKDTree

    pairs = cKDTree(pts).query_pairs(cutoff * (1.0 + 1e-9), output_type="ndarray")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    i, j = pairs[:, 0], pairs[:, 1]
    dist = np.linalg.norm(pts[i] - pts[j], axis=1)
    keep = dist <= cutoff
    return i[keep], j[keep], dist[keep]


def _pair_distances_within(points: np.ndarray, cutoff: float) -> np.ndarray:
    """Distances of unordered pairs with separation <= cutoff, row-major.

    One kd-tree path at every size (``_pairs_within``); the dense pair
    matrix survives only as the oracle in the tests.
    """
    return _pairs_within(_as_points(points), cutoff)[2]


def pair_count_within(points: np.ndarray, cutoff: float) -> int:
    """Number of unordered pairs with separation at most the cutoff."""
    return int(len(_pair_distances_within(points, cutoff)))


def pair_sum_power(points: np.ndarray, b: float, cutoff: float) -> float:
    """Sum of |x - y|^b over unordered pairs within the cutoff."""
    dist = _pair_distances_within(points, cutoff)
    if len(dist) == 0:
        return 0.0
    if b == 0.0:
        return float(len(dist))
    return float(np.sum(dist**b))


def pair_sum_inverse_power(points: np.ndarray, tau: float) -> float:
    """Sum of |x - y|^(-tau) over all unordered pairs (no cutoff).

    ``pdist`` lists the pairs in the same row-major order as the dense
    upper triangle; coincident pairs are excluded.
    """
    if len(points) < 2:
        return 0.0
    from scipy.spatial.distance import pdist

    dist = pdist(_as_points(points))
    dist = dist[dist > 0]
    return float(np.sum(dist ** (-tau)))


def pair_midpoints(points: np.ndarray, cutoff: float) -> np.ndarray:
    """Midpoints of unordered pairs within the cutoff, shape (count, d)."""
    pts = _as_points(points)
    i, j, _ = _pairs_within(pts, cutoff)
    return (pts[i] + pts[j]) / 2.0


def max_pair_distance(points: np.ndarray) -> float:
    """Largest pairwise distance; 0.0 for fewer than two points."""
    if len(points) < 2:
        return 0.0
    from scipy.spatial.distance import pdist

    return float(pdist(_as_points(points)).max())
