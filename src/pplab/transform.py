"""Induced point processes from k-tuples and the pair statistics of the
U-statistic scenarios.

The measure-level ``induce`` enumerates unordered subsets of distinct
points and is exact (integer multiplicities).  The ``pair_*`` helpers are
vectorized fast paths for the two-point kernels used by the experiment
scenarios.  Each has one production path: the cutoff kernels share a
kd-tree pair query sorted into row-major order, and the no-cutoff kernels
use ``pdist``.  Tests cross-check them against the enumeration oracles
(pair kernels, U-statistic counts and sums) and, bit for bit, against a
dense upper-triangle reference, all kept in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
