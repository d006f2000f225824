"""Induced point processes from k-tuples and the pair statistics of the
U-statistic scenarios.

The measure-level ``induce`` enumerates unordered subsets of distinct
points and is exact (integer multiplicities).  The ``pair_*`` helpers are
vectorized fast paths for the two-point kernels used by the experiment
scenarios, for one replication or for a ragged batch of replications
(the plural names and ``pair_midpoints``, which take the points of
consecutive replications and their counts).  Each has one production
path: the cutoff kernels and the near-antipode search share one
sort-and-sweep fixed-radius pair search (``_pairs_within``) in row-major
order, and the no-cutoff kernels use ``pdist``.  Tests cross-check them
against the enumeration oracles (pair kernels, U-statistic counts and
sums) and, bit for bit, against a dense upper-triangle reference, all kept
in ``tests/oracles.py``.
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


def _pairs_within(pts: np.ndarray, counts, cutoff: float):
    """Index pairs i < j of one replication with |x_i - x_j| <= cutoff.

    ``pts`` holds the points of consecutive replications, ``counts[r]`` of
    them for replication r.  Returns ``(rep, i, j, dist)`` in row-major
    ``(i, j)`` order, ``rep`` being each pair's replication.

    The search sorts the key ``rep * span + x`` once, where ``span`` keeps
    the key ranges of two replications further apart than the search
    radius, and sweeps the shifts s = 1, 2, ... of the sorted keys while
    some gap at shift s is within the radius: a hair above the cutoff plus
    a few ulps of the largest key, for the rounding of the keys.  The
    candidates pass a prefilter on the second coordinate and are then kept
    by the same ``np.linalg.norm(...) <= cutoff`` test that ``induce``
    applies, so a pair at the cutoff up to rounding (a lattice, say) is
    decided as in the oracle.  Row-major order makes the arrays, and any
    sum over them, equal bit for bit to the dense upper-triangle
    enumeration.  A negative cutoff admits no pair; a zero cutoff admits
    coincident points.
    """
    n = len(pts)
    rep = np.repeat(np.arange(len(counts)), counts)
    if n < 2 or cutoff < 0:
        none = np.empty(0, dtype=np.intp)
        return none, none, none, np.empty(0)
    reach = cutoff * (1.0 + 1e-9)
    x = pts[:, 0]
    lo = x.min()
    width = x.max() - lo
    # no two points are further apart in x than the width, so a cutoff
    # beyond it (even an infinite one) sweeps at the width
    sweep = min(reach, width)
    span = width + 2.0 * sweep + 1.0
    key = rep * span + (x - lo)
    order = np.argsort(key)
    # a start near at shift s - 1 is at most n - s, so one pad past the end
    # covers its look-up at shift s
    key = np.append(key[order], np.inf)
    limit = sweep + 4.0 * np.spacing(key[-2])
    starts = []
    near = np.flatnonzero(np.diff(key) <= limit)
    while len(near):
        starts.append(near)
        # a gap at the next shift is at least the gap at this one from the
        # same start, so only these starts can still be near
        near = near[key[near + len(starts) + 1] - key[near] <= limit]
    first = np.concatenate([np.empty(0, dtype=np.intp)] + starts)
    last = first + np.repeat(np.arange(1, len(starts) + 1), list(map(len, starts)))
    if pts.shape[1] > 1:
        second = pts[:, 1][order]
        prefilter = np.abs(second[last] - second[first]) <= reach
        first, last = first[prefilter], last[prefilter]
    a, b = order[first], order[last]
    i, j = np.minimum(a, b), np.maximum(a, b)
    rowmajor = np.argsort(i * n + j)
    i, j = i[rowmajor], j[rowmajor]
    dist = np.linalg.norm(np.take(pts, i, axis=0) - np.take(pts, j, axis=0), axis=1)
    keep = dist <= cutoff
    i, j = i[keep], j[keep]
    return rep[i], i, j, dist[keep]


def _pair_distances_within(points: np.ndarray, cutoff: float) -> np.ndarray:
    """Distances of unordered pairs with separation <= cutoff, row-major.

    The one-replication case of ``_pairs_within``; the dense pair matrix
    survives only as the oracle in the tests.
    """
    pts = _as_points(points)
    return _pairs_within(pts, [len(pts)], cutoff)[3]


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


def pair_counts_within(points: np.ndarray, counts, cutoff: float) -> np.ndarray:
    """``pair_count_within`` of each replication of a ragged batch.

    ``points`` holds the points of consecutive replications, ``counts[r]``
    of them for replication r.
    """
    rep = _pairs_within(_as_points(points), counts, cutoff)[0]
    return np.bincount(rep, minlength=len(counts))


def pair_sums_power(points: np.ndarray, counts, b: float, cutoff: float) -> np.ndarray:
    """``pair_sum_power`` of each replication of a ragged batch.

    Each sum runs in pair order, where ``pair_sum_power`` sums pairwise, so
    the two can differ in the last digits.
    """
    rep, _, _, dist = _pairs_within(_as_points(points), counts, cutoff)
    return np.bincount(rep, weights=dist**b, minlength=len(counts))


def pair_sums_inverse_power(points: np.ndarray, counts, tau: float) -> np.ndarray:
    """``pair_sum_inverse_power`` of each replication of a ragged batch."""
    ends = np.cumsum(counts)
    return np.array([pair_sum_inverse_power(points[e - c : e], tau) for c, e in zip(counts, ends)])


def antipodal_pairs(points: np.ndarray, counts, radius: float):
    """Pairs of one replication each within ``radius`` of the other's antipode.

    For every pair i != j of a replication with |x_i + x_j| <= radius,
    returns, once, its replication and |x_i - x_j| as ``(rep, dist)``.  The
    pairs come from ``_pairs_within`` run on each replication's points and
    their negations, keeping the pairs of a point x and another point's
    antipode -y.  Such a pair with x_1 >= y_1 has x_1 >= -radius/2 and
    -y_1 >= -radius/2, so only the stacked points with first coordinate
    >= -radius/2 are searched (less a relative 1e-9, far above the rounding
    of x_1 + y_1), and a pair is kept in that orientation.
    """
    pts = _as_points(points)
    n = len(pts)
    rep = np.repeat(np.arange(len(counts)), counts)
    # stacked index k < n is point k, k >= n the antipode of point k - n
    stacked = np.concatenate([pts, -pts])
    stacked_rep = np.concatenate([rep, rep])
    half = np.flatnonzero(stacked[:, 0] >= -0.5 * radius * (1.0 + 1e-9))
    half = half[np.argsort(stacked_rep[half], kind="stable")]
    half_counts = np.bincount(stacked_rep[half], minlength=len(counts))
    _, a, b, _ = _pairs_within(stacked[half], half_counts, radius)
    a, b = half[a], half[b]
    point, antipode = np.minimum(a, b), np.maximum(a, b) - n
    keep = (point < n) & (antipode >= 0) & (point != antipode)
    i, j = point[keep], antipode[keep]
    # the orientation x_i,1 >= x_j,1 is always found; a tie is found both ways
    first, other = pts[i, 0], pts[j, 0]
    keep = (first > other) | ((first == other) & (i < j))
    i, j = i[keep], j[keep]
    return rep[i], np.linalg.norm(pts[i] - pts[j], axis=1)


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


def pair_midpoints(points: np.ndarray, counts, cutoff: float):
    """Midpoints of each replication's unordered pairs within the cutoff.

    ``points`` holds the points of consecutive replications, ``counts[r]``
    of them for replication r.  Returns ``(midpoints, midpoint_counts)``:
    the midpoints, shape (total, d), of consecutive replications in the
    same layout, each replication's in row-major pair order.
    """
    pts = _as_points(points)
    rep, i, j, _ = _pairs_within(pts, counts, cutoff)
    return (pts[i] + pts[j]) / 2.0, np.bincount(rep, minlength=len(counts))


def max_pair_distance(points: np.ndarray) -> float:
    """Largest pairwise distance; 0.0 for fewer than two points."""
    if len(points) < 2:
        return 0.0
    from scipy.spatial.distance import pdist

    return float(pdist(_as_points(points)).max())
