"""Probability distances, configuration transport cost, and exact discrete
optimal transport.

The 1-D distances take the arrays a scenario already holds: real samples
for `kolmogorov`, integer samples for `tv_integer` and `tv_against_poisson`,
two real samples and a cell count for `tv_discretized`, and for
`wasserstein1` a pmf and a target CDF on the integer grid 0..K, so the
estimate and each bootstrap resample go through the same function. The TV
distances likewise share `tv_pmfs`, whose pmf arguments `integer_pmfs` and
`poisson_pmfs` build from samples, so a bootstrap can resample histograms.

The empirical KR surrogate (`empirical_kr`) transports uniform weights
between two equally sized samples of configurations, each given as a side
``(points, counts)`` in the ragged layout of the other scenarios.  That
problem has a permutation optimum, so it is solved exactly as an
assignment problem (`_assignment_cost`) on the integer configuration-TV
cost matrix (`_tv_cost_matrix`); acceptance criterion A1 and `pplab verify
--suite ot` check both against brute-force enumeration.  For diffuse
configurations the TV cost depends only on the point counts, so the
surrogate compares count laws, not locations.

`ot_exact`, a HiGHS transportation LP that returns dual potentials
certifying optimality, is on no scenario path: it stays because
`perfbench/tracer.py` wraps it by name, and the tests check it against
enumeration oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .configuration import Configuration
from .laws import PoissonLaw

MARGINAL_TOL = 1e-9
DUALITY_TOL = 1e-8
MIN_KR_CONFIGS = 100  # configurations per side of empirical_kr


def mean_gap(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, float, float]:
    """(lhs mean, rhs mean, pooled standard error of their difference) for
    two independent samples, the two sides of an identity check."""
    pooled = np.sqrt(lhs.var(ddof=1) / lhs.size + rhs.var(ddof=1) / rhs.size)
    return float(lhs.mean()), float(rhs.mean()), float(pooled)


def kolmogorov(samples, law) -> float:
    """Sup-norm distance between the empirical CDF of real samples and the
    law's CDF, evaluated on both sides of every jump."""
    if not hasattr(law, "cdf"):
        raise TypeError("law must expose a CDF")
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    n = xs.size
    f_right = np.asarray(law.cdf(xs), dtype=float)
    left_fn = getattr(law, "cdf_left", law.cdf)
    f_left = np.asarray(left_fn(xs), dtype=float)
    upper = np.arange(1, n + 1) / n - f_right
    lower = f_left - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def clamp_tv(value: float) -> float:
    """Clamp a total variation distance to [0, 1].

    A half-l1 sum of two pmfs with disjoint supports can round to one ulp
    above 1; values already in range pass through unchanged.
    """
    return min(max(value, 0.0), 1.0)


def tv_pmfs(p, q, tail: float = 0.0) -> float:
    """Total variation distance between two laws given as pmfs on one grid,
    where ``tail`` is mass the second law puts off the grid and the first
    does not: half the l1 gap plus the tail, clamped to [0, 1]."""
    return clamp_tv(0.5 * (float(np.abs(p - q).sum()) + tail))


def integer_pmfs(counts_a, counts_b) -> tuple[np.ndarray, np.ndarray]:
    """Empirical pmfs of two integer samples on their joint observed range."""
    a = np.asarray(counts_a, dtype=int)
    b = np.asarray(counts_b, dtype=int)
    lo = min(a.min(), b.min())
    size = max(a.max(), b.max()) - lo + 1
    return np.bincount(a - lo, minlength=size) / a.size, np.bincount(b - lo, minlength=size) / b.size


def tv_integer(counts_a, counts_b) -> float:
    """Total variation distance between the empirical laws of two integer
    samples: half the l1 gap of their pmfs over the joint observed range."""
    return tv_pmfs(*integer_pmfs(counts_a, counts_b))


def poisson_pmfs(counts, lam: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Empirical pmf of nonnegative integer observations and the Poisson(lam)
    pmf on one grid 0..K that covers the sample and, for lam > 0, all but
    1e-12 of the Poisson mass; third, that Poisson mass beyond K."""
    counts = np.asarray(counts, dtype=int)
    law = PoissonLaw(lam)
    kmax = max(int(counts.max()), int(law.ppf(1 - 1e-12))) if lam > 0 else int(counts.max())
    pois = law.pmf(np.arange(kmax + 1))
    return np.bincount(counts, minlength=kmax + 1) / counts.size, pois, max(1.0 - pois.sum(), 0.0)


def tv_against_poisson(counts: np.ndarray, lam: float) -> float:
    """TV between the empirical pmf of integer observations and Poisson(lam).

    The analytic pmf beyond the observed range enters through its lumped
    tail, so the value is exact up to floating point.
    """
    return tv_pmfs(*poisson_pmfs(counts, lam))


def tv_discretized(a: np.ndarray, b: np.ndarray, cells: int) -> float:
    """TV between the histograms of two nonnegative real samples on ``cells``
    equal cells spanning [0, max]; it lower-bounds the TV between the laws."""
    hi = max(float(a.max()), float(b.max()))
    if hi <= 0:
        return 0.0
    edges = np.linspace(0.0, hi * (1 + 1e-12), cells + 1)
    return tv_pmfs(np.histogram(a, bins=edges)[0] / len(a), np.histogram(b, bins=edges)[0] / len(b))


def wasserstein1(pmf, cdf) -> float:
    """First Wasserstein distance between two laws on the integers 0..K: the
    l1 gap between the CDF of ``pmf`` and the target ``cdf``, both on that
    grid.  K must cover the support of ``pmf`` and all but a negligible tail
    of the target; a second pmf enters as its cumulative sum.
    """
    pmf = np.asarray(pmf, dtype=float)
    cdf = np.asarray(cdf, dtype=float)
    if pmf.shape != cdf.shape:
        raise ValueError("pmf and cdf must be given on the same grid 0..K")
    return float(np.abs(np.cumsum(pmf) - cdf).sum())


def _multiplicities(ids: np.ndarray, counts, n_locations: int):
    """Sparse (configuration x location) multiplicity matrix of a side whose
    points carry the location ids ``ids``; repeated entries are summed."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return sparse.csr_array((np.ones(len(ids), dtype=np.int64), (rows, ids)), shape=(len(counts), n_locations))


def _tv_cost_matrix(side_a, side_b) -> np.ndarray:
    """Integer matrix of total variation distances between the configurations
    of two sides.

    Atoms match only at identical locations, so entry (i, j) is the
    larger of the two unmatched point counts, max(|a_i|, |b_j|) -
    matched(i, j), which realizes the supremum over measurable sets.
    matched(i, j) sums the smaller multiplicity over the locations both
    configurations hold, that is, over k >= 1, the locations where both
    multiplicities reach k: one sparse product per multiplicity level.
    """
    (points_a, counts_a), (points_b, counts_b) = side_a, side_b
    if points_a.shape[1:] != points_b.shape[1:]:
        raise ValueError("configurations live on different spaces")
    locations, ids = np.unique(np.concatenate([points_a, points_b]), axis=0, return_inverse=True)
    ids = ids.ravel()
    mult_a = _multiplicities(ids[: len(points_a)], counts_a, len(locations))
    mult_b = _multiplicities(ids[len(points_a) :], counts_b, len(locations))
    matched = np.zeros((len(counts_a), len(counts_b)), dtype=np.int64)
    for k in range(1, min(mult_a.data.max(initial=0), mult_b.data.max(initial=0)) + 1):
        matched += ((mult_a >= k).astype(np.int64) @ (mult_b >= k).T.astype(np.int64)).toarray()
    return np.maximum.outer(counts_a, counts_b) - matched


def config_tv_cost(omega1: Configuration, omega2: Configuration) -> float:
    """Total variation distance between two finite counting measures: the
    larger of the two point counts left unmatched when atoms match only at
    equal locations."""
    if omega1.space != omega2.space:
        raise ValueError("configurations live on different spaces")
    matched = sum(min(mult, omega2.atoms.get(loc, 0)) for loc, mult in omega1)
    return float(max(omega1.total(), omega2.total()) - matched)


@dataclass
class TransportPlan:
    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    cost: float
    dual_row: np.ndarray
    dual_col: np.ndarray

    @property
    def dual_objective(self) -> float:
        return float(self.row_marginal @ self.dual_row + self.col_marginal @ self.dual_col)

    @property
    def duality_gap(self) -> float:
        return abs(self.cost - self.dual_objective)

    slackness_residual: float = 0.0


def ot_exact(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> TransportPlan:
    """Exact optimal transport plan between two discrete marginals.

    Solves the transportation linear program with the HiGHS dual simplex
    and returns the plan together with dual potentials; the duality gap and
    complementary slackness are checked to 1e-8 before returning.
    """
    cost = np.asarray(cost, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    n, m = cost.shape
    if mu.shape != (n,) or nu.shape != (m,):
        raise ValueError("marginal sizes do not match the cost matrix")
    if np.any(mu < 0) or np.any(nu < 0):
        raise ValueError("marginals must be nonnegative")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost must be finite")
    if abs(mu.sum() - nu.sum()) > MARGINAL_TOL * max(1.0, mu.sum()):
        raise ValueError("marginals must carry equal total mass")

    # row-sum and column-sum equality constraints on the flattened plan
    rows = []
    cols = []
    for i in range(n):
        rows.extend([i] * m)
        cols.extend(range(i * m, (i + 1) * m))
    for j in range(m):
        rows.extend([n + j] * n)
        cols.extend(range(j, n * m, m))
    a_eq = sparse.csr_matrix(
        (np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)
    )
    b_eq = np.concatenate([mu, nu])
    from scipy.optimize import linprog  # imported here: no scenario path solves an LP

    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    u, v = duals[:n], duals[n:]
    tp = TransportPlan(
        plan=plan,
        row_marginal=mu,
        col_marginal=nu,
        cost=float(cost.ravel() @ res.x),
        dual_row=u,
        dual_col=v,
    )
    reduced = cost - u[:, None] - v[None, :]
    tp.slackness_residual = float(np.max(np.abs(plan * reduced))) if plan.size else 0.0
    if (
        tp.duality_gap > DUALITY_TOL * max(1.0, abs(tp.cost))
        or tp.slackness_residual > DUALITY_TOL
    ):
        raise RuntimeError("optimality certificate failed")
    return tp


@dataclass(frozen=True)
class KrEstimate:
    """Empirical transport surrogate plus the same-law noise floor.

    The estimate is biased upward at finite sample sizes; the noise floor
    (the same statistic between two halves of the first sample) makes the
    bias visible and must always be reported with the estimate.
    """

    estimate: float
    noise_floor: float
    noise_floor_std: float


def _assignment_cost(cost: np.ndarray) -> float:
    """Optimal transport cost between the uniform measures on the rows and
    on the columns of a square integer cost matrix.

    A uniform square transport problem has a permutation optimum
    (Birkhoff-von Neumann), so the assignment solver is exact; the costs are
    integers, so the value is one correctly rounded division.
    """
    n = len(cost)
    if cost.shape != (n, n):
        raise ValueError("both collections must have the same size")
    from scipy.optimize import linear_sum_assignment  # imported here to keep start-up light

    rows, cols = linear_sum_assignment(cost)
    return int(cost[rows, cols].sum()) / n


def empirical_kr(side_a, side_b) -> KrEstimate:
    """Transport distance between the uniform empirical measures over the
    configurations of two equally sized sides, with configuration TV as the
    ground cost.

    A side is ``(points, counts)``: the points of consecutive configurations,
    ``counts[i]`` of them in configuration i.  The noise floor is the same
    statistic between two halves of the first side, averaged over eight
    deterministic reshuffles; each split is a submatrix of one A-A cost
    matrix.
    """
    n = len(side_a[1])
    if len(side_b[1]) != n:
        raise ValueError("both collections must have the same size")
    if n < MIN_KR_CONFIGS:
        raise ValueError(f"need at least {MIN_KR_CONFIGS} configurations per side")
    estimate = _assignment_cost(_tv_cost_matrix(side_a, side_b))
    within = _tv_cost_matrix(side_a, side_a)
    half = n // 2
    floors = []
    for s in range(8):
        order = np.random.default_rng(971 + s).permutation(n)
        floors.append(_assignment_cost(within[np.ix_(order[:half], order[half : 2 * half])]))
    floors = np.asarray(floors)
    return KrEstimate(
        estimate=float(estimate),
        noise_floor=float(floors.mean()),
        noise_floor_std=float(floors.std(ddof=1)),
    )
