"""Probability distances, configuration transport cost, and exact discrete
optimal transport.

The 1-D distances take the arrays a scenario already holds: real samples
for `kolmogorov`, integer samples for `tv_integer` and `tv_against_poisson`,
two real samples and a cell count for `tv_discretized`, and for
`wasserstein1` a pmf and a target CDF on the integer grid 0..K, so the
estimate and each bootstrap resample go through the same function. The TV
distances likewise share `tv_pmfs`, whose pmf arguments `integer_pmfs` and
`poisson_pmfs` build from samples, so a bootstrap can resample histograms.

`ot_exact` is the certified general solver: a HiGHS transportation LP that
returns dual potentials certifying optimality. Acceptance criterion A1 and
`pplab verify --suite ot` require its exact agreement with brute-force
enumeration on small instances, so no regularized solver is used anywhere.

The empirical KR surrogate (`empirical_kr`) transports uniform weights
between two equally sized samples of configurations. That problem has a
permutation optimum, so it is solved exactly as an assignment problem on the
integer configuration-TV cost matrix, without the LP. For diffuse
configurations the TV cost depends only on the point counts, so the
surrogate compares count laws, not locations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .configuration import Configuration
from .laws import PoissonLaw

MARGINAL_TOL = 1e-9
DUALITY_TOL = 1e-8


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


def _tv_cost_matrix(configs_a, configs_b) -> np.ndarray:
    """Integer matrix of total variation distances between two lists of
    finite counting measures.

    Atoms match only at bit-identical locations. Entry (i, j) is the larger of
    the two unmatched point counts, max(|a_i|, |b_j|) - matched(i, j),
    which realizes the supremum over measurable sets; matched(i, j) sums
    the smaller multiplicity over the keys the two configurations share.
    """
    if len({c.space for c in configs_a} | {c.space for c in configs_b}) > 1:
        raise ValueError("configurations live on different spaces")
    totals_a = np.array([c.total() for c in configs_a], dtype=np.int64)
    totals_b = np.array([c.total() for c in configs_b], dtype=np.int64)
    by_key_b: dict = {}
    for j, cb in enumerate(configs_b):
        for loc, mult in cb.atoms.items():
            by_key_b.setdefault(loc, []).append((j, mult))
    by_key_a: dict = {}
    for i, ca in enumerate(configs_a):
        for loc, mult in ca.atoms.items():
            if loc in by_key_b:
                by_key_a.setdefault(loc, []).append((i, mult))
    matched = np.zeros((len(configs_a), len(configs_b)), dtype=np.int64)
    for loc, atoms_a in by_key_a.items():
        rows, mults_a = zip(*atoms_a)
        cols, mults_b = zip(*by_key_b[loc])
        # a key occurs once per configuration, so no index repeats in a block
        matched[np.ix_(rows, cols)] += np.minimum.outer(mults_a, mults_b)
    return np.maximum.outer(totals_a, totals_b) - matched


def config_tv_cost(omega1: Configuration, omega2: Configuration) -> float:
    """Total variation distance between two finite counting measures: the
    one-entry case of `_tv_cost_matrix`."""
    return float(_tv_cost_matrix([omega1], [omega2])[0, 0])


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


def _uniform_ot_cost(configs_a, configs_b) -> float:
    """Optimal transport cost between the uniform measures on two equally
    sized lists of configurations, with configuration TV as ground cost.

    A uniform square transport problem has a permutation optimum
    (Birkhoff-von Neumann), so the assignment solver is exact; the costs are
    integers, so the value is one correctly rounded division.
    """
    n = len(configs_a)
    if len(configs_b) != n:
        raise ValueError("both collections must have the same size")
    cost = _tv_cost_matrix(configs_a, configs_b)
    rows, cols = linear_sum_assignment(cost)
    return int(cost[rows, cols].sum()) / n


def empirical_kr(
    samples_a: list[Configuration],
    samples_b: list[Configuration],
    n_splits: int = 8,
) -> KrEstimate:
    """Transport distance between the uniform empirical measures over two
    equally sized collections of configurations, with configuration TV as
    the ground cost.

    The noise floor is the same statistic between two halves of the first
    collection, averaged over deterministic reshuffles.
    """
    n = len(samples_a)
    if len(samples_b) != n:
        raise ValueError("both collections must have the same size")
    if n < 100:
        raise ValueError("need at least 100 configurations per side")
    estimate = _uniform_ot_cost(samples_a, samples_b)
    half = n // 2
    floors = []
    for s in range(n_splits):
        order = np.random.default_rng(971 + s).permutation(n)
        first = [samples_a[i] for i in order[:half]]
        second = [samples_a[i] for i in order[half : 2 * half]]
        floors.append(_uniform_ot_cost(first, second))
    floors = np.asarray(floors)
    return KrEstimate(
        estimate=float(estimate),
        noise_floor=float(floors.mean()),
        noise_floor_std=float(floors.std(ddof=1)) if n_splits > 1 else 0.0,
    )
