"""Probability distances, configuration transport cost, and exact discrete
optimal transport.

The optimal-transport solver returns dual potentials certifying optimality;
acceptance requires exact agreement with brute-force enumeration on small
instances, so no regularized solver is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .configuration import Configuration

PMF_NORMALIZATION_TOL = 1e-12
MARGINAL_TOL = 1e-9
DUALITY_TOL = 1e-8


class EmpiricalDistribution:
    """Either a sorted sample of reals or an integer pmf."""

    def __init__(self, samples=None, pmf=None, offset: int = 0):
        if (samples is None) == (pmf is None):
            raise ValueError("provide exactly one of samples or pmf")
        if samples is not None:
            arr = np.sort(np.asarray(samples, dtype=float))
            if arr.size == 0:
                raise ValueError("empty sample")
            if not np.all(np.isfinite(arr)):
                raise ValueError("samples must be finite")
            self.samples = arr
            self.pmf = None
            self.offset = 0
        else:
            p = np.asarray(pmf, dtype=float)
            if np.any(p < 0):
                raise ValueError("pmf entries must be nonnegative")
            if abs(p.sum() - 1.0) > PMF_NORMALIZATION_TOL:
                raise ValueError("pmf must sum to one")
            self.samples = None
            self.pmf = p
            self.offset = int(offset)

    @classmethod
    def from_samples(cls, xs) -> "EmpiricalDistribution":
        return cls(samples=xs)

    @classmethod
    def from_counts(cls, counts) -> "EmpiricalDistribution":
        """Integer pmf from raw integer observations."""
        counts = np.asarray(counts, dtype=int)
        lo = int(counts.min())
        vals = np.bincount(counts - lo).astype(float)
        return cls(pmf=vals / vals.sum(), offset=lo)

    @property
    def is_integer(self) -> bool:
        return self.pmf is not None

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.samples is not None:
            return np.searchsorted(self.samples, x, side="right") / self.samples.size
        ks = np.floor(x).astype(int) - self.offset
        cum = np.concatenate([[0.0], np.cumsum(self.pmf)])
        return cum[np.clip(ks + 1, 0, len(self.pmf))]

    def cdf_left(self, x) -> np.ndarray:
        """Left-continuous version of the CDF (the value just below x)."""
        x = np.asarray(x, dtype=float)
        if self.samples is not None:
            return np.searchsorted(self.samples, x, side="left") / self.samples.size
        ks = np.ceil(x).astype(int) - 1 - self.offset
        cum = np.concatenate([[0.0], np.cumsum(self.pmf)])
        return cum[np.clip(ks + 1, 0, len(self.pmf))]


def kolmogorov(emp: EmpiricalDistribution, law) -> float:
    """Sup-norm distance between the empirical CDF and the law's CDF,
    evaluated on both sides of every jump."""
    if not hasattr(law, "cdf"):
        raise TypeError("law must expose a CDF")
    if emp.is_integer:
        ks = np.arange(emp.offset, emp.offset + len(emp.pmf))
        emp_cdf = np.cumsum(emp.pmf)
        law_cdf = np.asarray(law.cdf(ks), dtype=float)
        d = float(np.max(np.abs(emp_cdf - law_cdf)))
        # below the support the empirical CDF is zero
        lo = float(np.max(np.atleast_1d(law.cdf(emp.offset - 1)))) if emp.offset > 0 else 0.0
        return max(d, lo)
    xs = emp.samples
    n = xs.size
    f_right = np.asarray(law.cdf(xs), dtype=float)
    left_fn = getattr(law, "cdf_left", law.cdf)
    f_left = np.asarray(left_fn(xs), dtype=float)
    upper = np.arange(1, n + 1) / n - f_right
    lower = f_left - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def _align_pmfs(p: EmpiricalDistribution, q: EmpiricalDistribution):
    lo = min(p.offset, q.offset)
    hi = max(p.offset + len(p.pmf), q.offset + len(q.pmf))
    pa = np.zeros(hi - lo)
    qa = np.zeros(hi - lo)
    pa[p.offset - lo : p.offset - lo + len(p.pmf)] = p.pmf
    qa[q.offset - lo : q.offset - lo + len(q.pmf)] = q.pmf
    return pa, qa, lo


def clamp_tv(value: float) -> float:
    """Clamp a total variation distance to [0, 1].

    A half-l1 sum of two pmfs with disjoint supports can round to one ulp
    above 1; values already in range pass through unchanged.
    """
    return min(max(value, 0.0), 1.0)


def tv_integer(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Total variation distance between two integer pmfs, half the l1 gap."""
    if not (p.is_integer and q.is_integer):
        raise TypeError("tv_integer needs integer pmfs")
    pa, qa, _ = _align_pmfs(p, q)
    return clamp_tv(0.5 * float(np.abs(pa - qa).sum()))


def tv_against_poisson(counts: np.ndarray, lam: float) -> float:
    """TV between the empirical pmf of integer observations and Poisson(lam).

    The analytic pmf beyond the observed range enters through its lumped
    tail, so the value is exact up to floating point.
    """
    from scipy import stats

    counts = np.asarray(counts, dtype=int)
    kmax = max(int(counts.max()), int(stats.poisson.ppf(1 - 1e-12, lam))) if lam > 0 else int(counts.max())
    emp = np.bincount(counts, minlength=kmax + 1) / counts.size
    pois = stats.poisson.pmf(np.arange(kmax + 1), lam)
    tail = 1.0 - pois.sum()
    return clamp_tv(0.5 * (float(np.abs(emp - pois).sum()) + max(tail, 0.0)))


def wasserstein1(p, q) -> float:
    """First Wasserstein distance: integral of |F_p - F_q|.

    Accepts two real-sample empiricals (sorted-merge algorithm) or two
    integer laws (empirical pmf or an analytic law with pmf), in which
    case it is the sum over the integer grid of the CDF gaps.
    """
    p_emp = isinstance(p, EmpiricalDistribution)
    q_emp = isinstance(q, EmpiricalDistribution)
    if p_emp and q_emp and not p.is_integer and not q.is_integer:
        xs = np.concatenate([p.samples, q.samples])
        xs.sort(kind="mergesort")
        fp = p.cdf(xs[:-1])
        fq = q.cdf(xs[:-1])
        return float(np.sum(np.abs(fp - fq) * np.diff(xs)))
    return _wasserstein_integer(p, q)


def _integer_cdf_grid(obj, ks: np.ndarray) -> np.ndarray:
    if isinstance(obj, EmpiricalDistribution):
        return obj.cdf(ks)
    return np.asarray(obj.cdf(ks), dtype=float)


def _integer_support_hi(obj) -> int:
    if isinstance(obj, EmpiricalDistribution):
        if not obj.is_integer:
            raise TypeError(
                "wasserstein1 needs two real-sample empiricals or two integer laws"
            )
        return obj.offset + len(obj.pmf) - 1
    from scipy import stats

    if hasattr(obj, "lam"):
        return int(stats.poisson.ppf(1 - 1e-14, obj.lam)) + 2
    raise TypeError("cannot bound the support of this law")


def _wasserstein_integer(p, q) -> float:
    hi = max(_integer_support_hi(p), _integer_support_hi(q))
    ks = np.arange(0, hi + 1)
    fp = _integer_cdf_grid(p, ks)
    fq = _integer_cdf_grid(q, ks)
    return float(np.abs(fp - fq).sum())


def config_tv_cost(omega1: Configuration, omega2: Configuration) -> float:
    """Total variation distance between two finite counting measures.

    Atoms match only at bit-identical locations; the value is the larger
    of the two unmatched point counts, which realizes the supremum over
    measurable sets.
    """
    if omega1.space != omega2.space:
        raise ValueError("configurations live on different spaces")
    matched = 0
    for loc, m1 in omega1.atoms.items():
        m2 = omega2.atoms.get(loc)
        if m2:
            matched += min(m1, m2)
    return float(max(omega1.total() - matched, omega2.total() - matched))


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
    na, nb = len(configs_a), len(configs_b)
    cost = np.empty((na, nb))
    for i, ca in enumerate(configs_a):
        for j, cb in enumerate(configs_b):
            cost[i, j] = config_tv_cost(ca, cb)
    plan = ot_exact(cost, np.full(na, 1.0 / na), np.full(nb, 1.0 / nb))
    return plan.cost


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
