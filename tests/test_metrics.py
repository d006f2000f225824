from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pplab import metrics, scenarios
from pplab.configuration import Configuration
from pplab.laws import (
    CompoundPoissonLaw,
    LevyLaw,
    PoissonLaw,
    StableSeriesLaw,
    sample_law,
)
from pplab.metrics import (
    config_tv_cost,
    empirical_kr,
    kolmogorov,
    ot_exact,
    tv_against_poisson,
    tv_integer,
    wasserstein1,
)
from pplab.rng import derive_rng


# --- Kolmogorov ------------------------------------------------------------


def test_kolmogorov_single_sample_at_median():
    law = LevyLaw(scale=1.0)
    assert kolmogorov([law.median], law) == pytest.approx(0.5, abs=1e-12)


def test_kolmogorov_self_step_law_is_zero():
    xs = np.array([0.1, 0.4, 0.9])

    class StepLaw:
        def cdf(self, x):
            return np.searchsorted(xs, x, side="right") / xs.size

        def cdf_left(self, x):
            return np.searchsorted(xs, x, side="left") / xs.size

    assert kolmogorov(xs[::-1], StepLaw()) == 0.0


def test_kolmogorov_rejects_empty_or_nonfinite():
    law = LevyLaw(scale=1.0)
    with pytest.raises(ValueError, match="empty"):
        kolmogorov([], law)
    with pytest.raises(ValueError, match="finite"):
        kolmogorov([1.0, np.inf], law)


def test_kolmogorov_dkw():
    # exact draws: the statistic should fall under the 95% DKW band
    law = LevyLaw(scale=2.0)
    failures = 0
    trials = 40
    n = 2000
    for i in range(trials):
        xs = law.sample(derive_rng(50, i), size=n)
        d = kolmogorov(xs, law)
        if d > 1.36 / np.sqrt(n):
            failures += 1
    # binomial(40, 0.05): seeing more than 7 failures has probability < 1e-3
    assert failures <= 7


# --- total variation and Wasserstein ----------------------------------------


def _pmf(counts, k):
    """Empirical pmf of nonnegative integer observations on the grid 0..k."""
    counts = np.asarray(counts)
    return np.bincount(counts, minlength=k + 1) / counts.size


def test_tv_integer_examples():
    assert tv_integer([0, 1], [1, 0]) == 0.0
    assert tv_integer([0], [1]) == 1.0
    # the observed range need not start at zero
    assert tv_integer([-2, 3], [3, 3]) == 0.5


def test_tv_integer_poisson_truncation_oracle():
    rng = derive_rng(53)
    a = rng.poisson(1.0, size=5000)
    b = rng.poisson(1.1, size=3000)
    k = max(a.max(), b.max())
    brute = 0.5 * np.abs(_pmf(a, k) - _pmf(b, k)).sum()
    assert tv_integer(a, b) == pytest.approx(brute, abs=1e-14)


def test_tv_against_poisson_at_most_one():
    # an observation far in the Poisson tail puts the TV at 1 up to rounding
    assert tv_against_poisson(np.array([40]), 4.492542372881355) <= 1.0


def test_wasserstein_integer_vs_poisson():
    counts = np.array([0, 1, 1, 2, 3, 0, 1, 2, 1, 1])
    law = PoissonLaw(1.2)
    ks = np.arange(0, 200)
    emp_cdf = np.searchsorted(np.sort(counts), ks, side="right") / counts.size
    brute = np.abs(emp_cdf - law.cdf(ks)).sum()
    grid = np.arange(0, 21)  # Poisson(1.2) puts less than 1e-16 above 20
    assert wasserstein1(_pmf(counts, 20), law.cdf(grid)) == pytest.approx(brute, abs=1e-10)


def test_wasserstein_rejects_mismatched_grids():
    with pytest.raises(ValueError, match="same grid"):
        wasserstein1(np.array([0.5, 0.5]), np.array([0.5, 1.0, 1.0]))


def test_distance_ordering_on_integer_laws():
    # Kolmogorov <= TV <= Wasserstein, all computed on the same pair
    rng = derive_rng(52)
    a = rng.poisson(2.0, size=400)
    b = rng.poisson(2.6, size=400)
    k = 60
    pa, pb = _pmf(a, k), _pmf(b, k)
    dk = float(np.abs(np.cumsum(pa) - np.cumsum(pb)).max())
    dtv = tv_integer(a, b)
    dw = wasserstein1(pa, np.cumsum(pb))
    assert dk <= dtv + 1e-12
    assert dtv <= dw + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=60), st.lists(st.integers(0, 8), min_size=1, max_size=60))
@example(us=[0, 0, 0, 0, 1, 1, 2, 4, 5, 5], vs=[3])  # half-l1 sum rounds to 1 + 2**-52
def test_metric_axioms_integer(us, vs):
    p, q = np.array(us), np.array(vs)
    assert tv_integer(p, q) == tv_integer(q, p)
    assert tv_integer(p, p) == 0.0
    assert 0.0 <= tv_integer(p, q) <= 1.0
    pp, pq = _pmf(p, 8), _pmf(q, 8)
    assert wasserstein1(pp, np.cumsum(pq)) == pytest.approx(wasserstein1(pq, np.cumsum(pp)), abs=1e-12)


# --- negative controls: each distance detects the discrepancy it measures ----
# The wrong-law distance must clear the same-law distance at the same sample
# size (the estimator's upward bias) by well over 3 bootstrap sigma.


def test_wasserstein_detects_shifted_poisson():
    # Poisson(1.2 lam) counts against Poisson(lam), with the gilbert-edges
    # bootstrap: W1 is 0.2 lam = 1 for stochastically ordered laws
    lam = 5.0
    k = 40
    cdf = PoissonLaw(lam).cdf(np.arange(k + 1))
    wrong = derive_rng(54).poisson(1.2 * lam, size=2000)
    same = derive_rng(55).poisson(lam, size=2000)
    dw = wasserstein1(_pmf(wrong, k), cdf)
    se = scenarios._bootstrap_se_poisson_w1(wrong, cdf, 200, 54)
    assert dw - wasserstein1(_pmf(same, k), cdf) > 10 * se


def test_kolmogorov_detects_wrong_levy_scale():
    law = LevyLaw(scale=1.0)
    wrong = LevyLaw(scale=2.0).sample(derive_rng(56), size=2000)
    same = law.sample(derive_rng(58), size=2000)
    dk = kolmogorov(wrong, law)
    se = scenarios._bootstrap_se(wrong, lambda s: kolmogorov(s, law), 100, 56)
    assert dk - kolmogorov(same, law) > 10 * se


def test_tv_integer_detects_poisson_mean_shift():
    rng = derive_rng(57)
    a = rng.poisson(5.0, size=4000)
    wrong = rng.poisson(6.0, size=4000)
    same = rng.poisson(5.0, size=4000)
    dtv = tv_integer(a, wrong)
    se = scenarios._bootstrap_se(a, lambda s: tv_integer(s, wrong), 100, 57)
    assert dtv - tv_integer(a, same) > 10 * se


def test_histogram_bootstrap_matches_index_bootstrap():
    # multinomial resampling of the count histogram is i.i.d. resampling of
    # the counts, so both give the same bootstrap spread up to noise
    counts = derive_rng(60).poisson(5.0, size=2000)
    by_index = scenarios._bootstrap_se(counts, lambda s: tv_against_poisson(s, 5.0), 400, 60)
    emp, pois, tail = metrics.poisson_pmfs(counts, 5.0)
    by_hist = scenarios._bootstrap_se_pmfs(
        [(emp, counts.size)], lambda p: metrics.tv_pmfs(p, pois, tail), 400, derive_rng(61)
    )
    assert metrics.tv_pmfs(emp, pois, tail) == tv_against_poisson(counts, 5.0)
    assert 0.8 < by_hist / by_index < 1.25


# --- configuration TV cost ---------------------------------------------------


def test_config_tv_examples():
    w1 = Configuration.from_points([1.0, 1.0, 2.0])
    w2 = Configuration.from_points([1.0, 3.0])
    assert config_tv_cost(w1, w1) == 0.0
    assert config_tv_cost(w1, w2) == 2.0
    a = Configuration.from_points([0.1, 0.2, 0.3])
    b = Configuration.from_points([5.0, 6.0])
    assert config_tv_cost(a, b) == 3.0  # disjoint supports: max(n, m)


def test_config_tv_subset_enumeration_oracle():
    w1 = Configuration.from_points([1.0, 1.0, 2.0])
    w2 = Configuration.from_points([1.0, 3.0])
    ground = [1.0, 2.0, 3.0]
    best = 0.0
    for r in range(len(ground) + 1):
        for sub in combinations(ground, r):
            m1 = sum(w1.atoms.get(x, 0) for x in sub)
            m2 = sum(w2.atoms.get(x, 0) for x in sub)
            best = max(best, abs(m1 - m2))
    assert config_tv_cost(w1, w2) == best


def test_config_tv_space_mismatch():
    with pytest.raises(ValueError):
        config_tv_cost(Configuration(space="a"), Configuration(space="b"))
    line = _side([Configuration({0.0: 1}) for _ in range(100)], 1)
    plane = _side([Configuration({(0.0, 0.0): 1}) for _ in range(100)], 2)
    with pytest.raises(ValueError, match="different spaces"):
        empirical_kr(line, plane)
    with pytest.raises(ValueError, match="different spaces"):
        metrics._tv_cost_matrix(plane, line)


def _side(configs, d) -> tuple:
    """The ``(points, counts)`` side holding ``configs``, whose locations are
    scalars (d = 1) or d-tuples."""
    points = [np.reshape(np.asarray(c.points(), dtype=float), (-1, d)) for c in configs]
    return np.concatenate(points).reshape(-1, d), np.array([c.total() for c in configs])


def _pairwise_tv_loop(configs_a, configs_b) -> np.ndarray:
    """The pair-by-pair dict loop the cost matrix replaced, kept as its oracle."""
    cost = np.empty((len(configs_a), len(configs_b)))
    for i, ca in enumerate(configs_a):
        for j, cb in enumerate(configs_b):
            if ca.space != cb.space:
                raise ValueError("configurations live on different spaces")
            matched = 0
            for loc, m1 in ca.atoms.items():
                m2 = cb.atoms.get(loc)
                if m2:
                    matched += min(m1, m2)
            cost[i, j] = float(max(ca.total() - matched, cb.total() - matched))
    return cost


def _mixed_configs(rng, n):
    """Diffuse atoms, atoms on a five-point grid that configurations share,
    multiplicities up to 3, and some empty configurations."""
    out = []
    for _ in range(n):
        atoms = {float(x): 1 for x in rng.uniform(size=rng.poisson(1.5))}
        for x in rng.integers(0, 5, size=rng.poisson(2.0)):
            atoms[float(x)] = atoms.get(float(x), 0) + int(rng.integers(1, 4))
        out.append(Configuration(atoms, space="mixed"))
    return out


def _diffuse_configs(rng, n, mean):
    return [
        Configuration.from_array(rng.uniform(size=(rng.poisson(mean), 2)), space="cube(2)")
        for _ in range(n)
    ]


def _transport_layouts():
    """name -> (configurations A, configurations B, dimension)."""
    rng = derive_rng(67)
    mixed_a = _mixed_configs(rng, 40)
    # half copies: every atom of a copy is shared with its original
    mixed_b = [c.copy() for c in mixed_a[:20]] + _mixed_configs(rng, 20)
    diffuse = _diffuse_configs(rng, 30, 3.0)
    counts_a = _count_configs(1.5, 30, 68)
    counts_b = _count_configs(2.5, 30, 69)
    empties = [Configuration(space="cube(2)") for _ in range(3)]
    return {
        "mixed": (mixed_a, mixed_b, 1),
        "diffuse": (diffuse, _diffuse_configs(rng, 25, 3.0), 2),
        "diffuse-copies": (diffuse, [c.copy() for c in diffuse[::-1]], 2),
        "counts": (counts_a, counts_b, 1),
        "empty": (empties, diffuse[:5] + empties, 2),
        "all-empty": (empties, empties[:2], 2),
    }


@pytest.mark.parametrize("layout", ["mixed", "diffuse", "diffuse-copies", "counts", "empty", "all-empty"])
def test_tv_cost_matrix_matches_pairwise_loop(layout):
    a, b, d = _transport_layouts()[layout]
    side_a, side_b = _side(a, d), _side(b, d)
    if layout.endswith("empty"):
        assert side_a[0].shape == (0, d)
    cost = metrics._tv_cost_matrix(side_a, side_b)
    assert np.issubdtype(cost.dtype, np.integer)
    assert cost.shape == (len(a), len(b))
    assert (cost == _pairwise_tv_loop(a, b)).all()
    for i, j in [(0, 0), (len(a) - 1, len(b) - 1), (1, 1)]:
        assert config_tv_cost(a[i], b[j]) == _pairwise_tv_loop([a[i]], [b[j]])[0, 0]


@pytest.mark.parametrize("n", [100, 150])
def test_uniform_ot_cost_matches_lp(n):
    rng = derive_rng(70, n)
    for _ in range(3):
        a = _mixed_configs(rng, n)
        b = [c.copy() for c in a[: n // 3]] + _mixed_configs(rng, n - n // 3)
        uniform = np.full(n, 1.0 / n)
        lp = ot_exact(_pairwise_tv_loop(a, b), uniform, uniform).cost
        cost = metrics._tv_cost_matrix(_side(a, 1), _side(b, 1))
        assert metrics._assignment_cost(cost) == pytest.approx(lp, abs=1e-12)


def test_uniform_ot_cost_sorted_closed_forms():
    # diffuse configurations share no atom: the cost is max(|a|, |b|)
    rng = derive_rng(71)
    a = _side(_diffuse_configs(rng, 120, 3.0), 2)
    b = _side(_diffuse_configs(rng, 120, 4.0), 2)
    na, nb = np.sort(a[1]), np.sort(b[1])
    assert metrics._assignment_cost(metrics._tv_cost_matrix(a, b)) == np.mean(np.maximum(na, nb))
    # every atom at 0.0 (the poisson-counts layout): the cost is | |a| - |b| |
    a = _side(_count_configs(1.0, 120, 72), 1)
    b = _side(_count_configs(2.0, 120, 73), 1)
    na, nb = np.sort(a[1]), np.sort(b[1])
    assert metrics._assignment_cost(metrics._tv_cost_matrix(a, b)) == np.mean(np.abs(na - nb))


# --- exact optimal transport --------------------------------------------------


def test_ot_1x1():
    plan = ot_exact(np.array([[3.0]]), np.array([2.0]), np.array([2.0]))
    assert plan.plan[0, 0] == pytest.approx(2.0)
    assert plan.cost == pytest.approx(6.0)
    assert plan.duality_gap < 1e-8


def test_ot_permutation_oracle_n3():
    rng = derive_rng(53)
    for _ in range(25):
        c = rng.uniform(size=(3, 3))
        plan = ot_exact(c, np.full(3, 1 / 3), np.full(3, 1 / 3))
        best = min(sum(c[i, p[i]] for i in range(3)) / 3 for p in permutations(range(3)))
        assert plan.cost == pytest.approx(best, abs=1e-9)


def test_ot_vertex_oracle_n4():
    from oracles import tree_vertex_ot_cost

    rng = derive_rng(54)
    for _ in range(10):
        c = rng.uniform(size=(4, 4))
        mu = rng.uniform(0.2, 1.0, size=4)
        nu = rng.uniform(0.2, 1.0, size=4)
        nu *= mu.sum() / nu.sum()
        plan = ot_exact(c, mu, nu)
        assert plan.cost == pytest.approx(tree_vertex_ot_cost(c, mu, nu), abs=1e-9)
        assert plan.duality_gap < 1e-8
        assert plan.slackness_residual < 1e-8


def test_ot_rejects_unbalanced():
    with pytest.raises(ValueError):
        ot_exact(np.ones((2, 2)), np.array([1.0, 1.0]), np.array([1.0, 0.5]))


# --- empirical KR surrogate ----------------------------------------------------


def _count_configs(lam, n, seed):
    rng = derive_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.poisson(lam))
        out.append(Configuration({0.0: k} if k else {}, space="counts"))
    return out


def _count_side(lam, n, seed):
    return _side(_count_configs(lam, n, seed), 1)


def test_empirical_kr_copy_is_zero():
    points, counts = _count_side(1.0, 120, 55)
    kr = empirical_kr((points, counts), (points.copy(), counts.copy()))
    assert kr.estimate == pytest.approx(0.0, abs=1e-10)


def test_empirical_kr_same_law_within_floor():
    kr = empirical_kr(_count_side(1.0, 150, 56), _count_side(1.0, 150, 57))
    assert kr.estimate <= kr.noise_floor + 3 * kr.noise_floor_std


def test_empirical_kr_dominates_tv_lower_bound():
    a = _count_side(1.0, 150, 58)
    b = _count_side(3.0, 150, 59)
    kr = empirical_kr(a, b)
    tv = tv_integer(a[1], b[1])
    assert kr.estimate >= tv - 3 * kr.noise_floor_std


def test_empirical_kr_floor_splits_one_within_matrix():
    # each noise-floor split is a submatrix of the one A-A cost matrix: the
    # same integers as the cost matrix of the two halves built afresh
    configs = _mixed_configs(derive_rng(74), 120)
    floors = []
    for s in range(8):
        order = np.random.default_rng(971 + s).permutation(120)
        halves = [_side([configs[i] for i in order[lo : lo + 60]], 1) for lo in (0, 60)]
        floors.append(metrics._assignment_cost(metrics._tv_cost_matrix(*halves)))
    assert empirical_kr(_side(configs, 1), _side(configs, 1)).noise_floor == np.mean(floors)


def test_empirical_kr_rejects_small_or_mismatched():
    a = _count_side(1.0, 50, 60)
    with pytest.raises(ValueError):
        empirical_kr(a, a)
    points, counts = _count_side(1.0, 120, 61)
    with pytest.raises(ValueError):
        empirical_kr((points, counts), (points[: counts[:-1].sum()], counts[:-1]))
    with pytest.raises(ValueError):
        empirical_kr((points, counts), (points[:-1], counts))


# --- analytic laws --------------------------------------------------------------


def test_compound_poisson_zero_mass():
    law = CompoundPoissonLaw(mass=0.0, summand_sampler=lambda rng, n: np.ones(n))
    rng = derive_rng(62)
    assert all(sample_law(law, rng) == 0.0 for _ in range(20))


def test_compound_poisson_mean():
    law = CompoundPoissonLaw(
        mass=2.0, summand_sampler=lambda rng, n: rng.uniform(size=n), summand_mean=0.5
    )
    xs = law.sample_many(derive_rng(63), 200_000)
    se = xs.std(ddof=1) / np.sqrt(len(xs))
    assert abs(xs.mean() - law.mean) < 3 * se


def test_levy_cdf_matches_density_derivative():
    law = LevyLaw(scale=np.pi**3 / 8)
    xs = np.array([0.3, 1.0, 4.0, 9.0, 40.0])
    h = 1e-6
    num = (law.cdf(xs + h) - law.cdf(xs - h)) / (2 * h)
    assert np.max(np.abs(num - law.pdf(xs)) / law.pdf(xs)) < 1e-6


def test_stable_series_truncation_windows():
    # two windows: Kolmogorov distance between the sample sets stays below
    # the documented tail bound (plus sampling noise)
    t_small, t_big = 50.0, 100.0
    n = 40_000
    small = StableSeriesLaw(alpha=0.5, window=t_small).sample_many(derive_rng(65), n)
    big = StableSeriesLaw(alpha=0.5, window=t_big).sample_many(derive_rng(66), n)
    from scipy import stats

    d = stats.ks_2samp(small, big).statistic
    # a shift of size delta moves the Levy CDF by at most max-density * delta
    tail = StableSeriesLaw(alpha=0.5, window=t_small).truncation_tail_mean
    law = LevyLaw(scale=np.pi / 2)  # alpha=1/2 series has max density below 0.26
    dens_max = law.pdf(np.linspace(0.05, 10, 2000)).max()
    assert d < dens_max * tail + 3 * np.sqrt(1 / n)


def test_stable_series_rejects_alpha_geq_1():
    with pytest.raises(ValueError):
        StableSeriesLaw(alpha=1.0, window=10.0)
