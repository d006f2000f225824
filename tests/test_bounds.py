import numpy as np
import pytest
import scipy.integrate
from scipy.special import erfc

from oracles import (
    StableSeriesLaw,
    corner_constants_2d,
    edge_strip_constants_2d,
    gilbert_moments_mc,
    stable_series_window,
)
from pplab import bounds as bnd
from pplab import scenarios
from pplab.bounds import (
    MomentPair,
    cube_pair_integrals,
    edge_length_law,
    flats_constant,
    flats_constant_mc,
    flats_constant_via_grassmannian,
    gilbert_intensity_error,
    gilbert_moments,
    polytope_law,
    polytope_limit_density,
    r_term,
    thm_main_bound,
    ustat_poisson_bound,
)
from pplab.geometry import haar_frame, subspace_determinant, unit_ball_volume
from pplab.laws import LevyLaw
from pplab.rng import derive_rng


# --- pair integrals ---------------------------------------------------------


def test_pair_integral_d2_matches_classic_formula():
    for th in (0.4, 0.1, 0.01, 0.002):
        i2, _ = cube_pair_integrals(2, th)
        classic = np.pi * th**2 - 8 / 3 * th**3 + th**4 / 2
        assert i2 == pytest.approx(classic, rel=1e-10)


def test_pair_integral_constants_closed_forms():
    assert bnd.EDGE_STRIP_C1 == pytest.approx(np.pi - 2 / 3, abs=1e-10)
    assert bnd.CORNER_C2 == pytest.approx(np.pi - 29 / 24, abs=1e-9)


def test_pair_integral_constants_match_quadrature_oracle():
    c1, c3 = edge_strip_constants_2d()
    c2, c4 = corner_constants_2d()
    for stored, quad in zip(
        (bnd.EDGE_STRIP_C1, bnd.EDGE_STRIP_C3, bnd.CORNER_C2, bnd.CORNER_C4), (c1, c3, c2, c4)
    ):
        assert abs(stored - quad) <= 1e-11


def test_pair_integrals_run_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature on the cube pair-integral path")

    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    monkeypatch.setattr(scipy.integrate, "dblquad", refuse)
    for d in (1, 2):
        for u in (0.002, 0.1, 0.5):
            i2, i3 = cube_pair_integrals(d, u)
            assert 0 < i3 < i2


def test_pair_integral_d1_closed_forms():
    for th in (0.05, 0.3):
        i2, i3 = cube_pair_integrals(1, th)
        assert i2 == pytest.approx(2 * th - th**2, abs=1e-14)
        assert i3 == pytest.approx(4 * th**2 - 10 / 3 * th**3, abs=1e-14)


def test_pair_integral_i3_monte_carlo():
    th = 0.07
    _, i3 = cube_pair_integrals(2, th)
    rng = derive_rng(40)
    n = 200_000
    x = rng.uniform(size=(n, 2))
    ball = np.pi * th**2
    g = rng.standard_normal((n, 2, 2))
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    y = x[:, None, :] + g * th * rng.uniform(size=(n, 2, 1)) ** 0.5
    inside = np.all((y >= 0) & (y <= 1), axis=2)
    prods = ball**2 * inside[:, 0] * inside[:, 1]
    se = prods.std(ddof=1) / np.sqrt(n)
    assert abs(prods.mean() - i3) < 3 * se


# --- r term -------------------------------------------------------------------


def test_r_term_quadrature_vs_nested_mc():
    quad = r_term(2, 100.0, 0.01)
    assert quad.method == "quadrature"
    value, stderr = bnd._r_term_nested_mc(2, 100.0, 0.01, rng_seed=1, n_outer=60_000, n_inner=500)
    assert abs(quad.value - value) < 3 * stderr


def test_r_term_coarse_cap():
    # 8 t^3 kappa_d^2 u^(2d) dominates the exact value
    for d in (1, 2):
        t, u = 100.0, 0.01
        res = r_term(d, t, u)
        cap = 8 * t**3 * unit_ball_volume(d) ** 2 * u ** (2 * d)
        assert 0 < res.value <= cap
        assert res.r_hat == pytest.approx(t * unit_ball_volume(d) * u**d)


def test_r_term_dominated_by_mass_times_rhat():
    t, u = 50.0, 0.05
    i2, _ = cube_pair_integrals(2, u)
    mass = 0.5 * t**2 * i2
    res = r_term(2, t, u)
    assert res.value <= 2 * mass * res.r_hat + 1e-12


def test_r_term_d3_uses_mc():
    res = r_term(3, 10.0, 0.1)
    assert res.method == "mc" and res.stderr is not None


# --- moments -------------------------------------------------------------------


def test_gilbert_moments_match_mc_poisson():
    mp = gilbert_moments(2, 50.0, 0.02)
    mc = gilbert_moments_mc(2, 50.0, 0.02, reps=20_000, rng_seed=41)
    assert abs(mp.mean - mc.mean) < 3 * mc.mean_se
    assert abs(mp.second_moment - mc.second_moment) < 3 * mc.second_se


def test_gilbert_moments_match_mc_binomial():
    mp = gilbert_moments(2, 50.0, 0.02, n=50)
    mc = gilbert_moments_mc(2, 50.0, 0.02, reps=20_000, rng_seed=42, n=50)
    assert abs(mp.mean - mc.mean) < 3 * mc.mean_se
    assert abs(mp.second_moment - mc.second_moment) < 3 * mc.second_se


def test_moment_jensen_defect_nonnegative():
    mp = gilbert_moments(2, 100.0, 0.01)
    assert mp.second_moment - mp.mean**2 >= 0


# --- assembled bounds ------------------------------------------------------------


def test_thm_main_bound_arithmetic():
    assert thm_main_bound(0.1, 0.05, k=2) == pytest.approx(0.1 + 4 * 0.05)
    assert thm_main_bound(0.0, 0.0, k=1) == 0.0
    val = thm_main_bound(0.1, 0.05, k=2, n=100, mass_l=2.0)
    assert val == pytest.approx(0.1 + 4 * 0.05 + 36 * 2 * 4.0 / 100)


def test_thm_main_bound_binomial_degenerate():
    # fewer points than the arity: the induced process is empty and the
    # dtv term (the target's whole mass) is the bound
    assert thm_main_bound(3.7, 0.0, k=2, n=1, mass_l=0.0) == 3.7


def test_moment_form_below_r_form():
    for t in (50.0, 100.0, 200.0, 400.0, 800.0):
        theta = 1.0 / t
        mp = gilbert_moments(2, t, theta)
        r = r_term(2, t, theta).value
        m_form = ustat_poisson_bound(mp, mp.mean, k=2)
        r_form = thm_main_bound(0.0, r, k=2)
        assert 0 <= m_form <= r_form + 1e-12


def test_ustat_poisson_bound_exact_poisson_moments():
    lam = 2.5
    mp = MomentPair(mean=lam, second_moment=lam**2 + lam)
    assert ustat_poisson_bound(mp, lam, k=2) == pytest.approx(0.0, abs=1e-12)


def test_ustat_poisson_bound_nonneg_from_mc_moments():
    mc = gilbert_moments_mc(2, 50.0, 0.02, reps=10_000, rng_seed=43)
    val = ustat_poisson_bound(mc, 0.5 * np.pi, k=2)
    assert val >= -3 * (mc.second_se + mc.mean_se)


def test_ustat_poisson_bound_binomial_has_extra_term():
    lam = 2.5
    mp = MomentPair(mean=lam, second_moment=lam**2 + lam)
    poisson_val = ustat_poisson_bound(mp, lam, k=2)
    binom_val = ustat_poisson_bound(mp, lam, k=2, n=100)
    assert binom_val > poisson_val


def test_binomial_moment_form_closed_form_and_below_arity():
    # n = 10, k = 2: ratio (8)_2 / (10)_2 = 56 / 90 and excess 6^2 2! m1^2 / 10
    mp, lam = MomentPair(mean=2.0, second_moment=7.0), 1.5
    want = abs(2.0 - lam) + 2 * (7.0 - 2.0 - 56 / 90 * 2.0**2) + 36 * 2 * 2.0**2 / 10
    assert ustat_poisson_bound(mp, lam, k=2, n=10) == pytest.approx(want, rel=1e-14)
    # below the arity the induced process is empty: the first term alone
    for n in (0, 1):
        assert ustat_poisson_bound(mp, lam, k=2, n=n) == abs(2.0 - lam)
        assert thm_main_bound(0.3, 0.2, k=2, n=n, mass_l=4.0) == 0.3


# --- intensity error bound ---------------------------------------------------------


def test_gilbert_intensity_error_edge_cases():
    assert gilbert_intensity_error(2, 100.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        gilbert_intensity_error(2, 100.0, 1.0)
    grid = np.linspace(0, 0.5, 20)
    vals = [gilbert_intensity_error(2, 100.0, a) for a in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert gilbert_intensity_error(2, 200.0, 0.01) > gilbert_intensity_error(2, 100.0, 0.01)


def test_gilbert_intensity_error_dominates_true_discrepancy():
    # Monte Carlo the pair-statistic mean and compare with the limit value
    d, t, theta = 2, 100.0, 0.01
    rng = derive_rng(44)
    n = 1_000_000
    x = rng.uniform(size=(n, d))
    y = rng.uniform(size=(n, d))
    hits = (np.linalg.norm(x - y, axis=1) <= theta).mean()
    lhs = 0.5 * t**2 * hits  # estimate of the finite-t mean
    se = 0.5 * t**2 * np.sqrt(hits * (1 - hits) / n)
    limit = 0.5 * unit_ball_volume(d) * t**2 * theta**d
    assert abs(lhs - limit) <= gilbert_intensity_error(d, t, theta) + 3 * se


# --- limit laws -----------------------------------------------------------------


def test_edge_length_and_levy_targets():
    assert edge_length_law(2, 1.0, b=1.0).mass == pytest.approx(np.pi / 2)
    cfg = scenarios.ScenarioConfig(scenario="distance-power", t_grid=(50.0,), params={"dk_threshold": 1.0})
    levy = LevyLaw(scenarios.run(cfg).summary["levy_scale"])
    assert levy.scale == pytest.approx(np.pi**3 / 8)
    # Levy CDF at x: erfc(sqrt(pi^3 / (16 x)))
    assert levy.cdf(np.array([2.0]))[0] == pytest.approx(erfc(np.sqrt(np.pi**3 / 32.0)), rel=1e-12)


def test_gilbert_limit_b0_degenerates_to_poisson():
    xs = edge_length_law(2, 1.0, b=0.0).sample_many(derive_rng(45), 50_000)
    assert np.allclose(xs, np.round(xs))  # integer summands of size one
    from pplab.metrics import tv_against_poisson

    assert tv_against_poisson(xs.astype(int), np.pi / 2) < 0.02


def test_stable_series_window_keeps_tail_small():
    # the alpha = d / tau = 1/2 series of the d = 2, tau = 4 distance-power
    # limit, windowed against the median of its closed form, the Levy law
    kd = unit_ball_volume(2)
    scale = (kd / 2.0) ** 2
    median = float(LevyLaw(scale=np.pi * kd**2 / 8.0).ppf(0.5))
    law = StableSeriesLaw(alpha=0.5, window=stable_series_window(0.5, scale, median), scale=scale)
    assert law.truncation_tail_mean <= 1e-3 * median * (1 + 1e-9)


# --- flats constant -----------------------------------------------------------------


def test_flats_constant_closed_form():
    assert flats_constant(3, 1) == pytest.approx(np.pi / 4, abs=1e-12)
    with pytest.raises(ValueError):
        flats_constant(4, 2)


def test_flats_constant_positive_and_identity():
    for d, m in ((3, 1), (5, 1), (5, 2), (7, 3)):
        sc = flats_constant(d, m)
        assert sc > 0
        assert flats_constant_via_grassmannian(d, m) == pytest.approx(sc, abs=1e-10)


def test_flats_constant_mc():
    mean, se = flats_constant_mc(3, 1, samples=40_000, rng_seed=46)
    assert abs(mean - np.pi / 4) < 3 * se


@pytest.mark.parametrize("d, m", [(3, 1), (5, 2)])
def test_flats_constant_mc_matches_per_sample_loop(d, m):
    samples = 3000
    rng = derive_rng(11, 4242)
    vals = np.array(
        [subspace_determinant(haar_frame(rng, d, m), haar_frame(rng, d, m)) for _ in range(samples)]
    )
    vals *= 0.5 * unit_ball_volume(d - 2 * m)
    want = (float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(samples)))
    assert flats_constant_mc(d, m, samples, rng_seed=11) == want


def test_flats_constant_mc_run_size_changes_no_bit(monkeypatch):
    want = flats_constant_mc(3, 1, 5000, rng_seed=42)
    monkeypatch.setattr(bnd, "_HAAR_RUN", 1536)  # three full runs and a ragged one
    assert flats_constant_mc(3, 1, 5000, rng_seed=42) == want


@pytest.mark.parametrize("samples", [0, 1])
def test_flats_constant_mc_needs_two_samples(samples):
    with pytest.raises(ValueError, match="at least 2"):
        flats_constant_mc(3, 1, samples)


# --- polytope law ----------------------------------------------------------------


def test_polytope_law_a0():
    assert polytope_law(3, 100.0, 0.0) == (0.0, 0.0, 1.0)


def test_polytope_law_d3_closed_form():
    # mass a/2, tail e^{-a/2}; finite-t mass a/2 - a^2 / (8 t^2)
    for t in (10.0, 100.0):
        for a in (0.5, 1.0):
            l_t, m_lim, tail = polytope_law(3, t, a)
            assert m_lim == pytest.approx(a / 2, rel=1e-12)
            assert tail == pytest.approx(np.exp(-a / 2), rel=1e-12)
            assert l_t == pytest.approx(a / 2 - a**2 / (8 * t**2), rel=1e-10)


def test_polytope_law_t_to_infinity():
    for d in (2, 3, 4):
        a = 1.0
        t = 1e4
        l_t, m_lim, _ = polytope_law(d, t, a)
        rel_gap = abs(l_t - m_lim) / m_lim
        assert rel_gap < 10 * t ** (-min(4.0 / (d - 1), 1.0))


def test_polytope_density_matches_mass_derivative():
    for d in (2, 3, 5):
        a = 0.8
        h = 1e-6
        _, up, _ = polytope_law(d, 10.0, a + h)
        _, dn, _ = polytope_law(d, 10.0, a - h)
        num = (up - dn) / (2 * h)
        assert num == pytest.approx(polytope_limit_density(d, a), rel=1e-6)


def test_polytope_law_regime_guard():
    with pytest.raises(ValueError):
        polytope_law(3, 1.0, 2.5)


def test_bounds_monotone_in_inputs():
    base = thm_main_bound(0.1, 0.05, k=2)
    assert thm_main_bound(0.2, 0.05, k=2) >= base
    assert thm_main_bound(0.1, 0.06, k=2) >= base
    b_binom = thm_main_bound(0.1, 0.05, k=2, n=50, mass_l=1.0)
    assert thm_main_bound(0.1, 0.05, k=2, n=50, mass_l=2.0) >= b_binom
