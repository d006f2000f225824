import numpy as np
import pytest
from scipy.stats import chi2

from oracles import count_law_pmf, simulate_event_driven_config, simulate_exact_law_config
from pplab import glauber
from pplab.configuration import Configuration
from pplab.geometry import Domain
from pplab.glauber import (
    capped_window_count,
    commutation_check,
    ergodicity_check,
    simulate_event_driven,
    simulate_exact_law,
    survivor_count_event_driven,
    total_count,
    window_occupancy,
)
from pplab.metrics import mean_gap, tv_against_poisson, tv_integer
from pplab.rng import derive_rng, replicate, replicate_blocks

DOM = Domain("cube", 1)
MASS = 5.0
START = np.array([0.2, 0.5, 0.9])
EMPTY = np.empty(0)
WINDOW = (0.0, 0.3)
SAMPLERS = (simulate_event_driven, simulate_exact_law)
ORACLES = (simulate_event_driven_config, simulate_exact_law_config)


def _counts(sampler, start, s, reps, seed, mass=MASS, window=WINDOW):
    """(reps, 2) survivor totals and window counts from a block sampler."""
    return replicate_blocks(sampler, (start, mass, s, window), reps, seed)


def _fit_pvalue(counts, pmf) -> float:
    """Pearson goodness of fit of integer draws to a pmf on 0..K; neighbouring
    cells are pooled until each expects 5 draws, and the last cell takes the
    mass and the draws beyond K."""
    n = counts.size
    kmax = len(pmf) - 1
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1).astype(float)
    expected = n * pmf
    expected[-1] += n * max(1.0 - pmf.sum(), 0.0)
    cells, o, e = [], 0.0, 0.0
    for ok, ek in zip(observed, expected):
        o, e = o + ok, e + ek
        if e >= 5:
            cells.append([o, e])
            o = e = 0.0
    cells[-1][0] += o
    cells[-1][1] += e
    obs, exp = np.array(cells).T
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), len(cells) - 1))


@pytest.mark.parametrize("start", [START, EMPTY], ids=["omega0", "empty"])
@pytest.mark.parametrize("s", [0.5, 1.0, 8.0])
@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
def test_block_samplers_follow_exact_count_law(sampler, s, start):
    # Binomial(n0, e^-s) * Poisson(m (1 - e^-s)) for the total, and the same
    # form with the start atoms in the window and mass m |A| for the window
    seed = 300 + 100 * SAMPLERS.index(sampler) + int(10 * s) + len(start)
    counts = _counts(sampler, start, s, 20_000, seed)
    in_window = int(((WINDOW[0] <= start) & (start <= WINDOW[1])).sum())
    total_pmf = count_law_pmf(len(start), MASS, s, 40)
    window_pmf = count_law_pmf(in_window, MASS * (WINDOW[1] - WINDOW[0]), s, 40)
    assert _fit_pvalue(counts[:, 0], total_pmf) > 1e-3
    assert _fit_pvalue(counts[:, 1], window_pmf) > 1e-3


def test_count_law_fit_rejects_death_rate_105():
    # death rate 1.05 is, by a time change, the unit-rate law at 1.05 s with
    # the birth mass divided by 1.05
    for sampler in SAMPLERS:
        counts = _counts(sampler, START, 1.05, 20_000, 301, mass=MASS / 1.05)
        assert _fit_pvalue(counts[:, 0], count_law_pmf(3, MASS, 1.0, 40)) < 1e-6


def _oracle_counts(oracle, omega, s, rng):
    state = oracle(omega, MASS, s, rng)
    return state.total(), state.count_interval(*WINDOW)


@pytest.mark.parametrize("idx", [0, 1], ids=["event-driven", "exact-law"])
def test_block_samplers_match_oracle_simulators(idx):
    s, reps = 1.0, 4000
    omega = Configuration.from_points(START, space=DOM.space_tag)
    oracle = np.array(replicate(_oracle_counts, (ORACLES[idx], omega, s), reps, 40 + idx))
    block = _counts(SAMPLERS[idx], START, s, 40_000, 50 + idx)
    for col, n0 in ((0, 3), (1, 1)):
        mass = MASS * (1.0 if col == 0 else WINDOW[1] - WINDOW[0])
        assert _fit_pvalue(oracle[:, col], count_law_pmf(n0, mass, s, 40)) > 1e-3
        a, b = oracle[:, col], block[:, col]
        pooled = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(a.mean() - b.mean()) < 3 * pooled


def test_s0_returns_initial_state():
    omega = Configuration.from_points(START, space=DOM.space_tag)
    assert simulate_event_driven_config(omega, MASS, 0.0, derive_rng(1)) == omega
    assert simulate_exact_law_config(omega, MASS, 0.0, derive_rng(1)) == omega
    for sampler in SAMPLERS:
        assert _counts(sampler, START, 0.0, 7, 1).tolist() == [[3, 1]] * 7


def test_empty_start_counts_poisson():
    s = 0.7
    counts = survivor_count_event_driven(0, MASS, s, derive_rng(2), 40_000)
    lam = (1 - np.exp(-s)) * MASS
    assert tv_against_poisson(counts, lam) < 0.02


def test_initial_particle_survival_probability():
    # a window that is the single start atom counts whether it survived:
    # births land on it with probability 0
    reps = 100_000
    s = 0.8
    for seed, sampler in enumerate(SAMPLERS, start=3):
        survived = _counts(sampler, np.array([0.5]), s, reps, seed, window=(0.5, 0.5))[:, 1]
        assert survived.max() == 1
        p = survived.mean()
        se = np.sqrt(p * (1 - p) / reps)
        assert abs(p - np.exp(-s)) < 3 * se


def test_two_simulators_same_count_law():
    ed = _counts(simulate_event_driven, START, 1.0, 30_000, 4)
    ex = _counts(simulate_exact_law, START, 1.0, 30_000, 5)
    assert tv_integer(ed[:, 0], ex[:, 0]) < 0.03
    assert tv_integer(ed[:, 1], ex[:, 1]) < 0.03


def test_exact_law_large_s_is_fresh_poisson():
    counts = _counts(simulate_exact_law, START, 40.0, 30_000, 6)[:, 0]
    assert tv_against_poisson(counts, MASS) < 0.02


def test_cross_simulator_mean_functionals():
    # capped count in the window [0, 0.4] under three (s, mass) settings
    for seed, (s, mass) in enumerate([(0.5, 2.0), (1.0, 5.0), (2.0, 8.0)]):
        reps = 4000
        ed = np.minimum(_counts(simulate_event_driven, START, s, reps, 7 + seed, mass, (0.0, 0.4))[:, 1], 10)
        ex = np.minimum(_counts(simulate_exact_law, START, s, reps, 17 + seed, mass, (0.0, 0.4))[:, 1], 10)
        pooled = np.sqrt(ed.var(ddof=1) / reps + ex.var(ddof=1) / reps)
        assert abs(ed.mean() - ex.mean()) < 3 * pooled


def test_semigroup_trivial_cases():
    # the count semigroup is the identity at s = 0 and has mean
    # (1 - e^-s) * mass from the empty start
    assert survivor_count_event_driven(3, MASS, 0.0, derive_rng(8), 5).tolist() == [3] * 5
    reps = 20_000
    counts = _counts(simulate_event_driven, EMPTY, 1.0, reps, 9)[:, 0]
    lam = (1 - np.exp(-1.0)) * MASS
    assert abs(counts.mean() - lam) < 3 * counts.std(ddof=1) / np.sqrt(reps)


def test_commutation_s0_exact():
    lhs, rhs, pooled = commutation_check(START, 0.3, total_count, MASS, 0.0, WINDOW, 10, 11)
    assert lhs == rhs == 1.0 and pooled == 0.0


@pytest.mark.parametrize("reps", [0, 1])
def test_commutation_needs_two_reps(reps):
    with pytest.raises(ValueError, match="at least 2 replications"):
        commutation_check(START, 0.3, total_count, MASS, 1.0, WINDOW, reps, 12)


def test_commutation_count_functional():
    # for the count, the left side is exactly e^{-s} in expectation and the
    # right side is e^{-s} deterministically
    lhs, rhs, pooled = commutation_check(START, 0.3, total_count, MASS, 1.0, WINDOW, 30_000, 12)
    assert rhs == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert abs(lhs - rhs) < 3 * pooled


def test_commutation_capped_functional():
    for phi in (window_occupancy, capped_window_count):
        lhs, rhs, pooled = commutation_check(START, 0.15, phi, MASS, 0.7, WINDOW, 30_000, 13)
        assert pooled > 0
        assert abs(lhs - rhs) < 3 * pooled


def _lhs_immortal_extra(start, y, phi, mass, s, window, rng, size):
    """Left side whose extra particle never dies: the gradient unthinned."""
    counts = simulate_event_driven(start, mass, s, window, rng, size)
    return glauber._gradient(phi, counts, int(glauber._inside(y, window)))


def _lhs_death_rate(rate, start, y, phi, mass, s, window, rng, size):
    """Left side of dynamics whose particles die at ``rate``: by a time change,
    the unit-rate dynamics run to rate * s with birth mass divided by rate."""
    counts = simulate_event_driven(start, mass / rate, rate * s, window, rng, size)
    extra_alive = rng.exponential(size=size) >= rate * s
    return np.where(extra_alive, glauber._gradient(phi, counts, int(glauber._inside(y, window))), 0.0)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_commutation_rejects_broken_left_sides(s):
    # the 3-sigma rule of the scenario at the acceptance size, 100 000
    # replications per side; a death-rate error moves only the count
    # functional's side by more than the noise
    reps = 100_000
    args = (START, 0.15, total_count, MASS, s, WINDOW)
    rhs = replicate_blocks(glauber._commutation_rhs, args, reps, 21, 1)
    for lhs_fn, lhs_args in ((_lhs_immortal_extra, args), (_lhs_death_rate, (1.05, *args))):
        lhs, rhs_mean, pooled = mean_gap(replicate_blocks(lhs_fn, lhs_args, reps, 21, 0), rhs)
        assert abs(lhs - rhs_mean) >= 3 * pooled, lhs_fn.__name__
    # the same streams with the unit death rate pass
    lhs, rhs_mean, pooled = mean_gap(
        replicate_blocks(_lhs_death_rate, (1.0, *args), reps, 21, 0), rhs
    )
    assert abs(lhs - rhs_mean) < 3 * pooled


def test_coupling_bound_for_count():
    # adding extra atoms moves the evolved count mean by (extra count) e^{-s}
    s = 0.6
    reps = 40_000
    a = _counts(simulate_event_driven, np.concatenate([START, [0.1, 0.3]]), s, reps, 14)[:, 0]
    b = _counts(simulate_event_driven, START, s, reps, 15)[:, 0]
    gap = a.mean() - b.mean()
    pooled = np.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
    assert gap <= 2 * np.exp(-s) + 3 * pooled
    assert abs(gap - 2 * np.exp(-s)) < 3 * pooled


def test_ergodicity_decreases_and_converges():
    table = ergodicity_check(0, MASS, (0.5, 1.0, 2.0, 4.0, 8.0), 30_000, 16)
    tvs = [tv for _, tv, _ in table]
    assert all(b <= a + 0.01 for a, b in zip(tvs, tvs[1:]))
    assert tvs[-1] < 0.03


def test_ergodicity_s0_closed_form():
    # from the empty start at s = 0 the count law is a point mass at zero
    counts = np.zeros(100, dtype=int)
    tv = tv_against_poisson(counts, MASS)
    assert tv == pytest.approx(1 - np.exp(-MASS), abs=1e-9)


def test_invariance_poisson_start():
    # a stationary start stays Poisson(mass) at any s; the replications
    # are grouped by their Poisson start size
    reps = 30_000
    s = 0.9
    rng = derive_rng(18)
    n0 = rng.poisson(MASS, size=reps)
    counts = np.concatenate([
        survivor_count_event_driven(int(k), MASS, s, rng, int((n0 == k).sum()))
        for k in np.unique(n0)
    ])
    assert tv_against_poisson(counts, MASS) < 0.02
