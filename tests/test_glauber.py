import numpy as np
import pytest

from pplab.configuration import Configuration
from pplab.geometry import Domain
from pplab.glauber import (
    TargetIntensity,
    commutation_check,
    ergodicity_check,
    estimate_semigroup,
    simulate_event_driven,
    simulate_exact_law,
    survivor_count_event_driven,
)
from pplab.metrics import EmpiricalDistribution, tv_against_poisson, tv_integer
from pplab.rng import derive_rng

DOM = Domain("cube", 1)
TARGET = TargetIntensity.from_domain(DOM, scale=5.0)
OMEGA = Configuration.from_points([0.2, 0.5, 0.9], space=DOM.space_tag)
EMPTY = Configuration(space=DOM.space_tag)


def test_s0_returns_initial_state():
    assert simulate_event_driven(OMEGA, TARGET, 0.0, derive_rng(1)) == OMEGA
    assert simulate_exact_law(OMEGA, TARGET, 0.0, derive_rng(1)) == OMEGA


def test_empty_start_counts_poisson():
    reps = 40_000
    s = 0.7
    counts = np.array(
        [survivor_count_event_driven(0, TARGET.mass, s, derive_rng(2, i)) for i in range(reps)]
    )
    lam = (1 - np.exp(-s)) * TARGET.mass
    assert tv_against_poisson(counts, lam) < 0.02


def test_initial_particle_survival_probability():
    reps = 100_000
    s = 0.8
    survived = np.empty(reps)
    single = Configuration.from_points([0.5], space=DOM.space_tag)
    for i in range(reps):
        g = simulate_event_driven(single, TARGET, s, derive_rng(3, i))
        survived[i] = g.atoms.get(0.5, 0) >= 1
    p = survived.mean()
    se = np.sqrt(p * (1 - p) / reps)
    assert abs(p - np.exp(-s)) < 3 * se


def test_two_simulators_same_count_law():
    reps = 30_000
    ed = np.empty(reps, dtype=int)
    ex = np.empty(reps, dtype=int)
    for i in range(reps):
        ed[i] = simulate_event_driven(OMEGA, TARGET, 1.0, derive_rng(4, i)).total()
        ex[i] = simulate_exact_law(OMEGA, TARGET, 1.0, derive_rng(5, i)).total()
    tv = tv_integer(
        EmpiricalDistribution.from_counts(ed), EmpiricalDistribution.from_counts(ex)
    )
    assert tv < 0.03


def test_exact_law_large_s_is_fresh_poisson():
    reps = 30_000
    counts = np.array(
        [simulate_exact_law(OMEGA, TARGET, 40.0, derive_rng(6, i)).total() for i in range(reps)]
    )
    assert tv_against_poisson(counts, TARGET.mass) < 0.02


def test_cross_simulator_mean_functionals():
    # window-count functional under three (s, mass) settings
    for seed, (s, mass) in enumerate([(0.5, 2.0), (1.0, 5.0), (2.0, 8.0)]):
        target = TargetIntensity.from_domain(DOM, scale=mass)
        h = lambda w: float(min(w.count_interval(0.0, 0.4), 10))
        reps = 4000
        ed = np.empty(reps)
        ex = np.empty(reps)
        for i in range(reps):
            ed[i] = h(simulate_event_driven(OMEGA, target, s, derive_rng(7 + seed, i)))
            ex[i] = h(simulate_exact_law(OMEGA, target, s, derive_rng(17 + seed, i)))
        pooled = np.sqrt(ed.var(ddof=1) / reps + ex.var(ddof=1) / reps)
        assert abs(ed.mean() - ex.mean()) < 3 * pooled


def test_semigroup_trivial_cases():
    h = lambda w: float(w.total())
    val, se = estimate_semigroup(OMEGA, h, TARGET, 0.0, 100, 8)
    assert val == 3.0 and se == 0.0
    mean, se = estimate_semigroup(EMPTY, h, TARGET, 1.0, 20_000, 9)
    lam = (1 - np.exp(-1.0)) * TARGET.mass
    assert abs(mean - lam) < 3 * se


def test_semigroup_warns_on_lipschitz_violation():
    bad = lambda w: 5.0 * w.total()
    with pytest.warns(UserWarning):
        estimate_semigroup(OMEGA, bad, TARGET, 0.5, 10, 10)


def test_commutation_s0_exact():
    h = lambda w: float(w.total())
    lhs, rhs, pooled = commutation_check(OMEGA, 0.3, h, TARGET, 0.0, 10, 11)
    assert lhs == rhs == 1.0 and pooled == 0.0


@pytest.mark.parametrize("reps", [0, 1])
def test_commutation_needs_two_reps(reps):
    h = lambda w: float(w.total())
    with pytest.raises(ValueError, match="at least 2 replications"):
        commutation_check(OMEGA, 0.3, h, TARGET, 1.0, reps, 12)


def test_commutation_count_functional():
    # for the count, the left side is exactly e^{-s} in expectation and the
    # right side is e^{-s} deterministically
    h = lambda w: float(w.total())
    lhs, rhs, pooled = commutation_check(OMEGA, 0.3, h, TARGET, 1.0, 30_000, 12)
    assert rhs == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert abs(lhs - rhs) < 3 * pooled


def test_commutation_capped_functional():
    h = lambda w: float(w.count_interval(0.0, 0.5) >= 1)
    lhs, rhs, pooled = commutation_check(OMEGA, 0.3, h, TARGET, 0.7, 30_000, 13)
    assert abs(lhs - rhs) < 3 * pooled


def test_coupling_bound_for_count():
    # adding extra atoms moves the evolved count mean by (extra count) e^{-s}
    s = 0.6
    extra = Configuration.from_points([0.1, 0.3], space=DOM.space_tag)
    omega_big = OMEGA.merge(extra)
    reps = 40_000
    a = np.empty(reps)
    b = np.empty(reps)
    for i in range(reps):
        a[i] = simulate_event_driven(omega_big, TARGET, s, derive_rng(14, i)).total()
        b[i] = simulate_event_driven(OMEGA, TARGET, s, derive_rng(15, i)).total()
    gap = a.mean() - b.mean()
    pooled = np.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
    assert gap <= 2 * np.exp(-s) + 3 * pooled
    assert abs(gap - 2 * np.exp(-s)) < 3 * pooled


def test_ergodicity_decreases_and_converges():
    table = ergodicity_check(EMPTY, TARGET, (0.5, 1.0, 2.0, 4.0, 8.0), 30_000, 16)
    tvs = [tv for _, tv in table]
    assert all(b <= a + 0.01 for a, b in zip(tvs, tvs[1:]))
    assert tvs[-1] < 0.03


def test_ergodicity_s0_closed_form():
    # from the empty start at s = 0 the count law is a point mass at zero
    counts = np.zeros(100, dtype=int)
    tv = tv_against_poisson(counts, TARGET.mass)
    assert tv == pytest.approx(1 - np.exp(-TARGET.mass), abs=1e-9)


def test_invariance_poisson_start():
    # a stationary start stays Poisson(mass) at any s
    reps = 30_000
    s = 0.9
    counts = np.empty(reps, dtype=int)
    for i in range(reps):
        rng = derive_rng(18, i)
        n0 = rng.poisson(TARGET.mass)
        counts[i] = survivor_count_event_driven(n0, TARGET.mass, s, rng)
    assert tv_against_poisson(counts, TARGET.mass) < 0.02


def test_trajectory_log_consistency():
    final, log = simulate_event_driven(OMEGA, TARGET, 1.5, derive_rng(19), trajectory=True)
    times = [t for t, _, _ in log.events]
    assert times == sorted(times)
    assert all(t <= 1.5 for t in times)
    births = sum(1 for _, kind, _ in log.events if kind == "birth")
    deaths = sum(1 for _, kind, _ in log.events if kind == "death")
    assert log.initial.total() + births - deaths == final.total()
    assert log.final == final
