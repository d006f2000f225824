"""Spatial birth-death dynamics on [0, 1] whose invariant law is the Poisson
process with intensity ``mass`` times Lebesgue measure, and the checks the
``glauber-verify`` scenario runs on it.

Every kernel here is a block sampler for `rng.replicate_blocks`: it draws
``size`` independent replications from one generator, one array draw per
variate, and returns per-replication counts.  A run is observed through two
counts, the survivor total and the survivors in a window ``[lo, hi]``,
which is all the scenario's functionals read.

Two simulators are provided on purpose: the event-driven construction
(births at rate ``mass``, unit per-particle death rate) and the
closed-form time-s law (thin the start, superpose an independent Poisson
sample).  Each serves as the other's oracle.  On top of them,
``commutation_check`` compares the gradient of the evolved functional with
the evolved gradient, and ``ergodicity_check`` follows the count law to
the stationary Poisson law.
"""

from __future__ import annotations

import numpy as np

from .metrics import mean_gap, tv_against_poisson
from .rng import replicate_blocks


def _inside(locs: np.ndarray, window) -> np.ndarray:
    lo, hi = window
    return (lo <= locs) & (locs <= hi)


def _observe(start_kept: np.ndarray, start: np.ndarray, new_owner: np.ndarray, new_locs: np.ndarray,
             window, size: int) -> np.ndarray:
    """(size, 2) survivor total and window count per replication, from the
    kept start atoms (a (size, len(start)) count array) and the new atoms
    with the replication each belongs to."""
    total = start_kept.sum(axis=1) + np.bincount(new_owner, minlength=size)
    inside = (start_kept[:, _inside(start, window)].sum(axis=1)
              + np.bincount(new_owner[_inside(new_locs, window)], minlength=size))
    return np.column_stack((total, inside))


def _event_driven_survivors(n_initial: int, mass: float, s: float, rng, size: int):
    """One event-driven run per replication, counts only: whether each
    initial atom outlives s, a (size, n_initial) bool array, and the
    replication of every birth that is alive at s."""
    if s < 0:
        raise ValueError("horizon must be nonnegative")
    initial = rng.exponential(size=(size, n_initial)) >= s
    births = rng.poisson(mass * s, size=size)
    n = int(births.sum())
    ends = rng.uniform(0.0, s, size=n)
    ends += rng.exponential(size=n)
    # births are laid out replication by replication; only the survivors'
    # replications are looked up, so no per-birth index array is built
    return initial, np.searchsorted(np.cumsum(births), np.flatnonzero(ends >= s), side="right")


def survivor_count_event_driven(n_initial: int, mass: float, s: float, rng, size: int) -> np.ndarray:
    """Population size at time s of ``size`` event-driven runs from
    ``n_initial`` atoms."""
    initial, born = _event_driven_survivors(n_initial, mass, s, rng, size)
    return initial.sum(axis=1) + np.bincount(born, minlength=size)


def simulate_event_driven(start, mass: float, s: float, window, rng, size: int) -> np.ndarray:
    """Survivor total and window count at time s of ``size`` runs started
    from the atoms ``start``, as a (size, 2) array.

    Births arrive as a homogeneous Poisson process of rate mass on [0, s];
    every particle, initial or born, carries an independent unit-rate
    exponential lifetime.  The births alive at s are then placed uniformly
    on [0, 1] (placement is independent of survival).
    """
    start = np.asarray(start, dtype=float)
    initial, born = _event_driven_survivors(len(start), mass, s, rng, size)
    return _observe(initial, start, born, rng.uniform(size=len(born)), window, size)


def simulate_exact_law(start, mass: float, s: float, window, rng, size: int) -> np.ndarray:
    """The time-s law sampled directly, in the layout of
    ``simulate_event_driven``: keep each start atom with probability e^(-s)
    (binomial thinning of each location's multiplicity) and superpose a
    Poisson((1 - e^(-s)) * mass) sample of uniform locations."""
    if s < 0:
        raise ValueError("horizon must be nonnegative")
    keep_p = np.exp(-s)
    locs, mult = np.unique(np.asarray(start, dtype=float), return_counts=True)
    kept = rng.binomial(mult, keep_p, size=(size, len(mult)))
    n_new = rng.poisson((1.0 - keep_p) * mass, size=size)
    new_locs = rng.uniform(size=int(n_new.sum()))
    return _observe(kept, locs, np.repeat(np.arange(size), n_new), new_locs, window, size)


# Functionals of a state observed as (survivor total, window count), for
# ``commutation_check``; each is 1-Lipschitz in the added atom.

def total_count(total: np.ndarray, inside: np.ndarray) -> np.ndarray:
    return total.astype(float)


def capped_window_count(total: np.ndarray, inside: np.ndarray) -> np.ndarray:
    return np.minimum(inside, 10).astype(float)


def window_occupancy(total: np.ndarray, inside: np.ndarray) -> np.ndarray:
    return (inside >= 1).astype(float)


def _gradient(phi, counts: np.ndarray, y_inside: int) -> np.ndarray:
    """phi(state + atom at y) - phi(state), per replication."""
    total, inside = counts[:, 0], counts[:, 1]
    return phi(total + 1, inside + y_inside) - phi(total, inside)


def _commutation_lhs(start, y, phi, mass, s, window, rng, size) -> np.ndarray:
    """Gradient of the evolved functional: the extra atom at y shares the
    run and counts only while its own unit-rate lifetime lasts."""
    counts = simulate_event_driven(start, mass, s, window, rng, size)
    extra_alive = rng.exponential(size=size) >= s
    return np.where(extra_alive, _gradient(phi, counts, int(_inside(y, window))), 0.0)


def _commutation_rhs(start, y, phi, mass, s, window, rng, size) -> np.ndarray:
    """Evolved gradient: e^(-s) times the added-atom increment at time s."""
    counts = simulate_event_driven(start, mass, s, window, rng, size)
    return np.exp(-s) * _gradient(phi, counts, int(_inside(y, window)))


def commutation_check(start, y: float, phi, mass: float, s: float, window,
                      reps: int, rng_seed: int) -> tuple[float, float, float]:
    """Compare the gradient of the evolved functional with the evolved gradient.

    ``phi`` is one of the module's functionals.  The left side runs on
    block stream (rng_seed, 0), the right side on (rng_seed, 1), ``reps``
    replications each.  Returns (lhs, rhs, pooled standard error).
    """
    if reps < 2:
        raise ValueError(f"need at least 2 replications for a standard error, got {reps}")
    args = (start, y, phi, mass, s, window)
    lhs = replicate_blocks(_commutation_lhs, args, reps, rng_seed, 0)
    rhs = replicate_blocks(_commutation_rhs, args, reps, rng_seed, 1)
    return mean_gap(lhs, rhs)


def ergodicity_check(n_initial: int, mass: float, s_grid, reps: int,
                     rng_seed: int) -> list[tuple[float, float, np.ndarray]]:
    """Per horizon s, (s, TV, counts): the total variation between the
    empirical count law of the event-driven state started from
    ``n_initial`` atoms and the Poisson(mass) stationary count law, and the
    ``reps`` survivor counts it was measured on.  Horizon j draws from
    block stream (rng_seed, j)."""
    s_grid = list(s_grid)
    if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
        raise ValueError("horizon grid must be strictly increasing")
    out = []
    for j, s in enumerate(s_grid):
        args = (n_initial, mass, s)
        counts = replicate_blocks(survivor_count_event_driven, args, reps, rng_seed, j)
        out.append((float(s), tv_against_poisson(counts, mass), counts))
    return out
