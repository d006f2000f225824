"""Brute-force verification of the exact path of the empirical KR surrogate
on small instances.

Each instance draws two equally sized sides of configurations on a coarse
grid, so they hold empty configurations, atoms shared across sides and
multiplicities above one.  Two independent oracles check the two steps of
`metrics.empirical_kr`: each entry of `metrics._tv_cost_matrix` against the
supremum over subsets A of the pair's joint support of |a(A) - b(A)|, and
`metrics._assignment_cost` against enumeration of all permutations.  Both
must agree exactly.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations

import numpy as np

from . import metrics
from .rng import derive_rng


def permutation_ot_cost(cost: np.ndarray) -> float:
    """Exact optimum for uniform marginals on a square cost matrix, by
    enumerating every permutation."""
    n = len(cost)
    perms = np.array(list(permutations(range(n))))
    return int(cost[np.arange(n), perms].sum(axis=1).min()) / n


def subset_tv_cost(a: Counter, b: Counter) -> int:
    """sup over subsets A of the joint support of |a(A) - b(A)| for two
    configurations given as location -> multiplicity counters."""
    support = sorted(set(a) | set(b))
    gap = np.array([a[loc] - b[loc] for loc in support], dtype=np.int64)
    subsets = (np.arange(2 ** len(support))[:, None] >> np.arange(len(support))) & 1
    return int(np.abs(subsets @ gap).max())


def _random_side(rng: np.random.Generator, n: int, d: int):
    """n configurations of 0 to 4 points on the grid {0, 1, 2}^d."""
    counts = rng.integers(0, 5, size=n)
    return rng.integers(0, 3, size=(int(counts.sum()), d)).astype(float), counts


def _atoms(side) -> list[Counter]:
    points, counts = side
    return [Counter(map(tuple, p)) for p in np.split(points, np.cumsum(counts)[:-1])]


def run_ot_verification(seed: int = 0, instances: int = 200) -> dict:
    """Check the surrogate's cost matrix and assignment solver against both
    oracles on random small instances."""
    if instances < 1:
        raise ValueError(f"need at least 1 instance, got {instances}")
    rng = derive_rng(seed, 90_210)
    failures = entries = empty = shared = 0
    for _ in range(instances):
        n = int(rng.integers(1, 8))  # configurations per side
        d = int(rng.integers(1, 3))
        side_a, side_b = _random_side(rng, n, d), _random_side(rng, n, d)
        cost = metrics._tv_cost_matrix(side_a, side_b)
        oracle = np.array([[subset_tv_cost(a, b) for b in _atoms(side_b)] for a in _atoms(side_a)])
        cost_ok = cost.shape == oracle.shape and bool((cost == oracle).all())
        assignment_ok = metrics._assignment_cost(cost) == permutation_ot_cost(cost)
        failures += not (cost_ok and assignment_ok)
        entries += n * n
        empty += int((side_a[1] == 0).sum() + (side_b[1] == 0).sum())
        shared += int((oracle < np.maximum.outer(side_a[1], side_b[1])).sum())
    passed = failures == 0
    text = (
        f"ot verification: {instances} instances, {entries} cost entries "
        f"({shared} lowered by shared atoms), {empty} empty configurations; "
        f"cost matrix vs subset enumeration and assignment vs permutation enumeration "
        f"-> {'PASS' if passed else f'{failures} FAILURES'}"
    )
    return {
        "passed": passed,
        "cost_entries": entries,
        "shared_entries": shared,
        "empty_configs": empty,
        "text": text,
    }
