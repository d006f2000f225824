"""Brute-force verification of the exact transport solver on small instances.

Two independent oracles: assignment enumeration over permutations for
uniform square problems, and enumeration of all spanning-tree basic
solutions of the transportation polytope for general marginals.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from .metrics import ot_exact
from .rng import derive_rng


def permutation_ot_cost(cost: np.ndarray) -> float:
    """Exact optimum for uniform marginals on a square cost matrix."""
    n = cost.shape[0]
    best = np.inf
    for p in permutations(range(n)):
        val = sum(cost[i, p[i]] for i in range(n)) / n
        best = min(best, val)
    return float(best)


def tree_vertex_ot_cost(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Minimum over all basic feasible solutions (spanning-tree supports)."""
    n, m = cost.shape
    all_edges = [(i, j) for i in range(n) for j in range(m)]
    best = np.inf
    need = n + m - 1
    for edge_set in combinations(range(len(all_edges)), need):
        edges = [all_edges[k] for k in edge_set]
        if not _is_spanning_tree(n, m, edges):
            continue
        flows = _solve_tree(n, m, edges, mu, nu)
        if flows is None or min(flows) < -1e-12:
            continue
        val = sum(f * cost[i, j] for f, (i, j) in zip(flows, edges))
        best = min(best, val)
    return float(best)


def _is_spanning_tree(n, m, edges) -> bool:
    parent = list(range(n + m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        a, b = find(i), find(n + j)
        if a == b:
            return False
        parent[a] = b
    root = find(0)
    return all(find(v) == root for v in range(n + m))


def _solve_tree(n, m, edges, mu, nu):
    # balance[v]: remaining supply (rows positive, columns negative)
    balance = list(mu) + [-v for v in nu]
    adj = {v: set() for v in range(n + m)}
    for e_idx, (i, j) in enumerate(edges):
        adj[i].add(e_idx)
        adj[n + j].add(e_idx)
    endpoints = [(i, n + j) for i, j in edges]
    flows = [0.0] * len(edges)
    order = [v for v in range(n + m) if len(adj[v]) == 1]
    alive = [True] * (n + m)
    while order:
        v = order.pop()
        if not alive[v] or not adj[v]:
            alive[v] = False
            continue
        e_idx = next(iter(adj[v]))
        a, b = endpoints[e_idx]
        w = b if v == a else a
        # the edge must carry v's whole remaining balance
        f = balance[v] if v < n else -balance[v]
        flows[e_idx] = f
        balance[v] = 0.0
        balance[w] -= f if w < n else -f
        adj[v].discard(e_idx)
        adj[w].discard(e_idx)
        alive[v] = False
        if len(adj[w]) == 1:
            order.append(w)
    return flows


def run_ot_verification(seed: int = 0, instances: int = 200) -> dict:
    """Compare the LP solver against both oracles on random small instances."""
    if instances < 1:
        raise ValueError(f"need at least 1 instance, got {instances}")
    rng = derive_rng(seed, 90_210)
    max_cost_err = 0.0
    max_gap = 0.0
    max_slack = 0.0
    failures = 0
    for trial in range(instances):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        cost = rng.uniform(size=(n, m))
        if trial % 2 == 0 and n == m:
            mu = np.full(n, 1.0 / n)
            nu = np.full(m, 1.0 / m)
            oracle = permutation_ot_cost(cost)
        else:
            mu = rng.uniform(0.1, 1.0, size=n)
            nu = rng.uniform(0.1, 1.0, size=m)
            nu *= mu.sum() / nu.sum()
            oracle = tree_vertex_ot_cost(cost, mu, nu)
        plan = ot_exact(cost, mu, nu)
        err = abs(plan.cost - oracle)
        max_cost_err = max(max_cost_err, err)
        max_gap = max(max_gap, plan.duality_gap)
        max_slack = max(max_slack, plan.slackness_residual)
        if err > 1e-9 or plan.duality_gap > 1e-8:
            failures += 1
    passed = failures == 0
    text = (
        f"ot verification: {instances} instances, max |cost - oracle| = {max_cost_err:.3e}, "
        f"max duality gap = {max_gap:.3e}, max slackness residual = {max_slack:.3e} "
        f"-> {'PASS' if passed else f'{failures} FAILURES'}"
    )
    return {
        "passed": passed,
        "max_cost_err": max_cost_err,
        "max_gap": max_gap,
        "max_slack": max_slack,
        "text": text,
    }
