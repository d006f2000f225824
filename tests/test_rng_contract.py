"""Block b of a Monte Carlo draws from the stream derived from
(seed, stream ids, b), where a block is one replication for
``rng.replicate`` and ``rng.BLOCK`` replications for
``rng.replicate_blocks``; the driver behind both is the one place that
builds those addresses and fans them out over the process pool.  A loop
over ``range(...)`` anywhere else in the package that hands its loop
variable to ``derive_rng`` is a second copy of that contract, and fails
here.  Loops over an intensity or horizon grid that derive one stream per
grid point are not replication loops and are not flagged.  A scenario on
stream addresses (seed, scenario-local id, b) draws no two streams of a
run from one address and shares none with the run of the next seed.
"""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pplab import scenarios
from pplab.geometry import Domain
from pplab.rng import BLOCK, derive_rng, replicate_blocks
from pplab.scenarios import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pplab").glob("*.py"))

# "module.function" -> why its loop keeps its own streams
ALLOWED = {}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _calls_range(node) -> bool:
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "range"
        for n in ast.walk(node)
    )


def _derives_from(nodes, loop_vars: set[str]) -> bool:
    for node in nodes:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "derive_rng" and any(_names(a) & loop_vars for a in call.args):
                return True
    return False


def _replication_loops(tree) -> list[tuple[str, int]]:
    """(enclosing function, line) of every range loop whose variable feeds derive_rng."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.For) and _calls_range(node.iter):
            if _derives_from(node.body, _names(node.target)):
                hits.append((func, node.lineno))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            loop_vars = {v for gen in node.generators if _calls_range(gen.iter)
                         for v in _names(gen.target)}
            elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            if loop_vars and _derives_from(elts, loop_vars):
                hits.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return hits


def stray_replication_loops(paths=PACKAGE) -> list[str]:
    return [
        f"{path.stem}.{func}:{line}"
        for path in paths
        if path.name != "rng.py"
        for func, line in _replication_loops(ast.parse(path.read_text()))
        if f"{path.stem}.{func}" not in ALLOWED
    ]


def test_replication_streams_only_in_rng_replicate():
    stray = stray_replication_loops()
    assert not stray, f"loops that derive per-replication streams outside rng.replicate: {stray}"


def test_allowed_loops_still_exist():
    found = {
        f"{path.stem}.{func}"
        for path in PACKAGE
        for func, _ in _replication_loops(ast.parse(path.read_text()))
    }
    assert set(ALLOWED) <= found, "an allow-listed loop is gone; drop it from ALLOWED"


def test_guard_flags_a_hand_written_loop(tmp_path):
    src = tmp_path / "scenarios.py"
    src.write_text(
        "def run(seed, reps):\n"
        "    out = []\n"
        "    for i in range(reps):\n"
        "        out.append(derive_rng(seed, 3, i).random())\n"
        "    return out + [derive_rng(seed, j) for j in range(reps)]\n"
        "def grid(seed, ts):\n"
        "    return [derive_rng(seed, 9, idx) for idx, _ in enumerate(ts)]\n"
    )
    assert stray_replication_loops([src]) == ["scenarios.run:3", "scenarios.run:5"]


def _scaled_uniform_block(scale, rng, size):
    return scale * rng.random(size)


def test_block_driver_is_the_block_concatenation(monkeypatch):
    # two full blocks and a partial one, each from its own block stream
    reps = 2 * BLOCK + 17
    sizes = [BLOCK, BLOCK, 17]
    expected = np.concatenate(
        [_scaled_uniform_block(2.0, derive_rng(11, 5, b), size) for b, size in enumerate(sizes)]
    )
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    assert np.array_equal(replicate_blocks(_scaled_uniform_block, (2.0,), reps, 11, 5), expected)
    monkeypatch.setenv("PPLAB_THREADS", "2")
    assert np.array_equal(replicate_blocks(_scaled_uniform_block, (2.0,), reps, 11, 5), expected)
    assert np.array_equal(replicate_blocks(_scaled_uniform_block, (2.0,), 5, 11, 5), expected[:5])


def test_glauber_rows_identical_for_any_worker_count(monkeypatch):
    reps = 2 * BLOCK + 17
    cfg = ScenarioConfig(scenario="glauber-verify", d=1, t_grid=(1.0,), reps=reps, seed=9,
                         params={"s_grid": [0.5, 8.0], "commutation_reps": reps})
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    serial = scenarios.run(cfg)
    monkeypatch.setenv("PPLAB_THREADS", "2")
    pooled = scenarios.run(cfg)
    assert [repr(r) for r in pooled.rows] == [repr(r) for r in serial.rows]


@pytest.mark.parametrize("domain", [Domain("cube", 2), Domain("sphere", 3)], ids=["uniform", "standard_normal"])
def test_block_points_in_runs_equal_one_whole_draw(domain):
    # a block draws its counts, then its points run by run from the same
    # generator; that is the same bits as one whole-block draw
    runs = []

    def keep_run(pts, counts):
        runs.append((counts, pts))
        return np.zeros(len(counts))

    assert len(scenarios._block_stat(domain, 100.0, keep_run, (), derive_rng(17, 0), BLOCK)) == BLOCK
    assert len(runs) > 10
    rng = derive_rng(17, 0)
    counts = rng.poisson(100.0, BLOCK)
    assert np.array_equal(np.concatenate([c for c, _ in runs]), counts)
    assert np.array_equal(np.concatenate([p for _, p in runs]), domain.sample(rng, counts.sum()))
    assert all(len(p) == c.sum() for c, p in runs)


# the scenarios that draw through rng.replicate_blocks, at small sizes
BLOCK_CONFIGS = {
    "gilbert-edges": dict(d=2, t_grid=(15.0,)),
    "gilbert-lengths": dict(d=2, t_grid=(15.0,), params={"cells": 16}),
    "distance-power": dict(d=2, t_grid=(15.0,)),
    "polytope": dict(d=3, t_grid=(20.0,)),
    "flats": dict(d=3, t_grid=(5.0,), params={"constant_mc_samples": 200}),
    "mecke-verify": dict(d=2, t_grid=(10.0,), params={"n": 10}),
}


@pytest.mark.parametrize("scenario", BLOCK_CONFIGS)
def test_block_scenario_rows_identical_for_any_worker_count(monkeypatch, scenario):
    # two full blocks and a partial one, so the pool splits across blocks
    cfg = ScenarioConfig(scenario=scenario, reps=2 * BLOCK + 17, seed=9, **BLOCK_CONFIGS[scenario])
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    serial = scenarios.run(cfg)
    monkeypatch.setenv("PPLAB_THREADS", "2")
    pooled = scenarios.run(cfg)
    assert [repr(r) for r in pooled.rows] == [repr(r) for r in serial.rows]
    assert json.dumps(pooled.summary, default=str) == json.dumps(serial.summary, default=str)


ADDRESS_CONFIGS = {
    "flats": dict(d=3, t_grid=(2.0, 4.0), reps=BLOCK + 5, params={"constant_mc_samples": 200}),
    "mecke-verify": dict(d=2, t_grid=(10.0,), reps=BLOCK + 5, params={"n": 10}),
}


def _addresses(monkeypatch, cfg) -> list[tuple]:
    """Every (seed, *stream) address that a serial run of cfg draws from,
    logged in each pplab module that holds ``derive_rng``."""
    seen = []

    def logged(seed, *stream):
        seen.append((seed, *stream))
        return derive_rng(seed, *stream)

    for name, module in list(sys.modules.items()):
        if name.startswith("pplab") and getattr(module, "derive_rng", None) is derive_rng:
            monkeypatch.setattr(module, "derive_rng", logged)
    monkeypatch.delenv("PPLAB_THREADS", raising=False)
    scenarios.run(cfg)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("scenario", ADDRESS_CONFIGS)
def test_stream_addresses_are_distinct_within_a_run_and_across_seeds(monkeypatch, scenario):
    runs = [_addresses(monkeypatch, ScenarioConfig(scenario=scenario, seed=s, **ADDRESS_CONFIGS[scenario]))
            for s in (9, 10)]
    for seen in runs:
        assert len(seen) > 2
        assert len(set(seen)) == len(seen), "two draws of one run share an address"
    assert not set(runs[0]) & set(runs[1]), "seeds s and s + 1 share an address"
