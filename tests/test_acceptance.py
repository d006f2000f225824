"""Acceptance suite: one pass/fail line per criterion, A1-A11.

A scenario criterion runs one committed config at seed 42 (a file of
`configs/` or a suite of `cli.VERIFY_CONFIGS`) and its verdict is the
scenario's own summary, so it agrees with its CLI command (`pplab run
--config configs/<file>` or `pplab verify --suite <suite> --seed 42`) by
construction. Every threshold and tolerance lives in the program; this
module holds the table, the runtime budgets and the two criteria that are
not scenarios (A1 and A10).

Run `pytest tests/test_acceptance.py -v -s` to see every line, or
`-k A4 -s` for one criterion. The suite is deterministic: each block of
replications draws from a stream derived from (seed, stream ids, block
index), so results are bit-identical across runs and worker counts.
"""

import json
import time
from pathlib import Path

import numpy as np

from pplab import bounds as bnd
from pplab import cli, scenarios
from pplab.scenarios import ScenarioConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SEED = 42

# criterion -> (a file of configs/ or a suite of cli.VERIFY_CONFIGS, runtime budget in s)
CRITERIA = {
    "A2": ("mecke", 60.0),
    "A3": ("gilbert_edges.json", 300.0),
    "A4": ("gilbert_lengths.json", 300.0),
    "A5": ("distance_power.json", 300.0),
    "A6": ("gilbert_midpoints.json", 180.0),
    "A7": ("glauber", 180.0),
    "A8": ("polytope.json", 240.0),
    "A9": ("flats.json", 240.0),
    "A11": ("kr_identity.json", 120.0),
}


def _verdict(criterion: str, passed: bool, elapsed: float, budget: float):
    print(f"{criterion} {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"{criterion} failed"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.1f}s over budget {budget:.0f}s"


def _scenario_criterion(criterion: str):
    source, budget = CRITERIA[criterion]
    if source.endswith(".json"):
        data = json.loads((CONFIGS / source).read_text())
    else:
        data = cli.VERIFY_CONFIGS[source]
    start = time.perf_counter()
    result = scenarios.run(ScenarioConfig.from_dict({**data, "seed": SEED}))
    elapsed = time.perf_counter() - start
    print(f"\n{criterion}: {source} at seed {SEED}")
    cli._report(result)
    _verdict(criterion, result.passed, elapsed, budget)


def test_a1_ot_exactness():
    from pplab.verify_ot import run_ot_verification

    start = time.perf_counter()
    rep = run_ot_verification(seed=0, instances=200)
    elapsed = time.perf_counter() - start
    print(f"\n{rep['text']}")
    _verdict("A1", rep["passed"], elapsed, 10.0)


# The scenario criteria keep one named test each, so their test ids do not
# move with the table.
def test_a2_mecke_identities():
    _scenario_criterion("A2")


def test_a3_gilbert_edge_counts():
    _scenario_criterion("A3")


def test_a4_edge_length_compound_poisson():
    _scenario_criterion("A4")


def test_a5_stable_limit():
    _scenario_criterion("A5")


def test_a6_midpoint_process_kr():
    _scenario_criterion("A6")


def test_a7_glauber_suite():
    _scenario_criterion("A7")


def test_a8_polytope_diameter():
    _scenario_criterion("A8")


def test_a9_flats():
    _scenario_criterion("A9")


def test_a10_closed_form_identities():
    from scipy.special import erfc

    from pplab.geometry import (
        Domain,
        integrated_subspace_determinant,
        steiner_volume,
        subspace_determinant,
        unit_ball_volume,
    )
    from pplab.laws import LevyLaw
    from pplab.rng import derive_rng

    start = time.perf_counter()
    checks = []
    # ball-volume recursion
    checks.append(
        all(
            abs(unit_ball_volume(d) - 2 * np.pi / d * unit_ball_volume(d - 2))
            <= 1e-12 * unit_ball_volume(d)
            for d in range(3, 40)
        )
    )
    # Steiner polynomial: the unit square and the collapsing ball case
    checks.append(
        all(
            abs(steiner_volume(Domain("cube", 2), r) - (np.pi * r**2 + 4 * r + 1)) < 1e-10
            for r in (0.0, 0.25, 1.0)
        )
    )
    checks.append(
        all(
            abs(steiner_volume(Domain("ball", d, radius=0.8), r) - unit_ball_volume(d) * (0.8 + r) ** d)
            < 1e-10
            for d in (2, 3, 4)
            for r in (0.0, 0.5)
        )
    )
    # subspace determinant against the cross-product oracle
    rng = derive_rng(4242)
    sub_ok = True
    for _ in range(200):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        sub_ok &= abs(subspace_determinant([u], [v]) - np.linalg.norm(np.cross(u, v))) < 1e-10
    checks.append(sub_ok)
    # integrated determinant evaluations and the flats-constant identities,
    # among them A9's constant pi/4 for lines in R^3
    checks.append(abs(integrated_subspace_determinant(3, 1) - np.pi / 4) < 1e-10)
    checks.append(abs(integrated_subspace_determinant(2, 1) - 2 / np.pi) < 1e-10)
    checks.append(integrated_subspace_determinant(5, 0) == 1.0)
    checks.append(abs(bnd.flats_constant(3, 1) - np.pi / 4) < 1e-12)
    checks.append(
        all(
            abs(bnd.flats_constant(d, m) - bnd.flats_constant_via_grassmannian(d, m)) < 1e-10
            for d, m in ((3, 1), (5, 1), (5, 2), (7, 3))
        )
    )
    # Levy CDF against its density by numerical differentiation
    law = LevyLaw(scale=np.pi**3 / 8)
    xs = np.array([0.5, 2.0, 8.0, 30.0])
    h = 1e-6
    num = (law.cdf(xs + h) - law.cdf(xs - h)) / (2 * h)
    checks.append(float(np.max(np.abs(num - law.pdf(xs)) / law.pdf(xs))) < 1e-6)
    checks.append(abs(law.cdf(np.array([2.0]))[0] - erfc(np.sqrt(np.pi**3 / 32))) < 1e-12)
    elapsed = time.perf_counter() - start
    print(f"\n{len(checks)} identity groups (recursion, Steiner, determinants, flats constant, Levy)")
    _verdict("A10", all(checks), elapsed, 5.0)


def test_a11_mapping_theorem_kr():
    _scenario_criterion("A11")


def test_criteria_table_names_every_committed_config_once():
    sources = sorted(source for source, _ in CRITERIA.values())
    assert sources == sorted([p.name for p in CONFIGS.glob("*.json")] + list(cli.VERIFY_CONFIGS))
    # and each scenario criterion has its test above
    tested = {name.split("_")[1].upper() for name in globals() if name.startswith("test_a")}
    assert tested == {*CRITERIA, "A1", "A10"}
