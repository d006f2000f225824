"""Correctness gate for one scenario run (one benchmark operation).

A run fails when it raises, when the row keys it emits are not exactly
the recorded keys of its scenario (one row each, none missing, none extra),
or when any row it emits has a non-finite ``distance`` or ``stderr``,
leaves its mathematical range (TV and Kolmogorov distances in [0, 1], every
distance and stderr >= 0), or moves from the recorded reference mean by
more than ``TOLERANCE_SIGMAS`` sigma.

The scenarios' own ``passed`` verdicts are recorded but not gated: their
thresholds are calibrated for the acceptance replication counts, not for
the reduced sizes the benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

TOLERANCE_SIGMAS = 6.0
UNIT_INTERVAL = ("tv", "kolmogorov")  # distance_name prefixes of distances bounded by 1


def row_key(row: dict) -> str:
    """What identifies a row across seeds: everything but the estimates."""
    return f"{row['scenario']}|{int(row['d'])}|{float(row['t'])!r}|{row['statistic']}|{row['distance_name']}"


def expected_keys(stats: dict) -> dict[str, set[str]]:
    """Recorded row keys by scenario name (a workload names each scenario once)."""
    out: dict[str, set[str]] = {}
    for key in stats:
        out.setdefault(key.split("|", 1)[0], set()).add(key)
    return out


def key_problems(scenario: str, emitted: list[str], expected: set[str]) -> list[str]:
    """Reasons the emitted row keys are not exactly the expected ones: a
    scenario with no recorded rows, a recorded row missing or a row emitted
    twice. Rows with no recorded key fail in ``row_problems``."""
    if not expected:
        return [f"{scenario}: no recorded reference rows for this scenario"]
    out = [f"{scenario}: recorded row {key} not emitted" for key in sorted(expected - set(emitted))]
    seen: set[str] = set()
    for key in emitted:
        if key in seen:
            out.append(f"{scenario}: row {key} emitted more than once")
        seen.add(key)
    return out


def workload_digest(configs: list[dict]) -> str:
    """Fingerprint of a workload definition; reference rows belong to one."""
    return hashlib.sha256(json.dumps(configs, sort_keys=True).encode()).hexdigest()[:16]


def load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][workload]


def row_problems(row: dict, stats: dict | None) -> list[str]:
    """Reasons the row is wrong; empty when it passes the gate.

    ``stats`` is the recorded {"mean", "sigma"} of the row's distance over
    the reference seeds, or None when no reference row has this key.
    """
    dist, se = row["distance"], row["stderr"]
    where = f"{row['scenario']} t={row['t']} {row['distance_name']}"
    if not (math.isfinite(dist) and math.isfinite(se)):
        return [f"{where}: non-finite distance {dist!r} or stderr {se!r}"]
    out = []
    if dist < 0 or se < 0:
        out.append(f"{where}: negative distance {dist!r} or stderr {se!r}")
    if row["distance_name"].startswith(UNIT_INTERVAL) and dist > 1.0:
        out.append(f"{where}: distance {dist!r} above 1")
    if stats is None:
        out.append(f"{where}: no reference row with key {row_key(row)}")
    elif abs(dist - stats["mean"]) > tolerance(stats):
        out.append(
            f"{where}: distance {dist!r} is {abs(dist - stats['mean']) / max(stats['sigma'], 1e-300):.1f} "
            f"sigma from the reference mean {stats['mean']!r}"
        )
    return out


def tolerance(stats: dict) -> float:
    """Allowed distance from the reference mean, with a rounding floor for
    rows whose value does not vary with the seed."""
    return TOLERANCE_SIGMAS * stats["sigma"] + 1e-9 * max(1.0, abs(stats["mean"]))
