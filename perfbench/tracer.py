"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics computed from its spans.

The tracer wraps the public functions of each pplab module at run time:
it swaps module and class attributes for timing wrappers and puts the
originals back on ``uninstall``. Nothing under ``src/`` changes. Every call
into a wrapped function records one span (name, start, end, parent span,
scenario, size) in flat arrays, so a million spans cost tens of megabytes
and no per-span objects.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

SETUP_SCENARIO = -1

# Wrapped functions per pplab module; "Class.method" names a method.
# Functions that other modules import by name are also replaced there.
TARGETS = {
    "rng": ["derive_rng"],
    "transform": [
        "pair_count_within",
        "pair_sum_power",
        "pair_sum_inverse_power",
        "pair_midpoints",
        "max_pair_distance",
        "induce",
    ],
    "metrics": [
        "ot_exact",
        "config_tv_cost",
        "empirical_kr",
        "kolmogorov",
        "wasserstein1",
        "tv_integer",
        "tv_against_poisson",
    ],
    "glauber": [
        "simulate_event_driven",
        "simulate_exact_law",
        "survivor_count_event_driven",
        "commutation_check",
        "ergodicity_check",
    ],
    "sampling": ["sample_poisson", "sample_poisson_flats", "mecke_check"],
    "configuration": ["Configuration.add", "Configuration.copy", "Configuration.from_array"],
    "geometry": ["Domain.sample", "haar_frame", "orthocomplement_basis", "subspace_determinant"],
    "reporting": ["emit"],
    "scenarios": ["run"],
}

# Every public bounds function is wrapped too, and these methods of every law.
LAW_SAMPLERS = ("sample", "sample_many")
LAW_FUNCTIONS = ("pmf", "cdf", "cdf_left", "pdf", "ppf") + LAW_SAMPLERS


def _n_points(args, kwargs, result):
    return len(args[0])


# Span size: what one call worked on, recorded at the same boundary.
SIZES = {
    "transform.pair_count_within": _n_points,
    "transform.pair_sum_power": _n_points,
    "transform.pair_sum_inverse_power": _n_points,
    "transform.pair_midpoints": _n_points,
    "transform.max_pair_distance": _n_points,
    "sampling.sample_poisson_flats": lambda a, k, r: len(r),
    "bounds.flats_constant_mc": lambda a, k, r: a[2] if len(a) > 2 else k["samples"],
    "metrics.ot_exact": lambda a, k, r: np.size(a[0]),
    "reporting.emit": lambda a, k, r: Path(r).stat().st_size,
}


def _targets():
    """(span name, owner object, attribute) for every function to wrap."""
    from pplab import bounds, laws

    out = []
    for module_name, attrs in TARGETS.items():
        module = sys.modules[f"pplab.{module_name}"]
        for attr in attrs:
            owner = module
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(module, cls_name)
            out.append((f"{module_name}.{attr}", owner, attr))
    for name, fn in vars(bounds).items():
        if inspect.isfunction(fn) and fn.__module__ == bounds.__name__ and not name.startswith("_"):
            out.append((f"bounds.{name}", bounds, name))
    for cls in vars(laws).values():
        if inspect.isclass(cls) and cls.__module__ == laws.__name__:
            for attr in LAW_FUNCTIONS:
                if attr in vars(cls):
                    out.append((f"laws.{cls.__name__}.{attr}", cls, attr))
    out.append(("laws.sample_law", laws, "sample_law"))
    return out


class Tracer:
    """Span recorder; ``scenario`` tags the spans of the scenario now running."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.scenario_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.size: array = array("q")
        self.scenario = SETUP_SCENARIO
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        size_of = SIZES.get(name)
        name_id, parent, scenario_id = self.name_id, self.parent, self.scenario_id
        starts, ends, sizes, stack = self.start, self.end, self.size, self._stack

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            scenario_id.append(self.scenario)
            starts.append(0.0)
            ends.append(0.0)
            sizes.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every target for a traced wrapper, including by-name imports."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for name, owner, attr in _targets():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapper = self._wrap(name, raw)
                replaced[id(raw)] = (raw, wrapper)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("pplab.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "scenario": np.frombuffer(self.scenario_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path: Path, scenario_names: list[str]) -> None:
        """Write every span, the name table and the scenario table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            scenario_names=np.asarray(scenario_names),
            **self.arrays(),
        )


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


# Span-name groups behind the per-layer metrics.
PAIR = (
    "transform.pair_count_within",
    "transform.pair_sum_power",
    "transform.pair_sum_inverse_power",
    "transform.pair_midpoints",
)
SIMS = ("glauber.simulate_event_driven", "glauber.simulate_exact_law")
CHECKS = ("glauber.commutation_check", "glauber.ergodicity_check")
CONFIG = ("configuration.add", "configuration.copy", "configuration.from_array")
DIST1D = ("metrics.kolmogorov", "metrics.wasserstein1", "metrics.tv_integer", "metrics.tv_against_poisson")
HAAR = ("geometry.haar_frame", "geometry.orthocomplement_basis", "geometry.subspace_determinant")

# name -> unit, in report order.
LAYER_METRICS = {
    "rng.streams": "count",
    "rng.self_s": "s",
    "rng.us_per_stream": "us",
    "transform.pair_calls": "count",
    "transform.pair_self_s": "s",
    "transform.pair_us.n_lt_128": "us",
    "transform.pair_us.n_128_255": "us",
    "transform.pair_us.n_ge_256": "us",
    "transform.candidate_pairs": "count",
    "transform.ns_per_candidate_pair": "ns",
    "transform.diameter_calls": "count",
    "transform.diameter_self_s": "s",
    "transform.midpoints_self_s": "s",
    "transform.induce_self_s": "s",
    "glauber.sim_calls": "count",
    "glauber.sim_self_s": "s",
    "glauber.us_per_sim": "us",
    "glauber.survivor_calls": "count",
    "glauber.survivor_self_s": "s",
    "glauber.check_self_s": "s",
    "configuration.adds": "count",
    "configuration.self_s": "s",
    "configuration.ns_per_add": "ns",
    "metrics.ot_solves": "count",
    "metrics.ot_cells": "count",
    "metrics.ot_self_s": "s",
    "metrics.cost_evals": "count",
    "metrics.cost_self_s": "s",
    "metrics.kr_self_s": "s",
    "metrics.dist1d_calls": "count",
    "metrics.dist1d_self_s": "s",
    "laws.sample_self_s": "s",
    "laws.cdf_self_s": "s",
    "sampling.flats_calls": "count",
    "sampling.flats_drawn": "count",
    "sampling.flats_self_s": "s",
    "sampling.us_per_flat": "us",
    "geometry.haar_self_s": "s",
    "bounds.haar_samples": "count",
    "bounds.us_per_haar_sample": "us",
    "sampling.mecke_self_s": "s",
    "sampling.poisson_calls": "count",
    "sampling.poisson_self_s": "s",
    "geometry.sample_self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "bounds.setup_self_s": "s",
    "scenarios.self_s": "s",
    "scenarios.self_share": "ratio",
    "reporting.emit_s": "s",
    "reporting.bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, names: list[str], passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics, as means per traced pass, from the recorded spans.

    ``passes`` traced passes carry scenario ids >= 0; set-up spans carry
    SETUP_SCENARIO and feed only ``bounds.setup_self_s``.
    """
    self_s = self_times(spans)
    dur = spans["end"] - spans["start"]
    in_pass = spans["scenario"] >= 0
    in_setup = spans["scenario"] == SETUP_SCENARIO
    bounds_fns = tuple(n for n in names if n.startswith("bounds."))
    law_fns = [n for n in names if n.startswith("laws.")]
    law_samplers = tuple(n for n in law_fns if n.rsplit(".", 1)[1] in LAW_SAMPLERS or n == "laws.sample_law")
    law_cdfs = tuple(n for n in law_fns if n not in law_samplers)

    def pick(group, where=in_pass):
        ids = [i for i, n in enumerate(names) if n in group]
        return np.isin(spans["name_id"], ids) & where

    def calls(group):
        return int(pick(group).sum()) / passes

    def own(group):
        return float(self_s[pick(group)].sum()) / passes

    def total(group):
        return float(dur[pick(group)].sum()) / passes

    def size(group):
        return float(spans["size"][pick(group)].sum()) / passes

    pair_n = spans["size"][pick(PAIR)].astype(float)
    pair_dur = dur[pick(PAIR)]

    def pair_us(lo, hi):
        sel = (pair_n >= lo) & (pair_n < hi)
        return _ratio(float(pair_dur[sel].sum()) * 1e6, int(sel.sum()))

    candidate_pairs = float((pair_n * (pair_n - 1) / 2).sum()) / passes
    rng = ("rng.derive_rng",)
    flats = ("sampling.sample_poisson_flats",)
    haar_mc = ("bounds.flats_constant_mc",)
    adds = ("configuration.add",)
    emits = ("reporting.emit",)
    scenario_runs = ("scenarios.run",)
    metrics = {
        "rng.streams": calls(rng),
        "rng.self_s": own(rng),
        "rng.us_per_stream": _ratio(total(rng) * 1e6, calls(rng)),
        "transform.pair_calls": calls(PAIR),
        "transform.pair_self_s": own(PAIR),
        "transform.pair_us.n_lt_128": pair_us(0, 128),
        "transform.pair_us.n_128_255": pair_us(128, 256),
        "transform.pair_us.n_ge_256": pair_us(256, np.inf),
        "transform.candidate_pairs": candidate_pairs,
        "transform.ns_per_candidate_pair": _ratio(own(PAIR) * 1e9, candidate_pairs),
        "transform.diameter_calls": calls(("transform.max_pair_distance",)),
        "transform.diameter_self_s": own(("transform.max_pair_distance",)),
        "transform.midpoints_self_s": own(("transform.pair_midpoints",)),
        "transform.induce_self_s": own(("transform.induce",)),
        "glauber.sim_calls": calls(SIMS),
        "glauber.sim_self_s": own(SIMS),
        "glauber.us_per_sim": _ratio(total(SIMS) * 1e6, calls(SIMS)),
        "glauber.survivor_calls": calls(("glauber.survivor_count_event_driven",)),
        "glauber.survivor_self_s": own(("glauber.survivor_count_event_driven",)),
        "glauber.check_self_s": own(CHECKS),
        "configuration.adds": calls(adds),
        "configuration.self_s": own(CONFIG),
        "configuration.ns_per_add": _ratio(total(adds) * 1e9, calls(adds)),
        "metrics.ot_solves": calls(("metrics.ot_exact",)),
        "metrics.ot_cells": size(("metrics.ot_exact",)),
        "metrics.ot_self_s": own(("metrics.ot_exact",)),
        "metrics.cost_evals": calls(("metrics.config_tv_cost",)),
        "metrics.cost_self_s": own(("metrics.config_tv_cost",)),
        "metrics.kr_self_s": own(("metrics.empirical_kr",)),
        "metrics.dist1d_calls": calls(DIST1D),
        "metrics.dist1d_self_s": own(DIST1D),
        "laws.sample_self_s": own(law_samplers),
        "laws.cdf_self_s": own(law_cdfs),
        "sampling.flats_calls": calls(flats),
        "sampling.flats_drawn": size(flats),
        "sampling.flats_self_s": own(flats),
        "sampling.us_per_flat": _ratio(total(flats) * 1e6, size(flats)),
        "geometry.haar_self_s": own(HAAR),
        "bounds.haar_samples": size(haar_mc),
        "bounds.us_per_haar_sample": _ratio(total(haar_mc) * 1e6, size(haar_mc)),
        "sampling.mecke_self_s": own(("sampling.mecke_check",)),
        "sampling.poisson_calls": calls(("sampling.sample_poisson",)),
        "sampling.poisson_self_s": own(("sampling.sample_poisson",)),
        "geometry.sample_self_s": own(("geometry.sample",)),
        "bounds.calls": calls(bounds_fns),
        "bounds.self_s": own(bounds_fns),
        "bounds.setup_self_s": float(self_s[pick(bounds_fns, in_setup)].sum()),
        "scenarios.self_s": own(scenario_runs),
        "scenarios.self_share": _ratio(own(scenario_runs), traced_wall),
        "reporting.emit_s": total(emits),
        "reporting.bytes": size(emits),
        "trace.spans": int(in_pass.sum()) / passes,
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
    }
    if list(metrics) != list(LAYER_METRICS):
        raise RuntimeError("layer metric table and computation disagree")
    return metrics
