"""Every top-level public name in ``src/pplab`` must be reached from the
program: from another top-level statement of the package or of the
``perfbench`` harness.  A name that only the tests use belongs in the
tests (reference implementations go to ``tests/oracles.py``); the only
exceptions are the paper identities below, each checked by its own test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "pplab").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))

# name -> the test that checks it against the paper
PAPER_IDENTITIES = {
    "polytope_limit_density": "test_bounds.py::test_polytope_density_matches_mass_derivative",
    "flats_constant_via_grassmannian": "test_bounds.py::test_flats_constant_positive_and_identity",
    "sample_binomial": "test_point_process.py::test_binomial_matches_conditioned_poisson",
    "steiner_volume": "test_geometry.py::test_steiner_cube_d3_monte_carlo_value",
}


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _used(stmt, strings: bool) -> set[str]:
    """Identifiers a statement uses; with ``strings``, also the dotted parts
    of its string constants (the tracer names its targets by string)."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def unreached_names() -> list[str]:
    """Public names no other non-import top-level statement uses."""
    body = {path: ast.parse(path.read_text()).body for path in PACKAGE + HARNESS}
    uses = [
        (stmt, _used(stmt, path in HARNESS))
        for path, stmts in body.items()
        for stmt in stmts
        if not isinstance(stmt, (ast.Import, ast.ImportFrom))
    ]
    return [
        f"{path.stem}.{name}"
        for path in PACKAGE
        for stmt in body[path]
        for name in _defined(stmt)
        if not name.startswith("_")
        and name not in PAPER_IDENTITIES
        and not any(name in names for other, names in uses if other is not stmt)
    ]


def test_every_public_name_is_reached():
    unreached = unreached_names()
    assert not unreached, f"public names only the tests reach: {unreached}"


def test_paper_identities_are_defined_and_tested():
    defined = {name for path in PACKAGE for stmt in ast.parse(path.read_text()).body
               for name in _defined(stmt)}
    for name, test in PAPER_IDENTITIES.items():
        assert name in defined, f"{name} is allow-listed but not defined"
        file, func = test.split("::")
        assert f"def {func}(" in (ROOT / "tests" / file).read_text(), test


def test_tracer_installs_over_the_package():
    # perfbench/run.py --trace 1 wraps every name in the tracer's TARGETS;
    # a deleted one would fail there with a KeyError
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module in tracer.TARGETS:
        importlib.import_module(f"pplab.{module}")
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr in tracer._targets()]
    spans = tracer.Tracer()
    spans.install()
    try:
        assert all(vars(owner)[attr] is not raw for owner, attr, raw in originals)
    finally:
        spans.uninstall()
    assert all(vars(owner)[attr] is raw for owner, attr, raw in originals)
