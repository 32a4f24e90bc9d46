"""The package's public names resolve, appear once, are used, and keep removed API out."""

import ast
from pathlib import Path

import torus_holonomy

ROOT = Path(__file__).parents[1]

# Names once exported that only tests called; they are gone from the package.
_REMOVED = (
    "wrap_angles",
    "evolve_dynamic",
    "dynamic_propagator",
    "restrict_to_eigenspace",
    "SpectralComparison",
    "multiplication_operator",
    "canonical_offsets",
    "interior_modes",
    "ModeIndex",
    "WaveFunction",
    "inner_product",
    "mode_iter",
    "action_operator",
    "path_invariance_report",
)

# Public although only the tests call it: the split's count of violations,
# kept beside the gates that refuse the first one (ROADMAP, "Decisions on record").
_UNUSED_ALLOWED = {"split_residual"}


def test_exports_resolve_once_and_leave_out_removed_names():
    exported = torus_holonomy.__all__
    assert [name for name in exported if not hasattr(torus_holonomy, name)] == []
    assert len(set(exported)) == len(exported)
    assert [name for name in _REMOVED if name in exported or hasattr(torus_holonomy, name)] == []


def _used_names() -> set[str]:
    """Names that package code outside ``__init__.py``, or the benchmark, loads,
    imports or reads as an attribute."""
    paths = [p for p in (ROOT / "src" / "torus_holonomy").glob("*.py") if p.name != "__init__.py"]
    used: set[str] = set()
    for path in paths + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_outside_the_tests():
    unused = set(torus_holonomy.__all__) - _used_names()
    assert unused == _UNUSED_ALLOWED
