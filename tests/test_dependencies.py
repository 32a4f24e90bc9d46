"""The package imports only the third-party modules that pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).parents[1]


def _third_party_imports() -> dict[str, list[str]]:
    """Top-level third-party module -> the ``file:line`` places that import it,
    at module level or inside functions."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "torus_holonomy").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "torus_holonomy":
                    found.setdefault(top, []).append(f"{path.name}:{node.lineno}")
    return found


def _names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_package_imports_only_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _names(project["dependencies"])
    assert declared == {"numpy"}
    imports = _third_party_imports()
    assert {name: places for name, places in imports.items() if name not in declared} == {}
    assert set(imports) == declared  # the scan finds every declared dependency in use
    # the tests' oracles are declared in the test extra only
    extras = project["optional-dependencies"]
    for oracle in ("jsonschema", "scipy"):
        assert oracle in _names(extras["test"])
        assert [extra for extra, reqs in extras.items() if extra != "test" and oracle in _names(reqs)] == []
