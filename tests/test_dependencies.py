"""The runtime dependencies that ``pyproject.toml`` declares are exactly the
packages that the library's sources import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """Top-level names of the modules that ``src/latentdag/*.py`` import,
    anywhere in a file (a deferred import inside a function counts), less
    the standard library and the package itself."""
    names = set()
    for path in (ROOT / "src" / "latentdag").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"latentdag"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    assert imported_packages() == declared
