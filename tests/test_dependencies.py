"""numpy stays the only runtime dependency: the library imports nothing else outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "raeslab").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Top-level package of every absolute import in a module, nested ones included."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_library_imports_only_numpy_and_the_standard_library(path):
    foreign = [n for n in absolute_imports(path) if n != "numpy" and n not in sys.stdlib_module_names]
    assert foreign == [], f"{path.name} imports {foreign}"


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
