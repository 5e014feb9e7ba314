"""numpy stays the only runtime dependency, and the library's modules import each other only downward."""

import ast
import sys
from pathlib import Path

import pytest

from raeslab import tensor

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


# the raeslab modules each module may import; nothing imports upward or in a cycle
LAYERS = {
    "__init__": set(),
    "tensor": set(),
    "layers": {"tensor"},
    "optim": {"tensor"},
    "data": {"tensor"},
    "models": {"layers", "tensor"},
    "harness": {"data", "models", "optim", "tensor"},
    "gradcheck": {"models", "layers", "optim", "tensor"},
    "cli": {"gradcheck", "harness", "models", "optim"},
}


def raeslab_imports(path: Path) -> set[str]:
    """The raeslab modules a module imports, ``from . import models`` included.

    Only relative imports count: an absolute ``raeslab`` import already fails
    the numpy-and-standard-library test above.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module else [alias.name for alias in node.names])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_only_the_layers_below_it(path):
    assert path.stem in LAYERS, f"{path.name} is not in LAYERS; give it its place in the import order"
    upward = raeslab_imports(path) - LAYERS[path.stem]
    assert upward == set(), f"{path.name} imports {sorted(upward)}"


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def tensor_references(path: Path) -> set[str]:
    """The names a module takes from raeslab.tensor: ``from .tensor import``
    aliases and ``tensor.<name>`` attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "tensor":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "tensor":
            names.add(node.attr)
    return names


def test_tensor_core_exports_only_what_another_module_uses():
    # exception classes are exempt: a caller may catch one it never imports
    exempt = {n for n, v in vars(tensor).items() if isinstance(v, type) and issubclass(v, Exception)}
    core = ROOT / "src" / "raeslab" / "tensor.py"
    used = set().union(*(tensor_references(p) for p in SOURCES if p != core))
    unused = [n for n in tensor.__all__ if n not in exempt | used]
    assert unused == [], f"raeslab.tensor exports {unused}, which no other module under src/ uses"
