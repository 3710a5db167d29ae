"""The engine never imports the symbolic reference routes, Poly or RatFunc."""

import ast
from pathlib import Path

import pytest

import twistfusion

ENGINE = ("irreducibility", "repmatrix", "tensor", "fusion", "linalg")


def _imported_names(module: str) -> set[str]:
    """The modules and names that the source of ``module`` imports, and the
    attributes it reads (so ``exactnum.RatFunc`` counts as RatFunc)."""
    tree = ast.parse((Path(twistfusion.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_imports_no_reference_route(module):
    names = _imported_names(module)
    assert not names & {"reference", "Poly", "RatFunc"}
