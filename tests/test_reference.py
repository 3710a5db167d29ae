"""The engine never imports the symbolic reference routes."""

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
    # tensor keeps RatFunc for the 1/den series of FrameBlock.at_infinity
    names = _imported_names(module)
    assert "reference" not in names
    assert module == "tensor" or "RatFunc" not in names
