"""Module layering: imports sit at module level, and the decomposition
layer stays below the certificate layer."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fullgroup"
MODULES = sorted(SRC.glob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    """The fullgroup modules a parsed module imports, by bare name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("fullgroup."):
                names.add(node.module.split(".")[1])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"imports inside function bodies: {local}"


def test_decompose_below_certificates():
    tree = ast.parse((SRC / "decompose.py").read_text(encoding="utf-8"))
    assert not imported_modules(tree) & {"certificates", "encoding"}
