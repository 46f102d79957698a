"""The trusted base stays one module: boxcert/kernel.py.

Read with :mod:`ast`, not imported: the kernel imports only the standard
library and :mod:`boxcert.errors`, no other module under ``src/boxcert``
defines a name the kernel defines, and every other module imports from the
kernel only names it uses itself (the package root re-exports some).
"""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "boxcert"
KERNEL = PACKAGE / "kernel.py"


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, other than by importing."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def _modules() -> list[pathlib.Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p != KERNEL)


def test_the_kernel_imports_only_the_standard_library_and_errors():
    for node in ast.walk(_tree(KERNEL)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                assert top in sys.stdlib_module_names, f"kernel.py imports {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert (node.level, node.module) == (1, "errors"), (
                    f"kernel.py imports from {'.' * node.level}{node.module or ''}"
                )
            else:
                top = node.module.split(".")[0]
                assert top in sys.stdlib_module_names, f"kernel.py imports from {node.module}"


def test_the_kernel_defines_the_trusted_base():
    assert {
        "parse_rat", "format_rat", "op_sum", "op_triple", "Leaf", "Sum", "Triple",
        "children", "topological", "verify_derivation", "derivation_from_json",
        "check_claim",
    } <= _defined(_tree(KERNEL))


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_no_other_module_defines_a_kernel_name(path):
    again = _defined(_tree(path)) & _defined(_tree(KERNEL))
    assert not again, f"{path.name} defines {sorted(again)}, which kernel.py defines"


@pytest.mark.parametrize(
    "path", [p for p in _modules() if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_each_module_imports_from_the_kernel_only_what_it_uses(path):
    tree = _tree(path)
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "kernel"
        for alias in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert imported <= used, f"{path.name} imports {sorted(imported - used)} unused"
