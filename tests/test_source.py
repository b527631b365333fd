"""Checks on the package source itself, made on its syntax tree."""

import ast
from pathlib import Path

import structmat


def test_no_function_imports_in_its_body():
    # every dependency is imported once, at the top of its module
    package = Path(structmat.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    assert not isinstance(inner, (ast.Import, ast.ImportFrom)), (
                        f"{path.name}:{inner.lineno} imports inside {node.name}()"
                    )
