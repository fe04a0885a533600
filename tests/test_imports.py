"""Every module under src/ reads each name it imports.

An import that nothing reads is code to compile and a module to load on
each CLI call, which compiles src/ whenever no bytecode is cached, and it
hides which modules a module really needs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(tree: ast.Module) -> list:
    """The names that the module's imports bind and that no expression of it reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, re as regex\nfrom a.b import c, d\n"
                     "import x.y\nd = 1\nprint(regex, x.y)\n")
    assert unused_imports(tree) == ["c (line 3)", "d (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda path: str(path.relative_to(SRC)))
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
