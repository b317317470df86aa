"""The package imports nothing outside the standard library: every absolute
import in ``src/chromapoly`` names a top-level module of
``sys.stdlib_module_names``."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chromapoly"


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = [(path.name, name)
               for path in modules
               for name in _absolute_imports(ast.parse(path.read_text()))
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
