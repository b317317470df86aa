"""The package imports nothing outside the standard library: every absolute
import in ``src/chromapoly`` names a top-level module of
``sys.stdlib_module_names``.  No module but ``__init__`` imports a name it
never reads, and every module-level private name is read somewhere in the
package besides its own definition."""

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


def _imported_names(tree):
    """Each name an import binds, with its line; ``__future__`` binds none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    """Every name the module reads, inside string annotations too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                names |= _string_annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _string_annotation_names(node.annotation)
    return names


def _string_annotation_names(annotation):
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


def test_src_modules_use_every_name_they_import():
    # a deletion that leaves its import behind fails here; the package's
    # __init__ imports to export
    unused = [(path.name, line, name)
              for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              for tree in [ast.parse(path.read_text())]
              for name, line in _imported_names(tree)
              if name not in _read_names(tree)]
    assert unused == []


def _defined_privates(statement):
    """The private names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def _statement_reads(statement):
    """Every name a statement reads: loaded, imported from another module,
    or looked up as an attribute."""
    reads = _read_names(statement)
    for node in ast.walk(statement):
        if isinstance(node, ast.ImportFrom):
            reads |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
    return reads


def test_src_private_module_names_are_all_read():
    # a module-level private function, class or constant that nothing in
    # the package reads, outside its own definition, is dead code
    statements = [statement for path in sorted(SRC.rglob("*.py"))
                  for statement in ast.parse(path.read_text()).body]
    reads = [_statement_reads(statement) for statement in statements]
    unread = [name
              for i, statement in enumerate(statements)
              for name in _defined_privates(statement)
              if not any(name in names
                         for j, names in enumerate(reads) if j != i)]
    assert unread == []
