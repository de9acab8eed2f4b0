"""No dead name in the package, read from the source.

A top-level def, class or assigned name of a module that nothing in the
package reads, and an import that its module never reads, are left over
from code that moved or went; each test names every such leftover it finds.
"""

import ast
from pathlib import Path

import permpat

SRC = Path(permpat.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loads(tree) -> set[str]:
    # names loaded in the module, and the names its __all__ lists as strings
    loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            loads |= {elt.value for elt in node.value.elts}
    return loads


def _defined(tree) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    # __all__ and __version__ are read by the import system and by tools
    return [name for name in names if not name.startswith("__")]


def _imported(tree) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return names


def test_every_top_level_name_is_read_in_the_package():
    # a load of the name or an attribute of that name, anywhere in src/, or a
    # re-export by the package's __init__
    read = set()
    for tree in TREES.values():
        read |= _loads(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read |= set(_imported(TREES["__init__"]))
    unused = [f"{module}.{name}" for module, tree in TREES.items() for name in _defined(tree) if name not in read]
    assert unused == []


def test_every_import_is_read_in_its_module():
    unused = [f"{module}: {name}" for module, tree in TREES.items() for name in _imported(tree) if name not in _loads(tree)]
    assert unused == []
