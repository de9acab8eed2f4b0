"""The independence rules of the verifier, read from the source.

The oracle and the symmetry and lifting layers must never take a count from
a cataloged formula, so only ``catalog``, which checks the formulas against
the oracle, and ``cli``, which prints them, import ``formulas``.  The naive
oracle of ``tests/conftest.py`` must stay a second method, so it reads no
object of the package, and the bench's oracle, ``perfbench/oracle.py``,
imports no module of it.
"""

import ast
import builtins
import types
from pathlib import Path

import conftest
import permpat

SRC = Path(permpat.__file__).parent

# each module of the package and the package modules it imports, function
# bodies included: enumeration, lifting and symmetry import only perms;
# formulas and perms import nothing from the package; only catalog and cli
# import formulas
IMPORTS = {
    "__init__": {"enumeration", "lifting", "perms", "symmetry"},
    "catalog": {"enumeration", "formulas", "perms", "symmetry"},
    "cli": {"catalog", "enumeration", "formulas", "lifting", "perms", "symmetry"},
    "enumeration": {"perms"},
    "formulas": set(),
    "lifting": {"perms"},
    "perms": set(),
    "symmetry": {"perms"},
}


def _package_imports(path):
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "permpat" + (f".{node.module}" if node.module else "") if node.level else node.module
            # `from . import catalog` names a module; `from .perms import x` does not
            modules = [f"{base}.{alias.name}" for alias in node.names] if base == "permpat" else [base]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "permpat":
                found.add(parts[1] if len(parts) > 1 and (SRC / f"{parts[1]}.py").exists() else "__init__")
    return found


def test_package_import_graph_is_pinned():
    graph = {path.stem: _package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert graph == IMPORTS


def test_bench_oracle_imports_no_package_module():
    # the bench checks the verifier's answers against perfbench/oracle.py,
    # which must stay a second method; the file is only read here
    oracle = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    assert _package_imports(oracle) == set()


def _names_read(code):
    # the global and attribute names a function reads, nested comprehensions included
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_read(const)
    return names


def test_naive_oracle_reads_no_package_object():
    for fn in (conftest.std, conftest.brute_contains, conftest.naive_avoiders):
        for name in _names_read(fn.__code__):
            obj = fn.__globals__.get(name, getattr(builtins, name, None))
            module = obj.__name__ if isinstance(obj, types.ModuleType) else getattr(obj, "__module__", None)
            assert not str(module).startswith("permpat"), (fn.__name__, name)
