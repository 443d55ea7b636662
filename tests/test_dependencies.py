"""flowlattice has no runtime dependencies: importing the package and each
of its modules, in an isolated interpreter without site-packages, loads
nothing outside the standard library.  Nor does any module import a name
it never uses."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import flowlattice

PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import flowlattice
for info in pkgutil.iter_modules(flowlattice.__path__):
    importlib.import_module("flowlattice." + info.name)
print(json.dumps(sorted(sys.modules)))
"""


def test_imports_only_the_standard_library():
    root = str(Path(flowlattice.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, root],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr      # a third-party import fails without site
    loaded = json.loads(out.stdout)
    assert "flowlattice.cli" in loaded and "flowlattice.rebuild" in loaded
    outside = [name for name in loaded
               if name.split(".")[0] not in sys.stdlib_module_names | {"flowlattice", "__main__"}]
    assert outside == []


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads: not as a name, not as
    the root of an attribute chain, not in `__all__`.  `__future__`
    imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    """Every module but the re-exporting `__init__` reads each name it imports."""
    package = Path(flowlattice.__file__).resolve().parent
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\n" \
             "__all__ = ['b']\n"
    assert unused_imports(source) == ["line 2: os", "line 3: d"]
    assert unused_imports(source + "os.sep\nd()\n") == []
