"""flowlattice has no runtime dependencies: importing the package and each
of its modules, in an isolated interpreter without site-packages, loads
nothing outside the standard library."""

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
