"""The package imports nothing outside the standard library, nothing that
starts processes or opens sockets, and its elimination layer imports
nothing from the package."""

import ast
import json
import os
import subprocess
import sys

import gradeswitch

# Modules loaded at start-up (site hooks of the environment included) are
# recorded first, so only what importing the package adds is checked.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import gradeswitch, gradeswitch.cli
added = {m.split(".")[0] for m in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""

# the package runs in one process: no pool, no child processes, no sockets
_PROCESS_MODULES = {"multiprocessing", "concurrent", "subprocess", "socket",
                    "selectors"}


def test_import_needs_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(gradeswitch.__file__))
    out = subprocess.run([sys.executable, "-I", "-B", "-c", _PROBE, src],
                         capture_output=True, text=True, check=True).stdout
    added = json.loads(out)
    assert "gradeswitch" in added
    foreign = [m for m in added
               if m != "gradeswitch" and m not in sys.stdlib_module_names]
    assert foreign == []
    assert sorted(_PROCESS_MODULES.intersection(added)) == []


def test_echelon_imports_nothing_from_the_package():
    # every layer, fields included, eliminates through echelon, so an
    # import the other way would be a cycle
    import gradeswitch.echelon
    with open(gradeswitch.echelon.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert [m for m in imported if m.startswith(".")
            or m.split(".")[0] == "gradeswitch"] == []
