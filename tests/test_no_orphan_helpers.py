"""Every private helper of the package has a caller.

A private function, class or method (a leading underscore, not a dunder)
defined under src/gradeswitch must be named somewhere in the package or
in perfbench outside its own definition: as a name, an attribute, an
imported name, or an identifier in a string (perfbench resolves its span
targets from dotted strings).  Uses in tests do not count, so a helper
kept alive only by its own tests fails here.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gradeswitch").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def mentions(tree):
    """Every identifier the tree names, with its multiplicity."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
            if node.asname:
                found[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(part for part in node.value.split(".")
                         if part.isidentifier())
    return found


def orphans():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SCANNED}
    everywhere = collections.Counter()
    for tree in trees.values():
        everywhere.update(mentions(tree))
    out, count = [], 0
    for path in PACKAGE:
        for node in ast.walk(trees[path]):
            if isinstance(node, DEFINITIONS) and is_private(node.name):
                count += 1
                if everywhere[node.name] == mentions(node)[node.name]:
                    out.append("%s:%d %s" % (path.name, node.lineno,
                                             node.name))
    return out, count


def test_every_private_helper_has_a_caller():
    out, count = orphans()
    assert count > 50  # the scan does see the package's helpers
    assert out == []


def test_the_scan_finds_a_helper_named_only_by_itself():
    tree = ast.parse("def _lonely(n):\n    return _lonely(n - 1) if n else 0\n"
                     "def _used():\n    return 1\nx = _used()\n")
    found = mentions(tree)
    defs = {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}
    assert found["_lonely"] == mentions(defs["_lonely"])["_lonely"]
    assert found["_used"] > mentions(defs["_used"])["_used"]
