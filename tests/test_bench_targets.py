"""Every name the benchmark reaches in the package is still defined.

The tracer's targets: every function `perfbench/spans.py` wraps is bound
in the package, so a deletion or rename in `src/` that would break
`perfbench/run.py --trace 1` fails here.  The task generator and its
checks: every module-level name that `perfbench/workloads.py` and
`perfbench/run.py` read through the package namespace `lib` (also as
`self.lib`, and through the local aliases they bind to its modules, such
as `lag = lib.laguerre`) still resolves, and so do the `QuotientRing`
methods the table check calls.  The perfbench files are read, never
changed: `spans.py` is loaded by path, the other two are only parsed."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import gradeswitch.cli  # noqa: F401  (loads every package module)
from gradeswitch.polyring import QuotientRing

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  _BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()
_TARGETS = spans.SPAN_TARGETS + spans.COUNT_TARGETS


@pytest.mark.parametrize("name, module, path", _TARGETS,
                         ids=[name for name, _, _ in _TARGETS])
def test_trace_target_is_bound(name, module, path):
    fn = spans._resolve(module, path)
    assert spans.binding_sites(fn), "%s has no binding site" % name


def _package_module(node):
    """The module name m when node reads `lib.m` or `self.lib.m`."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == "lib":
        return node.attr
    if (isinstance(base, ast.Attribute) and base.attr == "lib"
            and isinstance(base.value, ast.Name) and base.value.id == "self"):
        return node.attr
    return None


def _aliases(tree):
    """{local name: module} for every `x = lib.m` and `x, y = lib.m, lib.n`
    in the tree."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and \
                    isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for t, v in pairs:
                module = _package_module(v)
                if module and isinstance(t, ast.Name):
                    out[t.id] = module
    return out


def bench_package_names(paths):
    """Sorted (module, name) pairs read as `lib.module.name`,
    `self.lib.module.name` or `alias.name` in the files at `paths`, with
    the aliases every file binds."""
    names, aliases = set(), {}
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        local = _aliases(tree)
        aliases.update(local)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            module = _package_module(node.value)
            if module is None and isinstance(node.value, ast.Name):
                module = local.get(node.value.id)
            if module is not None:
                names.add((module, node.attr))
    return sorted(names), aliases


_NAMES, _ALIASES = bench_package_names(
    [_BENCH / "workloads.py", _BENCH / "run.py"])
QUOTIENT_RING_METHODS = ("from_x_poly", "from_y_poly", "element")


def test_bench_reads_the_package_through_lib_and_its_aliases():
    # the parse sees the aliases the table check and the rescaled
    # switch tasks bind, and the names they reach through them
    assert {"lag": "laguerre", "poly": "polyring", "cli": "cli",
            "galg": "galg"}.items() <= _ALIASES.items()
    assert {("laguerre", "laguerre_at"), ("polyring", "quotient_mul"),
            ("cli", "_parse_builtin"), ("galg", "GradedAlgebra"),
            ("cli", "main"), ("laguerre", "inverse_factorials")} <= \
        set(_NAMES)


@pytest.mark.parametrize("module, name", _NAMES,
                         ids=["%s.%s" % pair for pair in _NAMES])
def test_bench_name_resolves(module, name):
    mod = importlib.import_module("gradeswitch." + module)
    assert hasattr(mod, name), "gradeswitch.%s has no %s" % (module, name)


@pytest.mark.parametrize("method", QUOTIENT_RING_METHODS)
def test_quotient_ring_method_used_by_the_table_check(method):
    assert callable(getattr(QuotientRing, method, None))
