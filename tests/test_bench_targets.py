"""Every function the benchmark's tracer wraps is still defined and bound
in the package, so a deletion or rename in `src/` that would break
`perfbench/run.py --trace 1` fails here.  `perfbench/spans.py` is loaded
by path and left unchanged."""

import importlib.util
import pathlib

import pytest

import gradeswitch.cli  # noqa: F401  (loads every package module)

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
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
