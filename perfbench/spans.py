"""Per-layer tracing of ``gradeswitch``, installed from the benchmark's side.

Timing wrappers replace a function at every place it is bound: the module
that defines it, every module that imported it with ``from .x import y``,
dicts such as ``cli.COMMANDS``, and class attributes (including aliases
such as ``__rmul__ = __mul__``).  Nothing in ``src/`` changes.

A span records its name, start, end, parent span and task id.  Spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover.

Per-operation counters on field elements would inflate span times, so
they are a separate pass (``COUNT_TARGETS``) with no spans installed.
"""

import json
import sys
import time

# (span name, module, attribute path)
SPAN_TARGETS = [
    ("cli.main", "cli", "main"),
    ("cli.cmd_identities", "cli", "cmd_identities"),
    ("cli.cmd_coeffs", "cli", "cmd_coeffs"),
    ("cli.cmd_switch", "cli", "cmd_switch"),
    ("cli.cmd_toral", "cli", "cmd_toral"),
    ("switch.switch_grading", "switch", "switch_grading"),
    ("switch.build_LD", "switch", "build_LD"),
    ("switch.semisimple_exponent", "switch", "semisimple_exponent"),
    ("switch.p_power_relation", "switch", "p_power_relation"),
    ("switch.build_g", "switch", "build_g"),
    ("switch.verify_product_rule", "switch", "verify_product_rule"),
    ("switch.pair_series", "switch", "_pair_coefficient_series"),
    ("galg.minimal_polynomial", "galg", "LinearMap.minimal_polynomial"),
    ("galg.matmul", "galg", "LinearMap.__mul__"),
    ("galg.is_derivation", "galg", "is_derivation"),
    ("galg.generalized_eigenspaces", "galg", "generalized_eigenspaces"),
    ("galg.is_grading", "galg", "is_grading"),
    ("polyring.quotient_inverse_linear", "polyring",
     "_quotient_inverse_linear"),
    ("polyring.quotient_inverse_ppower", "polyring",
     "_quotient_inverse_ppower"),
    ("laguerre.c_coefficients", "laguerre", "c_coefficients"),
    ("laguerre.check_all_identities", "laguerre", "check_all_identities"),
    ("fields.roots_in_splitting_field", "fields", "roots_in_splitting_field"),
    ("toral.root_decomposition", "toral", "root_decomposition"),
    ("toral.strade_map", "toral", "strade_map"),
    ("toral.compare_switch_to_toral", "toral", "compare_switch_to_toral"),
]

# the separate counting pass
COUNT_TARGETS = [
    ("fields.mul", "fields", "FqElement.__mul__"),
    ("fields.inverse", "fields", "FqElement.inverse"),
]

# per-layer metric -> (what, span or counter name)
PER_LAYER = [
    ("polyring.quotient_inverse_linear.s", "s",
     "polyring.quotient_inverse_linear"),
    ("polyring.quotient_inverse_linear.calls", "calls",
     "polyring.quotient_inverse_linear"),
    ("polyring.quotient_inverse_ppower.s", "s",
     "polyring.quotient_inverse_ppower"),
    ("polyring.quotient_inverse_ppower.calls", "calls",
     "polyring.quotient_inverse_ppower"),
    ("polyring.quotient_mul.calls", "count", "polyring.quotient_mul"),
    ("switch.pair_series.s", "s", "switch.pair_series"),
    ("switch.pair_series.calls", "calls", "switch.pair_series"),
    ("switch.verify_product_rule.self_s", "self_s",
     "switch.verify_product_rule"),
    ("switch.product_rule_pairs", "count", "switch.product_rule_pairs"),
    ("switch.semisimple_exponent.s", "s", "switch.semisimple_exponent"),
    ("switch.p_power_relation.s", "s", "switch.p_power_relation"),
    ("switch.build_g.s", "s", "switch.build_g"),
    ("switch.build_LD.self_s", "self_s", "switch.build_LD"),
    ("galg.minimal_polynomial.s", "s", "galg.minimal_polynomial"),
    ("galg.minimal_polynomial.calls", "calls", "galg.minimal_polynomial"),
    ("galg.minimal_polynomial.repeat_frac", "repeat_frac",
     "galg.minimal_polynomial"),
    ("galg.matmul.s", "s", "galg.matmul"),
    ("galg.matmul.calls", "calls", "galg.matmul"),
    ("galg.is_derivation.s", "s", "galg.is_derivation"),
    ("galg.is_derivation.calls", "calls", "galg.is_derivation"),
    ("galg.generalized_eigenspaces.s", "s", "galg.generalized_eigenspaces"),
    ("galg.is_grading.s", "s", "galg.is_grading"),
    ("laguerre.c_coefficients.self_s", "self_s", "laguerre.c_coefficients"),
    ("laguerre.c_coefficients.calls", "calls", "laguerre.c_coefficients"),
    ("laguerre.check_all_identities.s", "s", "laguerre.check_all_identities"),
    ("fields.roots_in_splitting_field.s", "s",
     "fields.roots_in_splitting_field"),
    ("fields.mul.calls", "count", "fields.mul"),
    ("fields.inverse.calls", "count", "fields.inverse"),
    ("toral.root_decomposition.s", "s", "toral.root_decomposition"),
    ("toral.strade_map.s", "s", "toral.strade_map"),
    ("toral.compare_switch_to_toral.self_s", "self_s",
     "toral.compare_switch_to_toral"),
    ("cli.overhead_s", "cli_overhead", "cli.main"),
]

UNITS = {"s": "s/task", "self_s": "s/task", "cli_overhead": "s/task",
         "calls": "calls/task", "count": "count/task", "repeat_frac": "frac"}


class Tracer:
    """Spans and counters of the tasks run while a task id is set."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, task id]
        self.counts = {}
        self.task = None      # records only while a task runs
        self.tasks = 0
        self._stack = []
        self._seen = set()    # minimal-polynomial inputs of this task

    def begin_task(self, task_id):
        self.task = task_id
        self.tasks += 1
        self._seen = set()

    def end_task(self):
        self.task = None
        self._stack = []

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, name, fn, when=None, after=None):
        """fn timed as span `name`; `when(args)` limits which calls count,
        `after(args, result)` runs on the result inside the span."""
        tracer = self

        def wrapper(*args, **kw):
            if tracer.task is None or (when is not None and not when(args)):
                return fn(*args, **kw)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, parent, tracer.task])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
                if after is not None:
                    after(args, out)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec = tracer.spans[idx]
                rec[1], rec[2] = t0, t1

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name, fn, when=None):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kw):
            if tracer.task is not None and (when is None or when(args)):
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def per_layer(self):
        """Every PER_LAYER metric as (value per traced task, unit)."""
        n = max(self.tasks, 1)
        total, selfs, calls = {}, {}, {}
        child = [0.0] * len(self.spans)
        cmd_child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
                if name.startswith("cli.cmd_"):
                    cmd_child[parent] += t1 - t0
        overhead = 0.0
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + dur - child[i]
            total[name] = total.get(name, 0.0) + dur
            if name == "cli.main":
                overhead += dur - cmd_child[i]
        out = {}
        for metric, what, key in PER_LAYER:
            if what == "s":
                value = total.get(key, 0.0) / n
            elif what == "self_s":
                value = selfs.get(key, 0.0) / n
            elif what == "calls":
                value = calls.get(key, 0) / n
            elif what == "count":
                value = self.counts.get(key, 0) / n
            elif what == "repeat_frac":
                c = calls.get(key, 0)
                value = self.counts.get(key + ".repeat", 0) / c if c else 0.0
            else:
                value = overhead / n
            out[metric] = (value, UNITS[what])
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {"names": names,
               "fields": ["name", "start", "end", "parent", "task"],
               "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3],
                          s[4]] for s in self.spans],
               "counts": self.counts}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# installation


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gradeswitch"
                                  or name.startswith("gradeswitch."))]


def _resolve(module, path):
    obj = sys.modules["gradeswitch." + module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def binding_sites(original):
    """Every (container, key) in the package that holds `original`."""
    sites, seen = [], set()

    def visit(container, items, setter):
        for key, val in items:
            if val is original and (id(container), key) not in seen:
                seen.add((id(container), key))
                sites.append((container, key, setter))

    for mod in _package_modules():
        visit(mod, list(vars(mod).items()), setattr)
        for val in list(vars(mod).values()):
            if isinstance(val, dict):
                visit(val, list(val.items()), dict.__setitem__)
            elif isinstance(val, type) and \
                    val.__module__.startswith("gradeswitch"):
                visit(val, list(vars(val).items()), setattr)
    return sites


class Installed:
    """Wrappers in place; `remove()` puts every original back."""

    def __init__(self):
        self._undo = []

    def replace(self, original, wrapper):
        sites = binding_sites(original)
        if not sites:
            raise LookupError("no binding site for %r" % (original,))
        for container, key, setter in sites:
            setter(container, key, wrapper)
            self._undo.append((container, key, setter, original))
        return len(sites)

    def remove(self):
        for container, key, setter, original in reversed(self._undo):
            setter(container, key, original)
        self._undo = []


def install_spans(tracer):
    """Span wrappers for SPAN_TARGETS, plus a count of quotient-ring
    products (too many and too small to time one by one)."""
    galg = sys.modules["gradeswitch.galg"]
    poly = sys.modules["gradeswitch.polyring"]
    special = {
        "galg.matmul": dict(when=lambda a: isinstance(a[1], galg.LinearMap)),
        "galg.minimal_polynomial": dict(after=_minpoly_repeat(tracer)),
        "switch.verify_product_rule": dict(
            after=lambda a, pairs: tracer.count("switch.product_rule_pairs",
                                                pairs)),
    }
    inst = Installed()
    for name, module, path in SPAN_TARGETS:
        fn = _resolve(module, path)
        inst.replace(fn, tracer.span_wrapper(name, fn,
                                             **special.get(name, {})))
    qmul = _resolve("polyring", "QuotientElement.__mul__")
    inst.replace(qmul, tracer.count_wrapper(
        "polyring.quotient_mul", qmul,
        when=lambda a: isinstance(a[1], poly.QuotientElement)))
    return inst


def install_counts(tracer):
    inst = Installed()
    for name, module, path in COUNT_TARGETS:
        fn = _resolve(module, path)
        inst.replace(fn, tracer.count_wrapper(name, fn))
    return inst


def _minpoly_repeat(tracer):
    def after(args, _):
        M = args[0]
        key = (id(M.field), M.rows)
        if key in tracer._seen:
            tracer.count("galg.minimal_polynomial.repeat")
        else:
            tracer._seen.add(key)
    return after
