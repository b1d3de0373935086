#!/usr/bin/env python3
"""Benchmark of gradeswitch: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 16 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``.  One process, one client: each task starts after the previous
one finished, and nothing starts a thread or process pool.

With ``--trace 0`` the run measures end-to-end metrics in reference
seconds: each time is rescaled by the host speed that ``calibrate.py``
measures next to it.  With ``--trace 1`` it runs each cycle three times
(untraced reference, spans, field-operation counts) and reports per-layer
metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--record-digests`` re-records the report digests of the first cycle of
every workload at the default seed into ``perfbench/digests.json``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join("perfbench", "out")
SETUP_REPS = 3   # at the start; one more follows every cycle
CAL_NEIGHBOURS = 2  # kernel samples on each side that rescale a task
MODULES = ("cli", "switch", "galg", "polyring", "laguerre", "fields", "toral")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"tasks_per_s": "1/s", "task_p50_s": "s",
                    "task_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up


def _package_modules():
    return [n for n in sys.modules
            if n == "gradeswitch" or n.startswith("gradeswitch.")]


def load_package():
    """A fresh import of gradeswitch from this checkout's src/."""
    for name in _package_modules():
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "gradeswitch", "__init__.py")):
        raise SetupError("no src/gradeswitch under %s" % ROOT)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("gradeswitch")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError("gradeswitch imported from %s, not %s"
                         % (pkg.__file__, SRC))
    return types.SimpleNamespace(**{m: importlib.import_module(
        "gradeswitch." + m) for m in MODULES})


def warm_up(lib, workload):
    """Fill the GF cache and the lazily built per-field tables."""
    for p, n in workloads.distinct_fields(workload):
        field = lib.fields.GF(p, n)
        (field.gen * field.gen).inverse()
        lib.laguerre.inverse_factorials(field)


def set_up_once(workload, seed):
    """Import, generate the first cycle and warm up, from scratch; returns
    (lib, stream, first cycle, seconds taken)."""
    gc.collect()  # earlier set-ups leave their modules behind as garbage
    t0 = time.perf_counter()
    lib = load_package()
    stream = workloads.Stream(lib, workload, seed)
    first = stream.next_cycle()
    warm_up(lib, workload)
    return lib, stream, first, time.perf_counter() - t0


def set_up(workload, seed):
    """SETUP_REPS set-ups from scratch; returns the last one's (lib, stream,
    first cycle) and a list of (seconds, kernel seconds right after)."""
    times = []
    for _ in range(SETUP_REPS):
        lib, stream, first, dt = set_up_once(workload, seed)
        times.append((dt, calibrate.sample()))
    return lib, stream, first, times


def time_another_set_up(workload, seed, times):
    """Time one more set-up mid-run, then put the modules in use back.

    On a shared host machine speed can drift over tens of seconds, so
    set-up samples taken only at the start would see one moment of it."""
    in_use = {n: sys.modules[n] for n in _package_modules()}
    try:
        dt = set_up_once(workload, seed)[3]
        times.append((dt, calibrate.sample()))
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def load_digests(workload, seed):
    if seed != workloads.DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload)


# ---------------------------------------------------------------------------
# running


class Tally:
    """Per-task times and failures of one pass; with ``calibrated``, a
    reference-kernel sample follows every task."""

    def __init__(self, calibrated=False):
        self.times = []
        self.kinds = []
        self.failures = []
        self.cals = [] if calibrated else None

    def timed(self):
        return sum(self.times)

    def reference_times(self):
        """Task times in reference seconds, each rescaled by the median of
        the kernel samples next to it (its own and CAL_NEIGHBOURS on each
        side)."""
        cals, k, out = self.cals, CAL_NEIGHBOURS, []
        for i, dt in enumerate(self.times):
            local = statistics.median(cals[max(0, i - k):i + k + 1])
            out.append(dt * calibrate.REFERENCE_S / local)
        return out

    def by_kind(self):
        out = {}
        for kind, dt in zip(self.kinds, self.times):
            out.setdefault(kind, []).append(dt)
        return out


def _crash(exc):
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return "%s: %s (%s:%d)" % (type(exc).__name__, exc,
                               os.path.basename(frame.filename), frame.lineno)


def _problems(lib, task, code, text, res, digests):
    try:
        problems = workloads.check(lib, task, code, text, res)
    except Exception as exc:  # malformed output fails the task
        problems = ["check raised " + _crash(exc)]
    if digests is not None and task.index < len(digests) and \
            workloads.digest(text) != digests[task.index]:
        problems.append("report digest differs from the recorded one")
    return problems


def run_task(lib, task, tally, digests=None, tracer=None):
    if tracer is not None:
        tracer.begin_task(task.index)
    t0 = time.perf_counter()
    try:
        code, text, res = workloads.execute(lib, task)
        crash = None
    except Exception as exc:  # a crash is a failed task, not a failed run
        crash = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_task()
    if tally.cals is not None:
        tally.cals.append(calibrate.sample())
    problems = [_crash(crash)] if crash else \
        _problems(lib, task, code, text, res, digests)
    tally.times.append(dt)
    tally.kinds.append(workloads.kind_name(task.kind))
    if problems:
        tally.failures.append((task.index, tally.kinds[-1], problems))


def run_pass(lib, cycle, tally, digests, tracer=None):
    for task in cycle:
        run_task(lib, task, tally, digests, tracer)


def tail_rank(n):
    """(percentile, 1-based rank): the highest whole percentile with at
    least ten tasks beyond it, by nearest rank."""
    if n <= 10:
        return 100, n
    pct = (100 * (n - 10)) // n
    return pct, math.ceil(pct * n / 100)


def measure(lib, stream, first, cycles, digests, between_cycles):
    """`cycles` whole cycles, so that every run of one program times the
    same number of tasks of each kind."""
    tally, cycle = Tally(calibrated=True), first
    for done in range(cycles):
        if done:
            cycle = stream.next_cycle()
        run_pass(lib, cycle, tally, digests)
        between_cycles()
    return tally


def measure_traced(lib, stream, first, seconds, digests):
    """Rounds over one cycle each, until the time taken is nearest to
    `seconds`.

    Every task runs untraced and with spans back to back, in alternating
    order, so that drift in machine speed cancels out of the overhead; then
    the cycle runs once more under the field-operation counters."""
    tracer, counter = spans.Tracer(), spans.Tracer()
    ref, traced, counted = Tally(), Tally(), Tally()
    cycle, t0 = first, time.perf_counter()
    while True:
        round_t0 = time.perf_counter()
        for i, task in enumerate(cycle):
            for with_spans in ((False, True) if i % 2 else (True, False)):
                if not with_spans:
                    run_task(lib, task, ref, digests)
                    continue
                inst = spans.install_spans(tracer)
                try:
                    run_task(lib, task, traced, digests, tracer)
                finally:
                    inst.remove()
        inst = spans.install_counts(counter)
        try:
            run_pass(lib, cycle, counted, digests, counter)
        finally:
            inst.remove()
        now = time.perf_counter()
        if now - t0 + (now - round_t0) / 2 >= seconds:
            break
        cycle = stream.next_cycle()
    layers = tracer.per_layer()
    for name, value in counter.per_layer().items():
        if name.startswith("fields.") and name.endswith(".calls"):
            layers[name] = value
    layers["trace_overhead_frac"] = (traced.timed() / ref.timed() - 1, "frac")
    return layers, tracer, (ref, traced, counted)


# ---------------------------------------------------------------------------
# report


def timings(task_times, setup_times, tail):
    """The timing metrics from per-task and set-up seconds; `tail` is the
    1-based rank that task_tail_s reads."""
    ordered = sorted(task_times)
    return {"tasks_per_s": (len(ordered) / sum(ordered), "1/s"),
            "task_p50_s": (statistics.median(ordered), "s"),
            "task_tail_s": (ordered[tail - 1], "s"),
            "setup_s": (statistics.median(setup_times), "s")}


def report_line(name, value, unit, note=""):
    return "%-40s %14.6g %-10s %s" % (name, value, unit, note)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            ap.error("--workload is required")
        return bench(args)
    except SetupError as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        remove_inputs()


def bench(args):
    lib, stream, first, setup_times = set_up(args.workload, args.seed)
    digests = load_digests(args.workload, args.seed)
    meta = {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "trace": args.trace, "seconds": args.seconds,
            "cycle_tasks": len(first), "digest_check": digests is not None}
    if args.trace:
        layers, tracer, passes = measure_traced(lib, stream, first,
                                                args.seconds, digests)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.write(path)
        ref, traced, counted = passes
        print("passes: reference %.3f s, spans %.3f s, counts %.3f s over "
              "%d tasks each; %d spans written to %s"
              % (ref.timed(), traced.timed(), counted.timed(),
                 len(ref.times), len(tracer.spans), path))
        failures = ref.failures + traced.failures + counted.failures
        attempted = len(ref.times) + len(traced.times) + len(counted.times)
        metrics = layers
        meta.update(tasks_by_kind={k: len(v) for k, v in
                                   sorted(ref.by_kind().items())})
        for name, (value, unit) in metrics.items():
            print(report_line(name, value, unit))
    else:
        cycles = workloads.cycles_for(args.workload, args.seconds)
        tally = measure(
            lib, stream, first, cycles, digests,
            lambda: time_another_set_up(args.workload, args.seed,
                                        setup_times))
        n = len(tally.times)
        pct, rank = tail_rank(n)
        failures, attempted = tally.failures, n
        wall = timings(tally.times, [dt for dt, _ in setup_times], rank)
        metrics = timings(tally.reference_times(), [
            dt * calibrate.REFERENCE_S / cal for dt, cal in setup_times], rank)
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        host = statistics.median(tally.cals) / calibrate.REFERENCE_S
        print("tasks: %d in %d cycles, %.3f s timed; reference kernel "
              "median %.4f s, %.3fx the reference host's"
              % (n, cycles, tally.timed(), host * calibrate.REFERENCE_S,
                 host))
        for kind, times in sorted(tally.by_kind().items()):
            print("  %-40s %3d tasks, median %.4f s"
                  % (kind, len(times), statistics.median(times)))
        notes = {"task_p50_s": "median of %d tasks" % n,
                 "task_tail_s": "p%d of %d tasks, %d beyond" % (
                     pct, n, n - rank),
                 "setup_s": "median of %d set-ups" % len(setup_times)}
        for name, (value, unit) in metrics.items():
            note = notes.get(name, "")
            if name in wall:
                note = "wall %.6g %s; %s" % (wall[name][0], unit, note)
            print(report_line(name, value, unit, note))
        print(report_line("fail_frac", len(failures) / n, "frac"))
        meta.update(cycles=cycles, tasks_by_kind={
            k: len(v) for k, v in sorted(tally.by_kind().items())},
            samples=n, tail_percentile=pct, setup_samples=len(setup_times),
            host_speed_factor=round(host, 4))
    for index, kind, problems in failures[:20]:
        print("FAILED task %d (%s): %s" % (index, kind, "; ".join(problems)))
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(result, sort_keys=True))
    return 0


def record_digests():
    out = {}
    for workload in workloads.WORKLOADS:
        lib, _, first, _ = set_up(workload, workloads.DEFAULT_SEED)
        texts = []
        for task in first:
            code, text, res = workloads.execute(lib, task)
            problems = workloads.check(lib, task, code, text, res)
            if problems:
                raise SystemExit("task %d (%s) fails: %s" % (
                    task.index, workloads.kind_name(task.kind), problems))
            texts.append(workloads.digest(text))
        out[workload] = texts
        print("%s: %d digests" % (workload, len(texts)))
    with open(DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def remove_inputs():
    if os.path.isdir(workloads.INPUT_DIR):
        for name in os.listdir(workloads.INPUT_DIR):
            os.remove(os.path.join(workloads.INPUT_DIR, name))
        os.rmdir(workloads.INPUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
