"""Self-tests of the benchmark: exact per-layer counts of the trace, a
deterministic task generator, no pools, and a BENCHMARK.json that matches
what the run prints.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import multiprocessing.pool
import multiprocessing.process
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    cwd = os.getcwd()
    os.chdir(run.ROOT)
    try:
        yield run.load_package()
    finally:
        run.remove_inputs()
        os.chdir(cwd)


def traced(lib, argv):
    """Per-layer metrics of one CLI command run under the span wrappers."""
    tracer = spans.Tracer()
    inst = spans.install_spans(tracer)
    try:
        tracer.begin_task(0)
        task = workloads.Task(0, ("cli",), argv=argv)
        code = workloads.execute(lib, task)[0]
        tracer.end_task()
    finally:
        inst.remove()
    assert code == 0
    return {k: v for k, (v, _) in tracer.per_layer().items()}


# exact counts measured on the package as it stands; a wrapper that misses
# a binding site shows up here as a smaller count
EXACT = [
    (["switch", "--builtin", "tpoly:5:25:5", "--derivation", "ddx",
      "--output", "json"],
     {"galg.minimal_polynomial.calls": 4,
      "polyring.quotient_inverse_ppower.calls": 1,
      "switch.product_rule_pairs": 625}),
    (["coeffs", "--p", "7", "--trials", "10", "--output", "json"],
     {"polyring.quotient_inverse_linear.calls": 11,
      "laguerre.c_coefficients.calls": 11}),
    (["switch", "--builtin", "witt:5+witt:5", "--derivation", "ad:1",
      "--output", "json"],
     {"polyring.quotient_inverse_ppower.calls": 25,
      "switch.pair_series.calls": 25,
      "switch.product_rule_pairs": 100}),
]


@pytest.mark.parametrize("argv,want", EXACT, ids=lambda x: " ".join(x)
                         if isinstance(x, list) else "")
def test_trace_exact_counts(lib, argv, want):
    got = traced(lib, argv)
    assert {k: got[k] for k in want} == want
    assert got["cli.overhead_s"] > 0


def test_wrappers_reach_every_binding_and_come_off(lib):
    original = lib.galg.generalized_eigenspaces
    # defined in galg, re-exported by the package, imported by switch
    sites = spans.binding_sites(original)
    holders = {getattr(c, "__name__", None) for c, _, _ in sites}
    assert {"gradeswitch", "gradeswitch.galg",
            "gradeswitch.switch"} <= holders
    alias = lib.polyring.QuotientElement.__dict__["__rmul__"]
    tracer = spans.Tracer()
    inst = spans.install_spans(tracer)
    assert lib.switch.generalized_eigenspaces is not original
    assert lib.cli.COMMANDS["switch"] is not lib.cli.cmd_switch.__wrapped__
    assert lib.polyring.QuotientElement.__dict__["__rmul__"] is not alias
    inst.remove()
    assert lib.switch.generalized_eigenspaces is original
    assert lib.polyring.QuotientElement.__dict__["__rmul__"] is alias
    assert lib.cli.COMMANDS["switch"] is lib.cli.cmd_switch


def test_field_counts_need_their_own_pass(lib):
    counter = spans.Tracer()
    inst = spans.install_counts(counter)
    try:
        counter.begin_task(0)
        F = lib.fields.GF(5, 2)
        x = F.gen * F.gen
        2 * x
        x.inverse()
        counter.end_task()
    finally:
        inst.remove()
    assert counter.counts == {"fields.mul": 2, "fields.inverse": 1}
    assert not counter.spans


def signature(task):
    if task.objects is not None:
        A, D = task.objects
        return json.dumps([task.kind, A.to_json(),
                           [[int(x) for x in r] for r in D.rows]])
    sig = [task.kind, task.argv]
    if "--input" in task.argv:
        with open(task.argv[task.argv.index("--input") + 1]) as fh:
            sig.append(fh.read())
    return json.dumps(sig)


def cycles(lib, workload, seed, count=2):
    stream = workloads.Stream(lib, workload, seed)
    # read input files before the next cycle overwrites them
    return [[signature(t) for t in stream.next_cycle()]
            for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(lib, workload):
    first = cycles(lib, workload, 3)
    assert cycles(lib, workload, 3) == first
    other = cycles(lib, workload, 4)
    assert other != first
    # a fresh draw every cycle, never a replay
    assert first[0] != first[1]
    # the same kinds in every cycle, whatever the seed
    kinds = sorted(json.loads(s)[0][0] for s in first[0])
    assert kinds == sorted(json.loads(s)[0][0] for s in other[1])


def test_no_task_starts_a_process_or_thread(lib, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("a task started a process, pool or thread")

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    for workload in workloads.WORKLOADS:
        stream = workloads.Stream(lib, workload, 1)
        seen = set()
        for slot, kind in enumerate(workloads.cycle_kinds(workload)):
            if kind in seen:
                continue
            seen.add(kind)
            task = stream._make(kind, slot)
            if kind[0] == "coeffs":
                assert task.argv[task.argv.index("--jobs") + 1] == "1"
            code, text, res = workloads.execute(lib, task)
            assert workloads.check(lib, task, code, text, res) == []


def test_reference_kernel_is_fixed_work_outside_the_package():
    assert calibrate.kernel() == calibrate.CHECKSUM
    assert calibrate.sample() > 0
    import gc
    assert gc.isenabled()
    with open(calibrate.__file__) as fh:
        assert "gradeswitch" not in fh.read()


def test_reference_times_follow_the_local_kernel_speed():
    ref = calibrate.REFERENCE_S
    tally = run.Tally(calibrated=True)
    tally.times = [1.0] * 6 + [2.0]
    tally.cals = [ref] * 3 + [2 * ref] * 4
    got = tally.reference_times()
    assert got[0] == got[1] == 1.0
    assert got[-2] == 0.5 and got[-1] == 1.0


def test_cycle_count_depends_on_seconds_alone():
    assert [workloads.cycles_for(w, 16) for w in workloads.WORKLOADS] == \
        [4, 3, 2]
    assert workloads.cycles_for("tables", 1) == 1
    assert set(workloads.CYCLE_S) == set(workloads.WORKLOADS)


def test_tail_rank():
    assert run.tail_rank(100) == (90, 90)
    assert run.tail_rank(26) == (61, 16)
    for n in range(11, 400):
        pct, rank = run.tail_rank(n)
        assert n - rank >= 10
        higher = -(-(pct + 1) * n // 100)
        assert n - higher < 10


def test_benchmark_json_matches_the_report():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {name: spans.UNITS[what] for name, what, _ in spans.PER_LAYER}
    want["trace_overhead_frac"] = "frac"
    assert layers == want
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
