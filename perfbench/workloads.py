"""Seeded task streams for the three benchmark workloads, with the
benchmark's own correctness checks.

A workload is a fixed template of task kinds.  Every cycle of the stream
draws fresh inputs for each kind from the seed and shuffles the order, so
each cycle has the same cost profile but different inputs:

* coefficient-table tasks get a fresh ``coeffs --seed``;
* switch tasks get a random diagonal change of basis ``f_i = s_i e_i`` of the
  built-in algebra and a random nonzero multiple ``c D`` of the derivation.
  Both keep the grading, the sparsity pattern and the eigenvalue set, so the
  work stays the same while every matrix entry, and the report, changes;
* toral tasks pick which Witt summand the root vector comes from.

The program only receives the generated argv or objects.  Nothing here
starts a thread or a process; ``coeffs`` always runs with ``--jobs 1``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random

# (kind, count per cycle).  A kind names the command and its input size;
# the seed only draws values that keep that size.
TEMPLATES = {
    # coefficient tables: polyring's linear quotient inverse (p^2 x p^2
    # solve over field entries); galg, switch and toral never run
    "tables": [
        (("coeffs", 7, 2, 1), 6),      # GF(7^2), under the log/exp table cap
        (("coeffs", 5, 7, 1), 8),      # GF(5^7), above the cap
        (("coeffs", 7, 1, 1), 3),
        (("coeffs", 5, 2, 3), 5),
        (("identities", 5), 1),
        (("identities", 7), 1),
        (("identities", 11), 1),
    ],
    # L_D built and graded-checked without the product rule: galg and
    # fields; no quotient ring
    "operator": [
        (("switch_lib", "tpoly:5:25:5", "ddx"), 1),     # r = 2
        (("switch_lib", "tpoly:3:27:3", "ddx"), 1),     # r = 3
        (("switch_lib", "tpoly:5:25:5", "xddx"), 3),
        (("switch_lib", "witt:5+witt:5+witt:5", "ad:1"), 4),
        (("switch_lib", "witt:5+witt:5", "ad:1"), 1),
        (("switch_lib", "witt:7+witt:7", "ad:0"), 1),
        (("switch_lib", "tpoly:3:9:3", "ddx"), 2),      # r = 2
        (("toral", "witt:5+witt:5"), 1),
        (("toral", "witt:7"), 1),
        (("toral", "witt:5"), 1),
    ],
    # full switch runs: the product-rule pair series and its p-power
    # quotient inverse over truncated-series entries
    "product_rule": [
        (("switch_cli", "witt:5+witt:5", "ad:1"), 3),
        (("switch_cli", "tpoly:5:5:5", "xddx"), 2),
        (("switch_cli", "witt:5", "ad:1"), 1),
        (("switch_cli", "witt:11", "ad:0"), 1),
        (("switch_cli", "tpoly:3:9:3", "ddx"), 4),
        (("switch_cli", "witt:3+witt:3+witt:3", "ad:1"), 2),
        (("switch_cli", "witt:3+witt:3", "ad:1"), 2),
        (("switch_cli", "tpoly:3:3:3", "xddx"), 2),
    ],
}

# reference seconds (see calibrate.py) of one cycle, measured on the package
# as it stood when the benchmark was added; a run of `seconds` times
# ceil(seconds / CYCLE_S) cycles, the same count on every run and host
CYCLE_S = {"tables": 5.2, "operator": 5.7, "product_rule": 9.8}

WORKLOADS = tuple(TEMPLATES)
DEFAULT_SEED = 0
INPUT_DIR = os.path.join("perfbench", "out", "inputs")


def kind_name(kind):
    return "/".join(str(k) for k in kind)


def cycle_kinds(workload):
    return [kind for kind, count in TEMPLATES[workload]
            for _ in range(count)]


def cycles_for(workload, seconds):
    return max(1, math.ceil(seconds / CYCLE_S[workload]))


def distinct_fields(workload):
    """(p, n) of every field the workload's inputs and reports live in."""
    out = set()
    for kind in cycle_kinds(workload):
        if kind[0] == "coeffs":
            out.add((kind[1], kind[2]))
        elif kind[0] == "identities":
            out.add((kind[1], 1))
        else:
            p = int(kind[1].split("+")[0].split(":")[1])
            out.add((p, 1))
            if kind[-1] in ("xddx", "ad:1"):
                out.add((p, p))  # eigenvalues split over GF(p^p)
    return sorted(out)


class Task:
    """One generated task: what to run, and what the checks need."""

    __slots__ = ("index", "kind", "argv", "objects", "expect")

    def __init__(self, index, kind, argv=None, objects=None, expect=None):
        self.index = index
        self.kind = kind
        self.argv = argv
        self.objects = objects
        self.expect = expect or {}


class Stream:
    """The task stream of one workload, cycle by cycle, from one seed.

    ``lib`` is the imported ``gradeswitch`` package; its modules are read
    at call time so that timing wrappers installed later are seen.
    """

    def __init__(self, lib, workload, seed):
        if workload not in TEMPLATES:
            raise ValueError("unknown workload %r" % workload)
        self.lib = lib
        self.workload = workload
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.count = 0

    def next_cycle(self):
        kinds = cycle_kinds(self.workload)
        self.rng.shuffle(kinds)
        tasks = []
        for slot, kind in enumerate(kinds):
            tasks.append(self._make(kind, slot))
            self.count += 1
        return tasks

    # -- generation ----------------------------------------------------------

    def _make(self, kind, slot):
        rng, idx = self.rng, self.count
        if kind[0] == "coeffs":
            _, p, n, trials = kind
            argv = ["coeffs", "--p", str(p), "--field-degree", str(n),
                    "--trials", str(trials), "--seed",
                    str(rng.randrange(1 << 30)), "--jobs", "1",
                    "--output", "json"]
            return Task(idx, kind, argv=argv)
        if kind[0] == "identities":
            return Task(idx, kind, argv=["identities", "--p", str(kind[1]),
                                         "--output", "json"])
        if kind[0] == "toral":
            spec = kind[1]
            sizes = [int(part.split(":")[1]) for part in spec.split("+")]
            which = rng.randrange(len(sizes))
            slot_x = sum(sizes[:which])  # e_{-1} of the chosen summand
            argv = ["toral", "--builtin", spec, "--x", "slot:%d" % slot_x,
                    "--output", "json"]
            return Task(idx, kind, argv=argv)
        _, spec, der = kind
        A, D = self._rescaled(spec, der)
        expect = {"dim": A.dim, "exp_check": der == "ad:0" and
                  spec.startswith("witt")}
        if kind[0] == "switch_lib":
            return Task(idx, kind, objects=(A, D), expect=expect)
        os.makedirs(INPUT_DIR, exist_ok=True)
        path = os.path.join(INPUT_DIR, "%s-%02d.json" % (self.workload, slot))
        doc = {"algebra": A.to_json(),
               "derivation": [[int(x) for x in row] for row in D.rows]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        expect["derivation"] = D
        argv = ["switch", "--input", path, "--derivation", "json",
                "--output", "json"]
        return Task(idx, kind, argv=argv, expect=expect)

    def _rescaled(self, spec, der):
        """The builtin (spec, der) in the basis f_i = s_i e_i, times c."""
        cli = self.lib.cli
        galg = self.lib.galg
        A = cli._parse_builtin(spec)
        D = cli._parse_derivation(A, der, None)
        field, n, p = A.field, A.dim, A.field.p
        s = [field.scalar(self.rng.randrange(1, p)) for _ in range(n)]
        inv = [x.inverse() for x in s]
        c = field.scalar(self.rng.randrange(1, p))
        prods = {(i, j): [(k, s[i] * s[j] * inv[k] * a) for k, a in terms]
                 for (i, j), terms in A.products.items()}
        pmap = None
        if A.pmap is not None:
            pmap = [[s[i] ** p * inv[k] * A.pmap[i][k] for k in range(n)]
                    for i in range(n)]
        B = galg.GradedAlgebra(field, A.m, A.degrees, prods, pmap)
        E = galg.LinearMap(field, [[c * D.rows[i][j] * s[j] * inv[i]
                                    for j in range(n)] for i in range(n)])
        return B, E


# ---------------------------------------------------------------------------
# running and checking


def execute(lib, task):
    """Run one task; returns (exit code, report text, result object)."""
    if task.objects is not None:
        A, D = task.objects
        res = lib.switch.switch_grading(A, D, check_product_rule=False)
        text = json.dumps(res.to_json(), sort_keys=True, indent=2)
        return (0 if res.grading_ok else 1), text, res
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(task.argv))
    return code, out.getvalue(), None


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(lib, task, code, text, res):
    """Problems found in one task's output; an empty list means it passed."""
    if code != 0:
        return ["exit code %d" % code]
    if res is not None:
        problems = [] if res.grading_ok else ["grading check failed"]
        if task.expect["exp_check"]:
            D = task.objects[1]
            E = lib.laguerre.truncated_exp(D.field.p, D.field).evaluate(D)
            if res.switch_map != E:
                problems.append("switch map differs from E(D)")
        return problems
    doc = json.loads(text)
    if doc.get("verdict") != "pass":
        return ["verdict %r" % doc.get("verdict")]
    kind = task.kind[0]
    if kind == "coeffs":
        return _check_tables(lib, task, doc)
    if kind == "identities":
        want = len(lib.laguerre.IDENTITY_NAMES) + 2
        rows = doc["results"]
        if len(rows) != want or not all(r["passed"] for r in rows):
            return ["identity suite incomplete or failing"]
        return []
    if kind == "switch_cli":
        row = doc["results"][0]
        problems = []
        if row["product_rule_pairs"] != task.expect["dim"] ** 2:
            problems.append("product rule checked %r pairs, want %d"
                            % (row["product_rule_pairs"],
                               task.expect["dim"] ** 2))
        if not row["grading_ok"]:
            problems.append("grading check failed")
        if task.expect["exp_check"]:
            D = task.expect["derivation"]
            E = lib.laguerre.truncated_exp(D.field.p, D.field).evaluate(D)
            want = [[list(x.coeffs) for x in r] for r in E.rows]
            if row["switch_map"] != want:
                problems.append("switch map differs from E(D)")
        return problems
    return []  # toral: exit code and verdict are its checks


def _check_tables(lib, task, doc):
    """Redo u * table == v for every trial through quotient_mul, as
    acceptance criterion 3 does, from the reported c-values alone."""
    lag, poly = lib.laguerre, lib.polyring
    p = int(task.kind[1])
    field = lib.fields.GF(p, int(task.kind[2]))
    problems = []
    for row in doc["results"]:
        if row["trial"] == "zero_pair":
            closed = lag.zero_pair_closed_form(p, field)
            want = [list(x.coeffs) for x in closed]
            if row["c_values"] != want:
                problems.append("zero-pair table differs from closed form")
            continue
        a, b = field.from_coeffs(row["a"]), field.from_coeffs(row["b"])
        cvals = [field.from_coeffs(c) for c in row["c_values"]]
        ring = poly.QuotientRing(p, a ** p - a, b ** p - b)
        entries = [[field.zero] * p for _ in range(p)]
        entries[0][0] = cvals[0]
        for i in range(1, p):
            entries[i][p - i] = cvals[i]
        table = ring.element(entries)
        v = poly.quotient_mul(ring.from_x_poly(lag.laguerre_at(p, a).coeffs),
                              ring.from_y_poly(lag.laguerre_at(p, b).coeffs))
        u = lag._laguerre_xy_quotient(ring, lag.laguerre_at(p, a + b).coeffs,
                                      p)
        if poly.quotient_mul(u, table) != v:
            problems.append("table reconstruction failed in trial %s"
                            % row["trial"])
    return problems
