"""Differential tests of the packed-int elimination in ``echelon``.

The reference is the element-arithmetic engine that ``Echelon.reduce``
replaced: one ``FqElement`` product and difference per entry.  Both engines
run the same elimination, so every basis, reduction, kernel, solution and
dependence must be the same element for element.  The fields cover prime
fields, log-table fields and fields above the log-table cap; the inputs
are sparse, dense, rank-deficient and all-(p-1), up to a full `width` of
stored rows.  Skipped when hypothesis is not installed."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch.echelon import (  # noqa: E402
    Echelon, first_dependence, kernel, rref, solve)
from gradeswitch.fields import GF, _TABLE_CAP  # noqa: E402

FIELDS = [GF(2), GF(3), GF(7), GF(3, 2), GF(5, 5), GF(5, 7), GF(2, 17)]
assert [F.q > _TABLE_CAP for F in FIELDS][-2:] == [True, True]
KINDS = ("sparse", "dense", "deficient", "top")
MAX_N = 14

SETTINGS = hypothesis.settings(max_examples=40, deadline=None,
                               derandomize=True, database=None)


# ---------------------------------------------------------------------------
# the reference engine


class ReferenceEchelon:
    """Echelon basis reduced entry by entry with element arithmetic."""

    def __init__(self, vectors=(), width=None):
        self.width = width
        self.rows = []  # (pivot, dense row, [(column, nonzero entry)])
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        w = list(v)
        for c, _, nz in self.rows:
            f = w[c]
            if f:
                for i, x in nz:
                    w[i] = w[i] - f * x
        return w

    def contains(self, v):
        return not any(self.reduce(v))

    def add(self, v):
        return self._insert(self.reduce(v)) is not None

    def _insert(self, w):
        width = len(w) if self.width is None else self.width
        c = next((i for i in range(width) if w[i]), None)
        if c is not None:
            inv = w[c].inverse()
            row = [x * inv if x else x for x in w]
            self.rows.append((c, row, _support(row, c)))
        return c

    def rref(self):
        rows = sorted(self.rows, key=lambda e: e[0])
        for k in range(len(rows) - 1, -1, -1):
            c, _, nz = rows[k]
            for j in range(k):
                cj, row, _ = rows[j]
                f = row[c]
                if f:
                    for i, x in nz:
                        row[i] = row[i] - f * x
                    rows[j] = (cj, row, _support(row, cj))
        self.rows = rows
        return (tuple(tuple(row) for _, row, _ in rows),
                tuple(c for c, _, _ in rows))


def _support(row, start):
    return [(i, row[i]) for i in range(start, len(row)) if row[i]]


def reference_kernel(rows, n, field):
    red, piv = ReferenceEchelon(rows).rref()
    pivots = set(piv)
    out = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in zip(red, piv):
            v[pc] = -r[fc]
        out.append(tuple(v))
    return tuple(out)


def reference_solve(rows, rhs, field):
    n = len(rows[0]) if rows else 0
    ech = ReferenceEchelon(width=n)
    for row, b in zip(rows, rhs):
        w = ech.reduce(list(row) + [b])
        if ech._insert(w) is None and w[n]:
            return None
    x = [field.zero] * n
    for c, row, nz in reversed(ech.rows):
        acc = row[n]
        for i, a in nz:
            if c < i < n and x[i]:
                acc = acc - a * x[i]
        x[c] = acc
    return x


def reference_first_dependence(vectors, field):
    ech = None
    for t, v in enumerate(vectors):
        if ech is None:
            ech = ReferenceEchelon(width=len(v))
        w = ech.reduce(list(v) + [field.zero] * t + [field.one])
        if ech._insert(w) is None:
            return w[ech.width:ech.width + t]
    return None


# ---------------------------------------------------------------------------
# inputs


def top(field):
    """The all-(p-1) element: every slot of its packing at the maximum."""
    return field.from_coeffs([field.p - 1] * field.n)


def vectors(field, kind, m, n, rng):
    """m vectors of length n.  'top' vectors hold the all-(p-1) element
    from column i on, so the first n of them are independent."""
    if kind == "top":
        t = top(field)
        return [[t if j >= i % n else field.zero for j in range(n)]
                for i in range(m)]
    if kind == "deficient":
        basis = vectors(field, "dense", rng.randrange(n), n, rng)
        out = []
        for _ in range(m):
            acc = [field.zero] * n
            for b in basis:
                c = field.random_element(rng)
                acc = [a + c * x for a, x in zip(acc, b)]
            out.append(acc)
        return out
    if kind == "sparse":
        return [[field.random_element(rng) if rng.random() < 0.2
                 else field.zero for _ in range(n)] for _ in range(m)]
    return [[top(field) if rng.random() < 0.25
             else field.random_element(rng) for _ in range(n)]
            for _ in range(m)]


@st.composite
def systems(draw, max_rows=MAX_N + 2):
    """(field, n, rows, rng): rows of one kind, the rng for more."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(KINDS))
    # sizes from the seed: hypothesis would draw mostly the smallest
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = rng.randrange(1, MAX_N + 1)
    m = rng.randrange(max_rows + 1)
    return field, n, vectors(field, kind, m, n, rng), rng


def probes(field, n, rows, rng):
    """Vectors to reduce: the inputs, one vector of each kind, and a
    combination of the inputs plus the all-(p-1) vector."""
    out = [list(r) for r in rows]
    for kind in KINDS:
        out += vectors(field, kind, 1, n, rng)
    acc = [top(field)] * n
    for r in rows:
        c = field.random_element(rng)
        acc = [a + c * x for a, x in zip(acc, r)]
    return out + [acc]


def stored(ech):
    return [(e[0], list(e[1])) for e in ech.rows]


# ---------------------------------------------------------------------------
# the comparisons


@SETTINGS
@hypothesis.given(systems(), st.booleans())
def test_basis_reduce_and_rref_match_reference(case, narrow):
    field, n, rows, rng = case
    width = rng.randrange(1, n + 1) if narrow else None
    ech, ref = Echelon(width=width), ReferenceEchelon(width=width)
    for r in rows:
        assert ech.add(r) == ref.add(r)
    assert ech.rank == ref.rank
    assert stored(ech) == stored(ref)
    vs = probes(field, n, rows, rng)
    for v in vs:
        assert ech.reduce(v) == ref.reduce(v)
        assert ech.contains(v) == ref.contains(v)
    assert ech.rref() == ref.rref()
    for v in vs:
        assert ech.reduce(v) == ref.reduce(v)
    assert rref(rows) == ReferenceEchelon(rows).rref()


@SETTINGS
@hypothesis.given(systems())
def test_full_width_of_stored_rows(case):
    # n stored rows of a unit pivot and all-(p-1) entries after it, then
    # vectors of the all-(p-1) element and its negative, whose multiples
    # of those rows fill the packed slots the most
    field, n, _, rng = case
    t = top(field)
    rows = [[field.zero] * i + [field.one] + [t] * (n - i - 1)
            for i in range(n)]
    ech, ref = Echelon(rows), ReferenceEchelon(rows)
    assert ech.rank == ref.rank == n
    for v in [[t] * n, [-t] * n] + vectors(field, "dense", 3, n, rng):
        assert ech.reduce(v) == ref.reduce(v) == [field.zero] * n
        w = v + [t, -t]     # columns past the width ride along
        assert Echelon(rows, width=n).reduce(w) == \
            ReferenceEchelon(rows, width=n).reduce(w)
    assert ech.rref() == ref.rref()


@SETTINGS
@hypothesis.given(systems())
def test_kernel_matches_reference(case):
    field, n, rows, _ = case
    assert kernel(rows, n, field) == reference_kernel(rows, n, field)


@SETTINGS
@hypothesis.given(systems(), st.sampled_from(KINDS))
def test_solve_matches_reference(case, rhs_kind):
    field, n, rows, rng = case
    m = len(rows)
    # consistent: b = A x0
    x0 = vectors(field, "dense", 1, n, rng)[0]
    b = [sum((a * x for a, x in zip(row, x0)), field.zero) for row in rows]
    x = solve(rows, b, field)
    assert x == reference_solve(rows, b, field)
    assert x is not None or not rows
    # any right-hand side: often inconsistent for deficient rows
    b = vectors(field, rhs_kind, 1, m, rng)[0] if m else []
    assert solve(rows, b, field) == reference_solve(rows, b, field)


@SETTINGS
@hypothesis.given(systems())
def test_first_dependence_matches_reference(case):
    field, n, rows, rng = case
    assert first_dependence(rows, field) == \
        reference_first_dependence(rows, field)
    # a Krylov-like run: powers of a matrix applied to a vector
    v = vectors(field, "dense", 1, n, rng)[0]
    M = vectors(field, "sparse", n, n, rng)
    krylov = [v]
    for _ in range(n):
        v = [sum((a * x for a, x in zip(row, v)), field.zero) for row in M]
        krylov.append(v)
    assert first_dependence(krylov, field) == \
        reference_first_dependence(krylov, field)
