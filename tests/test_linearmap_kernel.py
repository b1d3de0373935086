"""Differential tests of the packed-int kernel behind ``LinearMap``.

Products and applies are compared with a schoolbook reference that sums
``FqElement`` products one term at a time, over prime fields, log-table
fields and fields above the log-table cap, for sizes 0 up to 40.  The
additive operations are compared with their entrywise definitions.
Skipped when hypothesis is not installed."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch.fields import GF, _TABLE_CAP  # noqa: E402
from gradeswitch.galg import LinearMap  # noqa: E402

FIELDS = [GF(2), GF(3), GF(7), GF(2, 3), GF(3, 2), GF(5, 5), GF(7, 7),
          GF(2, 17)]
assert [F.q > _TABLE_CAP for F in FIELDS][-2:] == [True, True]
MAX_N = 40
# the schoolbook reference spends n^3 element products on a matrix product;
# above the table cap each one is a polynomial product, so keep those small
MAX_PRODUCT_N = {F: (MAX_N if F.q <= _TABLE_CAP else 10) for F in FIELDS}

SETTINGS = hypothesis.settings(max_examples=40, deadline=None,
                               derandomize=True, database=None)


def reference_dot(row, col, field):
    acc = field.zero
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def reference_product(A, B):
    cols = [B.column(j) for j in range(B.n)]
    return tuple(tuple(reference_dot(row, col, A.field) for col in cols)
                 for row in A.rows)


def reference_apply(A, v):
    return tuple(reference_dot(row, v, A.field) for row in A.rows)


def entry(field, rng):
    # the all-(p-1) element fills every slot of the packing the most
    kind = rng.randrange(4)
    if kind == 0:
        return field.zero
    if kind == 1:
        return field.from_coeffs([field.p - 1] * field.n)
    return field.random_element(rng)


def matrix(field, n, rng):
    return LinearMap(field, [[entry(field, rng) for _ in range(n)]
                             for _ in range(n)])


# hypothesis draws the field, the size and a seed; the entries come from
# the seed, which keeps drawing a 40 x 40 matrix cheap
@st.composite
def product_cases(draw, max_n=None):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, max_n or MAX_PRODUCT_N[F]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return matrix(F, n, rng), matrix(F, n, rng)


@st.composite
def apply_cases(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, MAX_N))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return matrix(F, n, rng), tuple(entry(F, rng) for _ in range(n))


@SETTINGS
@hypothesis.given(product_cases())
def test_product_matches_reference(case):
    A, B = case
    C = A * B
    assert C.rows == reference_product(A, B)
    # the trusted result is the map the checked constructor would build
    assert C == LinearMap(A.field, C.rows)
    assert hash(C) == hash(LinearMap(A.field, C.rows))
    # cached packed rows and columns give the same answer again
    assert (A * B).rows == C.rows
    assert (C * A).rows == reference_product(C, A)


@SETTINGS
@hypothesis.given(apply_cases())
def test_apply_matches_reference(case):
    A, v = case
    assert A.apply(v) == reference_apply(A, v)


@SETTINGS
@hypothesis.given(product_cases(max_n=8), st.integers(-10, 10))
def test_additive_operations_match_entrywise(case, k):
    A, B = case
    F, n = A.field, A.n
    s = F.from_coeffs([k] + [1] * (F.n - 1))
    eye = [[F.one if i == j else F.zero for j in range(n)]
             for i in range(n)]
    assert (A + B).rows == tuple(tuple(a + b for a, b in zip(r, t))
                                 for r, t in zip(A.rows, B.rows))
    assert (-A).rows == tuple(tuple(-a for a in r) for r in A.rows)
    assert (A * s).rows == (s * A).rows == tuple(
        tuple(a * s for a in r) for r in A.rows)
    for c in (s, k):
        shifted = (A + c).rows
        assert shifted == tuple(
            tuple(a + e[j] * c for j, a in enumerate(r))
            for r, e in zip(A.rows, eye))
        # adding a scalar leaves every entry off the diagonal as it was
        assert all(shifted[i][j] is A.rows[i][j]
                   for i in range(n) for j in range(n) if i != j)
    assert A - B == A + (-B)


def test_interned_elements_stay_bounded(monkeypatch):
    # GF(2^17) has far more elements than the table may hold, so however
    # many earlier tests interned, the products below bring new ones and
    # the table grows exactly to the patched cap
    from gradeswitch import fields
    F = GF(2, 17)
    monkeypatch.setattr(fields, "_INTERN_CAP",
                        len(fields._interned(F)) + 3)
    assert fields._INTERN_CAP < F.q
    rng = random.Random(5)
    A, B = matrix(F, 12, rng), matrix(F, 12, rng)
    assert (A * B).rows == reference_product(A, B)
    assert len(fields._interned(F)) == fields._INTERN_CAP


def test_dot_kernel_packed_table_stays_bounded(monkeypatch):
    # the dot kernel packs from the field's table of packed ints, capped
    # like the interned elements: packing elements it has not seen fills
    # it exactly to the patched cap, and the packs past the cap are
    # still right
    from gradeswitch import fields
    F = GF(2, 17)
    pack, _, bits = F.dot_kernel(9, 4)
    width = bits // (4 * (F.n - 1) + 1)
    table = fields._packed(F, width)
    monkeypatch.setattr(fields, "_INTERN_CAP", len(table) + 3)
    assert fields._INTERN_CAP < F.q
    rng = random.Random(6)
    fresh = [x for x in (F.random_element(rng) for _ in range(40))
             if x.coeffs not in table]
    assert len(fresh) > 3
    for x in fresh:
        assert pack(x) == sum(c << (i * width)
                              for i, c in enumerate(x.coeffs))
    assert len(table) == fields._INTERN_CAP
