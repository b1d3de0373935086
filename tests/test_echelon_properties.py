"""Property tests of the elimination engine and the routines built on it,
over prime fields and extension fields.  Skipped when hypothesis is not
installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch.echelon import Echelon, kernel, solve  # noqa: E402
from gradeswitch.fields import GF  # noqa: E402
from gradeswitch.galg import LinearMap  # noqa: E402
from gradeswitch.switch import (  # noqa: E402
    HypothesisError, p_power_relation, semisimple_exponent)
from oracles import inverse, relation_holds  # noqa: E402
from test_galg import brute_char_poly  # noqa: E402

FIELDS = [GF(2), GF(3), GF(5), GF(2, 3), GF(3, 2)]

SETTINGS = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)


def elements(field):
    return st.integers(0, field.q - 1).map(field.from_int)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, square=False):
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, max_rows))
    n = m if square else draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(elements(field), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return field, n, rows


def apply(rows, x, field):
    out = []
    for row in rows:
        acc = field.zero
        for a, b in zip(row, x):
            acc = acc + a * b
        out.append(acc)
    return out


@SETTINGS
@hypothesis.given(matrices(), st.randoms(use_true_random=False))
def test_rref_is_canonical(case, rnd):
    field, n, rows = case
    want = Echelon(rows).rref()
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert Echelon(shuffled).rref() == want
    scaled = [[x * c for x in row] for row, c in
              zip(rows, (field.from_int(rnd.randrange(1, field.q))
                         for _ in rows))]
    assert Echelon(scaled).rref() == want
    combos = []
    for _ in range(2):
        acc = [field.zero] * n
        for row in rows:
            c = field.from_int(rnd.randrange(field.q))
            acc = [a + c * x for a, x in zip(acc, row)]
        combos.append(acc)
    assert Echelon(rows + combos).rref() == want
    # the reduced rows are in echelon form with unit pivot columns
    red, piv = want
    assert list(piv) == sorted(piv)
    for k, c in enumerate(piv):
        assert [row[c] for row in red] == \
            [field.one if j == k else field.zero for j in range(len(red))]


@SETTINGS
@hypothesis.given(matrices())
def test_kernel_vectors_map_to_zero(case):
    field, n, rows = case
    ker = kernel(rows, n, field)
    for v in ker:
        assert apply(rows, v, field) == [field.zero] * len(rows)
    assert Echelon(rows).rank + len(ker) == n
    assert Echelon(ker).rank == len(ker)


@SETTINGS
@hypothesis.given(matrices(), st.data())
def test_solve_exactly_on_the_column_space(case, data):
    field, n, rows = case
    m = len(rows)
    x0 = data.draw(st.lists(elements(field), min_size=n, max_size=n))
    b = apply(rows, x0, field)
    x = solve(rows, b, field)
    assert x is not None and apply(rows, x, field) == b
    b = data.draw(st.lists(elements(field), min_size=m, max_size=m))
    columns = [[row[j] for row in rows] for j in range(n)]
    in_span = Echelon(columns).contains(b)
    x = solve(rows, b, field)
    assert (x is not None) == in_span
    if x is not None:
        assert apply(rows, x, field) == b


@SETTINGS
@hypothesis.given(matrices(max_rows=4, square=True))
def test_minimal_polynomial_divides_char_polynomial(case):
    field, _, rows = case
    M = LinearMap(field, rows)
    f = M.minimal_polynomial()
    assert f.leading() == field.one
    assert f.evaluate(M).is_zero()
    assert (brute_char_poly(M) % f).is_zero()


@SETTINGS
@hypothesis.given(matrices(max_rows=3, square=True))
def test_p_power_relation_verifies(case):
    field, _, rows = case
    D = LinearMap(field, rows)
    r = semisimple_exponent(D)
    rel = p_power_relation(D, r)
    assert relation_holds(rel, D)
    assert rel.degenerate or rel.coefficient(r)


RELATION_FIELDS = [GF(2), GF(3), GF(5), GF(3, 2)]


@st.composite
def relation_cases(draw):
    """(D, r): a random matrix, or a nilpotent-plus-semisimple one: a
    diagonal plus a 0/1 superdiagonal, conjugated by a random invertible
    L U."""
    field = draw(st.sampled_from(RELATION_FIELDS))
    n = draw(st.integers(2, 4))
    r = draw(st.integers(0, 2))

    def square():
        return draw(st.lists(st.lists(elements(field), min_size=n,
                                      max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        return LinearMap(field, square()), r
    # repeated eigenvalues and a full superdiagonal give Jordan blocks
    diag = draw(st.one_of(
        elements(field).map(lambda c: [c] * n),
        st.lists(st.sampled_from([field.zero, field.one]), min_size=n,
                 max_size=n),
        st.lists(elements(field), min_size=n, max_size=n)))
    sup = draw(st.one_of(st.just([True] * n),
                         st.lists(st.booleans(), min_size=n, max_size=n)))
    J = LinearMap(field, [[diag[i] if j == i else
                           field.one if j == i + 1 and sup[i] else field.zero
                           for j in range(n)] for i in range(n)])
    a, b = square(), square()
    lower = LinearMap(field, [[field.one if j == i else a[i][j] if j < i
                               else field.zero for j in range(n)]
                              for i in range(n)])
    upper = LinearMap(field, [[field.one if j == i else b[i][j] if j > i
                               else field.zero for j in range(n)]
                              for i in range(n)])
    P = lower * upper
    return P * J * inverse(P), r


@SETTINGS
@hypothesis.given(relation_cases())
def test_p_power_relation_reads_semisimplicity(case):
    # the squarefree minimal polynomial of S = D^(p^r) as the oracle for
    # the relation's nonzero lowest coefficient
    D, r = case
    S = D.p_power(r)
    want = not S.is_zero() and not S.minimal_polynomial().squarefree_is()
    try:
        rel = p_power_relation(D, r)
    except HypothesisError as exc:
        assert want, exc
        assert exc.hypothesis == "D^(p^r) semisimple"
    else:
        assert not want
        assert relation_holds(rel, D)
