"""Field axioms and interning of FqElement arithmetic.

Below the log/exp table cap, ``+``, ``-`` and negation are Zech-logarithm
lookups that return the table's own elements (``F.zero`` for zero); above
it they are coefficient-wise tuple arithmetic.  Both are checked against
coefficient-wise reference arithmetic, with int operands on either side,
and against the ring laws: associativity, distributivity over ``*`` and
the Frobenius ``(x + y)^p = x^p + y^p``.  Small fields are checked on
every pair, larger ones on seeded draws that include 0, 1 and -1."""

import itertools
import random

import pytest

from gradeswitch import fields
from gradeswitch.fields import GF, _TABLE_CAP

SMALL = [GF(2), GF(3), GF(2, 2), GF(2, 3), GF(3, 2), GF(7, 2)]
DRAWN = [GF(5, 5), GF(2, 10), GF(2, 17), GF(5, 7)]
assert [F.q > _TABLE_CAP for F in DRAWN] == [False, False, True, True]
ALL = SMALL + DRAWN


def draws(F, count):
    rng = random.Random(F.q)
    return [F.zero, F.one, -F.one] + [F.random_element(rng)
                                      for _ in range(count)]


def pairs(F):
    if F in SMALL:
        xs = list(F.elements())
        return list(itertools.product(xs, xs))
    xs = draws(F, 60)
    return list(zip(xs, xs[1:] + xs[:1])) + [(x, x) for x in xs]


def triples(F):
    if F.q <= 9:
        xs = list(F.elements())
        return list(itertools.product(xs, xs, xs))
    xs = draws(F, 90)
    return list(zip(xs[0::3], xs[1::3], xs[2::3])) + [(xs[3], xs[3], xs[3])]


def ref_sum(x, y, sign=1):
    """x + sign y coefficient by coefficient, as a coefficient tuple."""
    p = x.field.p
    return tuple((a + sign * b) % p for a, b in zip(x.coeffs, y.coeffs))


def ref_scalar(F, k):
    return ((k % F.p),) + (0,) * (F.n - 1)


def own(F, x):
    """x is F.zero or the table's element with x's coefficients."""
    if not any(x.coeffs):
        return x is F.zero
    return x is F._exp[F._log[x.coeffs]]


@pytest.mark.parametrize("F", ALL, ids=repr)
def test_sums_differences_and_negation_match_the_reference(F):
    for x, y in pairs(F):
        assert (x + y).coeffs == ref_sum(x, y)
        assert (x - y).coeffs == ref_sum(x, y, -1)
        assert (-x).coeffs == ref_sum(F.zero, x, -1)
        assert x + y == y + x
        assert x - y == -(y - x)
        assert (x - y) + y == x
        assert -(-x) == x


@pytest.mark.parametrize("F", ALL, ids=repr)
def test_int_operands_on_either_side(F):
    p = F.p
    ks = [0, 1, 2, p - 1, p, p + 1, 2 * p + 3, -1, -p - 2]
    for x in draws(F, 8):
        for k in ks:
            c = F.scalar(k)
            assert c.coeffs == ref_scalar(F, k)
            assert (x + k).coeffs == (k + x).coeffs == ref_sum(x, c)
            assert (x - k).coeffs == ref_sum(x, c, -1)
            assert (k - x).coeffs == ref_sum(c, x, -1)
            assert k * x == x * k == c * x


@pytest.mark.parametrize("F", ALL, ids=repr)
def test_ring_laws(F):
    p = F.p
    for x, y, z in triples(F):
        assert (x + y) + z == x + (y + z)
        assert (x - y) - z == x - (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x - y) * z == x * z - y * z
    for x, y in pairs(F):
        assert (x + y) ** p == x ** p + y ** p
        assert (x - y) ** p == x ** p - y ** p


@pytest.mark.parametrize("F", ALL, ids=repr)
def test_results_are_interned_below_the_cap(F):
    below = F.q <= _TABLE_CAP
    for x, y in pairs(F):
        assert (x + (-x) is F.zero) == below
        assert (x - x is F.zero) == below
        if below:
            assert own(F, x + y) and own(F, x - y) and own(F, -x)
            assert own(F, x + 1) and own(F, 1 - x)
        if x:
            assert (x * x.inverse() is F.one) == below
        if F.p == 2:
            assert -x == x
    for k in range(-1, F.p + 1):
        assert (F.scalar(k) is F.scalar(k)) == below
    assert (F.scalar(1) is F.one) == below


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (3, 2), (2, 4), (5, 3)])
def test_first_operation_builds_the_tables(p, n):
    """Interning depends on q alone: the first sum, difference, negation
    or scalar of a field that has not multiplied yet builds the tables and
    returns the table's own element."""
    firsts = [lambda x: x + x, lambda x: x - x, lambda x: -x,
              lambda x: x.field.scalar(p - 1)]
    for first in firsts:
        # a field object of its own, so no earlier test built its tables
        F = fields.FqField(p, n, GF(p, n).modulus)
        assert F._log is None
        assert own(F, first(F.gen))
        assert F.gen + F.gen is F.gen * 2
