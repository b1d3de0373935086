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


FIRSTS = [lambda x: x + x, lambda x: x - x, lambda x: -x,
          lambda x: x * x, lambda x: x ** 3, lambda x: x.inverse(),
          lambda x: 1 - x, lambda x: 3 * x, lambda x: x.field.scalar(-1)]


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (3, 2), (2, 4), (5, 3)])
def test_first_operation_builds_the_tables(p, n):
    """A field builds its tables when it is constructed, so interning
    depends on q alone: a fresh field object has them before any
    operation, and whichever operation comes first, in whichever order,
    returns the table's own element."""
    modulus = GF(p, n).modulus
    F = fields.FqField(p, n, modulus)
    for table in ("_log", "_exp", "_zech", "_scalars"):
        assert getattr(F, table) is not None
    expected = [first(F.gen).coeffs for first in FIRSTS]
    rng = random.Random(p * n)
    for _ in range(4):
        order = list(range(len(FIRSTS)))
        rng.shuffle(order)
        # a field object of its own for every order
        F = fields.FqField(p, n, modulus)
        for i in order:
            x = FIRSTS[i](F.gen)
            assert own(F, x)
            assert x.coeffs == expected[i]
        assert F.gen + F.gen is F.gen * 2


@pytest.mark.parametrize("p, n", [(2, 1), (5, 3), (2, 10), (5, 5), (5, 7)])
def test_construction_neither_multiplies_nor_inverts(p, n, monkeypatch):
    """Building a field's tables runs on coefficient tuples, so a traced
    count of element products and inverses never includes a field built
    inside the traced code."""
    calls = []

    def counted(name):
        method = getattr(fields.FqElement, name)

        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    modulus = GF(p, n).modulus
    for name in ("__mul__", "__rmul__", "inverse"):
        monkeypatch.setattr(fields.FqElement, name, counted(name))
    F = fields.FqField(p, n, modulus)
    assert calls == []
    assert (F._log is None) == (F.q > _TABLE_CAP)
    F.gen * F.gen
    assert calls == ["__mul__"]


@pytest.mark.parametrize("F", ALL, ids=repr)
def test_products_match_the_reference(F):
    """A product is the schoolbook product of the coefficient tuples,
    the table's own element below the cap, and F.zero at every size when
    a factor is 0; int factors are scalars, and elements of two fields do
    not mix."""
    below = F.q <= _TABLE_CAP
    for x, y in pairs(F):
        want = fields._mulmod(x.coeffs, y.coeffs, F.p, F._red)
        assert (x * y).coeffs == want
        if below:
            assert own(F, x * y)
        if not (x and y):
            assert x * y is F.zero
    x = draws(F, 1)[-1]
    assert (x * (F.p + 2)).coeffs == (x * F.scalar(2)).coeffs
    other = GF(F.p, F.n + 1)
    with pytest.raises(ValueError):
        x * other.one
    with pytest.raises(TypeError):
        x * "2"


def schoolbook_powers(F):
    """g^0, ..., g^(q-2) as coefficient tuples for the field's generator
    g, one general product per power: the oracle of the table builder."""
    g = F._find_generator()
    powers, cur = [F.one.coeffs], g
    for _ in range(F.q - 2):
        powers.append(cur)
        cur = fields._mulmod(cur, g, F.p, F._red)
    assert cur == F.one.coeffs
    return powers


def slot_bits(p, n):
    """The slot width the table builder packs each digit sum into."""
    return next(8 * s for s in (1, 2, 4, 8)
                if 8 * s >= (n * (p - 1) ** 2).bit_length())


# (p, n, modulus): slots of 8 bits (GF(5^5), whose generator is 2T, not T;
# GF(2^9); GF(3^2) with a non-default modulus; GF(2)), 16 bits (GF(13^3);
# GF(251), whose sums reach (p-1) g with g = 6) and 32 bits (GF(251^2))
TABLE_FIELDS = [(5, 5, None), (13, 3, None), (251, 2, None), (251, 1, None),
                (2, 9, None), (2, 1, None), (3, 2, (2, 1, 1))]


def test_table_fields_cover_every_slot_width_and_generator():
    assert {slot_bits(p, n) for p, n, _ in TABLE_FIELDS} == {8, 16, 32}
    assert GF(5, 5)._find_generator() == (0, 2, 0, 0, 0)


@pytest.mark.parametrize("p, n, modulus", TABLE_FIELDS)
def test_tables_match_the_schoolbook_builder(p, n, modulus):
    """exp, log and Zech tables built by packed F_p-linear steps equal
    the tables of the schoolbook loop, entry by entry."""
    F = GF(p, n, modulus)
    powers = schoolbook_powers(F)
    m = F.q - 1
    assert len(F._exp) == len(F._zech) == 2 * m
    assert [x.coeffs for x in F._exp] == powers * 2
    assert F._exp[0] is F.one and F._exp[m] is F.one
    assert F._log == {c: k for k, c in enumerate(powers)}
    zech = [F._log.get(((c[0] + 1) % F.p,) + c[1:]) for c in powers]
    assert list(F._zech) == zech * 2
