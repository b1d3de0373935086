"""Property tests of the ring protocol.

``fields.power``, the one square-and-multiply, through every ``__pow__``
that uses it: ``x ** e`` equals the e-fold product for e in 0..20 and
``x ** 0`` is the ring's one, which ``x ** e`` builds only for e = 0.  The
operators ``polyring.RingElement`` derives (reflected ``+``, both
subtractions, ``** 0``) against the ones each element type writes, with
int and field-scalar mixing.  ``Polynomial.evaluate`` at a value of every
flavour against the plain sum of ``c_i x^i``.  Skipped when hypothesis is
not installed."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch.fields import GF, _TABLE_CAP, _roots_in_field  # noqa: E402
from gradeswitch.galg import LinearMap  # noqa: E402
from gradeswitch.polyring import (  # noqa: E402
    BiTruncSeries, MultiPoly, Polynomial, QuotientElement, QuotientRing)

BIG = GF(2, 17)  # above the log-table cap: products are plain arithmetic
assert BIG.q > _TABLE_CAP
FIELDS = [GF(7), GF(3, 3), BIG]
MAX_E = 20
F3, F5 = GF(3), GF(5)

SETTINGS = hypothesis.settings(max_examples=30, deadline=None,
                               derandomize=True, database=None)


def elements(field):
    return st.integers(0, field.q - 1).map(field.from_int)


def linear_maps(field, n):
    return st.lists(st.lists(elements(field), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: LinearMap(field, rows))


def polynomials(field):
    return st.lists(elements(field), max_size=4).map(
        lambda coeffs: Polynomial(field, coeffs))


def multipolys(field):
    return st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)), elements(field),
        max_size=3).map(lambda terms: MultiPoly(field, ("x", "y"), terms))


def series(field, ua, ub):
    return st.lists(st.lists(elements(field), min_size=ub, max_size=ub),
                    min_size=ua, max_size=ua).map(
        lambda rows: BiTruncSeries(field, ua, ub, rows))


def quotient_elements(ring, entries):
    return st.lists(entries, min_size=9, max_size=9).map(
        lambda flat: ring.element([flat[0:3], flat[3:6], flat[6:9]]))


def field_quotients():
    """Element strategies of QuotientRing(3, xc, yc) over GF(3)."""
    return st.tuples(elements(F3), elements(F3)).map(
        lambda c: quotient_elements(QuotientRing(3, *c), elements(F3)))


def series_quotients():
    """Element strategies of a quotient ring over GF(3)[U,V]/(U^a, V^b)."""
    def ring(orders):
        entries = series(F3, *orders)
        return st.tuples(entries, entries).map(
            lambda c: quotient_elements(QuotientRing(3, *c), entries))
    return st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(ring)


def check_powers(x, one):
    """x ** e against the running product x * x * ... * x."""
    assert x ** 0 == one
    prod = one
    for e in range(1, MAX_E + 1):
        prod = prod * x
        assert x ** e == prod, e


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@SETTINGS
@hypothesis.given(data=st.data())
def test_field_element_powers(field, data):
    x = data.draw(elements(field))
    check_powers(x, x.field.one)
    if x:
        inv = x.inverse()
        for e in range(1, 6):
            assert x ** -e == inv ** e
            assert x ** -e * x ** e == x.field.one
    else:
        with pytest.raises(ZeroDivisionError):
            x ** -1


@SETTINGS
@hypothesis.given(st.integers(1, 3).flatmap(lambda n: linear_maps(F5, n)))
def test_linear_map_powers(M):
    check_powers(M, LinearMap.identity(F5, M.n))


@SETTINGS
@hypothesis.given(polynomials(F5),
                  st.lists(elements(F5), min_size=1, max_size=4))
def test_polynomial_powers_and_pow_mod(f, mod_coeffs):
    check_powers(f, Polynomial(F5, [F5.one]))
    m = Polynomial(F5, mod_coeffs + [F5.one])  # monic, degree >= 1
    for e in range(MAX_E + 1):
        assert f.pow_mod(e, m) == f ** e % m


@SETTINGS
@hypothesis.given(multipolys(F3))
def test_multipoly_powers(f):
    check_powers(f, MultiPoly.constant(F3, ("x", "y"), 1))


@SETTINGS
@hypothesis.given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_series_powers(ua, ub, data):
    s = data.draw(series(F5, ua, ub))
    check_powers(s, BiTruncSeries.constant(F5, ua, ub, 1))


@SETTINGS
@hypothesis.given(field_quotients().flatmap(lambda elts: elts))
def test_quotient_element_powers(u):
    check_powers(u, u.ring.one())


# (base field, strategy of element strategies, one per ring)
RINGS = {
    "LinearMap": (F5, st.integers(1, 3).map(lambda n: linear_maps(F5, n))),
    "Polynomial": (F5, st.just(polynomials(F5))),
    "MultiPoly": (F3, st.just(multipolys(F3))),
    "BiTruncSeries": (F5, st.tuples(st.integers(1, 3), st.integers(1, 3))
                      .map(lambda orders: series(F5, *orders))),
    "QuotientElement-field": (F3, field_quotients()),
    "QuotientElement-series": (F3, series_quotients()),
}


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@hypothesis.given(data=st.data())
def test_ring_protocol(name, data):
    field, rings = RINGS[name]
    elts = data.draw(rings)
    a, b = data.draw(elts), data.draw(elts)
    assert a - b == a + (-b)
    for k in (data.draw(st.integers(-7, 7)), data.draw(elements(field))):
        assert k - a == -(a - k)
        assert k + a == a + k
    assert a ** 0 == a.one()
    assert not hasattr(a, "__dict__")  # RingElement keeps __slots__ = ()


def test_pow_builds_one_only_for_exponent_zero(monkeypatch):
    # x ** 0 builds x.one() once; x ** e for e >= 1 never asks x for it
    rng = random.Random(4)

    def rand(field):
        return field.from_int(rng.randrange(field.q))

    def grid(field, a, b):
        return [[rand(field) for _ in range(b)] for _ in range(a)]

    M = LinearMap(F5, grid(F5, 3, 3))
    s = BiTruncSeries(F5, 2, 3, grid(F5, 2, 3))
    ring = QuotientRing(3, F3.scalar(2), F3.one)
    u = ring.element(grid(F3, 3, 3))
    entries = [BiTruncSeries(F3, 2, 1, grid(F3, 2, 1)) for _ in range(11)]
    sring = QuotientRing(3, entries[0], entries[1])
    v = sring.element([entries[2:5], entries[5:8], entries[8:11]])
    cases = [(M, LinearMap.identity(F5, 3)),
             (s, BiTruncSeries.constant(F5, 2, 3, 1)),
             (u, ring.one()), (v, sring.one())]
    asked = []
    for cls in (LinearMap, BiTruncSeries, QuotientElement):
        def one(self, real=cls.one):
            asked.append(self)
            return real(self)
        monkeypatch.setattr(cls, "one", one)
    for x, one in cases:
        asked.clear()
        assert x ** 0 == one
        assert [a is x for a in asked] == [True]
        prod = x
        for e in range(1, 9):
            asked.clear()
            assert x ** e == prod
            assert not any(a is x for a in asked), e
            prod = prod * x


def evaluation_polynomials(field):
    """Sparse (up to four nonzero exponents below 27), dense and constant
    polynomials over field, with T^25 and T^p - T."""
    t = Polynomial.variable(field)
    nonzero = st.integers(1, field.q - 1).map(field.from_int)
    sparse = st.dictionaries(st.integers(0, 26), nonzero, min_size=1,
                             max_size=4).map(lambda terms: Polynomial(
                                 field, [terms.get(i, field.zero)
                                         for i in range(max(terms) + 1)]))
    dense = st.lists(nonzero, min_size=2, max_size=9).map(
        lambda cs: Polynomial(field, cs))
    constant = st.lists(elements(field), max_size=1).map(
        lambda cs: Polynomial(field, cs))
    return st.one_of(sparse, dense, constant,
                     st.sampled_from([t ** 25, t ** field.p - t]))


def power_sum(f, x):
    """sum c_i x^i, one running power at a time."""
    total = (x ** 0) * f.field.zero
    pw = x ** 0
    for c in f.coeffs:
        total = total + pw * c
        pw = pw * x
    return total


# (coefficient field, strategy of points)
POINTS = {
    "GF(7)": (GF(7), elements(GF(7))),
    "GF(3^3)": (GF(3, 3), elements(GF(3, 3))),
    "GF(2^17)": (BIG, elements(BIG)),
    "LinearMap": (F5, st.integers(1, 3).flatmap(lambda n: linear_maps(F5, n))),
    "Polynomial": (F5, polynomials(F5)),
    "MultiPoly": (F3, multipolys(F3)),
    "BiTruncSeries": (F5, st.tuples(st.integers(1, 3), st.integers(1, 3))
                      .flatmap(lambda orders: series(F5, *orders))),
    "QuotientElement": (F3, field_quotients().flatmap(lambda elts: elts)),
}


@pytest.mark.parametrize("name", sorted(POINTS))
@SETTINGS
@hypothesis.given(data=st.data())
def test_evaluate_matches_the_power_sum(name, data):
    field, points = POINTS[name]
    f = data.draw(evaluation_polynomials(field))
    x = data.draw(points)
    assert f.evaluate(x) == power_sum(f, x)


@pytest.mark.parametrize("field", [GF(7), GF(3, 3), GF(2, 10)], ids=repr)
def test_roots_in_field_of_the_artin_schreier_polynomial(field):
    # _roots_in_field evaluates T^p - T at every element: its roots are
    # the prime field, the x with x ** p == x
    t = Polynomial.variable(field)
    roots = _roots_in_field(t ** field.p - t)
    assert sorted(x.coeffs for x in roots) == sorted(
        x.coeffs for x in field.elements() if x ** field.p == x)
    assert len(roots) == field.p
