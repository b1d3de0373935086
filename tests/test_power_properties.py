"""Property tests of the one square-and-multiply, ``fields.power``, through
every ``__pow__`` that uses it: ``x ** e`` equals the e-fold product for
e in 0..20 and ``x ** 0`` is the ring's one.  Skipped when hypothesis is
not installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch.fields import GF, _TABLE_CAP  # noqa: E402
from gradeswitch.galg import LinearMap  # noqa: E402
from gradeswitch.polyring import (  # noqa: E402
    BiTruncSeries, MultiPoly, Polynomial, QuotientRing)

BIG = GF(2, 17)  # above the log-table cap: products are plain arithmetic
assert BIG.q > _TABLE_CAP
FIELDS = [GF(7), GF(3, 3), BIG]
MAX_E = 20

SETTINGS = hypothesis.settings(max_examples=30, deadline=None,
                               derandomize=True, database=None)


def elements(field):
    return st.integers(0, field.q - 1).map(field.from_int)


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
@hypothesis.given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(elements(GF(5)), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_linear_map_powers(rows):
    F = GF(5)
    M = LinearMap(F, rows)
    check_powers(M, LinearMap.identity(F, M.n))


@SETTINGS
@hypothesis.given(st.lists(elements(GF(5)), max_size=4),
                  st.lists(elements(GF(5)), min_size=1, max_size=4))
def test_polynomial_powers_and_pow_mod(coeffs, mod_coeffs):
    F = GF(5)
    f = Polynomial(F, coeffs)
    check_powers(f, Polynomial(F, [F.one]))
    m = Polynomial(F, mod_coeffs + [F.one])  # monic, degree >= 1
    for e in range(MAX_E + 1):
        assert f.pow_mod(e, m) == f ** e % m


@SETTINGS
@hypothesis.given(st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), elements(GF(3)),
    max_size=3))
def test_multipoly_powers(terms):
    F = GF(3)
    f = MultiPoly(F, ("x", "y"), terms)
    check_powers(f, MultiPoly.constant(F, ("x", "y"), 1))


@SETTINGS
@hypothesis.given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_series_powers(ua, ub, data):
    F = GF(5)
    rows = data.draw(st.lists(
        st.lists(elements(F), min_size=ub, max_size=ub),
        min_size=ua, max_size=ua))
    s = BiTruncSeries(F, ua, ub, rows)
    check_powers(s, BiTruncSeries.constant(F, ua, ub, 1))


@SETTINGS
@hypothesis.given(elements(GF(3)), elements(GF(3)),
                  st.lists(elements(GF(3)), min_size=9, max_size=9))
def test_quotient_element_powers(xc, yc, flat):
    ring = QuotientRing(3, xc, yc)
    u = ring.element([flat[0:3], flat[3:6], flat[6:9]])
    check_powers(u, ring.one())
