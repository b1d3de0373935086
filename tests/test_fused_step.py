"""Differential tests of the fused Horner step ``LinearMap.mul_add`` and of
:func:`laguerre_value` on maps, which takes it.

``M.mul_add(X, C, s)`` = M X + s C sums n + 1 products into each slot of
a row before its one unpack, so the row kernel of a map is sized for
n + 1 products.  That widens the slots for GF(3^3) at n = 4, GF(7) at
n = 7, GF(5) at n = 15 and GF(5^7) at n = 23; the sizes below straddle
those steps.  The step is compared with its unfused form and with an
explicit value on maps whose entries all equal the element with every
coefficient p - 1 (-1 in a prime field), which fill every slot with
n + 1 maximal products.  laguerre_value on maps is compared with the
unfused Horner rule over :func:`laguerre_coeffs` and with
-:func:`descending_form`, which shares no code with either.
``LinearMap.polynomial_value``, whose Paterson-Stockmeyer blocks sum up to
n + 1 scaled wide rows per row and whose giant steps are fused steps, is
compared with Horner's rule of ``Polynomial.evaluate``.
"""

import random

import pytest

from gradeswitch.fields import GF, _TABLE_CAP
from gradeswitch.galg import LinearMap
from gradeswitch.laguerre import descending_form, laguerre_coeffs, \
    laguerre_value
from gradeswitch.polyring import Polynomial

FIELDS = [GF(2), GF(3, 3), GF(5), GF(5, 5), GF(7), GF(7, 2), GF(5, 7)]
assert GF(5, 7).q > _TABLE_CAP
SIZES = [1, 2, 4, 7, 15, 23, 25, 27]
CASES = [(F, n) for F in FIELDS for n in SIZES]
IDS = ["%r-%d" % case for case in CASES]


def top(field):
    """The element with every coefficient p - 1: -1 in a prime field."""
    return field.from_coeffs([field.p - 1] * field.n)


def random_map(field, n, rng):
    return LinearMap(field, [[field.random_element(rng) for _ in range(n)]
                             for _ in range(n)])


def unfused_horner(p, alpha, x):
    coeffs = laguerre_coeffs(p, alpha)
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("F,n", CASES, ids=IDS)
def test_mul_add_of_maximal_entries(F, n):
    c = top(F)
    M = LinearMap(F, [[c] * n for _ in range(n)])
    want = c * c * (n + 1)
    assert M.mul_add(M, M, c).rows == ((want,) * n,) * n
    assert M.mul_add(M, M, c) == M * M + M * c


@pytest.mark.parametrize("F,n", CASES, ids=IDS)
def test_mul_add_matches_the_unfused_step(F, n):
    rng = random.Random(n * F.q)
    M, X, C = (random_map(F, n, rng) for _ in range(3))
    for s in (F.zero, F.one, top(F), F.random_element(rng), 3):
        assert M.mul_add(X, C, s) == M * X + C * s
    # a scalar c (an alpha from the field) takes the plain form
    s = F.random_element(rng)
    assert M.mul_add(X, s, 2) == M * X + s * 2


@pytest.mark.parametrize("F,n", CASES, ids=IDS)
def test_laguerre_value_at_maps(F, n):
    rng = random.Random(n + F.q)
    p = F.p
    for x in (random_map(F, n, rng),
              LinearMap(F, [[top(F)] * n for _ in range(n)])):
        # alpha a polynomial in x, so that the two commute
        alpha = Polynomial(F, [F.random_element(rng) for _ in range(3)]
                           ).evaluate(x)
        for a in (alpha, F.random_element(rng)):
            value = laguerre_value(p, a, x)
            assert value == unfused_horner(p, a, x)
            assert value == -descending_form(p, a, x)


@pytest.mark.parametrize("F,n", CASES, ids=IDS)
def test_polynomial_value_matches_horner(F, n):
    rng = random.Random(n * F.q + 1)
    c = top(F)
    # up to the largest degree taken, (n + 1)^2 - 1, where the maps are
    # small enough for Horner's rule; all coefficients maximal at the
    # maximal map, random below a maximal leading one at a random map
    degrees = [0, 1, n] + ([(n + 1) ** 2 - 1] if n <= 4 else [])
    M, X = random_map(F, n, rng), LinearMap(F, [[c] * n] * n)
    assert M.polynomial_value(Polynomial(F, [])) == LinearMap.zero(F, n)
    for d in degrees:
        f = Polynomial(F, [F.random_element(rng) for _ in range(d)] + [c])
        assert M.polynomial_value(f) == f.evaluate(M)
        f = Polynomial(F, [c] * (d + 1))
        assert X.polynomial_value(f) == f.evaluate(X)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_polynomial_value_refuses_a_degree_past_its_blocks(n):
    F = GF(5)
    M = LinearMap.identity(F, n)
    assert M.polynomial_value(Polynomial(F, [1] * (n + 1) ** 2)) == \
        M * ((n + 1) ** 2)
    with pytest.raises(ValueError, match="degree %d is too high"
                       % (n + 1) ** 2):
        M.polynomial_value(Polynomial(F, [1] * ((n + 1) ** 2 + 1)))


def test_ring_protocol_default_step():
    F = GF(5)
    z = Polynomial.variable(F)
    f = z ** 2 + 3
    assert f.mul_add(z, f, 2) == f * z + f * 2
    a, b = F.scalar(2), F.scalar(3)
    assert a.mul_add(b, a, 4) == a * b + a * 4
