"""Property tests of the one squarefree routine,
:meth:`Polynomial.squarefree_part`, on inputs with repeated factors and
inseparable inputs g(T^p).  Skipped when hypothesis is not installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch.fields import GF  # noqa: E402
from gradeswitch.polyring import Polynomial  # noqa: E402

FIELDS = [GF(2), GF(3), GF(3, 2), GF(5, 3)]

SETTINGS = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)


def elements(field, low=0):
    return st.integers(low, field.q - 1).map(field.from_int)


@st.composite
def polynomials(draw):
    """c * prod P_k^(e_k), some e_k divisible by p, and on request taken at
    T^p, so that its derivative vanishes; the nonzero constant c when no
    factor is drawn."""
    field = draw(st.sampled_from(FIELDS))
    p = field.p
    f = Polynomial(field, [draw(elements(field, 1))])
    for _ in range(draw(st.integers(0, 3))):
        tail = draw(st.lists(elements(field), min_size=1, max_size=3))
        factor = Polynomial(field, tail + [field.one])
        f = f * factor ** draw(st.sampled_from([1, 2, p, p + 1, 2 * p]))
    if draw(st.booleans()):
        inflated = [field.zero] * (p * f.degree() + 1)
        inflated[::p] = f.coeffs
        f = Polynomial(field, inflated)
    return f


def coprime_to_derivative(s):
    """The squarefree test without squarefree_part: over a perfect field,
    s is squarefree exactly when gcd(s, s') = 1 and s' != 0 (or s is a
    nonzero constant)."""
    if s.degree() == 0:
        return True
    d = s.derivative()
    return not d.is_zero() and s.gcd(d).degree() == 0


@SETTINGS
@hypothesis.given(polynomials())
def test_squarefree_part_is_the_radical(f):
    # a monic divisor of f that f divides a power of, and squarefree: so
    # the polynomial 1 for a nonzero constant
    s = f.squarefree_part()
    assert s.leading() == f.field.one
    assert (f % s).is_zero()
    assert coprime_to_derivative(s)
    assert s.pow_mod(f.degree(), f).is_zero()
    assert f.squarefree_is() == coprime_to_derivative(f)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_squarefree_part_of_zero_raises(field):
    with pytest.raises(ValueError, match="zero polynomial"):
        Polynomial(field, []).squarefree_part()
    with pytest.raises(ValueError, match="zero polynomial"):
        Polynomial(field, []).squarefree_is()
