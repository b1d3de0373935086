"""Each refusal of a malformed library input raises ValueError with its
own exact message."""

import pytest

from gradeswitch.fields import GF, embedding, roots_in_splitting_field
from gradeswitch.galg import GradedAlgebra, LinearMap
from gradeswitch.laguerre import c_coefficients, laguerre_value
from gradeswitch.polyring import Polynomial, QuotientRing

F3 = GF(3)


def quotient_entries(rows):
    ring = QuotientRing(3, F3.one, F3.one)
    return ring.element([[F3.zero] * 3 for _ in range(rows)])


@pytest.mark.parametrize("call, message", [
    (lambda: GradedAlgebra(F3, 1, [0, 0], {(2, 0): ((0, 1),)}),
     "basis index out of range"),
    (lambda: GradedAlgebra(F3, 1, [0, 0], {(0, 0): ((2, 1),)}),
     "basis index out of range"),
    (lambda: GradedAlgebra(F3, 0, [], {}), "m must be >= 1"),
    (lambda: LinearMap(F3, [[1, 0]]), "matrix must be square"),
    (lambda: GF(3, 2).from_int(9), "encoding out of range"),
    (lambda: GF(3, 2).from_int(-1), "encoding out of range"),
    (lambda: GF(3, 2).from_coeffs([1, 2, 0]),
     "too many coefficients for degree 2"),
    (lambda: embedding(GF(2), GF(3)), "different characteristics"),
    (lambda: roots_in_splitting_field(Polynomial(F3, [])),
     "the zero polynomial has no splitting field"),
    (lambda: laguerre_value(5, F3.one, F3.one),
     "field has characteristic 3, expected 5"),
    (lambda: laguerre_value(3, F3.one, F3.one, 3),
     "degree must satisfy 0 <= n < p"),
    (lambda: c_coefficients(3, 0, 0).c(0), "index out of range"),
    (lambda: c_coefficients(3, F3.one, GF(3, 2).one),
     "a and b must come from one field"),
    (lambda: quotient_entries(2), "entries must form a p x p matrix"),
], ids=["product-index", "target-index", "modulus-0", "non-square-map",
        "encoding-above", "encoding-below", "too-many-coefficients",
        "embedding-across-characteristics", "roots-of-zero",
        "laguerre-characteristic", "laguerre-degree", "table-index-0",
        "table-fields", "quotient-shape"])
def test_each_refusal_has_its_own_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
