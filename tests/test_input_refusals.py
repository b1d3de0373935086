"""Each refusal of a malformed library input raises ValueError with its
own exact message, and so does each refusal of another kind with its
own exception type."""

import pytest

from gradeswitch.fields import GF, embedding, roots_in_splitting_field
from gradeswitch.galg import GradedAlgebra, LinearMap, Subspace, witt
from gradeswitch.laguerre import c_coefficients, laguerre_value
from gradeswitch.polyring import BiTruncSeries, MultiPoly, Polynomial, \
    QuotientRing
from gradeswitch.switch import HypothesisError
from gradeswitch.toral import RestrictedLie, Torus, compare_switch_to_toral

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
    (lambda: c_coefficients(3, F3.one, GF(3, 2).one),
     "a and b must come from one field"),
    (lambda: quotient_entries(2), "entries must form a p x p matrix"),
    (lambda: Polynomial(F3, []).leading(),
     "zero polynomial has no leading coefficient"),
    (lambda: Polynomial(F3, []).monic(),
     "zero polynomial cannot be made monic"),
    (lambda: Polynomial(F3, [1]) + Polynomial(GF(5), [1]),
     "polynomials over different fields"),
    (lambda: MultiPoly.variable(F3, ("x",), "x")
     + MultiPoly.variable(F3, ("y",), "y"),
     "multipolynomials over different rings"),
    (lambda: BiTruncSeries(F3, 0, 1, []), "orders must be >= 1"),
    (lambda: quotient_entries(3) + quotient_entries(3),
     "elements of different quotient rings"),
    (lambda: quotient_entries(3) * quotient_entries(3),
     "elements of different quotient rings"),
    (lambda: Subspace(F3, 2, ()) + Subspace(F3, 3, ()),
     "subspaces of different spaces"),
    (lambda: compare_switch_to_toral(RestrictedLie(witt(5)), [
        (0, 1, 0, 0, 0)], (0, 1, 0, 0)), "x has the wrong length"),
], ids=["product-index", "target-index", "modulus-0", "non-square-map",
        "encoding-above", "encoding-below", "too-many-coefficients",
        "embedding-across-characteristics", "roots-of-zero",
        "laguerre-characteristic", "laguerre-degree", "table-fields",
        "quotient-shape", "leading-of-zero", "monic-of-zero",
        "polynomial-fields", "multipoly-rings",
        "series-order", "quotient-sum-rings", "quotient-product-rings",
        "subspace-spaces", "toral-x-length"])
def test_each_refusal_has_its_own_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def set_attribute(obj, name, value):
    setattr(obj, name, value)


@pytest.mark.parametrize("call, kind, message", [
    (lambda: laguerre_value(3, 1, F3.one), TypeError,
     "cannot infer a base field from 1"),
    (lambda: Torus(RestrictedLie(witt(5)), [(0, 1, 0, 0, 0)]).nonzero_root(
        (0,) * 5), HypothesisError,
     "hypothesis failed: x is a root vector for a nonzero root"),
    (lambda: set_attribute(F3.one, "coeffs", (2,)), AttributeError,
     "FqElement is immutable"),
    (lambda: set_attribute(F3, "p", 5), AttributeError,
     "FqField is immutable"),
], ids=["laguerre-int-alpha", "root-of-zero-vector", "element-immutable",
        "field-immutable"])
def test_each_other_refusal_has_its_own_type_and_message(call, kind,
                                                          message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message
