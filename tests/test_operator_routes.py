"""Differential tests of :func:`gradeswitch.switch.build_LD`, which forms
alpha, the switching law, the Laguerre value and the scalar law on
polynomials modulo D's minimal polynomial and evaluates the operator at D
once, against the route on n x n maps it replaced
(:func:`oracles.switch_by_maps`, and :func:`oracles.alpha_on_chain` for
alpha on D's own p-power chain)."""

import pytest

from gradeswitch import cli
from gradeswitch.fields import GF
from gradeswitch.galg import GradedAlgebra, LinearMap, truncated_poly, \
    truncated_poly_derivation
from gradeswitch.switch import build_LD, h_polynomial, semisimple_exponent
from oracles import alpha_on_chain, switch_by_maps
from test_eigen_route import builtin_pairs

WITT = ["witt:3", "witt:5", "witt:7", "witt:11", "witt:13", "witt:3+witt:3",
        "witt:3+witt:3+witt:3", "witt:5+witt:5", "witt:5+witt:5+witt:5",
        "witt:7+witt:7"]
TPOLY = ["tpoly:2:8:2", "tpoly:2:16:2", "tpoly:3:3:3", "tpoly:3:9:3",
         "tpoly:3:27:3", "tpoly:5:5:5", "tpoly:5:25:5", "tpoly:7:7:7"]
# every builtin with each named derivation: ad of e_-1, e_0 and the last
# basis vector of a witt builtin, ddx and xddx of a tpoly one; then the two
# supplied exponents above r_raw
CASES = [(spec, "ad:%d" % i, None)
         for spec in WITT
         for i in (0, 1, int(spec.split("+")[0].split(":")[1]) - 1)] \
    + [(spec, der, None) for spec in TPOLY for der in ("ddx", "xddx")] \
    + [("witt:5", "ad:1", 16), ("tpoly:3:9:3", "ddx", 3)]


def assert_routes_agree(A, D, r=None):
    res = build_LD(A, D, r)
    lmap, scalars, alpha = switch_by_maps(A, D, r)
    assert res.switch_map == lmap
    assert res.block_scalars == scalars
    assert res.derivation.polynomial_value(res.alpha) == alpha
    return res


@pytest.mark.parametrize("spec,der,r", CASES,
                         ids=["%s-%s-%s" % c for c in CASES])
def test_builtins_switch_alike_on_both_routes(spec, der, r):
    A = cli._parse_builtin(spec)
    assert_routes_agree(A, cli._parse_derivation(A, der, None), r)


@pytest.mark.parametrize("p,modulus", [(3, (2, 2, 1)), (5, (3, 0, 1))])
def test_a_start_field_under_a_non_default_modulus(p, modulus):
    # D = diag(0, g, 2g, ...) for the generator g, and g + ddx, whose one
    # eigenvalue g has multiplicity p in D's minimal polynomial
    F = GF(p, 2, modulus=modulus)
    assert F is not GF(p, 2)
    A = truncated_poly(p, p, p).change_field(F)
    diag = LinearMap(F, [[F.gen * j if i == j else F.zero
                          for j in range(p)] for i in range(p)])
    assert_routes_agree(A, diag)
    shifted = truncated_poly_derivation(A, "ddx") + F.gen
    res = assert_routes_agree(A, shifted)
    assert res.derivation.minimal_polynomial().degree() == p
    assert len(res.decomposition) == 1


def test_the_algebra_of_dimension_zero():
    # D's minimal polynomial is 1, so the quotient ring is zero
    F = GF(5)
    res = assert_routes_agree(GradedAlgebra(F, 1, [], {}), LinearMap(F, []))
    assert res.switch_map == LinearMap(F, []) and not res.block_scalars


@pytest.mark.parametrize("spec,der", builtin_pairs(), ids=lambda x: x)
def test_alpha_residue_is_the_chain_alpha(spec, der):
    # the residue at D is (g - h)(D) on D's chain, and at each eigenvalue,
    # a root of m_D, it is (g - h)(rho); the switches read no power of
    # D's chain past r_raw
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    r_raw = semisimple_exponent(D)
    results = [build_LD(A, D, r) for r in (max(r_raw, 1), r_raw + 2)]
    assert len(D._chain or ()) <= r_raw
    for res in results:
        assert res.derivation.polynomial_value(res.alpha) == \
            alpha_on_chain(D, res.r)
        gh = res.g - h_polynomial(res.field_final, res.r)
        assert all(res.alpha.evaluate(rho) == gh(rho)
                   for rho, _ in res.decomposition)
