import dataclasses
import functools
import itertools
import random

import pytest

from gradeswitch import cli, switch
from gradeswitch.fields import GF, FqElement, roots_in_splitting_field
from gradeswitch.galg import (
    GradedAlgebra, LinearMap, direct_sum, generalized_eigenspaces,
    is_grading, truncated_poly, truncated_poly_derivation, witt)
from gradeswitch.laguerre import (
    c_coefficients, closed_form_numerators, in_prime_star, laguerre_at,
    laguerre_value, scalar_product_form, truncated_exp)
from gradeswitch.polyring import BiTruncSeries, MultiPoly, Polynomial
from gradeswitch.switch import (
    HypothesisError, PPolynomial, Relation, VerificationError,
    _pair_coefficient_series, build_LD, build_g, h_polynomial,
    p_power_relation, semisimple_exponent, switch_grading,
    verify_product_rule)
from gradeswitch.toral import strade_map
from oracles import from_columns, inverse, relation_holds, restrict_to


# -- the blockwise build, kept as the oracle of the global operator ---------

def blockwise_switch_map(res, special=False):
    """V diag(blocks) V^(-1) for a switch result: one Laguerre block
    L_{p-1}^(alpha)(D|) per generalized eigenspace A^(rho), with D| the
    restriction of D there, and V holding the eigenspace bases as columns.

    alpha is g(rho) - h(D|), or rho gamma when special (D^(p^2) = D^p,
    where alpha = gamma D^p; 0 when D^p = 0, where no gamma is adjoined).
    Each block's p^r-th power must be the scalar res records for rho.
    """
    f2 = res.field_final
    p = f2.p
    d2 = res.derivation
    n = d2.n
    h = h_polynomial(f2, res.r)
    scalars = dict((rho.coeffs, s) for rho, s in res.block_scalars)
    diag = [[f2.zero] * n for _ in range(n)]
    off = 0
    for rho, space in res.decomposition:
        dres = restrict_to(d2, space)
        if special:
            alpha = f2.zero if res.lam is None else rho * res.lam
        else:
            alpha = res.g(rho) - h(dres)
        block = laguerre_value(p, alpha, dres)
        k = space.dim
        assert block.p_power(res.r) == \
            LinearMap.identity(f2, k) * scalars[rho.coeffs]
        for i in range(k):
            diag[off + i][off:off + k] = block.rows[i]
        off += k
    vmat = from_columns(f2, [v for _, space in res.decomposition
                             for v in space.basis])
    return vmat * LinearMap(f2, diag) * inverse(vmat)


def is_special(D):
    """D^(p^2) = D^p, the special case of the switching operator."""
    dp = D ** D.field.p
    return dp ** D.field.p == dp


@functools.lru_cache(maxsize=None)
def artin_schreier_gamma(field):
    """(F', gamma): the smallest root of T^p - T - 1 over field and its
    splitting field, by root finding rather than by a linear solve."""
    t = Polynomial.variable(field)
    big, roots = roots_in_splitting_field(t ** field.p - t - 1)
    return big, roots[0][0]


def assert_special_closed_form(res, D):
    """build_LD's result where D^(p^2) = D^p and r is not supplied: the
    relation D^(p^2) = D^p, g = gamma T^p and alpha = gamma D^p, with
    gamma from :func:`artin_schreier_gamma`; or, when D^p = 0, the
    degenerate relation and g = 0 over the start field."""
    F = D.field
    dp = D.p_power(1)
    assert res.r == 1
    if not dp:
        assert res.relation == Relation(F, 1, 1, (), True)
        assert res.field_final is F and res.lam is None
        assert res.g.is_zero() and res.alpha.is_zero()
        return
    big, gamma = artin_schreier_gamma(F)
    assert res.relation == Relation(F, 1, 2, (F.scalar(-1),), False)
    assert res.field_final is big and res.lam == gamma
    assert res.g == PPolynomial.make(big, [(1, gamma)])
    assert res.alpha == dp.embed_to(big) * gamma


BLOCKWISE_CASES = [
    ("witt:5", "ad:0", None), ("witt:5", "ad:1", None),
    ("witt:5+witt:5", "ad:1", None), ("witt:7", "ad:1", 2),
    ("witt:11", "ad:0", None), ("witt:13", "ad:3", None),
    ("tpoly:3:9:3", "ddx", None), ("tpoly:3:27:3", "ddx", None),
    ("tpoly:2:16:2", "ddx", None), ("tpoly:5:5:5", "xddx", None),
    ("tpoly:3:3:3", "xddx", None)]


@pytest.mark.parametrize("spec,der,r", BLOCKWISE_CASES,
                         ids=["%s-%s-%s" % c for c in BLOCKWISE_CASES])
def test_global_operator_matches_blockwise_oracle(spec, der, r):
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    res = build_LD(A, D, r)
    assert res.switch_map == blockwise_switch_map(res)
    if r is None and is_special(D):
        # D^p = 0 (witt:5 ad:0, witt:11 ad:0, witt:13 ad:3) adjoins no
        # gamma and stays over the start field
        assert_special_closed_form(res, D)
        assert res.switch_map == blockwise_switch_map(res, True)


def test_ppolynomial_is_additive():
    F = GF(3, 2)
    g = PPolynomial.make(F, [(0, F.scalar(2)), (1, F.gen)])
    rng = random.Random(20)
    for _ in range(20):
        x, y = F.random_element(rng), F.random_element(rng)
        assert g(x + y) == g(x) + g(y)
        assert g(x * 2) == g(x) * 2  # F_p-linearity
    assert PPolynomial.make(F, [(1, F.zero)]).is_zero()


def test_ppolynomial_make_sums_repeated_exponents():
    F = GF(5)
    one, two = F.one, F.scalar(2)
    # distinct coefficients at one exponent used to be compared as tuples
    assert PPolynomial.make(F, [(1, one), (1, two)]).terms == \
        ((1, F.scalar(3)),)
    # equal ones used to stay as two terms, and to_json printed both
    g = PPolynomial.make(F, [(2, one), (1, one), (1, one)])
    assert g.terms == ((1, two), (2, one))
    assert g.to_json() == [[1, [2]], [2, [1]]]
    # a sum that cancels leaves no term
    assert PPolynomial.make(F, [(1, one), (1, -one)]).is_zero()
    assert PPolynomial.make(F, [(1, one), (0, two), (1, -one)]).terms == \
        ((0, two),)


def test_ppolynomial_at_a_map():
    F = GF(3)
    M = LinearMap(F, [[F.one, F.one], [F.zero, F.one]])
    g = PPolynomial.make(F, [(0, F.scalar(2)), (1, F.one)])
    assert g(M) == M * 2 + M.p_power(1)


def test_ppolynomial_walks_one_p_power_chain(monkeypatch):
    # h has the terms T^(p^i) for i = 1..39: one chain M, M^p, ...,
    # M^(p^39) takes 39 p-th powers, where one chain per term takes 780
    F = GF(5)
    rng = random.Random(13)
    M = LinearMap(F, [[F.random_element(rng) for _ in range(3)]
                      for _ in range(3)])
    want = LinearMap.zero(F, 3)
    for i in range(1, 40):
        want = want + M.p_power(i)
    real = LinearMap.__mul__
    products = [0]

    def counting(self, other):
        if isinstance(other, LinearMap):
            products[0] += 1
        return real(self, other)
    monkeypatch.setattr(LinearMap, "__mul__", counting)
    M ** F.p
    per_power, products[0] = products[0], 0
    assert h_polynomial(F, 40)(M) == want
    assert products[0] <= 39 * per_power

    # a field element walks the same chain: 39 powers, each to the p-th
    E = GF(5, 3)
    x = E.random_element(rng)
    want = E.zero
    for i in range(1, 40):
        want = want + x ** (5 ** i)
    real_pow = FqElement.__pow__
    exponents = []

    def recording(self, e):
        exponents.append(e)
        return real_pow(self, e)
    monkeypatch.setattr(FqElement, "__pow__", recording)
    assert h_polynomial(E, 40)(x) == want
    assert exponents == [5] * 39


def test_semisimple_exponent():
    F = GF(3)
    diag = LinearMap(F, [[F.one, F.zero], [F.zero, F.scalar(2)]])
    assert semisimple_exponent(diag) == 0
    nil = LinearMap(F, [[F.zero, F.one], [F.zero, F.zero]])
    assert semisimple_exponent(nil) == 1  # N^3 = 0 has minpoly T
    A = truncated_poly(3, 9, 3)
    D = truncated_poly_derivation(A, "ddx")
    assert semisimple_exponent(D) == 2


def test_p_power_relation_degenerate():
    W = witt(5)
    D = W.left_multiplication(W.basis_vector(0))  # ad e_{-1}, nilpotent
    rel = p_power_relation(D, 1)
    assert rel.degenerate and rel.r == 1
    assert relation_holds(rel, D)


def test_p_power_relation_requires_semisimplicity():
    W = witt(5)
    D = W.left_multiplication(W.basis_vector(0))
    with pytest.raises(HypothesisError):
        p_power_relation(D, 0)  # ad(e_{-1}) itself is not semisimple


def test_p_power_relation_companion():
    # D^2 = D + 1 over F_3 forces the length-3 relation
    F3 = GF(3)
    D = LinearMap(F3, [[F3.zero, F3.one], [F3.one, F3.one]])
    assert semisimple_exponent(D) == 0
    rel = p_power_relation(D, 1)
    assert (rel.r, rel.n) == (1, 3)
    assert rel.coeffs == (F3.scalar(-1), F3.zero)
    assert relation_holds(rel, D)


def test_build_g_companion_case():
    # relation D^27 - D^3 = 0 -> constraint 1 + T - T^9, g of two terms
    F3 = GF(3)
    D = LinearMap(F3, [[F3.zero, F3.one], [F3.one, F3.one]])
    rel = p_power_relation(D, 1)
    big, g, lam = build_g(rel)
    assert big.n == 6
    assert lam ** 9 == 1 + lam
    assert g.terms == ((1, lam.pth_root()), (2, lam))
    gD = g(D.embed_to(big))
    assert gD ** 3 - gD == D.embed_to(big).p_power(1)


def test_build_g_rejects_bad_lambda():
    F3 = GF(3)
    D = LinearMap(F3, [[F3.zero, F3.one], [F3.one, F3.one]])
    rel = p_power_relation(D, 1)
    big = GF(3, 6)
    with pytest.raises(HypothesisError):
        build_g(rel, lam=big.scalar(2))  # 1 + 2 - 2^9 != 0


def test_build_g_accepts_each_constraint_root():
    from gradeswitch.fields import roots_in_splitting_field
    from gradeswitch.polyring import Polynomial
    F3 = GF(3)
    D = LinearMap(F3, [[F3.zero, F3.one], [F3.one, F3.one]])
    rel = p_power_relation(D, 1)
    t = Polynomial.variable(F3)
    big, roots = roots_in_splitting_field(1 + t - t ** 9)
    for lam, _ in roots[:3]:
        _, g, lam_out = build_g(rel, lam=lam)
        assert lam_out == lam
        gD = g(D.embed_to(big))
        assert gD ** 3 - gD == D.embed_to(big).p_power(1)


def test_switch_on_an_algebra_of_dimension_zero():
    # no eigenvalue, so no eigenspace for the product rule's longest grid
    F = GF(5)
    A = GradedAlgebra(F, 1, [], {})
    res = switch_grading(A, LinearMap(F, []))
    assert res.grading_ok and res.product_rule_pairs == 0
    assert len(res.decomposition) == 0 and res.field_final is F


def test_h_polynomial_telescopes():
    # h(D)^p - h(D) = D^(p^r) - D^p for any D
    F = GF(3)
    rng = random.Random(21)
    M = LinearMap(F, [[F.random_element(rng) for _ in range(4)]
                      for _ in range(4)])
    for r in (1, 2, 3):
        h = h_polynomial(F, r)
        hm = h(M)
        assert hm ** 3 - hm == M.p_power(r) - M.p_power(1)
    assert h_polynomial(F, 1).is_zero()


def test_witt_switch_is_truncated_exponential():
    for p in (5, 7):
        W = witt(p)
        D = W.left_multiplication(W.basis_vector(0))
        res = switch_grading(W, D)
        assert res.field_final is GF(p)
        assert res.r == 1 and res.relation.degenerate
        assert res.switch_map == truncated_exp(p).evaluate(D)
        assert res.grading_ok
        assert res.product_rule_pairs == p * p
        assert is_grading(res.algebra, res.new_parts)


def test_tpoly_ddx_r2_branch():
    for p in (3, 5):
        A = truncated_poly(p, p * p, p)
        D = truncated_poly_derivation(A, "ddx")
        res = switch_grading(A, D)
        assert res.r == 2 and res.relation.degenerate
        assert res.g.is_zero()
        # the inner correction is the single p-power h(T) = T^p
        h = h_polynomial(res.field_final, res.r)
        assert h.terms == ((1, res.field_final.one),)
        assert res.grading_ok
        assert res.product_rule_pairs == (p * p) ** 2


def test_xddx_special_matches_general():
    for p in (3, 5):
        A = truncated_poly(p, p, p)
        D = truncated_poly_derivation(A, "xddx")
        assert D.p_power(2) == D.p_power(1)
        gen = switch_grading(A, D)
        assert_special_closed_form(gen, D)
        assert gen.grading_ok
        f2 = gen.field_final
        gamma = gen.lam
        assert gamma ** p - gamma == f2.one
        for rho, space in gen.decomposition:
            assert space.dim == 1
            expect = laguerre_at(p, rho * gamma).evaluate(rho)
            v = space.basis[0]
            assert gen.switch_map.apply(v) == tuple(expect * c for c in v)
            stored = dict((r2.coeffs, s) for r2, s in gen.block_scalars)
            assert stored[rho.coeffs] == expect ** p


def test_xddx_relation_and_g():
    for p in (3, 5):
        A = truncated_poly(p, p, p)
        D = truncated_poly_derivation(A, "xddx")
        res = build_LD(A, D)
        assert (res.relation.r, res.relation.n) == (1, 2)
        assert res.relation.coeffs == (GF(p).scalar(-1),)
        lam = res.lam
        assert 1 + lam - lam ** p == res.field_final.zero
        gD = res.g(res.derivation)
        assert gD ** p - gD == res.derivation.p_power(1)


# -- the special L_D: the switching operator where D^(p^2) = D^p ----------


def test_special_LD_requires_the_relation():
    # D with D^2 = D + 1 over F_3 has D^9 != D^3, and there the closed
    # form alpha = gamma D^p misses the law: with gamma^p - gamma = 1,
    # alpha^p - alpha = gamma^p (D^(p^2) - D^p) + D^p.  build_LD takes
    # the relation D^27 = D^3 and a g of two terms instead.
    F3 = GF(3)
    A = truncated_poly(3, 3, 3).change_field(F3)
    D = LinearMap(F3, [[F3.zero, F3.one, F3.zero],
                       [F3.one, F3.one, F3.zero],
                       [F3.zero, F3.zero, F3.one]])
    assert D.p_power(2) != D.p_power(1)
    big, gamma = artin_schreier_gamma(F3)
    closed = D.p_power(1).embed_to(big) * gamma
    assert closed ** 3 - closed != D.p_power(1).embed_to(big)
    res = build_LD(A, D)
    assert (res.relation.r, res.relation.n) == (1, 3)
    assert len(res.g.terms) == 2
    assert res.alpha ** 3 - res.alpha == res.derivation.p_power(1)


def test_special_LD_on_ad_e0():
    # ad e_0 on witt satisfies D^p = D, so D^(p^2) = D^p holds; D is
    # semisimple, so r is raised from r_raw = 0 to 1
    W = witt(5)
    D = W.left_multiplication(W.basis_vector(1))
    res = build_LD(W, D)
    assert_special_closed_form(res, D)
    assert (res.r_raw, res.r) == (0, 1)


def test_special_LD_adjoins_no_gamma_when_D_p_vanishes():
    # ad e_{-1} on witt has D^p = 0: gamma D^p vanishes, and build_LD
    # returns the degenerate result L_{p-1}^(0)(D) over the start field
    for p in (5, 11):
        W = witt(p)
        D = W.left_multiplication(W.basis_vector(0))
        assert (D ** p).is_zero()
        res = build_LD(W, D)
        assert_special_closed_form(res, D)
        assert res.field_final is GF(p) and res.relation.degenerate
        assert res.switch_map == laguerre_value(p, res.alpha, D)


# -- alpha, carried on the result -------------------------------------------

# the switch builtins of tests/test_report_digests.py, with their r
DIGEST_SWITCHES = [
    ("witt:5+witt:5", "ad:1", None), ("tpoly:3:9:3", "ddx", None),
    ("tpoly:5:5:5", "xddx", None), ("witt:7", "ad:1", 2),
    ("witt:11", "ad:0", None), ("tpoly:2:8:2", "xddx", None)]


@pytest.mark.parametrize("spec,der,r", DIGEST_SWITCHES,
                         ids=["%s-%s-%s" % c for c in DIGEST_SWITCHES])
def test_switch_map_is_the_laguerre_value_at_alpha(spec, der, r):
    A = cli._parse_builtin(spec)
    res = build_LD(A, cli._parse_derivation(A, der, None), r)
    alpha, D = res.alpha, res.derivation
    assert alpha.field is D.field is res.field_final
    assert res.switch_map == laguerre_value(D.field.p, alpha, D)
    assert alpha * D == D * alpha
    # the switching law
    assert alpha ** D.field.p - alpha == D ** D.field.p
    assert "alpha" not in res.to_json()


@pytest.mark.parametrize("spec,der", [
    ("witt:5", "ad:1"), ("witt:5+witt:5", "ad:1"), ("tpoly:5:5:5", "xddx"),
    ("tpoly:2:8:2", "xddx"), ("witt:5", "ad:0"), ("witt:11", "ad:0")])
def test_special_alpha_is_gamma_times_D_to_the_p(spec, der):
    # witt ad:0 has D^p = 0: no gamma, the zero map
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    assert is_special(D)
    assert_special_closed_form(build_LD(A, D), D)


@pytest.mark.parametrize("spec,der", [
    ("witt:5", "ad:1"), ("witt:5+witt:5", "ad:1"), ("tpoly:5:5:5", "xddx"),
    ("tpoly:2:8:2", "xddx")])
def test_special_LD_refuses_gamma_off_the_law(monkeypatch, spec, der):
    # (gamma + delta)^p - (gamma + delta) = 1 + delta^p - delta, which is
    # not 1 for delta outside F_p, so alpha = (gamma + delta) D^p misses
    # alpha^p - alpha = D^p != 0
    real = switch.build_g

    def shifted(relation, lam=None):
        big, g, lam = real(relation, lam)
        (i, gamma), = g.terms
        delta = big.gen
        assert i == 1 and delta ** big.p != delta
        return big, PPolynomial.make(big, [(1, gamma + delta)]), lam
    monkeypatch.setattr(switch, "build_g", shifted)
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    assert D ** A.field.p
    with pytest.raises(VerificationError, match=r"alpha\^p - alpha != D\^p"):
        build_LD(A, D)


def _companion_case():
    """A 3-dim D over F_3 with D^2 = D + 1 on a 2-dim block and the
    eigenvalue 1 on the third vector: its relation is D^27 = D^3, where
    D^9 != D^3, and g = b_1 T^3 + b_2 T^9 over GF(3^6)."""
    F3 = GF(3)
    A = truncated_poly(3, 3, 3).change_field(F3)
    D = LinearMap(F3, [[F3.zero, F3.one, F3.zero],
                       [F3.one, F3.one, F3.zero],
                       [F3.zero, F3.zero, F3.one]])
    return A, D


def _law_cases():
    out = []
    for spec, der in (("witt:5", "ad:1"), ("witt:5+witt:5", "ad:1"),
                      ("tpoly:5:5:5", "xddx"), ("tpoly:2:8:2", "xddx")):
        A = cli._parse_builtin(spec)
        out.append((A, cli._parse_derivation(A, der, None)))
    out.append(_companion_case())
    return out


def test_build_LD_refuses_g_off_the_law(monkeypatch):
    # Scaling the lowest coefficient b of g by c moves alpha by
    # e D^(p^r), e = (c - 1) b, and alpha^p - alpha by
    # e^p D^(p^(r+1)) - e D^(p^r).  That vanishes where e is in F_p and
    # D^(p^(r+1)) = D^(p^r), the Artin-Schreier ambiguity of the next
    # test, so c is taken outside F_p with e outside F_p too.
    real = switch.build_g

    def scaled(relation, lam=None):
        big, g, lam = real(relation, lam)
        (i, b), *rest = g.terms
        assert big.n > 1  # gen and gen + 1 lie outside F_p
        c = next(c for c in (big.gen, big.gen + 1)
                 if ((c - 1) * b) ** big.p != (c - 1) * b)
        return big, PPolynomial.make(big, [(i, b * c), *rest]), lam
    cases = _law_cases()
    for A, D in cases:
        assert build_LD(A, D).g.terms  # the unpatched g is accepted
    monkeypatch.setattr(switch, "build_g", scaled)
    for A, D in cases:
        with pytest.raises(VerificationError,
                           match=r"alpha\^p - alpha != D\^p"):
            build_LD(A, D)


def test_build_LD_accepts_the_artin_schreier_ambiguity(monkeypatch):
    # Adding k T^(p^r), k in F_p, to g is not refused where
    # D^(p^(r+1)) = D^(p^r): alpha gains k D^(p^r), and alpha^p - alpha
    # gains k (D^(p^(r+1)) - D^(p^r)) = 0.  The law fixes g(D) only up to
    # F_p, like the root of gamma^p - gamma = 1; here the shifted g is
    # the g of the constraint root lambda + k.
    real = switch.build_g
    shifts = []

    def shifted(relation, lam=None):
        big, g, lam = real(relation, lam)
        k = big.scalar(2)
        shifts.append((relation, lam + k))
        moved = dict(g.terms)
        moved[relation.r] = moved[relation.r] + k
        return big, PPolynomial.make(big, moved.items()), lam
    monkeypatch.setattr(switch, "build_g", shifted)
    W = witt(5)
    D = W.left_multiplication(W.basis_vector(1))  # ad e_0: D^5 = D
    assert D.p_power(2) == D.p_power(1)
    res = build_LD(W, D)
    (relation, lam_k), = shifts
    assert res.g == real(relation, lam_k)[1]
    assert res.alpha ** 5 - res.alpha == res.derivation ** 5


@pytest.mark.parametrize("spec,der", [("tpoly:3:9:3", "ddx"),
                                      ("witt:5+witt:5", "ad:1")])
def test_switch_grading_refuses_parts_with_two_labels_swapped(
        monkeypatch, spec, der):
    real = switch.build_LD

    def swapped(A, D, r=None):
        res = real(A, D, r=r)
        k, l = [k for k, s in res.new_parts if s.dim][:2]
        swap = {k: l, l: k}
        return dataclasses.replace(res, new_parts=tuple(
            (swap.get(j, j), s) for j, s in res.new_parts))
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    assert switch_grading(A, D, check_product_rule=False).grading_ok
    monkeypatch.setattr(switch, "build_LD", swapped)
    with pytest.raises(VerificationError,
                       match="switched components fail the grading check"):
        switch_grading(A, D, check_product_rule=False)


def count_map_products(monkeypatch):
    """A one-entry list that counts the map products formed from now on:
    LinearMap.__mul__ of two maps, and each fused step LinearMap.mul_add
    of maps (whose plain fallback reaches __mul__ and counts there)."""
    real, real_fused = LinearMap.__mul__, LinearMap.mul_add
    products = [0]

    def counting(self, other):
        if isinstance(other, LinearMap):
            products[0] += 1
        return real(self, other)

    def counting_fused(self, x, c, s):
        if isinstance(x, LinearMap) and isinstance(c, LinearMap):
            products[0] += 1
        return real_fused(self, x, c, s)
    monkeypatch.setattr(LinearMap, "__mul__", counting)
    monkeypatch.setattr(LinearMap, "mul_add", counting_fused)
    return products


def switch_products(monkeypatch, capsys, argv):
    products = count_map_products(monkeypatch)
    code = cli.main(["switch"] + argv + ["--output", "json"])
    capsys.readouterr()
    assert code == 0
    return products[0]


def test_switch_at_r_16_makes_at_most_160_map_products(monkeypatch, capsys):
    # D^5, ..., D^(5^17) are formed once, on D's own p-power chain over the
    # start field: p_power_relation walks it, and alpha = (g - h)(D) embeds
    # its terms.  Walking h(D) along a second chain and forming D^(5^16)
    # again for a check of g(D) made 250 products, forming D^5 once more
    # for the law 160, and a second chain from D^5 to D^(5^16) over the
    # enlarged field for alpha 157.  The law, the Laguerre value and the
    # scalar law on n x n maps (alpha^5, four fused Horner steps and
    # L^(5^16)) made 109; modulo D's minimal polynomial they form no map,
    # and L = P(D) takes D^2, D^3 and one fused step: 54
    assert switch_products(monkeypatch, capsys, [
        "--builtin", "witt:5", "--derivation", "ad:1", "--r", "16"]) == 54


@pytest.mark.parametrize("spec,der,want", [
    ("tpoly:5:25:5", "ddx", 17), ("tpoly:5:25:5", "xddx", 12),
    ("tpoly:3:27:3", "ddx", 19)])
def test_switch_forms_each_map_product_once(monkeypatch, capsys, spec, der,
                                            want):
    # each map forms its p-power chain and its minimal polynomial once:
    # the eigenspaces read D's chain and the minimal polynomial
    # semisimple_exponent formed.  The operator is P(D) for P the Laguerre
    # value modulo D's minimal polynomial m, by Paterson-Stockmeyer: about
    # 2 sqrt(deg m) products, each fused Horner step one.  Forming
    # D^(p^k) - rho^(p^k) as (D - rho)^mult, a second minimal polynomial of
    # D and unfused steps made 31, 25 and 30 products; the Laguerre value
    # by Horner on n x n maps, alpha^p and L^(p^r) there 25, 22 and 23
    assert switch_products(monkeypatch, capsys, [
        "--builtin", spec, "--derivation", der]) == want


def test_scalar_law_on_blocks():
    # (restriction of L to each eigenspace)^(p^r) is the predicted scalar
    cases = []
    for p in (3, 5):
        A = truncated_poly(p, p, p)
        cases.append((p, build_LD(A, truncated_poly_derivation(A, "xddx"))))
    W = witt(5)
    cases.append((5, build_LD(W, W.left_multiplication(W.basis_vector(0)))))
    for p, res in cases:
        r_eff = max(res.r, 1)
        for rho, space in res.decomposition:
            block = restrict_to(res.switch_map, space)
            grho = res.g(rho)
            scalar = laguerre_at(p, grho ** p).evaluate(grho ** p - grho)
            assert scalar == scalar_product_form(p, grho)
            assert scalar
            I = LinearMap.identity(res.field_final, space.dim)
            assert block.p_power(r_eff) == I * scalar


def test_switch_map_invertible():
    for p in (3, 5):
        A = truncated_poly(p, p, p)
        res = build_LD(A, truncated_poly_derivation(A, "xddx"))
        assert res.switch_map.rank() == A.dim
        inv = inverse(res.switch_map)
        assert res.switch_map * inv == \
            LinearMap.identity(res.field_final, A.dim)


def test_scaled_euler_over_f9():
    # theta * (x d/dx) over F_9: nondegenerate with a_1 = -theta^(1-p)
    p = 3
    F9 = GF(3, 2)
    theta = F9.gen
    A = truncated_poly(p, p, p).change_field(F9)
    D = truncated_poly_derivation(truncated_poly(p, p, p),
                                  "xddx").embed_to(F9) * theta
    rel = p_power_relation(D, 1)
    assert (rel.r, rel.n) == (1, 2)
    assert rel.coeffs == (-(theta ** (1 - p)),)
    res = switch_grading(A, D)
    assert res.grading_ok
    assert res.product_rule_pairs == p * p


def test_mixed_r2_multiple_eigenvalues():
    # d/dx on tpoly(3,9,3) plus theta * Euler on tpoly(3,3,3), over F_9:
    # r = 2 with a nondegenerate relation and three eigenvalues
    F9 = GF(3, 2)
    theta = F9.gen
    A1 = truncated_poly(3, 9, 3)
    A2 = truncated_poly(3, 3, 3)
    A = direct_sum(A1, A2).change_field(F9)
    D1 = truncated_poly_derivation(A1, "ddx").embed_to(F9)
    D2 = truncated_poly_derivation(A2, "xddx").embed_to(F9) * theta
    n = A.dim
    rows = [[F9.zero] * n for _ in range(n)]
    for i in range(9):
        for j in range(9):
            rows[i][j] = D1.rows[i][j]
    for i in range(3):
        for j in range(3):
            rows[9 + i][9 + j] = D2.rows[i][j]
    D = LinearMap(F9, rows)

    assert semisimple_exponent(D) == 2
    rel = p_power_relation(D, 2)
    assert rel.n == 3 and rel.coeffs == (-(theta ** 2),)
    res = build_LD(A, D)
    assert res.field_final is F9
    assert sorted(s.dim for _, s in res.decomposition) == [1, 1, 10]
    assert verify_product_rule(res) == n * n


def test_user_supplied_r_validated():
    A = truncated_poly(3, 9, 3)
    D = truncated_poly_derivation(A, "ddx")
    with pytest.raises(HypothesisError):
        build_LD(A, D, r=1)  # D^3 is not semisimple
    res = build_LD(A, D, r=3)  # r beyond the minimum is legal
    assert res.r == 3


@pytest.mark.parametrize("spec, der, r_raw", [
    ("witt:5", "ad:1", 0), ("witt:5", "ad:0", 1),
    ("tpoly:3:9:3", "ddx", 2), ("tpoly:3:27:3", "ddx", 3)])
def test_supplied_r_refused_exactly_when_its_power_is_not_semisimple(
        spec, der, r_raw):
    from gradeswitch import cli
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    assert semisimple_exponent(D) == r_raw
    for r in range(r_raw + 2):
        # build_LD compares r with r_raw; the oracle tests D^(p^r) itself
        if not D.p_power(r).minimal_polynomial().squarefree_is():
            with pytest.raises(HypothesisError,
                               match="supplied r = %d fails" % r):
                build_LD(A, D, r)
        else:
            assert build_LD(A, D, r).r == max(r, 1)


def test_negative_r_refused():
    A = witt(5)
    D = A.left_multiplication(A.basis_vector(1))
    with pytest.raises(ValueError, match="r must be >= 0"):
        build_LD(A, D, r=-3)


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2)])
def test_pair_series_constant_terms_match_field_tables(p, n):
    # order-1 series take the p-power inverse, field entries the linear
    # solve: the two routes through one table builder must agree
    F = GF(p, n)
    rng = random.Random(100 * p + n)
    checked = 0
    while checked < 3:
        a0, b0 = F.random_element(rng), F.random_element(rng)
        if in_prime_star(a0 + b0):
            continue
        checked += 1
        series = _pair_coefficient_series(p, F, a0, b0, 1, 1)
        assert tuple(s.constant_term for s in series) == \
            c_coefficients(p, a0, b0)


def test_non_derivation_rejected():
    W = witt(5)
    F = W.field
    rows = [list(r) for r in LinearMap.identity(F, 5).rows]
    rows[0][1] = F.one
    with pytest.raises(HypothesisError):
        switch_grading(W, LinearMap(F, rows))


def test_leibniz_rule_checked_once_per_switch(monkeypatch):
    from gradeswitch import galg, switch
    calls = []
    original = galg.is_derivation

    def counting(A, D):
        calls.append(1)
        return original(A, D)
    for module in (galg, switch):  # every module that binds the name
        if getattr(module, "is_derivation", None) is original:
            monkeypatch.setattr(module, "is_derivation", counting)
    W = witt(5)
    switch_grading(W, W.left_multiplication(W.basis_vector(0)),
                   check_product_rule=False)
    assert len(calls) == 1
    # a graded map that breaks the Leibniz rule is still refused
    with pytest.raises(HypothesisError) as exc:
        switch_grading(W, LinearMap.identity(W.field, 5))
    assert exc.value.hypothesis == "D is a graded derivation"


@pytest.mark.parametrize("p,length,outside,series", [(5, 3, 3, 6),
                                                      (7, 4, 6, 10)])
def test_product_rule_pairs_outside_the_spectrum(monkeypatch, p, length,
                                                 outside, series):
    # xddx on tpoly(p, length, p) has eigenvalues 0 .. length-1, so some
    # sums rho + sigma are no eigenvalue; those pairs are checked by their
    # products vanishing, with no pair series
    calls = []
    original = switch._pair_coefficient_series

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(switch, "_pair_coefficient_series", counting)
    A = truncated_poly(p, length, p)
    res = switch_grading(A, truncated_poly_derivation(A, "xddx"))
    values = [rho for rho, _ in res.decomposition]
    assert len(values) == length
    assert sum(r + s not in values
               for r in values for s in values) == outside
    assert len(calls) == series == length * length - outside
    assert res.product_rule_pairs == A.dim ** 2


# one builtin per shape of pair series: nilpotent orders 1 x 1 with two
# eigenspace sizes, and 3 x 3
SWEEP_CASES = [("witt:5+witt:5", "ad:1", 1), ("tpoly:3:9:3", "ddx", 3),
               ("tpoly:5:5:5", "xddx", 1)]


def switched_without_product_rule(spec, der):
    A = cli._parse_builtin(spec)
    return switch_grading(A, cli._parse_derivation(A, der, None),
                          check_product_rule=False)


@pytest.mark.parametrize("spec,der,order", SWEEP_CASES)
def test_product_rule_refuses_a_perturbed_switch_map(spec, der, order):
    res = switched_without_product_rule(spec, der)
    assert verify_product_rule(res) == res.algebra.dim ** 2
    L = res.switch_map
    F, n = L.field, L.n
    for i, j in ((0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0)):
        rows = [list(row) for row in L.rows]
        rows[i][j] = rows[i][j] + F.one
        bad = dataclasses.replace(res, switch_map=LinearMap(F, rows))
        with pytest.raises(VerificationError, match="product rule fails"):
            verify_product_rule(bad)


@pytest.mark.parametrize("spec,der,order", SWEEP_CASES)
def test_product_rule_refuses_a_perturbed_c_value(monkeypatch, spec, der,
                                                  order):
    """One coefficient of one c_i is off by one in every pair series: its
    constant term, or its highest nilpotent term, which multiplies
    nil^(sa-1) D^i x against nil^(sb-1) D^(p-i) y."""
    res = switched_without_product_rule(spec, der)
    F = res.field_final
    original = switch._pair_coefficient_series
    orders = set()

    for i in range(F.p):
        for corner in (False, True):
            def perturbed(*args):
                cs = list(original(*args))
                c = cs[i]
                orders.add((c.ua, c.ub))
                rows = [list(row) for row in c.coeffs]
                j, k = (c.ua - 1, c.ub - 1) if corner else (0, 0)
                rows[j][k] = rows[j][k] + F.one
                cs[i] = BiTruncSeries(c.field, c.ua, c.ub, rows)
                return cs
            monkeypatch.setattr(switch, "_pair_coefficient_series",
                                perturbed)
            with pytest.raises(VerificationError,
                               match="product rule fails"):
                verify_product_rule(res)
    assert orders == {(order, order)}


def operator_residue(res):
    """(P, m): D's minimal polynomial m over F' and the residue P of the
    switching operator modulo m, L = P(D), as build_LD forms them."""
    D = res.derivation
    field = D.field
    m = D.minimal_polynomial()
    t = Polynomial.variable(field) % m
    alpha = t * 0
    for i, b in (res.g - h_polynomial(field, res.r)).terms:
        alpha = alpha + t.pow_mod(field.p ** i, m) * b
    return laguerre_value(field.p, alpha, t) % m, m


@pytest.mark.parametrize("spec,der", [("tpoly:3:9:3", "ddx"),
                                      ("witt:5+witt:5", "ad:1")])
def test_scalar_law_refuses_each_wrong_input(monkeypatch, spec, der):
    res = switched_without_product_rule(spec, der)
    P, m = operator_residue(res)
    dec, g, r = res.decomposition, res.g, res.r
    assert res.derivation.polynomial_value(P) == res.switch_map
    assert switch._scalar_law(P, m, dec, g, r) == res.block_scalars
    F = m.field
    # (P + 1)^(p^r) = P^(p^r) + 1 is s + 1 modulo each (T - rho)^mu
    with pytest.raises(VerificationError, match=r"L\^\(p\^r\) is not the "
                                                r"predicted scalar"):
        switch._scalar_law(P + 1, m, dec, g, r)
    # an eigenvalue off the spectrum, in place of the first
    space = dec[0][1]
    off = next(x for x in map(F.from_int, range(F.q)) if m.evaluate(x))
    with pytest.raises(VerificationError, match="is not a root of D's "
                                                "minimal polynomial"):
        switch._scalar_law(P, m, ((off, space),) + dec[1:], g, r)
    # the last eigenvalue left out: its multiplicity is missing
    with pytest.raises(VerificationError, match=r"multiplicities add up "
                       r"to \d+, not deg m_D = %d" % m.degree()):
        switch._scalar_law(P, m, dec[:-1], g, r)
    # g(rho) = 1 gives prod_i (1 + 1/i)^i, whose factor at i = p - 1 is 0
    with pytest.raises(VerificationError, match="scalar law gives zero"):
        switch._scalar_law(P, m, dec, lambda rho: rho.field.one, r)
    # a wrong s on both forms, so that they agree and s stays nonzero
    real_value, real_form = switch.laguerre_value, switch.scalar_product_form
    monkeypatch.setattr(switch, "laguerre_value",
                        lambda p, a, x: real_value(p, a, x) + 1)
    monkeypatch.setattr(switch, "scalar_product_form",
                        lambda p, x: real_form(p, x) + 1)
    assert all(s + 1 for _, s in res.block_scalars)
    with pytest.raises(VerificationError, match=r"L\^\(p\^r\) is not the "
                                                r"predicted scalar"):
        switch._scalar_law(P, m, dec, g, r)
    monkeypatch.setattr(switch, "laguerre_value", real_value)
    with pytest.raises(VerificationError, match="Laguerre and product forms "
                                                "disagree"):
        switch_grading(res.algebra, res.derivation, check_product_rule=False)


@pytest.mark.parametrize("spec,der", [("tpoly:3:9:3", "ddx"),
                                      ("witt:5+witt:5", "ad:1")])
def test_build_LD_refuses_a_perturbed_alpha(monkeypatch, spec, der):
    # h - c T^p moves alpha to alpha + c D^p, and the law's left side by
    # c^p D^(p^2) - c D^p: not 0 for c = 1 with D^(p^2) = 0 != D^p
    # (tpoly:3:9:3 ddx), nor for c outside F_p with D^(p^2) = D^p
    # (witt:5+witt:5 ad:1)
    real = switch.h_polynomial

    def perturbed(field, r):
        c = field.gen if field.n > 1 else field.one
        return real(field, r) - PPolynomial.make(field, [(1, c)])
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    monkeypatch.setattr(switch, "h_polynomial", perturbed)
    with pytest.raises(VerificationError, match=r"alpha\^p - alpha != D\^p"):
        build_LD(A, D)


def test_product_rule_refuses_a_product_outside_the_eigenspace_sum():
    # witt:5+witt:5 under ad e_0 has eigenvalue i on e_i.  Keeping only
    # the eigenspaces of 4 (e_-1) and 2 (e_2) of the first summand puts
    # [e_-1, e_2] = 3 e_1 outside, since 4 + 2 = 1 is no longer a label
    res = switched_without_product_rule("witt:5+witt:5", "ad:1")
    F = res.field_final
    kept = [(rho, s) for rho, s in res.decomposition
            if rho in (F.scalar(4), F.scalar(2))]
    assert [s.dim for _, s in kept] == [1, 1]
    bad = dataclasses.replace(res, decomposition=tuple(kept))
    with pytest.raises(VerificationError,
                       match="^product outside the eigenspace sum"):
        verify_product_rule(bad)


def test_product_rule_refuses_a_switched_product_outside_the_eigenspace_sum():
    # tpoly:5:5:5 under xddx has eigenvalue i on x^(i).  With the
    # eigenspace of 4 alone, 4 + 4 = 3 is no label, and x^(4) x^(4) = 0
    # passes; a switch map moved to send x^(4) to L x^(4) + x^(1) makes
    # the switched square nonzero through x^(1) x^(1) = 2 x^(2)
    res = switched_without_product_rule("tpoly:5:5:5", "xddx")
    F, L = res.field_final, res.switch_map
    kept = tuple((rho, s) for rho, s in res.decomposition
                 if rho == F.scalar(4))
    assert len(kept) == 1
    assert verify_product_rule(dataclasses.replace(
        res, decomposition=kept)) == 1
    moved = L + LinearMap(F, [[F.one if (i, j) == (1, 4) else F.zero
                               for j in range(L.n)] for i in range(L.n)])
    assert moved.apply(res.algebra.basis_vector(4)) == tuple(
        a + b for a, b in zip(L.apply(res.algebra.basis_vector(4)),
                              res.algebra.basis_vector(1)))
    bad = dataclasses.replace(res, decomposition=kept, switch_map=moved)
    with pytest.raises(VerificationError,
                       match="switched product outside the eigenspace sum"):
        verify_product_rule(bad)


@pytest.mark.parametrize("spec,der,order", SWEEP_CASES)
def test_product_rule_and_strade_map_refuse_alpha_plus_one(spec, der, order):
    # nil = alpha + 1 - a0 is not nilpotent on any eigenspace
    res = switched_without_product_rule(spec, der)
    bad = dataclasses.replace(res, alpha=res.alpha + 1)
    with pytest.raises(VerificationError, match="not nilpotent"):
        verify_product_rule(bad)
    assert strade_map(bad) != res.switch_map


def test_product_rule_refuses_a_nilpotent_perturbation_of_alpha():
    # tpoly:3:9:3 ddx has alpha = -D^3; alpha + D keeps nil nilpotent and
    # commuting with D, so only the product rule itself can refuse it
    res = switched_without_product_rule("tpoly:3:9:3", "ddx")
    D = res.derivation
    assert res.alpha == -D.p_power(1)
    bad = dataclasses.replace(res, alpha=res.alpha + D)
    with pytest.raises(VerificationError, match="product rule fails"):
        verify_product_rule(bad)
    assert strade_map(bad) != res.switch_map


@pytest.mark.parametrize("fail_at", [0, 6])
def test_pair_series_failure_names_its_components(monkeypatch, capsys,
                                                  fail_at):
    """A VerificationError from a pair series reaches the CLI naming the
    eigenvalue pair (rho, sigma) whose series failed, its own message
    kept."""
    res = switched_without_product_rule("witt:5+witt:5", "ad:1")
    dec = res.decomposition
    values = [rho for rho, _ in dec]
    pairs = [(rho, sigma) for rho in values for sigma in values
             if rho + sigma in values]
    calls = []
    original = switch.coefficient_table

    def failing(p, a, b):
        calls.append((a, b))
        if len(calls) > fail_at:
            raise VerificationError("table defect in call %d" % len(calls))
        return original(p, a, b)
    monkeypatch.setattr(switch, "coefficient_table", failing)
    code = cli.main(["switch", "--builtin", "witt:5+witt:5",
                     "--derivation", "ad:1"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(calls) == fail_at + 1
    assert "pair series of components (%s, %s): table defect in call %d" \
        % (pairs[fail_at] + (fail_at + 1,)) in err


def test_grading_modulus_constraint():
    # switching requires m | p*d; tpoly(3, 9, 9) with ddx has
    # d = -1 mod 9 and p*d = 24, which 9 does not divide
    A = truncated_poly(3, 9, 9)
    D = truncated_poly_derivation(A, "ddx")
    with pytest.raises(HypothesisError):
        switch_grading(A, D)


def test_product_rule_tensor_vs_product_reading():
    """The coefficient operators act factor-wise (tensor reading).  The
    alternative reading - the same rational expressions acting on the
    product component - genuinely differs once r > 1, so this pins down
    the implemented semantics on the r = 2 case with a 9-dimensional
    0-eigenspace."""
    p = 3
    A = truncated_poly(p, p * p, p)
    D = truncated_poly_derivation(A, "ddx")
    res = build_LD(A, D)
    F = res.field_final
    L = res.switch_map
    n = A.dim

    # c_i = N_i / den over GF(p)[alpha, beta], cleared by den
    vars_ = ("alpha", "beta")
    alpha = MultiPoly.variable(GF(p), vars_, "alpha")
    beta = MultiPoly.variable(GF(p), vars_, "beta")
    den = (alpha + beta) ** (p - 1) - 1
    s_terms = [(e[0], e[1], c) for e, c in den.terms.items()]
    N_terms = [[(e[0], e[1], c) for e, c in n.terms.items()]
               for n in closed_form_numerators(p, alpha, beta)]

    a_op = LinearMap.zero(F, n) - D.p_power(1)  # alpha_0 = g(0) - h(D)

    def op_pow(e, v):
        for _ in range(e):
            v = a_op.apply(v)
        return v

    def d_pow(v, k):
        for _ in range(k):
            v = D.apply(v)
        return v

    def scale(v, c):
        return tuple(c * x for x in v)

    def vadd(u, v):
        return tuple(a + b for a, b in zip(u, v))

    zero_vec = (F.zero,) * n
    basis = [A.basis_vector(i) for i in range(n)]
    bad_tensor = bad_product = 0
    for x, y in itertools.product(basis, basis):
        lhs = zero_vec
        for ea, eb, c in s_terms:
            t = A.product(L.apply(op_pow(ea, x)), L.apply(op_pow(eb, y)))
            lhs = vadd(lhs, scale(t, c))
        inner = zero_vec
        for i in range(p):
            xi = x if i == 0 else d_pow(x, i)
            yi = y if i == 0 else d_pow(y, p - i)
            for ea, eb, c in N_terms[i]:
                inner = vadd(inner,
                             scale(A.product(op_pow(ea, xi), op_pow(eb, yi)),
                                   c))
        if tuple(L.apply(inner)) != lhs:
            bad_tensor += 1

        # product reading: the same cleared table acting after multiplying
        inner2 = zero_vec
        for i in range(p):
            xi = x if i == 0 else d_pow(x, i)
            yi = y if i == 0 else d_pow(y, p - i)
            base = A.product(xi, yi)
            for ea, eb, c in N_terms[i]:
                inner2 = vadd(inner2, scale(op_pow(ea + eb, base), c))
        lhs2 = zero_vec
        base2 = A.product(L.apply(x), L.apply(y))
        for ea, eb, c in s_terms:
            lhs2 = vadd(lhs2, scale(op_pow(ea + eb, base2), c))
        if tuple(L.apply(inner2)) != lhs2:
            bad_product += 1

    assert bad_tensor == 0
    assert bad_product > 0  # the readings are not interchangeable


def test_relation_serialization():
    F3 = GF(3)
    D = LinearMap(F3, [[F3.zero, F3.one], [F3.one, F3.one]])
    rel = p_power_relation(D, 1)
    obj = rel.to_json()
    assert obj["r"] == 1 and obj["n"] == 3
    res = build_LD(truncated_poly(3, 3, 3),
                   truncated_poly_derivation(truncated_poly(3, 3, 3),
                                             "xddx"))
    doc = res.to_json()
    assert doc["r"] == 1
    assert len(doc["eigenvalues"]) == len(doc["block_dims"])
    assert doc["g"] is not None


def test_eigenspace_tracking_matches_general_decomposition():
    A = truncated_poly(5, 5, 5)
    D = truncated_poly_derivation(A, "xddx")
    res = build_LD(A, D)
    big, dec = generalized_eigenspaces(D.embed_to(res.field_final))
    assert big is res.field_final
    assert [v.coeffs for v, _ in dec] == \
        [v.coeffs for v, _ in res.decomposition]
