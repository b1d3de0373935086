import functools
import random

import pytest

from gradeswitch import toral
from gradeswitch.echelon import solve
from gradeswitch.fields import GF
from gradeswitch.galg import GradedAlgebra, Subspace, direct_sum, \
    generalized_eigenspaces, truncated_poly, witt
from gradeswitch.laguerre import truncated_exp
from gradeswitch.switch import HypothesisError, SwitchResult, \
    VerificationError
from gradeswitch.toral import (
    RestrictedLie, ToralComparison, Torus, compare_switch_to_toral,
    root_decomposition, strade_map, switch_torus)
from algebra_builders import torus_line
from oracles import center, semilinear_pth_power, supports_commute, \
    witt_pmap
from refine_oracle import RefinedSwitch, refine_grading


def witt_lie(p):
    return RestrictedLie(witt(p))


def test_restricted_lie_validation():
    L = witt_lie(5)
    assert L.dim == 5
    assert center(L.algebra) == ()
    with pytest.raises(ValueError):
        RestrictedLie(truncated_poly(3, 3, 3))  # not a Lie bracket


def test_pth_power_rules():
    L = witt_lie(5)
    F = L.field
    e = [L.basis_vector(i) for i in range(5)]
    assert L.pth_power(e[1]) == e[1]       # e_0 is toral
    assert not any(L.pth_power(e[0]))      # e_{-1}^[p] = 0
    assert L.is_toral(e[1])
    assert not L.is_toral(e[0])
    # a non-commuting support has no p-th power rule from the table, but
    # the derived map needs none
    x = tuple(F.scalar(c) for c in (1, 1, 0, 0, 0))
    assert not supports_commute(L.algebra, x)
    assert L.pth_power(x) == x
    assert L.is_toral(x)  # e_0 + e_{-1} is toral
    assert L.ad(x).p_power(1) == L.ad(x)


def heisenberg(p):
    """[e_0, e_1] = e_2 over GF(p), graded trivially: e_2 spans the
    center."""
    F = GF(p)
    return GradedAlgebra(F, 1, [0, 0, 0], {(0, 1): [(2, 1)],
                                            (1, 0): [(2, -1)]})


def test_an_algebra_with_a_center_is_refused():
    for A in (heisenberg(5), direct_sum(witt(5), torus_line(5, 5))):
        assert center(A) != ()
        with pytest.raises(ValueError, match="center is nontrivial"):
            RestrictedLie(A)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_an_algebra_without_a_p_map_is_refused_naming_e0(p):
    # [e_0, e_1] = e_1, [e_0, e_2] = e_1 + e_2 is centerless, and
    # (ad e_0)^p is the identity on <e_1, e_2>, which no ad z is
    F = GF(p)
    A = GradedAlgebra(F, 1, [0, 0, 0], {
        (0, 1): [(1, 1)], (1, 0): [(1, -1)],
        (0, 2): [(1, 1), (2, 1)], (2, 0): [(1, -1), (2, -1)]})
    assert center(A) == ()
    with pytest.raises(ValueError, match=r"ad\(e_0\)\^p is not inner"):
        RestrictedLie(A)


# sums of Witt algebras, as the summands' sizes
WITT_SUMS = [(2,), (3,), (5,), (7,), (11,), (13,), (5, 5), (7, 7),
             (3, 3, 3)]


def witt_sum(sizes):
    return functools.reduce(direct_sum, map(witt, sizes))


@pytest.mark.parametrize("sizes", WITT_SUMS,
                         ids=["+".join("witt:%d" % p for p in s)
                              for s in WITT_SUMS])
def test_derived_p_map_is_the_old_table(sizes):
    A = witt_sum(sizes)
    L = RestrictedLie(A)
    table = witt_pmap(A.field, sizes)
    assert [L.pth_power(L.basis_vector(i)) for i in range(L.dim)] == table
    # the table given as pmap is accepted; a wrong row is refused
    RestrictedLie(GradedAlgebra(A.field, A.m, A.degrees, A.products, table))
    bad = list(table)
    bad[0] = L.basis_vector(0)
    with pytest.raises(ValueError, match=r"ad\(e_0\)\^p differs"):
        RestrictedLie(GradedAlgebra(A.field, A.m, A.degrees, A.products,
                                    bad))


@pytest.mark.parametrize("sizes,degree", [((5,), 1), ((5,), 2),
                                          ((3, 3), 2), ((5, 5), 1)],
                         ids=["witt:5", "witt:5-GF25", "witt:3+witt:3-GF9",
                              "witt:5+witt:5"])
def test_pth_power_is_semilinear_on_commuting_supports(sizes, degree):
    # over GF(p^2) the coefficients' p-th powers are not the coefficients
    A = witt_sum(sizes).change_field(GF(sizes[0], degree))
    L = RestrictedLie(A)
    F = L.field
    table = witt_pmap(F, sizes)
    rng = random.Random(53)
    seen = 0
    for _ in range(60):
        slots = rng.sample(range(L.dim), rng.randint(1, 3))
        x = tuple(F.random_element(rng) if i in slots else F.zero
                  for i in range(L.dim))
        if any(x) and supports_commute(A, x):
            assert L.pth_power(x) == semilinear_pth_power(table, x)
            seen += 1
    assert seen >= 10


def _toral_by_solve(lie, t):
    """t^[p] == t by recovering t^[p] from ad: solve ad(z) = ad(t)^p over
    the n^2 matrix entries (centerless algebras only) and compare z with
    t.  An independent route for checking is_toral."""
    n = lie.dim
    flat = [[x for row in lie.ad(lie.basis_vector(j)).rows for x in row]
            for j in range(n)]
    rows = [[flat[j][s] for j in range(n)] for s in range(n * n)]
    rhs = [x for row in lie.ad(t).p_power(1).rows for x in row]
    z = solve(rows, rhs, lie.field)
    return z is not None and tuple(z) == tuple(t)


@pytest.mark.parametrize("algebra", [
    witt(5), witt(7), direct_sum(witt(3), witt(3))],
    ids=["witt:5", "witt:7", "witt:3+witt:3"])
def test_is_toral_matches_ad_recovery(algebra):
    L = RestrictedLie(algebra)
    F = L.field
    e = [L.basis_vector(i) for i in range(L.dim)]
    # slots 0, 1, 2 hold e_{-1}, e_0, e_1 of the first Witt summand
    toral = [tuple(a + c * b for a, b in zip(e[1], e[0]))
             for c in F.elements() if c]
    # (e_{-1} + e_1)^[p] = (-1)^((p-1)/2) (e_{-1} + e_1): toral exactly
    # when -1 is a square mod p
    cases = [(t, True) for t in toral] + \
        [(tuple(a + b for a, b in zip(e[0], e[2])), F.p % 4 == 1)]
    rng = random.Random(31)
    while len(cases) < len(toral) + 9:
        t = tuple(F.random_element(rng) for _ in range(L.dim))
        if not supports_commute(algebra, t):
            cases.append((t, None))
    for t, want in cases:
        adt = L.ad(t)
        assert L.ad(L.pth_power(t)) == adt.p_power(1)
        got = L.is_toral(t)
        assert got == _toral_by_solve(L, t)
        assert got == (adt.p_power(1) == adt)
        assert want is None or got == want


def test_torus_validation():
    L = witt_lie(5)
    e = [L.basis_vector(i) for i in range(5)]
    T = Torus(L, [e[1]])
    assert T.dim == 1
    with pytest.raises(HypothesisError):
        Torus(L, [e[0]])               # nilpotent adjoint
    with pytest.raises(HypothesisError):
        Torus(L, [e[1], e[2]])         # [e_0, e_1] != 0
    with pytest.raises(ValueError):
        Torus(L, [tuple(L.field.zero for _ in range(5))])


@pytest.mark.parametrize("algebra", [
    witt(5), witt(7), direct_sum(witt(3), witt(3))],
    ids=["witt:5", "witt:7", "witt:3+witt:3"])
def test_torus_semisimplicity_matches_minimal_polynomial(algebra):
    # Torus reads semisimplicity off the squarefree minimal polynomial of
    # ad t; the oracle is ad t acting on each of its generalized
    # eigenspaces, over the field where it splits, as the eigenvalue
    L = RestrictedLie(algebra)
    F = L.field
    rng = random.Random(47)
    cases = [L.basis_vector(i) for i in range(L.dim)]
    for k in (2, 3, L.dim):   # sparse and dense elements
        for _ in range(6):
            slots = rng.sample(range(L.dim), k)
            t = tuple(F.random_element(rng) if i in slots else F.zero
                      for i in range(L.dim))
            if any(t):
                cases.append(t)
    seen = set()
    for t in cases:
        adt = L.ad(t)
        big, dec = generalized_eigenspaces(adt)
        adt = adt.embed_to(big)
        want = all(adt.apply(b) == tuple(rho * x for x in b)
                   for rho, space in dec for b in space.basis)
        seen.add(want)
        if want:
            assert Torus(L, [t]).dim == 1
        else:
            with pytest.raises(HypothesisError,
                               match="torus adjoints are semisimple"):
                Torus(L, [t])
    assert seen == {True, False}


def test_root_of():
    L = witt_lie(5)
    F = L.field
    e = [L.basis_vector(i) for i in range(5)]
    T = Torus(L, [e[1]])
    assert T.root_of(e[0]) == (F.scalar(-1),)
    assert T.root_of(e[3]) == (F.scalar(2),)
    # a sum of eigenvectors for different roots is not a root vector
    mix = tuple(a + b for a, b in zip(e[0], e[2]))
    assert T.root_of(mix) is None


def test_root_decomposition_witt():
    L = witt_lie(5)
    F = L.field
    dec = root_decomposition(Torus(L, [L.basis_vector(1)]))
    assert all(s.field is F for _, s in dec)  # already split
    assert len(dec) == 5
    assert sorted(int(r[0]) for r, _ in dec) == [0, 1, 2, 3, 4]
    assert all(s.dim == 1 for _, s in dec)
    assert dict(dec)[(F.zero,)].contains(L.basis_vector(1))
    # native grading of witt coincides with the e_0 root grading
    for root, space in dec:
        k = int(root[0])
        assert space.basis[0] == L.basis_vector((k + 1) % 5)


# (p, torus vector by slot, modulus of the splitting field, root spaces):
# each root label is one eigenvalue and each root space one basis vector,
# both as coefficient tuples over GF(p^2)
ENLARGED = [
    (5, {0: 1, 2: 2}, (2, 0, 1), [
        ((0, 0), [(1, 0), (0, 0), (2, 0), (0, 0), (0, 0)]),
        ((0, 1), [(1, 0), (0, 1), (1, 0), (0, 1), (2, 0)]),
        ((0, 2), [(1, 0), (0, 2), (3, 0), (0, 0), (0, 0)]),
        ((0, 3), [(1, 0), (0, 3), (3, 0), (0, 0), (0, 0)]),
        ((0, 4), [(1, 0), (0, 4), (1, 0), (0, 4), (2, 0)])]),
    (7, {0: 1, 2: 1}, (1, 0, 1), [
        ((0, 0), [(1, 0), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0), (0, 0)]),
        ((0, 1), [(1, 0), (0, 1), (4, 0), (0, 4), (6, 0), (0, 6), (4, 0)]),
        ((0, 2), [(1, 0), (0, 2), (6, 0), (0, 0), (0, 0), (0, 0), (0, 0)]),
        ((0, 3), [(1, 0), (0, 3), (0, 0), (0, 1), (1, 0), (0, 6), (6, 0)]),
        ((0, 4), [(1, 0), (0, 4), (0, 0), (0, 6), (1, 0), (0, 1), (6, 0)]),
        ((0, 5), [(1, 0), (0, 5), (6, 0), (0, 0), (0, 0), (0, 0), (0, 0)]),
        ((0, 6), [(1, 0), (0, 6), (4, 0), (0, 3), (6, 0), (0, 1), (4, 0)])]),
]


@pytest.mark.parametrize("p,slots,modulus,spaces", ENLARGED,
                         ids=["witt5", "witt7"])
def test_root_decomposition_enlarges_the_field(p, slots, modulus, spaces):
    # e_{-1} + c e_1 has an adjoint that splits only over GF(p^2): over
    # GF(p) the decomposition is refused, naming GF(p^2)
    L = witt_lie(p)
    t = tuple(L.field.scalar(slots.get(i, 0)) for i in range(p))
    with pytest.raises(HypothesisError,
                       match=r"split.*GF\(%d\^2\)" % p):
        root_decomposition(Torus(L, [t]))
    # over GF(p^2), built by the caller, it decomposes there
    L2 = RestrictedLie(witt(p).change_field(GF(p, 2)))
    t = tuple(L2.field.scalar(slots.get(i, 0)) for i in range(p))
    T2 = Torus(L2, [t])
    dec = root_decomposition(T2)
    assert all(s.field is GF(p, 2) for _, s in dec)
    assert GF(p, 2).modulus == modulus
    # the torus line is the root-0 space
    assert [[c.coeffs for c in b] for b in T2.basis] == [list(spaces[0][1])]
    got = [(tuple(c.coeffs for c in root), s.dim,
            [[c.coeffs for c in b] for b in s.basis]) for root, s in dec]
    assert got == [((label,), 1, [vec]) for label, vec in spaces]


def test_switch_torus_witt5():
    L = witt_lie(5)
    F = L.field
    e0, em1 = L.basis_vector(1), L.basis_vector(0)
    Tx, beta, w = switch_torus(L, Torus(L, [e0]), em1, 1)
    assert beta == (F.scalar(-1),)
    assert w == em1
    want = Subspace(F, 5, [tuple(a + b for a, b in zip(e0, em1))])
    assert Tx.subspace == want


def test_switch_torus_hypotheses():
    L = witt_lie(5)
    T = Torus(L, [L.basis_vector(1)])
    with pytest.raises(HypothesisError):
        switch_torus(L, T, L.basis_vector(1), 1)  # root 0
    # x = e_1 has the nonzero root 1, but x^[p]^0 = x is not in the torus
    with pytest.raises(HypothesisError) as info:
        switch_torus(L, T, L.basis_vector(2), 0)
    assert str(info.value) == \
        "hypothesis failed: x^[p]^r lies in the torus (r = 0)"


def test_compare_switch_to_toral_witt():
    for p in (5, 7):
        L = witt_lie(p)
        F = L.field
        out = compare_switch_to_toral(L, [L.basis_vector(1)],
                                      L.basis_vector(0))
        assert out.r == 1
        assert out.beta == (F.scalar(-1),)
        assert out.strade_agrees
        assert out.spaces_match
        assert out.torus_x_toral is True
        assert len(out.old_roots) == p and len(out.new_roots) == p
        # the degenerate switch is the truncated exponential of ad x
        D = L.ad(L.basis_vector(0))
        assert out.switch.switch_map == truncated_exp(p).evaluate(D)
        assert strade_map(out.switch) == out.switch.switch_map


def test_compare_switch_to_toral_refuses_a_wrong_operator_product(
        monkeypatch):
    # the operator-product form off by the identity map
    L = witt_lie(5)
    monkeypatch.setattr(toral, "strade_map", lambda res: res.switch_map + 1)
    with pytest.raises(VerificationError) as info:
        compare_switch_to_toral(L, [L.basis_vector(1)], L.basis_vector(0))
    assert str(info.value) == ("operator-product form of the connecting "
                               "map disagrees with the Laguerre value")


def test_compare_switch_to_toral_refuses_root_spaces_that_do_not_move(
        monkeypatch):
    # a replacement torus handed back as the old one: ad e_{-1} moves the
    # root spaces of e_0 off themselves, so they miss the old ones
    L = witt_lie(5)
    switch = toral.switch_torus

    def stale(lie, torus, x, r):
        return (torus,) + switch(lie, torus, x, r)[1:]
    monkeypatch.setattr(toral, "switch_torus", stale)
    with pytest.raises(VerificationError) as info:
        compare_switch_to_toral(L, [L.basis_vector(1)], L.basis_vector(0))
    assert str(info.value) == ("switched root spaces differ from the root "
                               "spaces of the replacement torus")


@pytest.mark.parametrize("p,c", [(5, 2), (7, 1)])
def test_a_torus_that_splits_only_over_a_larger_field_is_refused(p, c):
    # e_{-1} + c e_1 splits only over GF(p^2); the comparison stays over
    # the caller's GF(p) and refuses the torus, naming GF(p^2)
    L = witt_lie(p)
    e = [L.basis_vector(i) for i in range(p)]
    t = tuple(a + c * b for a, b in zip(e[0], e[2]))
    want = r"torus adjoints split over GF\(%d\) .*GF\(%d\^2\)" % (p, p)
    with pytest.raises(HypothesisError, match=want):
        compare_switch_to_toral(L, [t], e[0])
    with pytest.raises(HypothesisError, match=want):
        root_decomposition(Torus(L, [t]))


def test_refine_grading_on_witt_sum():
    A2 = direct_sum(witt(5), witt(5))
    L2 = RestrictedLie(A2)
    F5 = L2.field
    t_a, t_b = L2.basis_vector(1), L2.basis_vector(6)
    x = L2.basis_vector(0)

    dec = root_decomposition(Torus(L2, [t_a, t_b]))
    assert len(dec) == 9
    assert sorted(s.dim for _, s in dec) == [1] * 8 + [2]
    assert dict(dec)[(F5.zero, F5.zero)].dim == 2

    ref = refine_grading(L2, [t_a, t_b], x)
    assert ref.beta == (F5.scalar(-1), F5.zero)
    assert ref.t1 == tuple(-c for c in t_a)
    assert ref.torus0_basis == (t_b,)
    assert ref.line_grading_ok
    assert ref.product_grading_ok
    assert ref.residual_fixed
    assert sorted(k for k, _ in ref.line_parts) == [0, 1, 2, 3, 4]
    assert sum(s.dim for _, s in ref.line_parts) == 10
    assert len(ref.residual_parts) == 5
    assert len(ref.product_parts) == 9


def test_refine_grading_single_witt():
    # with a one-dimensional torus T_0 is trivial: one residual part
    L = witt_lie(5)
    ref = refine_grading(L, [L.basis_vector(1)], L.basis_vector(0))
    assert ref.line_grading_ok and ref.product_grading_ok
    assert ref.residual_fixed
    assert len(ref.residual_parts) == 1
    assert ref.torus0_basis == ()


def test_negative_r_refused():
    L = witt_lie(5)
    for fn in (compare_switch_to_toral, refine_grading):
        with pytest.raises(ValueError, match="r must be >= 0"):
            fn(L, [L.basis_vector(1)], L.basis_vector(0), r=-1)


@pytest.mark.parametrize("cls", [SwitchResult, ToralComparison,
                                 RefinedSwitch])
def test_result_fields_are_checked(cls):
    # a misspelled field is an error, not a silent None
    with pytest.raises(TypeError):
        cls(switch_mpa=None)
