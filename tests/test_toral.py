import random

import pytest

from gradeswitch.echelon import solve
from gradeswitch.fields import GF
from gradeswitch.galg import Subspace, direct_sum, truncated_poly, witt
from gradeswitch.laguerre import truncated_exp
from gradeswitch.switch import HypothesisError, SwitchResult
from gradeswitch.toral import (
    RestrictedLie, ToralComparison, Torus, compare_switch_to_toral,
    root_decomposition, strade_map, switch_torus)
from algebra_builders import torus_line
from refine_oracle import RefinedSwitch, refine_grading


def witt_lie(p):
    return RestrictedLie(witt(p))


def test_restricted_lie_validation():
    L = witt_lie(5)
    assert L.dim == 5
    assert L.center().dim == 0
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
    # a non-commuting support falls back to ad(t)^p == ad(t) on a
    # centerless algebra
    x = tuple(F.scalar(c) for c in (1, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        L.pth_power(x)
    assert L.is_toral(x)  # e_0 + e_{-1} is toral: decided through ad


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
        if not L.supports_commute(t):
            cases.append((t, None))
    for t, want in cases:
        with pytest.raises(ValueError):
            L.pth_power(t)   # every case takes the centerless route
        got = L.is_toral(t)
        assert got == _toral_by_solve(L, t)
        assert want is None or got == want


def test_is_toral_refuses_a_center():
    L = RestrictedLie(direct_sum(witt(5), torus_line(5, 5)))
    x = tuple(L.field.scalar(c) for c in (1, 1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="center is nontrivial"):
        L.is_toral(x)


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
    # the squarefree minimal polynomial of ad t as the oracle for the
    # torus's check on its eigenspaces
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
        want = L.ad(t).minimal_polynomial().squarefree_is()
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
    L1, T1, dec = root_decomposition(Torus(L, [L.basis_vector(1)]))
    assert L1.field is F  # already split
    assert len(dec) == 5
    assert sorted(int(r[0]) for r, _ in dec) == [0, 1, 2, 3, 4]
    assert all(s.dim == 1 for _, s in dec)
    assert dec.find((F.zero,)).contains(L.basis_vector(1))
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
    # e_{-1} + c e_1 has an adjoint that splits only over GF(p^2)
    L = witt_lie(p)
    t = tuple(L.field.scalar(slots.get(i, 0)) for i in range(p))
    L2, T2, dec = root_decomposition(Torus(L, [t]))
    assert L2.field is GF(p, 2) and L2.field.modulus == modulus
    # the torus line is the root-0 space
    assert [[c.coeffs for c in b] for b in T2.basis] == [list(spaces[0][1])]
    got = [(tuple(c.coeffs for c in root), s.dim,
            [[c.coeffs for c in b] for b in s.basis]) for root, s in dec]
    assert got == [((label,), 1, [vec]) for label, vec in spaces]


def test_switch_torus_witt5():
    L = witt_lie(5)
    F = L.field
    e0, em1 = L.basis_vector(1), L.basis_vector(0)
    L1, T1, _ = root_decomposition(Torus(L, [e0]))
    Tx, beta, w = switch_torus(L1, T1, em1, 1)
    assert beta == (F.scalar(-1),)
    assert w == em1
    want = Subspace(F, 5, [tuple(a + b for a, b in zip(e0, em1))])
    assert Tx.subspace == want


def test_switch_torus_hypotheses():
    L = witt_lie(5)
    L1, T1, _ = root_decomposition(Torus(L, [L.basis_vector(1)]))
    with pytest.raises(HypothesisError):
        switch_torus(L1, T1, L.basis_vector(1), 1)  # root 0


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


def test_refine_grading_on_witt_sum():
    A2 = direct_sum(witt(5), witt(5))
    L2 = RestrictedLie(A2)
    F5 = L2.field
    t_a, t_b = L2.basis_vector(1), L2.basis_vector(6)
    x = L2.basis_vector(0)

    _, _, dec = root_decomposition(Torus(L2, [t_a, t_b]))
    assert len(dec) == 9
    assert sorted(s.dim for _, s in dec) == [1] * 8 + [2]
    assert dec.find((F5.zero, F5.zero)).dim == 2

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
