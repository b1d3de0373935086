"""Transport (naturality) tests of torus replacement.

An invertible phi that keeps every degree carries a restricted Lie
algebra L to phi.L, with bracket [x, y]' = phi[phi^(-1) x, phi^(-1) y]
on the same graded basis.  Only the bracket is carried: phi.L stores no
p-map, and RestrictedLie derives its x^[p]' = phi((phi^(-1) x)^[p]) from
ad, so phi is an isomorphism of restricted Lie algebras.
compare_switch_to_toral on (phi.L, phi T, phi x) must then give the same
roots and r, root spaces, w and replacement torus mapped by phi, the
switching map, its alpha and the operator-product form conjugated by
phi, and both verdicts true.  phi is diagonal (e_i -> s_i e_i, s_i in
F_p^*), or a random mix of the two basis vectors of each degree of
witt:5+witt:5."""

import random

import pytest

from gradeswitch import cli
from gradeswitch.galg import GradedAlgebra, LinearMap
from gradeswitch.toral import RestrictedLie, compare_switch_to_toral, \
    strade_map
from oracles import inverse


def carried(A, phi):
    """phi.A: e_i e_j' = phi((phi^(-1) e_i) (phi^(-1) e_j)), for a phi
    that keeps degrees."""
    cols = [inverse(phi).column(i) for i in range(A.dim)]
    prods = {(i, j): list(enumerate(phi.apply(A.product(u, v))))
             for i, u in enumerate(cols) for j, v in enumerate(cols)}
    return GradedAlgebra(A.field, A.m, A.degrees, prods)


def on(torus, beta, gens):
    """The root beta as its values on gens, vectors of the torus.  Root
    labels are coordinates over the torus's echelon basis, which phi
    rescales; the values on carried vectors are what phi keeps."""
    return tuple(torus.value_on(beta, g) for g in gens)


def root_spaces(torus, dec, gens):
    """{root as its values on gens: root space} of a root decomposition."""
    gens = list(gens)
    return {on(torus, beta, gens): space for beta, space in dec}


# (builtin, torus slots, slot of x): the CLI's default torus, e_0 of each
# Witt summand, with x = e_{-1} of the first summand or x = e_1
CASES = [("witt:5+witt:5", (1, 6), 0), ("witt:7", (1,), 2)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("spec,torus,slot", CASES,
                         ids=["%s-x%d" % (c[0], c[2]) for c in CASES])
def test_toral_switch_commutes_with_diagonal_rescaling(spec, torus, slot,
                                                       seed):
    A = cli._parse_builtin(spec)
    F, n = A.field, A.dim
    rng = random.Random(seed)
    s = [F.scalar(rng.randrange(1, F.p)) for _ in range(n)]
    phi = LinearMap(F, [[s[i] if i == j else F.zero for j in range(n)]
                        for i in range(n)])
    check_transport(A, phi, torus, slot)


@pytest.mark.parametrize("seed", range(3))
def test_toral_switch_commutes_with_a_graded_change_of_basis(seed):
    # each degree of witt:5+witt:5 holds slots k and k + 5, and phi is a
    # random invertible 2x2 block on each, not all of them diagonal
    A = cli._parse_builtin("witt:5+witt:5")
    F = A.field
    rng = random.Random(seed)
    rows = [[F.zero] * 10 for _ in range(10)]
    while True:
        blocks = [[[F.random_element(rng) for _ in range(2)]
                   for _ in range(2)] for _ in range(5)]
        if all(a * d - b * c for (a, b), (c, d) in blocks) and \
                any(b or c for (_, b), (c, _) in blocks):
            break
    for k, block in enumerate(blocks):
        for i, row in enumerate(block):
            for j, c in enumerate(row):
                rows[k + 5 * i][k + 5 * j] = c
    phi = LinearMap(F, rows)
    assert all(A.degrees[i] == A.degrees[j]
               for i in range(10) for j in range(10) if rows[i][j])
    check_transport(A, phi, (1, 6), 0)


def check_transport(A, phi, torus, slot):
    F = A.field
    lie, lie2 = RestrictedLie(A), RestrictedLie(carried(A, phi))
    for i in range(A.dim):     # the derived p-maps correspond
        e = lie.basis_vector(i)
        assert lie2.pth_power(phi.apply(e)) == phi.apply(lie.pth_power(e))
    tvecs = [lie.basis_vector(i) for i in torus]
    x = lie.basis_vector(slot)
    want = compare_switch_to_toral(lie, tvecs, x)
    got = compare_switch_to_toral(lie2, [phi.apply(t) for t in tvecs],
                                  phi.apply(x))

    # every field stays GF(p) here, so phi needs no embedding
    assert got.strade_agrees and got.spaces_match
    assert got.r == want.r and got.torus_x_toral == want.torus_x_toral
    assert got.w == phi.apply(want.w)
    assert got.torus_x.subspace == want.torus_x.subspace.image(phi)
    assert on(got.torus, got.beta, map(phi.apply, tvecs)) == \
        on(want.torus, want.beta, tvecs)
    for torus, roots, gens in (("torus", "old_roots", tvecs),
                               ("torus_x", "new_roots", want.torus_x.basis)):
        mine, theirs = getattr(got, roots), getattr(want, roots)
        assert all(s.field is F for _, s in mine + theirs)
        assert root_spaces(getattr(got, torus), mine,
                           [phi.apply(g) for g in gens]) == \
            {key: sp.image(phi) for key, sp in
             root_spaces(getattr(want, torus), theirs, gens).items()}

    res, ref = got.switch, want.switch
    assert res.field_final is ref.field_final is F
    inv = inverse(phi)
    assert res.switch_map == phi * ref.switch_map * inv
    assert res.alpha == phi * ref.alpha * inv
    assert strade_map(res) == phi * strade_map(ref) * inv
