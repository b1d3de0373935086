"""Transport (naturality) tests of torus replacement.

A diagonal phi: e_i -> s_i e_i with s_i in F_p^* carries a restricted Lie
algebra L to phi.L, with bracket [x, y]' = phi[phi^(-1) x, phi^(-1) y]
and p-map x^[p]' = phi((phi^(-1) x)^[p]).  The p-map is p-semilinear, so
its rows carry s_i^(-p) where the bracket carries s_i^(-1):
e_i^[p]' = s_i^(-p) sum_k pmap[i][k] s_k e_k.  phi is an isomorphism of
restricted Lie algebras, so compare_switch_to_toral on
(phi.L, phi T, phi x) must give the same roots and r, root spaces, w and
replacement torus mapped by phi, the switching map, its alpha and the
operator-product form conjugated by phi, and both verdicts true."""

import random

import pytest

from gradeswitch import cli
from gradeswitch.galg import GradedAlgebra, LinearMap
from gradeswitch.toral import RestrictedLie, compare_switch_to_toral, \
    strade_map


def carried(A, s):
    """phi.A for phi = diag(s): structure constants times
    s_k / (s_i s_j), p-map rows times s_k / s_i^p."""
    p, n = A.field.p, A.dim
    inv = [x.inverse() for x in s]
    prods = {(i, j): [(k, inv[i] * inv[j] * s[k] * a) for k, a in terms]
             for (i, j), terms in A.products.items()}
    pmap = [[inv[i] ** p * s[k] * A.pmap[i][k] for k in range(n)]
            for i in range(n)]
    return GradedAlgebra(A.field, A.m, A.degrees, prods, pmap)


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
    lie = RestrictedLie(A)
    tvecs = [lie.basis_vector(i) for i in torus]
    x = lie.basis_vector(slot)
    want = compare_switch_to_toral(lie, tvecs, x)
    got = compare_switch_to_toral(RestrictedLie(carried(A, s)),
                                  [phi.apply(t) for t in tvecs], phi.apply(x))

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
        assert mine.field is theirs.field is F
        assert root_spaces(getattr(got, torus), mine,
                           [phi.apply(g) for g in gens]) == \
            {key: sp.image(phi) for key, sp in
             root_spaces(getattr(want, torus), theirs, gens).items()}

    res, ref = got.switch, want.switch
    assert res.field_final is ref.field_final is F
    inv = phi.inverse()
    assert res.switch_map == phi * ref.switch_map * inv
    assert res.alpha == phi * ref.alpha * inv
    assert strade_map(res) == phi * strade_map(ref) * inv
