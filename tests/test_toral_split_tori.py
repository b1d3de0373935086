"""Seeded tori that split over their algebra's field, switched along every
nonzero root.

Each root space of root_decomposition must be the common kernel of the
maps ad t_i - beta_i over the torus basis, found here by one elimination
of their stacked rows; and along every nonzero root compare_switch_to_toral
must find the Laguerre switch and the torus replacement in agreement.
The tori are random lines of witt:p over GF(p) and GF(p^2), pairs of such
lines in the two summands of witt:q+witt:q, and the non-diagonal lines
e_{-1} + c e_1, which split only over GF(p^2) and are not toral.
"""

import functools
import random

import pytest

from gradeswitch.echelon import kernel
from gradeswitch.fields import GF
from gradeswitch.galg import Subspace, direct_sum, witt
from gradeswitch.switch import HypothesisError
from gradeswitch.toral import RestrictedLie, Torus, \
    compare_switch_to_toral, root_decomposition
from time_budget import time_limit, untraced


def lie_over(sizes, degree):
    A = functools.reduce(direct_sum, map(witt, sizes))
    return RestrictedLie(A.change_field(GF(sizes[0], degree)))


def split_line(L, rng, slots):
    """A random t supported on `slots` whose adjoint is semisimple and
    splits over L.field."""
    F = L.field
    while True:
        pick = rng.sample(slots, rng.randint(1, len(slots)))
        t = tuple(F.random_element(rng) if i in pick else F.zero
                  for i in range(L.dim))
        if not any(t):
            continue
        try:
            T = Torus(L, [t])
        except HypothesisError:   # ad t is not semisimple
            continue
        if all(big is F for big, _ in T.eigen):
            return t


def witt_line(L, c):
    """e_{-1} + c e_1 of witt:p, in slots 0 and 2."""
    return tuple(L.field.scalar({0: 1, 2: c}.get(i, 0))
                 for i in range(L.dim))


def cases():
    """(name, L, torus vectors), seeded."""
    rng = random.Random(61)
    out = []
    for p in (3, 5, 7):
        for degree in (1, 2):
            L = lie_over((p,), degree)
            for k in range(2):
                out.append(("witt:%d GF(%d^%d) #%d" % (p, p, degree, k), L,
                            [split_line(L, rng, list(range(p)))]))
    for q in (3, 5):
        L = lie_over((q, q), 1)
        out.append(("witt:%d+witt:%d" % (q, q), L,
                    [split_line(L, rng, list(range(q))),
                     split_line(L, rng, list(range(q, 2 * q)))]))
    for p, c in ((5, 2), (7, 1)):
        L = lie_over((p,), 2)
        out.append(("witt:%d GF(%d^2) e_-1 + %d e_1" % (p, p, c), L,
                    [witt_line(L, c)]))
    return out


def common_kernel(L, basis, beta):
    """{v : [t_i, v] = beta_i v for every i}, from the stacked rows of
    ad t_i - beta_i."""
    rows = [row for t, b in zip(basis, beta) for row in (L.ad(t) - b).rows]
    return Subspace(L.field, L.dim, kernel(rows, L.dim, L.field))


def is_toral_by_ad(L, t):
    return L.ad(t).p_power(1) == L.ad(t)


def test_random_split_tori_switch_as_their_replacements():
    rng = random.Random(67)
    compared = 0
    # untraced: no line of the package runs only here
    with untraced(), time_limit(3):
        for name, L, vecs in cases():
            T = Torus(L, vecs)
            dec = root_decomposition(T)
            assert all(s.field is L.field for _, s in dec), name
            assert sum(s.dim for _, s in dec) == L.dim, name
            assert len({beta for beta, _ in dec}) == len(dec), name
            for beta, space in dec:
                assert len(beta) == T.dim, name
                assert space == common_kernel(L, T.basis, beta), name
                if not any(beta):
                    continue
                # a random nonzero multiple of the echelon basis vector
                scale = L.field.from_int(rng.randrange(1, L.field.q))
                x = tuple(scale * c for c in space.basis[0])
                out = compare_switch_to_toral(L, vecs, x)
                assert out.strade_agrees and out.spaces_match, name
                assert out.beta == T.root_of(x), name
                assert out.torus_x_toral == all(
                    is_toral_by_ad(L, t) for t in out.torus_x.basis), name
                compared += 1
    assert compared >= 60


@pytest.mark.parametrize("p,c", [(5, 2), (7, 1)])
def test_a_non_toral_torus_over_gf_p2_switches_to_a_non_toral_one(p, c):
    L = lie_over((p,), 2)
    t = witt_line(L, c)
    assert not is_toral_by_ad(L, t)
    dec = root_decomposition(Torus(L, [t]))
    seen = 0
    for beta, space in dec:
        if any(beta):
            out = compare_switch_to_toral(L, [t], space.basis[0])
            assert out.torus_x_toral is False
            assert out.strade_agrees and out.spaces_match
            seen += 1
    assert seen == p - 1
