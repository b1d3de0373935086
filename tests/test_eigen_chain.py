"""Generalized eigenspaces from D's p-power chain, against the powers
(D - rho)^mult they replaced.

:func:`galg.generalized_eigenspaces` takes the rho-eigenspace as the
kernel of D^(p^k) - rho^(p^k), with p^k the least power of p at least
the multiplicity of rho in D's minimal polynomial.  The oracle
:func:`oracles.eigenspaces_by_powers` forms (D - rho)^mult instead.  Both
must give the same field object, the same eigenvalues in the same order
and the same reduced row echelon bases, whether or not D's chain and
minimal polynomial were formed before.
"""

import random

import pytest

from gradeswitch.echelon import Echelon
from gradeswitch.fields import GF
from gradeswitch.galg import (LinearMap, generalized_eigenspaces,
                              truncated_poly, truncated_poly_derivation)
from gradeswitch.polyring import Polynomial
from gradeswitch.switch import semisimple_exponent
from oracles import eigenspaces_by_powers, inverse


def jordan(field, blocks):
    """The block diagonal map of Jordan blocks J(rho, size), for
    (rho, size) in blocks: rho on the diagonal, ones above it."""
    n = sum(size for _, size in blocks)
    rows = [[field.zero] * n for _ in range(n)]
    at = 0
    for rho, size in blocks:
        for i in range(at, at + size):
            rows[i][i] = field.scalar(rho)
            if i + 1 < at + size:
                rows[i][i + 1] = field.one
        at += size
    return LinearMap(field, rows)


def companion(f):
    """The companion map of a monic Polynomial f: its minimal polynomial
    is f."""
    field, d = f.field, f.degree()
    rows = [[field.zero] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = field.one
    for i in range(d):
        rows[i][d - 1] = -f[i]
    return LinearMap(field, rows)


def conjugated(M, rng):
    """P M P^(-1) for a random invertible P."""
    field, n = M.field, M.n
    while True:
        P = LinearMap(field, [[field.random_element(rng) for _ in range(n)]
                              for _ in range(n)])
        if Echelon(P.rows).rank == n:
            return P * M * inverse(P)


def assert_same_decomposition(D):
    """The chain route on a fresh copy of D, before and after
    semisimple_exponent, against the oracle on a third copy."""
    fresh, primed, oracle = (LinearMap(D.field, D.rows) for _ in range(3))
    assert fresh._chain is None
    semisimple_exponent(primed)
    big, dec = eigenspaces_by_powers(oracle)
    for M in (fresh, primed):
        got_big, got = generalized_eigenspaces(M)
        assert got_big is big
        assert all(rho.field is big and s.field is big for rho, s in got)
        assert [rho for rho, _ in got] == [rho for rho, _ in dec]
        assert [s.basis for _, s in got] == [s.basis for _, s in dec]
        assert [s for _, s in got] == [s for _, s in dec]
    return big, dec


# (p, Jordan blocks (rho, size)): the multiplicity of rho in the minimal
# polynomial is its largest block
JORDAN_CASES = [
    (5, [(1, 1), (1, 1), (2, 1)]),                    # multiplicity 1
    (5, [(2, 2), (2, 1), (3, 1)]),                    # 2
    (5, [(3, 3), (3, 2), (0, 1)]),                    # 3
    (5, [(4, 5), (1, 2)]),                            # 5: p^1
    (5, [(0, 6), (2, 1)]),                            # 6: p^2
    (5, [(1, 1), (2, 2), (3, 3), (4, 5), (0, 6)]),    # every one at once
    (2, [(0, 3), (1, 1)]),                            # 3: p^2 at p = 2
    (2, [(1, 3), (1, 2), (0, 1)]),
]


@pytest.mark.parametrize("p,blocks", JORDAN_CASES)
def test_conjugated_jordan_maps(p, blocks):
    F = GF(p)
    D = conjugated(jordan(F, blocks), random.Random(len(blocks) * p))
    big, dec = assert_same_decomposition(D)
    assert big is F
    sizes = {}
    for rho, size in blocks:
        sizes[F.scalar(rho)] = sizes.get(F.scalar(rho), 0) + size
    assert {rho: s.dim for rho, s in dec} == sizes


@pytest.mark.parametrize("p,factor,power", [
    (5, (-2, 0, 1), 1),         # T^2 - 2: roots in GF(25) only
    (5, (-2, 0, 1), 2),         # each root of multiplicity 2
    (3, (1, 0, 1), 3),          # T^2 + 1 cubed: multiplicity 3, p^1
    (2, (1, 1, 1), 3),          # T^2 + T + 1 cubed: multiplicity 3, p^2
])
def test_eigenvalues_only_in_gf_p_squared(p, factor, power):
    F = GF(p)
    f = Polynomial(F, factor) ** power
    D = conjugated(companion(f), random.Random(p * power))
    big, dec = assert_same_decomposition(D)
    assert big is GF(p, 2)
    assert len(dec) == 2
    assert all(s.dim == power for _, s in dec)


def test_random_maps():
    rng = random.Random(45)
    for F in (GF(2), GF(3), GF(5), GF(7), GF(3, 2)):
        for n in (1, 2, 5, 8):
            D = LinearMap(F, [[F.random_element(rng) for _ in range(n)]
                              for _ in range(n)])
            assert_same_decomposition(D)


def test_eigenspaces_after_semisimple_exponent_form_nothing(monkeypatch):
    # tpoly:5:25:5 ddx is nilpotent of index 25: its one eigenspace is the
    # kernel of D^(5^2) - 0, which semisimple_exponent's chain holds, and
    # the minimal polynomial is the one semisimple_exponent formed
    A = truncated_poly(5, 25, 5)
    D = truncated_poly_derivation(A, "ddx")
    assert semisimple_exponent(D) == 2
    calls = []
    for name in ("__mul__", "mul_add", "apply"):
        real = getattr(LinearMap, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(LinearMap, name, counting)
    big, dec = generalized_eigenspaces(D)
    assert calls == []
    assert big is D.field and [rho for rho, _ in dec] == [D.field.zero]
    assert dec[0][1].dim == 25
