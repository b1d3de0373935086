"""The linear-algebra routes of `fields` against root finding.

`additive_root` finds the smallest root of an affine additive polynomial
by one elimination over GF(p), and `_generator_image` finds the canonical
image of a generator in the subfield of the target field.  Both replace
equal-degree splitting in the large field, which stays their oracle:
`roots_in_splitting_field` for the roots, and `_roots_in_field` over the
target field for the images.
"""

import random

import pytest

from gradeswitch import fields
from gradeswitch.fields import (
    GF, additive_root, roots_in_splitting_field)
from gradeswitch.polyring import Polynomial
from gradeswitch.switch import Relation, build_g
from time_budget import time_limit


def affine_additive(F, c, bs):
    """c + sum_j bs[j] T^(p^j) over F."""
    coeffs = [F.zero] * (F.p ** (len(bs) - 1) + 1)
    coeffs[0] = c
    for j, b in enumerate(bs):
        coeffs[F.p ** j] = b
    return Polynomial(F, coeffs)


def drawn(F, seed, s):
    """A seeded c + sum_{j<=s} b_j T^(p^j) with b_s != 0: s is the span
    n - r of a switching constraint, whose degree is p^(n-r)."""
    rng = random.Random(seed)
    bs = [F.random_element(rng) for _ in range(s)]
    bs.append(F.from_int(rng.randrange(1, F.q)))
    return affine_additive(F, F.random_element(rng), bs)


# (p, n, span s, seed, degree of the splitting field over GF(p^n)): the
# splitting fields lie below _EXHAUST_CAP, between it and _TABLE_CAP, and
# above _TABLE_CAP, for p = 2 and odd p
ADDITIVE_CASES = [
    (2, 1, 3, 0, 7), (2, 2, 2, 0, 4), (2, 3, 3, 0, 3), (2, 5, 3, 0, 4),
    (2, 9, 2, 2, 2), (3, 1, 2, 0, 3), (3, 1, 3, 9, 4), (3, 2, 2, 2, 3),
    (3, 2, 2, 0, 6), (3, 3, 1, 0, 2), (5, 1, 1, 0, 4), (5, 3, 1, 0, 4),
    (7, 1, 1, 0, 3), (7, 2, 1, 1, 3), (11, 1, 1, 0, 10),
]


def test_additive_cases_cover_both_caps():
    sizes = [p ** (n * k) for p, n, _, _, k in ADDITIVE_CASES]
    assert any(q <= fields._EXHAUST_CAP for q in sizes)
    assert any(fields._EXHAUST_CAP < q <= fields._TABLE_CAP for q in sizes)
    assert any(q > fields._TABLE_CAP for q in sizes)
    assert {s for _, _, s, _, _ in ADDITIVE_CASES} == {1, 2, 3}
    assert any(p == 2 and q > fields._TABLE_CAP
               for (p, *_), q in zip(ADDITIVE_CASES, sizes))


@pytest.mark.parametrize(
    "p, n, s, seed, k", ADDITIVE_CASES,
    ids=["GF(%d^%d)-span%d-seed%d" % c[:4] for c in ADDITIVE_CASES])
def test_additive_root_matches_root_finding(p, n, s, seed, k):
    F = GF(p, n)
    # the switching constraint's shape 1 + T + ..., and any c and b_0
    rng = random.Random(seed)
    constraint = affine_additive(F, F.one, [F.one] + [
        F.random_element(rng) for _ in range(s - 1)] + [F.from_int(
            rng.randrange(1, F.q))])
    for f in (constraint, drawn(F, seed, s)):
        with time_limit(20):
            big, x = additive_root(f)
            split, roots = roots_in_splitting_field(f)
        assert split is big and x == roots[0][0]
        # a coset of ker L, every root of one multiplicity (1 when b_0 != 0)
        mults = {m for _, m in roots}
        assert len(mults) == 1 and len(roots) * mults.pop() == p ** s
    assert all(m == 1 for _, m in roots_in_splitting_field(constraint)[1])
    # the drawn polynomial splits in the field the case table names
    assert big.n == n * k


def test_additive_root_of_an_inseparable_polynomial():
    # without a T term, c + b T^p is a p-th power with one root of
    # multiplicity p, and c + b T^p + T^(p^2) has repeated roots too
    F = GF(3, 2)
    rng = random.Random(5)
    for _ in range(4):
        c, b = F.random_element(rng), F.from_int(rng.randrange(1, F.q))
        for f in (affine_additive(F, c, [F.zero, b]),
                  affine_additive(F, c, [F.zero, b, F.one])):
            big, x = additive_root(f)
            split, roots = roots_in_splitting_field(f)
            assert split is big and x == roots[0][0]
            assert all(m == 3 for _, m in roots)


def test_additive_root_refuses_other_polynomials():
    F = GF(5)
    t = Polynomial.variable(F)
    with pytest.raises(ValueError, match="not an affine additive"):
        additive_root(t ** 5 + t ** 2 + 1)
    for f in (Polynomial(F, [F.one]), Polynomial(F, [])):
        with pytest.raises(ValueError, match="constant"):
            additive_root(f)


@pytest.mark.parametrize("field, span", [((3, 2), 1), ((3, 2), 2),
                                         ((2, 2), 3)], ids=str)
def test_build_g_takes_the_smallest_constraint_root(field, span):
    # build_g's constraint 1 + T + sum a_k^(p^(n-1-k)) T^(p^(n-k)), with
    # n - r = span, against its smallest root by root finding
    F = GF(*field)
    rng = random.Random(span)
    for r in (1, 2):
        coeffs = [F.from_int(rng.randrange(1, F.q))] + [
            F.random_element(rng) for _ in range(span - 1)]
        rel = Relation(F, r, r + span, tuple(coeffs), False)
        n = rel.n
        bs = [F.one] + [coeffs[n - j - r] ** (F.p ** (j - 1))
                        for j in range(1, span + 1)]
        big, g, lam = build_g(rel)
        split, roots = roots_in_splitting_field(
            affine_additive(F, F.one, bs))
        assert split is big and lam == roots[0][0]


# (source field, target field) as (p, n) or (p, n, modulus); sources
# below and above the log/exp table cap, targets up to GF(7^49)
EMBEDDING_PAIRS = [
    ((2, 2), (2, 4)), ((2, 2), (2, 4, (1, 0, 0, 1, 1))), ((2, 3), (2, 12)),
    ((2, 8), (2, 16)), ((3, 2, (2, 1, 1)), (3, 6)), ((3, 7), (3, 14)),
    ((5, 5), (5, 25)), ((5, 10), (5, 20)), ((7, 7), (7, 49)),
    ((11, 2), (11, 6)), ((13, 3), (13, 6)), ((3, 10), (3, 20)),
    ((7, 5), (7, 10)),
]


@pytest.mark.parametrize("src, dst", EMBEDDING_PAIRS, ids=str)
def test_generator_image_matches_root_finding(src, dst):
    S, T = GF(*src), GF(*dst)
    with time_limit(30):
        image = fields._generator_image(S, T)
        roots = fields._roots_in_field(
            Polynomial(T, [T.scalar(c) for c in S.modulus]))
    assert image == min(roots, key=int).coeffs
    assert len(roots) == S.n
