"""Zero tests by identity first, and roots found over the prime field.

Every kernel unpacks zero to the field's own ``zero`` object, and so
does element arithmetic on a field with log/exp tables, so the hot loops
test ``x is not zero and x``: identity first, truthiness only for other
objects.  Constructors still build zeros that are other objects, and so
does arithmetic above the table cap; each check here must treat them
exactly as ``field.zero``.

``roots_in_splitting_field`` splits a polynomial over its own
coefficient field; for one with coefficients in F_p, finding the roots
over F_p and embedding them must give the same field object, roots and
multiplicities."""

import math
import random

import pytest

from gradeswitch import fields
from gradeswitch.echelon import Echelon
from gradeswitch.fields import (GF, FqElement, _INTERN_CAP, _TABLE_CAP,
                                roots_in_splitting_field)
from gradeswitch.galg import GradedAlgebra, LinearMap, Subspace, is_grading
from gradeswitch.polyring import Polynomial

FIELDS = [GF(2), GF(3), GF(5, 5), GF(5, 7), GF(2, 17)]
assert [F.q > _TABLE_CAP for F in FIELDS][-2:] == [True, True]
# a field whose interned elements reach _INTERN_CAP below
FULL = GF(3, 11)


def full_field():
    elements = fields._interned(FULL)
    stream = FULL.elements()
    while len(elements) < _INTERN_CAP:
        elements[next(stream).coeffs]
    assert len(elements) == _INTERN_CAP < FULL.q
    return FULL


@pytest.fixture(params=FIELDS + [FULL], ids=repr)
def field(request):
    return full_field() if request.param is FULL else request.param


def other_zeros(F):
    """Zeros of F that are not F.zero: three built by constructors, and
    above the table cap one built by arithmetic."""
    zs = [FqElement(F, (0,) * F.n), F.from_coeffs([0]), F.from_int(0)]
    if F.q > _TABLE_CAP:
        zs.append(F.gen - F.gen)
    assert all(z == F.zero and z is not F.zero and not z for z in zs)
    assert len({id(z) for z in zs}) == len(zs)
    return zs


def disguised(v, F):
    """v with each zero entry replaced by another zero object."""
    zs = other_zeros(F)
    return [zs[i % len(zs)] if x == F.zero else x for i, x in enumerate(v)]


def test_arithmetic_zeros_are_the_fields_own_below_the_cap(field):
    F = field
    x = F.gen
    zeros = [x - x, x + (-x), -x + x, -F.zero, F.zero + F.zero,
             F.zero - F.zero, F.one - 1, 1 - F.one, F.p + F.zero,
             F.zero + F.p]
    assert all(z == F.zero and not z for z in zeros)
    below = F.q <= _TABLE_CAP
    assert all((z is F.zero) == below for z in zeros)
    assert (F.scalar(F.p) is F.zero) == below


def sparse_vectors(F, n, count, rng):
    out = []
    for _ in range(count):
        out.append([F.random_element(rng) if rng.random() < 0.4 else F.zero
                    for _ in range(n)])
    # one dependent vector, one zero vector
    out.append([a + b for a, b in zip(out[0], out[1])])
    out.append([F.zero] * n)
    return out


def test_kernels_unpack_the_fields_own_zero(field):
    F = field
    pack, unpack, _ = F.dot_kernel(4)
    for z in [F.zero] + other_zeros(F):
        assert unpack(pack(z)) is F.zero
        assert unpack(pack(z) * pack(F.gen)) is F.zero
    assert unpack(pack(F.one)) is F.one
    rpack, widen, runpack, _ = F.row_kernel(2, 3)
    row = widen([rpack(F.gen.coeffs), rpack(F.zero.coeffs),
                 rpack(F.one.coeffs)])
    out = runpack(rpack(F.zero.coeffs) * row + rpack(F.one.coeffs) * row)
    assert out[1] is F.zero and out[2] is F.one
    assert all(x is F.zero for x in runpack(widen([0, 0, 0])))


def test_a_full_intern_table_keeps_zero_and_one():
    F = full_field()
    pack, unpack, _ = F.dot_kernel(2)
    x = next(x for x in F.elements() if x.coeffs not in fields._interned(F))
    # nothing more is interned ...
    assert unpack(pack(x)) is not unpack(pack(x))
    # ... but zero and one were there from the start
    assert unpack(pack(x) - pack(x)) is F.zero
    assert unpack(pack(F.one)) is F.one


def test_echelon_treats_other_zeros_as_zero(field):
    F = field
    rng = random.Random(F.q % 1009)
    n = 7
    vs = sparse_vectors(F, n, 4, rng)
    plain, odd = Echelon(field=F), Echelon(field=F)
    for v in vs:
        assert plain.add(v) == odd.add(disguised(v, F))
    assert plain.rank == odd.rank == Echelon(disguised(v, F)
                                             for v in vs).rank
    assert [row for _, row, _, _ in plain.rows] == \
        [row for _, row, _, _ in odd.rows]
    for v in vs + sparse_vectors(F, n, 3, rng):
        assert plain.contains(v) == odd.contains(disguised(v, F))
        assert plain.reduce(v) == odd.reduce(disguised(v, F))
    # nothing stored yet: the reduction is the input itself
    assert Echelon(field=F).contains(other_zeros(F))
    assert not Echelon([disguised([F.zero] * n, F)], field=F).rank
    assert Echelon([other_zeros(F) + [F.one]]).rank == 1


def test_linear_map_is_zero_with_other_zeros(field):
    F = field
    zs = other_zeros(F)
    k = len(zs)
    Z = LinearMap(F, [zs[i:] + zs[:i] for i in range(k)])
    assert Z.is_zero() and not Z and Z == LinearMap.zero(F, k)
    rows = [list(zs) for _ in range(k)]
    rows[2][1] = F.gen
    assert not LinearMap(F, rows).is_zero()


def test_minimal_polynomial_with_other_zeros(field):
    F = field
    t = Polynomial.variable(F)
    zs = other_zeros(F)
    n = 4
    shift = [[F.one if i == j + 1 else F.zero for j in range(n)]
             for i in range(n)]
    diag = [[F.gen if i == j else F.zero for j in range(n)]
            for i in range(n)]
    diag[0][0] = F.one
    rng = random.Random(F.q % 997)
    sparse = sparse_vectors(F, n, n, rng)[:n]
    for rows in (shift, diag, sparse):
        plain = LinearMap(F, rows)
        odd = LinearMap(F, [disguised(r, F) for r in rows])
        assert odd.minimal_polynomial() == plain.minimal_polynomial()
    # the zero map: f = T, and f(M) = M has only other zeros
    Z = LinearMap(F, [zs[:n - 1] + zs[:1]] * n)
    assert Z.minimal_polynomial() == t
    assert LinearMap(F, shift).minimal_polynomial() == t ** n


def truncated(F, length):
    """F[x]/(x^length), graded by degree mod length."""
    products = {(i, j): [(i + j, F.one)] for i in range(length)
                for j in range(length) if i + j < length}
    return GradedAlgebra(F, length, list(range(length)), products)


def test_is_grading_with_other_zeros(field):
    F = field
    A = truncated(F, 3)
    e = [[F.one if i == j else F.zero for j in range(3)] for i in range(3)]
    graded = [(k, e[k]) for k in range(3)]
    # (1 + x)^2 = 1 + 2x + x^2 is not a multiple of 1 + x
    mixed = [(0, [F.one, F.one, F.zero]), (1, e[1]), (2, e[2])]
    for parts, expect in ((graded, True), (mixed, False)):
        for wrap in (lambda v: v, lambda v: disguised(v, F)):
            subs = [(k, Subspace(F, 3, [wrap(v)])) for k, v in parts]
            assert is_grading(A, subs) is expect


# ---------------------------------------------------------------------------
# root finding: the direct route against one descended over F_p


def descended(f):
    """The roots of f, whose coefficients lie in F_p, split over F_p and
    embedded: an irreducible factor of degree d over F_p splits over
    F = GF(p^n) into factors of degree d / gcd(d, n), so the splitting
    field is GF(p^lcm(n, L)), with L the degree of the one over F_p, and
    F itself when that is n."""
    F = f.field
    prime = GF(F.p)
    small, roots = roots_in_splitting_field(
        Polynomial(prime, [prime.scalar(c.coeffs[0]) for c in f.coeffs]))
    n = math.lcm(F.n, small.n)
    big = F if n == F.n else GF(F.p, n)
    emb = fields.embedding(small, big)
    return big, sorted(((emb(r), m) for r, m in roots),
                       key=lambda entry: int(entry[0]))


def prime_irreducible(p, d, rng):
    """A random monic irreducible of degree d over F_p, as coefficients."""
    while True:
        f = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        if fields._is_irreducible(f, p):
            return f


def root_cases(F, rng):
    """Polynomials over F with coefficients in F_p: degrees 0 and 1,
    split ones with repeated roots, and irreducible factors of degree 2
    to 4 over F_p, alone, squared and times linear factors."""
    p = F.p
    t = Polynomial.variable(F)

    def over_f(coeffs):
        return Polynomial(F, [F.scalar(c) for c in coeffs])
    out = [Polynomial(F, [F.scalar(3 % p or 1)]), t, 2 * t + 1 if p > 2
           else t + 1]
    a, b = rng.randrange(p), rng.randrange(p)
    out.append((t - a) ** 3 * (t - b) * (t - (a + 1)) ** 2)
    for d in (2, 3, 4):
        g = over_f(prime_irreducible(p, d, rng))
        out += [g, g * (t - a) ** 2, g * g * t]
    g2 = over_f(prime_irreducible(p, 2, rng))
    g3 = over_f(prime_irreducible(p, 3, rng))
    out.append(g2 * g3 * (t - b))
    return out


ROOT_FIELDS = [GF(2, 4), GF(2, 6), GF(3, 3), GF(5, 5), GF(7, 2)]


@pytest.mark.parametrize("exhaust", [None, 0], ids=["cap", "no-search"])
@pytest.mark.parametrize("F", ROOT_FIELDS, ids=repr)
def test_descended_roots_match_the_direct_route(monkeypatch, F, exhaust):
    if exhaust is not None:
        monkeypatch.setattr(fields, "_EXHAUST_CAP", exhaust)
    rng = random.Random(F.q)
    for f in root_cases(F, rng):
        big2, roots2 = descended(f)
        big, roots = roots_in_splitting_field(f)
        assert big is big2
        assert [(int(r), m) for r, m in roots] == \
            [(int(r), m) for r, m in roots2]
        assert all(r.field is big for r, _ in roots)
        assert sum(m for _, m in roots) == f.degree()


def test_descent_keeps_a_non_default_coefficient_field():
    # the roots of T^2 + 1 lie in GF(3^2) itself, so the answer is the
    # field given, not the one with the default modulus
    F = GF(3, 2, modulus=(2, 2, 1))
    assert F is not GF(3, 2)
    t = Polynomial.variable(F)
    big, roots = roots_in_splitting_field(t * t + 1)
    assert big is F and [m for _, m in roots] == [1, 1]
    assert (big, roots) == descended(t * t + 1)


def test_roots_in_splitting_field_does_not_call_itself(monkeypatch):
    calls = []
    plain = fields.roots_in_splitting_field

    def counted(f):
        calls.append(f)
        return plain(f)

    monkeypatch.setattr(fields, "roots_in_splitting_field", counted)
    F = GF(5, 5)
    t = Polynomial.variable(F)
    fields.roots_in_splitting_field((t ** 3 - t - 1) * (t - 2))
    assert len(calls) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factors_of_multiplicity_divisible_by_p_are_kept(p):
    # f = T g^p (T - 1)^(p+1) with g irreducible of degree 2: gcd(f, f')
    # takes the whole p-th power, and the squarefree part must keep g
    F = GF(p)
    g = Polynomial(F, [F.scalar(c) for c in GF(p, 2).modulus])
    t = Polynomial.variable(F)
    f = t * g ** p * (t - 1) ** (p + 1)
    assert f.squarefree_part() == t * g * (t - 1)
    big, roots = roots_in_splitting_field(f)
    assert big is GF(p, 2)
    assert sorted(m for _, m in roots) == sorted([1, p, p, p + 1])
