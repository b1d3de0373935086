import math
import random

import pytest

from gradeswitch import fields
from gradeswitch.fields import (
    GF, additive_root, embed, embedding, is_prime, roots_in_splitting_field)
from gradeswitch.polyring import Polynomial
from time_budget import time_limit


def artin_schreier_root(field, c):
    """(F', gamma): the smallest root gamma of T^p - T - c and its
    canonical splitting field F', by additive_root.  F' is F or its
    degree-p extension, and the p roots are gamma + F_p."""
    return additive_root(-c, [(0, -field.one), (1, field.one)])


def test_is_prime():
    assert [m for m in range(2, 30) if is_prime(m)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_stops_at_the_first_factor():
    # 2^61 - 1 is prime: its own trial division runs to about 1.5e9, while
    # twice it is refused at the factor 2
    mersenne = (1 << 61) - 1
    with time_limit(2):
        assert not is_prime(2 * mersenne)
        assert not is_prime(3 * mersenne)
        assert next(fields._prime_factors(2 * mersenne)) == 2
    assert list(fields._prime_factors(2 * 3 ** 4 * 7)) == [2, 3, 7]


@pytest.mark.parametrize("p,n", [(5, 7), (5, 20), (3, 40), (2, 64)],
                         ids=["GF(5^7)", "GF(5^20)", "GF(3^40)", "GF(2^64)"])
def test_pth_root_above_the_table_cap(p, n):
    # the packed linear map agrees with the power x^(p^(n-1)) and inverts
    # Frobenius
    F = GF(p, n)
    rng = random.Random(p + n)
    for x in [F.zero, F.one, F.gen] + [F.random_element(rng)
                                       for _ in range(4)]:
        root = x.pth_root()
        assert root == x ** (p ** (n - 1))
        assert root.frobenius() == x


def test_prime_field_arithmetic():
    F = GF(7)
    a, b = F.scalar(3), F.scalar(5)
    assert a + b == F.scalar(1)
    assert a - b == F.scalar(5)
    assert a * b == F.scalar(1)
    assert -a == F.scalar(4)
    assert a / b == a * b.inverse()
    for x in F.elements():
        if x:
            assert x * x.inverse() == F.one
            assert x ** 6 == F.one  # Fermat


@pytest.mark.parametrize("p,n", [(5, 7), (3, 11), (2, 17), (65537, 1)])
def test_inverse_above_table_cap_matches_power(p, n):
    """Above the log/exp cap an inverse comes from the extended Euclidean
    algorithm on the modulus; it equals x^(q-2) by square-and-multiply."""
    F = GF(p, n)
    assert F.q > fields._TABLE_CAP
    rng = random.Random(p + n)
    xs = [F.one, -F.one, F.gen] + [F.random_element(rng) for _ in range(60)]
    for x in xs:
        if x:
            assert x.inverse() == fields.power(x, F.q - 2, F.one)
    assert F._log is None
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


@pytest.mark.parametrize("p, n, budget", [(2, 64, 0.02), (5, 60, 0.05)],
                         ids=["GF(2^64)", "GF(5^60)"])
def test_inverse_at_the_degree_cap_matches_power(p, n, budget):
    """Characteristic 2 over a large field and a degree near the cap: each
    inverse equals x^(q-2), within `budget` seconds an element."""
    F = GF(p, n)
    rng = random.Random(p * n)
    xs = [F.gen, -F.one] + [F.random_element(rng) for _ in range(4)]
    with time_limit(budget * len(xs)):
        inverses = [x.inverse() for x in xs]
    for x, inv in zip(xs, inverses):
        assert inv == fields.power(x, F.q - 2, F.one)
        assert x * inv == F.one


def small_pairs(p, top):
    """Every (a, m) with m monic of degree 1..top over F_p and a of lower
    degree, zero included, as coefficient tuples."""
    for d in range(1, top + 1):
        for m in monic_polynomials(p, d):
            for enc in range(p ** d):
                yield fields._digits(enc, p, d), m


def drawn_pairs(p, seed, count, top=8):
    """`count` seeded pairs (a, m) as in small_pairs, m of degree up to
    `top`; in every third pair both a and m get a root c by their constant
    terms, so they share the factor T - c."""
    rng = random.Random(seed)
    for i in range(count):
        d = rng.randrange(1, top + 1)
        a = [rng.randrange(p) for _ in range(d)]
        m = [rng.randrange(p) for _ in range(d)] + [1]
        if i % 3 == 0:
            c = rng.randrange(p)
            for f in (a, m):
                f[0] = -sum(x * c ** k for k, x in enumerate(f) if k) % p
        yield tuple(a), tuple(m)


@pytest.mark.parametrize("p, pairs", [
    (2, lambda: small_pairs(2, 4)),
    (3, lambda: small_pairs(3, 4)),
    (5, lambda: drawn_pairs(5, 0, 400)),
    (13, lambda: drawn_pairs(13, 1, 400)),
], ids=["GF(2)", "GF(3)", "GF(5)", "GF(13)"])
def test_inverse_mod_answers_none_exactly_on_a_common_factor(p, pairs):
    """_inverse_mod(a, m) is None iff gcd(a, m) has positive degree, for m
    irreducible or not; otherwise a s = 1 mod m, by Polynomial arithmetic."""
    F = GF(p)
    coprime = shared = 0
    for a, m in pairs():
        s = fields._inverse_mod(a, m, p)
        pa, pm = Polynomial(F, a), Polynomial(F, m)
        if pm.gcd(pa).degree() != 0:
            assert s is None, (a, m)
            shared += 1
        else:
            assert len(s) == len(m) - 1, (a, m)
            assert (pa * Polynomial(F, s)) % pm == Polynomial(F, [1]), (a, m)
            coprime += 1
    assert coprime and shared


def test_power_refuses_negative_exponents():
    F = GF(5, 2)
    x = F.gen
    for e in (-1, -2, -3):
        with pytest.raises(ValueError):
            fields.power(x, e, F.one)
        with pytest.raises(ValueError):
            fields.power(3, e, 1)
    assert fields.power(x, 0, F.one) == F.one
    # the element and ring powers treat negative exponents themselves
    assert x ** -3 == (x ** 3).inverse()
    with pytest.raises(TypeError):
        Polynomial.variable(F) ** -1


def test_gf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(3, 0)
    with pytest.raises(ValueError):
        GF(3, 2, (1, 1, 1))  # T^2 + T + 1 has the root 1 over F_3


@pytest.mark.parametrize("p, modulus", [
    (2, [1, 0, 1, 0, 1]),   # (T^2 + T + 1)^2: only the gcd sees the square
    (3, [2, 0, 1]),         # (T - 1)(T + 1)
    (5, [4, 0, 4, 0, 1]),   # (T^2 + 2)^2
], ids=["GF(2)", "GF(3)", "GF(5)"])
def test_gf_refuses_a_reducible_modulus(p, modulus):
    with pytest.raises(ValueError,
                       match="modulus is not irreducible over F_%d$" % p):
        GF(p, len(modulus) - 1, modulus=modulus)


def test_canonical_moduli():
    # smallest-encoding irreducible polynomials, frozen
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(3, 2).modulus == (1, 0, 1)
    assert GF(3, 3).modulus == (1, 2, 0, 1)
    assert GF(5, 2).modulus == (2, 0, 1)
    assert GF(5, 3).modulus == (1, 1, 0, 1)


def test_field_objects_are_cached():
    assert GF(3, 2) is GF(3, 2)
    assert GF(3, 2) is not GF(3, 3)


def test_default_modulus_searched_once(monkeypatch):
    # the search tests candidates with _is_irreducible; a repeated GF call
    # must find the modulus cached and test none
    F = GF(5, 20)
    tested = []
    real = fields._is_irreducible

    def counting(f, p):
        tested.append(f)
        return real(f, p)
    monkeypatch.setattr(fields, "_is_irreducible", counting)
    assert GF(5, 20) is F
    assert tested == []
    assert F.modulus == fields._smallest_irreducible.__wrapped__(5, 20)
    assert tested  # the uncached search does test candidates


def rabin_is_irreducible(f, p):
    """Rabin's test, the oracle for Ben-Or's, on Polynomial over GF(p): a
    monic f of degree n >= 1 is irreducible iff T^(p^n) = T mod f and
    T^(p^(n/l)) - T is coprime to f for every prime l | n."""
    n = len(f) - 1
    if n < 1:
        return False
    m = Polynomial(GF(p), f)
    t = Polynomial.variable(GF(p))
    if t.pow_mod(p ** n, m) != t % m:
        return False
    return all(m.gcd(t.pow_mod(p ** (n // l), m) - t).degree() == 0
               for l in fields._prime_factors(n))


def monic_polynomials(p, n):
    """Every monic polynomial of degree n over F_p, in the order of the
    default modulus search."""
    for enc in range(p ** n):
        yield tuple(enc // p ** i % p for i in range(n)) + (1,)


def count_irreducible(p, n):
    """Gauss's count (1/n) sum_(d | n) mu(d) p^(n/d)."""
    def mu(d):
        ls = list(fields._prime_factors(d))
        return 0 if math.prod(ls) != d else (-1) ** len(ls)
    return sum(mu(d) * p ** (n // d) for d in range(1, n + 1)
               if n % d == 0) // n


@pytest.mark.parametrize("p, top", [(2, 5), (3, 5), (5, 3), (7, 3)])
def test_ben_or_agrees_with_rabin_on_every_small_polynomial(p, top):
    for n in range(top + 1):
        found = 0
        for f in monic_polynomials(p, n):
            assert fields._is_irreducible(f, p) == \
                rabin_is_irreducible(f, p), f
            found += fields._is_irreducible(f, p)
        assert found == (count_irreducible(p, n) if n else 0)


@pytest.mark.parametrize("p, n", [
    (2, 10), (2, 17), (2, 24), (3, 13), (3, 16), (5, 2), (5, 5), (5, 7),
    (5, 20), (7, 2), (7, 9), (13, 2), (13, 10), (13, 16)])
def test_default_modulus_is_rabins_smallest_irreducible(p, n):
    # reports print the moduli, so the search must find the same ones
    want = next(f for f in monic_polynomials(p, n)
                if rabin_is_irreducible(f, p))
    assert fields._smallest_irreducible.__wrapped__(p, n) == want
    assert GF(p, n).modulus == want


def test_extension_arithmetic_f27():
    F = GF(3, 3)
    g = F.gen
    assert g ** 3 == g + 2  # T^3 + 2T + 1 = 0
    assert len(list(F.elements())) == 27
    for x in [F.from_int(k) for k in (1, 5, 11, 26)]:
        assert x * x.inverse() == F.one
        assert x ** 26 == F.one
    assert sum(1 for x in F.elements() if x.frobenius() == x) == 3


def test_from_int_roundtrip():
    F = GF(5, 2)
    for enc in range(25):
        assert int(F.from_int(enc)) == enc
    assert F.from_int(7).coeffs == (2, 1)


def test_frobenius_and_pth_root():
    F = GF(3, 3)
    rng = random.Random(1)
    for _ in range(40):
        x = F.random_element(rng)
        y = F.random_element(rng)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()
        assert x.frobenius() == x ** 3
        assert x.pth_root().frobenius() == x
        assert x.frobenius(3) == x


def test_scalar_coercion_in_arithmetic():
    F = GF(7)
    x = F.scalar(3)
    assert x + 4 == F.zero
    assert 4 + x == F.zero
    assert 2 - x == F.scalar(6)
    assert x * 5 == F.one
    assert 1 / x == x.inverse()
    assert x / 3 == F.one


def test_cross_field_operations_rejected():
    with pytest.raises(ValueError):
        GF(3).one + GF(5).one
    with pytest.raises(ValueError):
        GF(3, 2).one * GF(3, 3).one


def test_artin_schreier_prime_field():
    # y^2 + y = 1 has no root in F_2; the quadratic extension supplies one
    F2 = GF(2)
    fld, r = artin_schreier_root(F2, F2.one)
    assert fld is GF(2, 2)
    assert r == fld.gen
    assert r * r + r == embed(F2.one, fld)
    # y^3 - y = 1 over F_3 needs the cubic extension
    F3 = GF(3)
    fld3, r3 = artin_schreier_root(F3, F3.one)
    assert fld3 is GF(3, 3)
    assert r3.coeffs == (0, 2, 0)
    assert r3 ** 3 - r3 == embed(F3.one, fld3)
    # c = 0 is solved by 0 without leaving the field
    fld0, r0 = artin_schreier_root(F3, F3.zero)
    assert fld0 is F3 and not r0


def test_artin_schreier_smallest_root():
    # all p roots differ by F_p; the canonical pick has smallest encoding
    F = GF(3, 2)
    for enc in range(9):
        c = F.from_int(enc)
        fld, r = artin_schreier_root(F, c)
        roots = [embed(r, fld) + k for k in range(3)]
        assert min(int(x) for x in roots) == int(r)


AS_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2),
             (2, 4)]


@pytest.mark.parametrize("p,n", AS_FIELDS,
                         ids=["GF(%d^%d)" % f for f in AS_FIELDS])
def test_artin_schreier_root_matches_root_finding(p, n):
    # artin_schreier_root takes gamma from additive_root, a linear solve;
    # roots_in_splitting_field factors and splits the dense polynomial.
    # For every c both routes give the identical field and the same
    # smallest root of T^p - T - c, which has p simple roots.  The splitting fields GF(5^5),
    # GF(7^7), GF(3^6) and GF(5^10) lie above _EXHAUST_CAP, so root finding
    # splits by equal degrees there.
    F = GF(p, n)
    t = Polynomial.variable(F)
    for c in F.elements():
        big, gamma = artin_schreier_root(F, c)
        split, roots = roots_in_splitting_field(t ** p - t - c)
        assert split is big
        assert roots[0][0] == gamma
        assert len(roots) == p and all(m == 1 for _, m in roots)


def test_embedding_is_canonical_homomorphism():
    F3, F27 = GF(3), GF(3, 3)
    emb = embedding(F3, F27)
    assert emb(F3.scalar(2)) == F27.scalar(2)
    rng = random.Random(2)
    F9, F729 = GF(3, 2), GF(3, 6)
    em2 = embedding(F9, F729)
    for _ in range(30):
        x, y = F9.random_element(rng), F9.random_element(rng)
        assert em2(x + y) == em2(x) + em2(y)
        assert em2(x * y) == em2(x) * em2(y)
    # the generator goes to the smallest root of its modulus
    img = em2(F9.gen)
    assert img ** 2 + 1 == F729.zero
    others = [x for x in (img, -img)]
    assert int(img) == min(int(x) for x in others)


@pytest.mark.parametrize("src, dst", [
    ((2, 1), (2, 4)), ((2, 2), (2, 6)), ((3, 1), (3, 3)), ((5, 1), (5, 5)),
    ((7, 1), (7, 2)), ((2, 3), (2, 18))], ids=str)
def test_embedding_is_a_homomorphism_across_field_pairs(src, dst):
    """Sums, differences and products on seeded draws, on both sides of
    the log/exp table cap (GF(2^18) is above it)."""
    S, T = GF(*src), GF(*dst)
    emb = embedding(S, T)
    assert emb(S.zero) == T.zero and emb(S.one) == T.one
    rng = random.Random(S.q + T.q)
    xs = [S.zero, S.one, -S.one, S.gen] + [S.random_element(rng)
                                           for _ in range(20)]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert emb(x + y) == emb(x) + emb(y)
        assert emb(x - y) == emb(x) - emb(y)
        assert emb(x * y) == emb(x) * emb(y)
        assert emb(-x) == -emb(x)
    # injective, and onto the subfield fixed by the |S|-th power map
    images = {emb(x) for x in S.elements()}
    assert len(images) == S.q
    assert all(y ** S.q == y for y in images)


def test_embedding_requires_divisibility():
    with pytest.raises(ValueError):
        embedding(GF(3, 2), GF(3, 3))


def test_roots_in_splitting_field_cubic():
    F3 = GF(3)
    f = Polynomial(F3, [-F3.one, -F3.one, F3.zero, F3.one])  # T^3 - T - 1
    big, roots = roots_in_splitting_field(f)
    assert big is GF(3, 3)
    assert [list(x.coeffs) for x, _ in roots] == \
        [[0, 2, 0], [1, 2, 0], [2, 2, 0]]
    assert all(m == 1 for _, m in roots)
    for x, _ in roots:
        assert x ** 3 - x - 1 == big.zero


def test_roots_in_splitting_field_p_polynomial():
    # 1 + T - T^9 over F_3: nine simple roots in GF(3^6)
    F3 = GF(3)
    coeffs = [F3.one, F3.one] + [F3.zero] * 7 + [-F3.one]
    big, roots = roots_in_splitting_field(Polynomial(F3, coeffs))
    assert big is GF(3, 6)
    assert len(roots) == 9
    assert all(m == 1 for _, m in roots)
    assert list(roots[0][0].coeffs) == [0, 2, 2, 1, 0, 0]
    # returned in increasing encoding, so [0] is the canonical choice
    encs = [int(x) for x, _ in roots]
    assert encs == sorted(encs)


def test_roots_multiplicity():
    F = GF(5)
    t = Polynomial.variable(F)
    f = (t - 2) ** 3 * (t - 1)
    big, roots = roots_in_splitting_field(f)
    assert big is F
    assert sorted((int(x), m) for x, m in roots) == [(1, 1), (2, 3)]


def test_element_hash():
    F = GF(3, 2)
    x = F.from_int(5)
    assert len({F.from_int(5), x}) == 1


def absolute_trace(x):
    acc, y = x.field.zero, x
    for _ in range(x.field.n):
        acc, y = acc + y, y.frobenius()
    return acc


def test_char2_splitting_separates_equal_trace_roots():
    # q = 2^10 is above the exhaustive-search cap, so the roots come from
    # trace splitting, which must separate two roots of equal trace
    F = GF(2, 10)
    assert F.q > fields._EXHAUST_CAP
    x = F.from_int(3)
    y = next(z for z in F.elements()
             if z != x and absolute_trace(z) == absolute_trace(x))
    t = Polynomial.variable(F)
    with time_limit(20):
        big, roots = roots_in_splitting_field((t - x) * (t - y))
    assert big is F
    assert roots == sorted([(x, 1), (y, 1)], key=lambda e: int(e[0]))


@pytest.mark.parametrize("p,n,deg", [(2, 4, 4), (5, 2, 4), (2, 10, 2),
                                     (3, 7, 2)])
def test_exhaustive_and_splitting_root_finding_agree(monkeypatch, p, n, deg):
    F = GF(p, n)
    below_cap = F.q <= fields._EXHAUST_CAP
    assert below_cap == (F.q < 100)  # two cases on each side of the cap
    rng = random.Random(1000 * p + n)
    t = Polynomial.variable(F)
    polys = []
    for _ in range(4):
        split = Polynomial(F, [F.one])
        for _ in range(deg):
            split = split * (t - F.random_element(rng))
        polys.append(split)
        polys.append(Polynomial(F, [F.random_element(rng)
                                    for _ in range(deg)] + [F.one]))
    for f in polys:
        with time_limit(20):
            monkeypatch.setattr(fields, "_EXHAUST_CAP", 0)
            by_splitting = fields._roots_in_field(f)
            monkeypatch.setattr(fields, "_EXHAUST_CAP", F.q)
            by_search = fields._roots_in_field(f)
        assert sorted(map(int, by_splitting)) == sorted(map(int, by_search))
        assert all(not f.evaluate(x) for x in by_search)


# (p, n): GF(2^k) runs Berlekamp's trace splitting, odd p the power
# (t + a)^((q-1)/2); GF(2^9) and GF(3^6) lie above _EXHAUST_CAP
ROOT_FIELDS = [(2, 3), (2, 5), (2, 9), (3, 2), (3, 5), (3, 6), (5, 2)]


@pytest.mark.parametrize("p, n", ROOT_FIELDS,
                         ids=["GF(%d^%d)" % f for f in ROOT_FIELDS])
def test_roots_in_field_routes_find_known_roots(monkeypatch, p, n):
    F = GF(p, n)
    t = Polynomial.variable(F)
    rng = random.Random(31 * p + n)
    for deg in (0, 1, 2, 3, 5):
        known = rng.sample(range(F.q), deg)
        f = Polynomial(F, [F.from_int(rng.randrange(1, F.q))])
        for enc in known:
            f = f * (t - F.from_int(enc))
        # equal-degree splitting, then evaluation at every element
        for cap in (0, F.q):
            monkeypatch.setattr(fields, "_EXHAUST_CAP", cap)
            with time_limit(20):
                got = fields._roots_in_field(f)
            assert sorted(map(int, got)) == sorted(known)


def test_root_search_never_enumerates_a_field_above_the_cap(monkeypatch):
    """The search by evaluation runs on fields of at most _EXHAUST_CAP =
    2^8 elements, whatever the degree: a linear polynomial over GF(5^7) or
    GF(3^12), and the eigenvalue of a 1 x 1 map, come from splitting."""
    from gradeswitch.galg import LinearMap, generalized_eigenspaces
    plain = fields.FqField.elements

    def guarded(field):
        assert field.q <= fields._EXHAUST_CAP <= 1 << 8, field
        return plain(field)

    monkeypatch.setattr(fields.FqField, "elements", guarded)
    rng = random.Random(17)
    for F in (GF(5, 7), GF(3, 12)):
        g = F.random_element(rng)
        with time_limit(20):
            big, roots = roots_in_splitting_field(
                Polynomial.variable(F) - g)
        assert big is F and roots == [(g, 1)]
    F = GF(7, 7)
    g = F.random_element(rng)
    with time_limit(20):
        big, dec = generalized_eigenspaces(LinearMap(F, [[g]]))
    assert big is F and dec.values() == (g,) and dec.total_dim == 1


def test_squarefree_part_of_a_constant():
    # a constant has no irreducible factor: its squarefree part is 1; the
    # zero polynomial has none
    for F in (GF(3), GF(2, 4)):
        for c in (F.one, F.scalar(-1), F.from_int(F.q - 1)):
            got = Polynomial(F, [c]).squarefree_part()
            assert got == Polynomial(F, [F.one])
        with pytest.raises(ValueError, match="zero polynomial"):
            Polynomial(F, []).squarefree_part()


def test_gf_refuses_a_degree_above_the_cap():
    """GF itself refuses n > DEGREE_CAP, naming the cap, before any
    modulus search or irreducibility test; the cap itself still builds."""
    with time_limit(1):
        with pytest.raises(ValueError, match="degree cap %d"
                           % fields.DEGREE_CAP):
            fields.GF(2, fields.DEGREE_CAP + 1)
        with pytest.raises(ValueError, match="degree cap"):
            fields.GF(3, 10 ** 6, modulus=[1] * (10 ** 6 + 1))
    assert fields.GF(2, fields.DEGREE_CAP).n == fields.DEGREE_CAP
