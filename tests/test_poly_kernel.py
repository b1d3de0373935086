"""Differential tests of the row kernel behind ``Polynomial`` products,
``Polynomial.pow_mod`` and ``LinearMap`` sums, and of
``LinearMap.minimal_polynomial``.

Products are compared with the schoolbook loop they replaced, which sums
``FqElement`` products one pair of coefficients at a time; ``pow_mod`` with
square-and-multiply on that product followed by ``%``; map sums,
differences and negations entry by entry; and minimal polynomials with a
seed-by-seed lcm (``f * local // gcd``) over the unit vectors, a search
that never starts from the all-ones vector or evaluates f(M).  The fields are
prime fields, log-table fields and fields above the log-table cap, and
the polynomials reach degree 120 (the identities at p = 11 reach 110).
Polynomials and entries whose coefficients are all p - 1 fill the kernel's
slots the most.  Skipped when hypothesis is not installed."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch.echelon import Echelon, first_dependence  # noqa: E402
from gradeswitch.fields import GF, _TABLE_CAP, power  # noqa: E402
from gradeswitch import galg  # noqa: E402
from gradeswitch.galg import LinearMap  # noqa: E402
from gradeswitch.polyring import Polynomial  # noqa: E402
from oracles import inverse  # noqa: E402

FIELDS = [GF(2), GF(3), GF(2, 10), GF(5, 5), GF(5, 7), GF(2, 17),
          GF(65537)]
BIG = [F for F in FIELDS if F.q > _TABLE_CAP]
assert len(BIG) == 3
MAX_DEG = 120
# the schoolbook oracles spend d^2 element products on a product; above
# the table cap each is a polynomial product, so keep those smaller
MAX_MOD_DEG = {F: (30 if F.q <= _TABLE_CAP else 8) for F in FIELDS}
MAX_N = {F: (40 if F.q <= _TABLE_CAP else 16) for F in FIELDS}
MAX_MINPOLY_N = {F: (16 if F.q <= _TABLE_CAP else 8) for F in FIELDS}

SETTINGS = hypothesis.settings(max_examples=40, deadline=None,
                               derandomize=True, database=None)


# -- the replaced routines, kept as the oracles ---------------------------------

def reference_product(f, g):
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return Polynomial(f.field, [])
    out = [f.field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return Polynomial(f.field, out)


def reference_pow_mod(f, e, m):
    return power(f % m, e, Polynomial(f.field, [f.field.one]),
                 lambda a, b: reference_product(a, b) % m)


def reference_minimal_polynomial(M):
    field, n = M.field, M.n
    f = Polynomial(field, [field.one])
    seen = Echelon()
    for s in range(n):
        seed = tuple(field.one if i == s else field.zero for i in range(n))
        if seen.contains(seed):
            continue
        krylov = []

        def iterates(v):
            while True:
                krylov.append(v)
                yield v
                v = M.apply(v)
        local = Polynomial(field, first_dependence(iterates(seed), field)
                           + [field.one])
        f = (reference_product(f, local) // f.gcd(local)).monic()
        for v in krylov[:-1]:
            seen.add(v)
        if f.degree() == n:
            break
    return f


# -- inputs ------------------------------------------------------------------------

def full(field):
    """The element whose coefficients are all p - 1."""
    return field.from_coeffs([field.p - 1] * field.n)


def entry(field, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return field.zero
    if kind == 1:
        return full(field)
    return field.random_element(rng)


def nonzero(field, rng):
    return full(field) if rng.randrange(3) == 0 else \
        field.from_int(rng.randrange(1, field.q))


@st.composite
def polynomials(draw, field, max_deg):
    kind = draw(st.sampled_from(["zero", "constant", "full", "random",
                                 "mixed"]))
    if kind == "zero":
        return Polynomial(field, [])
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "constant":
        return Polynomial(field, [nonzero(field, rng)])
    deg = draw(st.sampled_from([0, 1, max_deg]) | st.integers(0, max_deg))
    if kind == "full":
        return Polynomial(field, [full(field)] * (deg + 1))
    if kind == "random":
        cs = [field.random_element(rng) for _ in range(deg)]
    else:
        cs = [entry(field, rng) for _ in range(deg)]
    return Polynomial(field, cs + [nonzero(field, rng)])


@st.composite
def product_cases(draw):
    F = draw(st.sampled_from(FIELDS))
    return (draw(polynomials(F, MAX_DEG)),
            draw(polynomials(F, MAX_DEG)))


def exponents(field):
    q = field.q
    return [0, 1, q, (q - 1) // 2, q ** 5]


@st.composite
def pow_mod_cases(draw):
    F = draw(st.sampled_from(FIELDS))
    d = draw(st.sampled_from([1, MAX_MOD_DEG[F]])
             | st.integers(1, MAX_MOD_DEG[F]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    lead = F.one if draw(st.booleans()) else nonzero(F, rng)
    m = Polynomial(F, [entry(F, rng) for _ in range(d)] + [lead])
    f = draw(polynomials(F, 2 * d))
    return f, draw(st.sampled_from(exponents(F))), m


def matrix(field, n, rng):
    return LinearMap(field, [[entry(field, rng) for _ in range(n)]
                             for _ in range(n)])


@st.composite
def map_pairs(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.sampled_from([0, 1, MAX_N[F]]) | st.integers(0, MAX_N[F]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        A = LinearMap(F, [[full(F)] * n] * n)
    else:
        A = matrix(F, n, rng)
    return A, matrix(F, n, rng)


def jordan(field, blocks):
    """Block diagonal map of Jordan blocks, given as (eigenvalue, size)."""
    n = sum(k for _, k in blocks)
    rows = [[field.zero] * n for _ in range(n)]
    i = 0
    for lam, k in blocks:
        for j in range(k):
            rows[i + j][i + j] = lam
            if j + 1 < k:
                rows[i + j][i + j + 1] = field.one
        i += k
    return LinearMap(field, rows)


def conjugated(M, rng, ones=False):
    """P M P^-1 for a random invertible P; with `ones`, P's first column
    is all ones, so that the all-ones vector is P e_0 (an eigenvector
    when e_0 is, as at the head of a Jordan block)."""
    while True:
        P = matrix(M.field, M.n, rng)
        if ones:
            P = LinearMap(M.field, [(M.field.one,) + row[1:]
                                    for row in P.rows])
        if P.rank() == M.n:
            return P * M * inverse(P)


@st.composite
def minpoly_cases(draw):
    F = draw(st.sampled_from(FIELDS))
    top = MAX_MINPOLY_N[F]
    kind = draw(st.sampled_from(["random", "nilpotent", "scalar",
                                 "repeated", "ones_eigenvector"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = draw(st.integers(0, top))
    if kind == "random":
        return matrix(F, n, rng)
    if kind == "scalar":
        return LinearMap.identity(F, n) * F.random_element(rng)
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, n - sum(sizes)))
    if kind == "nilpotent":
        blocks = [(F.zero, k) for k in sizes]
    else:
        # a few eigenvalues, each on several Jordan blocks
        values = [F.random_element(rng) for _ in range(2)]
        blocks = [(values[rng.randrange(2)], k) for k in sizes]
    return conjugated(jordan(F, blocks), rng,
                      ones=kind == "ones_eigenvector")


# -- the tests ------------------------------------------------------------------

@SETTINGS
@hypothesis.given(product_cases())
def test_product_matches_schoolbook(case):
    f, g = case
    h = f * g
    assert h == reference_product(f, g)
    assert h.coeffs == Polynomial(f.field, h.coeffs).coeffs  # trimmed
    assert g * f == h
    assert f * f == reference_product(f, f)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_full_polynomials_of_top_degree(field):
    # every coefficient all p - 1, at the largest degree of the tests
    f = Polynomial(field, [full(field)] * (MAX_DEG + 1))
    assert f * f == reference_product(f, f)
    c = Polynomial(field, [full(field)])
    assert f * c == c * f == reference_product(f, c)


@pytest.mark.parametrize("field", [F for F in FIELDS if F.n < 7], ids=repr)
def test_full_polynomials_at_powers_of_two(field):
    # kernels are shared between lengths up to the next power of two, so
    # the fullest block sum at a power of two meets the slot width the
    # closest; GF(5^7) and GF(2^17) are left out, where the oracle's
    # element products are slow
    for k in range(8):
        for length in (1 << k, (1 << k) + 1):
            f = Polynomial(field, [full(field)] * length)
            assert f * f == reference_product(f, f)


@SETTINGS
@hypothesis.given(pow_mod_cases())
def test_pow_mod_matches_square_and_multiply(case):
    f, e, m = case
    r = f.pow_mod(e, m)
    assert r == reference_pow_mod(f, e, m)
    assert r.degree() < m.degree()
    # the modulus keeps its reduction rows: a second call agrees
    assert f.pow_mod(e, m) == r


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_pow_mod_full_modulus(field):
    d = MAX_MOD_DEG[field]
    m = Polynomial(field, [full(field)] * (d + 1))
    f = Polynomial(field, [full(field)] * d)
    for e in exponents(field):
        assert f.pow_mod(e, m) == reference_pow_mod(f, e, m)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_pow_mod_every_exponent(field):
    rng = random.Random(field.q)
    for d in (1, 2, MAX_MOD_DEG[field]):
        for lead in (field.one, nonzero(field, rng)):
            m = Polynomial(field, [entry(field, rng) for _ in range(d)]
                           + [lead])
            f = Polynomial(field, [entry(field, rng)
                                   for _ in range(2 * d + 1)])
            for e in exponents(field):
                assert f.pow_mod(e, m) == reference_pow_mod(f, e, m)


@SETTINGS
@hypothesis.given(map_pairs())
def test_map_sums_match_entrywise(case):
    A, B = case
    assert (A + B).rows == tuple(tuple(a + b for a, b in zip(r, t))
                                 for r, t in zip(A.rows, B.rows))
    assert (A - B).rows == tuple(tuple(a - b for a, b in zip(r, t))
                                 for r, t in zip(A.rows, B.rows))
    assert (-A).rows == tuple(tuple(-a for a in r) for r in A.rows)
    assert (A + A).rows == tuple(tuple(a + a for a in r) for r in A.rows)
    assert (A - A).is_zero()
    # the results are ordinary maps: their own wide rows multiply right
    assert (A + B) * B == A * B + B * B


@SETTINGS
@hypothesis.given(minpoly_cases())
def test_minimal_polynomial_matches_seed_by_seed_lcm(M):
    f = M.minimal_polynomial()
    assert f == reference_minimal_polynomial(M)
    assert f.coeffs[-1] == M.field.one


@pytest.mark.parametrize("field", [GF(3), GF(5, 5), GF(65537)], ids=repr)
def test_minimal_polynomial_of_special_blocks(field):
    rng = random.Random(7)
    lam, mu = field.from_int(2), full(field)
    cases = [
        LinearMap.identity(field, 6) * lam,               # scalar
        jordan(field, [(field.zero, 4), (field.zero, 2)]),  # nilpotent
        jordan(field, [(lam, 3), (lam, 1), (mu, 2), (lam, 3)]),
        jordan(field, [(lam, 1)] * 5),
    ]
    for M in cases + [conjugated(M, rng) for M in cases]:
        assert M.minimal_polynomial() == reference_minimal_polynomial(M)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5, 5), GF(65537)],
                         ids=repr)
def test_minimal_polynomial_refines_a_start_that_is_not_cyclic(
        field, monkeypatch):
    # every map is conjugated so that the all-ones vector, where the
    # search starts, is an eigenvector: the first Krylov sequence has
    # degree 1, and only the rounds on the columns of f(M) reach the rest
    rng = random.Random(field.q)
    lam, mu = field.from_int(1), full(field)
    cases = [
        jordan(field, [(field.zero, 4), (field.zero, 2)]),  # nilpotent
        jordan(field, [(lam, 1), (mu, 3), (lam, 2)]),
        jordan(field, [(lam, 1), (field.zero, 1), (mu, 1)]),
        jordan(field, [(mu, 2), (lam, 1), (mu, 1), (lam, 2),
                       (field.zero, 1)]),
    ]
    rounds = []
    real = galg.first_dependence

    def counted(vectors, f):
        rounds.append(f)
        return real(vectors, f)
    # the oracle imports first_dependence itself, so only rounds count
    monkeypatch.setattr(galg, "first_dependence", counted)
    for J in cases:
        M = conjugated(J, rng, ones=True)
        assert M.apply((field.one,) * M.n) == (J.rows[0][0],) * M.n
        want = reference_minimal_polynomial(M)
        rounds.clear()
        assert M.minimal_polynomial() == want and want.degree() > 1
        assert len(rounds) >= 2
    # the maps of dimension 0 and 1, where the start is the whole space
    for M in [LinearMap(field, []), LinearMap(field, [[field.zero]]),
              LinearMap(field, [[mu]])]:
        assert M.minimal_polynomial() == reference_minimal_polynomial(M)
        assert M.minimal_polynomial().degree() == M.n


def companion(field, coeffs):
    """The companion map of T^n + sum coeffs[i] T^i: M e_i = e_(i+1) for
    i < n - 1, so e_0 is a cyclic vector."""
    n = len(coeffs)
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = field.one
    for i, c in enumerate(coeffs):
        rows[i][n - 1] = -c
    return LinearMap(field, rows)


def transposed_jordan(field, blocks):
    """jordan's transpose: e_0 generates the whole first block."""
    return LinearMap(field, list(zip(*jordan(field, blocks).rows)))


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(5, 5)], ids=repr)
def test_minimal_polynomial_of_degree_n_forms_no_f_of_M(field, monkeypatch):
    # f divides m_M and deg m_M <= n, so deg f = n proves f = m_M and
    # f(M) is never formed for it; below n the proof f(M) = 0 still runs.
    # Every map is conjugated so that the all-ones vector, where the
    # search starts, is P e_0.  "first": e_0 is cyclic, so the first
    # Krylov sequence reaches degree n; "refined": e_0 spans only part
    # of the first block, so deg n comes after a round on f(M)'s columns
    rng = random.Random(field.q + 2)
    lam, mu = field.zero, full(field)
    t = Polynomial.variable(field)
    cases = {
        "first": [
            companion(field, ((t - lam) ** 2 * (t - mu) ** 3).coeffs[:-1]),
            companion(field, [field.zero] * 4),  # T^4
            companion(field, [entry(field, rng) for _ in range(6)])],
        "refined": [
            transposed_jordan(field, [(lam, 2), (mu, 3)]),
            transposed_jordan(field, [(mu, 1), (lam, 2)]),
            jordan(field, [(lam, 1), (mu, 1)])],
        "below": [
            transposed_jordan(field, [(lam, 2), (lam, 1), (mu, 2)]),
            transposed_jordan(field, [(mu, 2), (mu, 2)]),
            jordan(field, [(mu, 3), (mu, 1)]),
            LinearMap.identity(field, 3) * mu],
    }
    evaluated, rounds, products = [], [], [0]
    real_evaluate, real_mul = Polynomial.evaluate, LinearMap.__mul__
    real_dependence = galg.first_dependence

    def evaluate(f, x):
        if isinstance(x, LinearMap):
            evaluated.append(f)
        return real_evaluate(f, x)

    def mul(a, b):
        products[0] += isinstance(b, LinearMap)
        return real_mul(a, b)

    def dependence(vectors, f):
        rounds.append(f)
        return real_dependence(vectors, f)

    monkeypatch.setattr(Polynomial, "evaluate", evaluate)
    monkeypatch.setattr(LinearMap, "__mul__", mul)
    # the oracle imports first_dependence itself, so only rounds count
    monkeypatch.setattr(galg, "first_dependence", dependence)

    def products_of(polys, M):
        products[0] = 0
        for g in polys:
            real_evaluate(g, M)
        return products[0]

    for kind, maps in cases.items():
        for J in maps:
            M = conjugated(J, rng, ones=True)
            want = reference_minimal_polynomial(M)
            evaluated.clear()
            rounds.clear()
            products[0] = 0
            f = M.minimal_polynomial()
            proofs, spent = list(evaluated), products[0]
            assert f == want, (kind, J)
            # the map products are those of the listed f(M), no others
            assert spent == products_of(proofs, M)
            if kind == "below":
                assert f.degree() < M.n
                assert proofs[-1] == f
                assert spent >= products_of([f], M) >= (f.degree() > 1)
                continue
            assert f.degree() == M.n
            assert all(g.degree() < M.n for g in proofs)
            # the proof skipped would have cost map products
            assert products_of([f], M) >= 1
            if kind == "first":
                assert len(rounds) == 1 and proofs == [] and spent == 0
            else:
                assert len(rounds) >= 2 and proofs
