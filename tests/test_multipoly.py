"""Differential tests of the polynomial fast paths: ``MultiPoly`` sums,
negations and products (results built unchecked, one-term factors stored
with no lookup) against a plain dict convolution, and ``Polynomial``
long division (no write-back of cancelled coefficients, no scaling by a
monic divisor's leading inverse) against a textbook long division."""

import random

import pytest

from gradeswitch.fields import GF, FqElement, _TABLE_CAP
from gradeswitch.polyring import MultiPoly, Polynomial

FIELDS = [GF(5), GF(3, 2), GF(2, 17)]
assert FIELDS[-1].q > _TABLE_CAP >= FIELDS[-2].q
IDS = ["GF(5)", "GF(3^2)", "GF(2^17)"]
VARS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


# -- references -------------------------------------------------------------


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


def ref_mul(f, g):
    """The plain convolution: every pair of terms, summed by exponent."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_divmod(f, g, field):
    """Schoolbook long division on coefficient lists, lowest first: scale
    by the leading inverse, subtract the whole shifted divisor."""
    rem = list(f)
    d = len(g) - 1
    inv = g[-1].inverse()
    quo = [field.zero] * max(len(rem) - d, 0)
    for k in range(len(rem) - 1, d - 1, -1):
        f_k = rem[k] * inv
        quo[k - d] = f_k
        for j in range(d + 1):
            rem[k - d + j] = rem[k - d + j] - f_k * g[j]
    assert not any(rem[d:])
    return strip(quo), strip(rem[:d])


def strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


# -- helpers ----------------------------------------------------------------


def rand_terms(field, nvars, count, rng, maxexp=3):
    """About `count` terms with random exponents; some coefficients zero,
    which the public constructor drops."""
    terms = {}
    for _ in range(count):
        e = tuple(rng.randrange(maxexp + 1) for _ in range(nvars))
        terms[e] = field.random_element(rng)
    return terms


def check_invariant(f, field, vars_):
    assert f.field is field and f.vars == vars_
    assert isinstance(f.terms, dict)
    for e, c in f.terms.items():
        assert isinstance(e, tuple) and len(e) == len(vars_)
        assert all(isinstance(k, int) and k >= 0 for k in e)
        assert isinstance(c, FqElement) and c.field is field
        assert c, "zero coefficient stored at %r" % (e,)


def operand_pairs(field, nvars, rng):
    """(f, g) pairs of MultiPolys: random, one-term, constant, zero, and a
    g that cancels f in part or in full."""
    vars_ = VARS[nvars]

    def mk(terms):
        return MultiPoly(field, vars_, terms)

    pairs = []
    for size in (1, 2, 5, 9):
        for size2 in (1, 3, 8):
            pairs.append((mk(rand_terms(field, nvars, size, rng)),
                          mk(rand_terms(field, nvars, size2, rng))))
    f = mk(rand_terms(field, nvars, 7, rng))
    mono = MultiPoly.variable(field, vars_, vars_[-1])
    const = MultiPoly.constant(field, vars_, field.random_element(rng)
                               or field.one)
    zero = MultiPoly(field, vars_, {})
    half = mk({e: -c for e, c in list(f.terms.items())[::2]})
    pairs += [(f, mono), (mono, f), (f, const), (const, f), (f, zero),
              (zero, f), (f, -f), (f, half), (mono, mono), (const, const)]
    return pairs


# -- MultiPoly ----------------------------------------------------------------


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_multipoly_ring_ops_match_reference(field, nvars):
    rng = random.Random(100 * nvars + field.q % 97)
    vars_ = VARS[nvars]
    for f, g in operand_pairs(field, nvars, rng):
        neg_g = {e: -c for e, c in g.terms.items()}
        cases = [
            (f + g, ref_add(f.terms, g.terms)),
            (f - g, ref_add(f.terms, neg_g)),
            (-f, {e: -c for e, c in f.terms.items()}),
            (f * g, ref_mul(f.terms, g.terms)),
            (g * f, ref_mul(f.terms, g.terms)),
        ]
        for got, want in cases:
            check_invariant(got, field, vars_)
            assert got.terms == want


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_multipoly_cancelling_sums_leave_no_zero(field):
    rng = random.Random(field.q % 89)
    vars_ = VARS[2]
    f = MultiPoly(field, vars_, rand_terms(field, 2, 8, rng))
    assert f.terms
    for got in (f - f, f + (-f), -f + f, f * 0, 0 * f, f * field.zero):
        check_invariant(got, field, vars_)
        assert got.terms == {} and not got
    # (x + y)(x - y) = x^2 - y^2: the cross terms cancel inside the product
    x = MultiPoly.variable(field, vars_, "x")
    y = MultiPoly.variable(field, vars_, "y")
    prod = (x + y) * (x - y)
    check_invariant(prod, field, vars_)
    assert prod == x * x - y * y


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_multipoly_scalars_match_reference(field):
    rng = random.Random(field.q % 83)
    vars_ = VARS[3]
    f = MultiPoly(field, vars_, rand_terms(field, 3, 9, rng))
    c = field.random_element(rng) or field.one
    want = {e: a * c for e, a in f.terms.items()}
    for got in (f * c, c * f, f * MultiPoly.constant(field, vars_, c)):
        check_invariant(got, field, vars_)
        assert got.terms == want
    for k in (0, 1, 2, field.p, field.p + 1, -1):
        got = f * k
        check_invariant(got, field, vars_)
        assert got.terms == {e: a * k for e, a in f.terms.items() if a * k}
        assert (f + k).terms == ref_add(
            f.terms, {(0, 0, 0): field.scalar(k)} if k % field.p else {})


def test_multipoly_public_constructor_still_checks():
    F = GF(5)
    with pytest.raises(ValueError):
        MultiPoly(F, ("x", "y"), {(1,): F.one})
    with pytest.raises(ValueError):
        MultiPoly(F, ("x",), {(1,): GF(7).one})
    f = MultiPoly(F, ["x"], {(1,): 5, (2,): 3, (3,): F.zero})
    check_invariant(f, F, ("x",))
    assert f.terms == {(2,): F.scalar(3)}


# -- Polynomial long division --------------------------------------------------


def divisors(field, rng):
    """Monic and non-monic divisors of degree 1..4, one with zero constant
    term, and the degree-1 monic T + c of the factored-form checks."""
    out = []
    for d in range(1, 5):
        low = [field.random_element(rng) for _ in range(d)]
        lead = field.random_element(rng)
        while not lead or lead == field.one:
            lead = field.random_element(rng)
        out.append(low + [field.one])
        out.append(low + [lead])
        out.append([field.zero] + low[1:] + [lead])
    out.append([field.scalar(3), field.one])
    out.append([field.zero, field.one])
    return out


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_divmod_matches_textbook_division(field):
    rng = random.Random(field.q % 79)
    for g in divisors(field, rng):
        gp = Polynomial(field, g)
        assert gp.degree() == len(g) - 1
        for deg in (-1, 0, 1, len(g) - 2, len(g) - 1, len(g), 9, 14):
            f = [field.random_element(rng) for _ in range(deg + 1)]
            if f:
                f[-1] = f[-1] or field.one
            fp = Polynomial(field, f)
            q, r = divmod(fp, gp)
            want_q, want_r = ref_divmod(list(fp.coeffs), g, field)
            assert (q.coeffs, r.coeffs) == (want_q, want_r)
            for h in (q, r):
                assert h.field is field
                assert all(isinstance(c, FqElement) for c in h.coeffs)
                assert not h.coeffs or h.coeffs[-1], "zero leading coefficient"
            assert r.degree() < gp.degree()
            assert q * gp + r == fp
            assert fp // gp == q and fp % gp == r


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_divmod_exact_and_by_constants(field):
    rng = random.Random(field.q % 73)
    for g in divisors(field, rng):
        gp = Polynomial(field, g)
        h = Polynomial(field, [field.random_element(rng) for _ in range(6)]
                       + [field.one])
        q, r = divmod(h * gp, gp)
        assert q == h and r.is_zero() and r.coeffs == ()
    c = field.random_element(rng) or field.one
    f = Polynomial(field, [field.random_element(rng) for _ in range(5)]
                   + [field.one])
    q, r = divmod(f, Polynomial(field, [c]))
    assert r.coeffs == () and q * c == f
    with pytest.raises(ZeroDivisionError):
        divmod(f, Polynomial(field, []))
