import contextlib
import functools
import gc
import io
import operator
import random
import weakref

import pytest

from gradeswitch import fields
from gradeswitch.cli import main
from gradeswitch.echelon import Echelon, solve
from gradeswitch.fields import GF, power
from gradeswitch.galg import LinearMap
from gradeswitch.laguerre import _split_pair
from gradeswitch.polyring import (
    BiTruncSeries, MultiPoly, NonInvertibleError, Polynomial, QuotientElement,
    QuotientRing, RingElement, _quotient_inverse_linear,
    _quotient_inverse_ppower, _scalar_power, quotient_inverse, quotient_mul)
from frobenius_oracle import frobenius_scalar, series_frobenius
from oracles import multipoly_value


def rand_poly(field, deg, rng):
    return Polynomial(field, [field.random_element(rng)
                              for _ in range(deg + 1)])


def test_polynomial_basic_ops():
    F = GF(5)
    t = Polynomial.variable(F)
    f = t ** 2 + 3 * t + 1
    g = t + 2
    assert (f * g).degree() == 3
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree() < g.degree()
    assert f.evaluate(F.scalar(2)) == F.scalar(4 + 6 + 1)
    assert f[2] == F.one and f[0] == F.one and f[7] == F.zero


def square_and_multiply_products(e):
    """Products of fields.power for x ** e, e >= 1."""
    return e.bit_length() + bin(e).count("1") - 2


def test_evaluate_starts_from_the_leading_coefficient(monkeypatch):
    # Horner from the leading coefficient over the nonzero coefficients:
    # each gap g between two nonzero exponents, and from the lowest one
    # down to 0, is one M^g by square-and-multiply, and every gap after
    # the first costs one more product; a monic f spends no product by
    # its leading 1.  The value is the sum of c_i M^i either way
    F = GF(5)
    rng = random.Random(8)
    M = LinearMap(F, [[F.random_element(rng) for _ in range(4)]
                      for _ in range(4)])
    powers = [LinearMap.identity(F, 4)]
    for _ in range(25):
        powers.append(powers[-1] * M)
    products = []
    plain = LinearMap.__mul__

    def counted(a, b):
        products.append(isinstance(b, LinearMap))
        return plain(a, b)

    monkeypatch.setattr(LinearMap, "__mul__", counted)
    sparse = {
        (0,) * 25 + (1,): 6,          # T^25: 4 squarings, 2 products
        (0, 4, 0, 0, 0, 1): 3,        # T^5 - T: M^4, then one by M
        (3, 0, 2, 0, 0, 0, 0, 4): 5,  # 4T^7 + 2T^2 + 3: M^5, M^2, one
        (0, 0, 0, 0, 3): 2,           # 3T^4: M^4
    }
    for coeffs in ([], [3], [2, 1], [1, 0, 4], [4, 3, 0, 2, 1],
                   [1, 2, 3, 4, 1, 2], *sparse):
        f = Polynomial(F, coeffs)
        want = LinearMap.zero(F, 4)
        for c, P in zip(f.coeffs, powers):
            want = want + P * c
        stops = sorted({i for i, c in enumerate(f.coeffs) if c} | {0},
                       reverse=True)
        gaps = [a - b for a, b in zip(stops, stops[1:])]
        products.clear()
        assert f.evaluate(M) == want
        count = products.count(True)
        assert count == sum(map(square_and_multiply_products, gaps)) \
            + max(len(gaps) - 1, 0)
        if all(f.coeffs):  # dense: plain Horner's d - 1
            assert count == max(f.degree() - 1, 0)
        if tuple(coeffs) in sparse:
            assert count == sparse[tuple(coeffs)]
        monic = f.degree() >= 1 and f.leading() == F.one
        assert products.count(False) == (0 if monic else 1)
        assert f.evaluate(F.scalar(3)) == sum(
            (c * F.scalar(3) ** i for i, c in enumerate(f.coeffs)), F.zero)


def test_polynomial_division_properties():
    F = GF(7)
    rng = random.Random(3)
    for _ in range(60):
        f = rand_poly(F, rng.randrange(6), rng)
        g = rand_poly(F, rng.randrange(4), rng)
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()
        assert (f * g) % g == Polynomial(F, [])


def test_polynomial_gcd_and_squarefree():
    F = GF(3)
    t = Polynomial.variable(F)
    f = (t + 1) ** 2 * (t + 2)
    g = (t + 1) * t
    d = f.gcd(g)
    assert d == (t + 1).monic()
    assert not f.squarefree_is()
    assert ((t + 1) * (t + 2) * t).squarefree_is()
    # T^p - T - 1 is squarefree even though its derivative is -1
    assert (t ** 3 - t - 1).squarefree_is()


def test_polynomial_pow_mod():
    F = GF(5)
    t = Polynomial.variable(F)
    m = t ** 3 + t + 1
    f = t + 2
    assert f.pow_mod(26, m) == (f ** 26) % m


def test_pow_mod_refuses_negative_exponents():
    F = GF(5)
    t = Polynomial.variable(F)
    m = t ** 3 + t + 1
    for e in (-1, -3):
        with pytest.raises(ValueError):
            (t + 2).pow_mod(e, m)
        with pytest.raises(ValueError):
            (t + 2).pow_mod(e, Polynomial(F, [2]))


def test_pow_mod_modulo_a_unit_is_zero():
    F = GF(5)
    t = Polynomial.variable(F)
    zero = Polynomial(F, [])
    for m in (Polynomial(F, [3]), Polynomial(F, [F.one]), 2):
        for f in (t + 2, zero, Polynomial(F, [4])):
            for e in (0, 1, 5, F.q ** 3):
                assert f.pow_mod(e, m) == zero
    for m in (zero, 0):
        with pytest.raises(ZeroDivisionError):
            t.pow_mod(0, m)
    # 0^0 is 1 modulo a modulus of positive degree
    assert zero.pow_mod(0, t ** 2 + 1) == Polynomial(F, [1])


def test_gcd_refuses_what_is_not_a_polynomial():
    F = GF(5)
    f = Polynomial.variable(F) + 1
    for other in ("x", None, 1.5, [1, 2]):
        with pytest.raises(TypeError):
            f.gcd(other)
    # scalars are constant polynomials, as for divmod and *
    assert f.gcd(3) == Polynomial(F, [1])
    assert f.gcd(F.scalar(2)) == Polynomial(F, [1])


def test_polynomial_kernels_stay_few():
    # polynomial products round their kernel sizes up to powers of two, so
    # the unbounded kernel cache gets a few entries per field instead of
    # one per pair of degrees (152 on these commands without the rounding)
    fields._row_kernel.cache_clear()
    for argv in (["identities", "--p", "13"],
                 ["switch", "--builtin", "tpoly:5:25:5", "--derivation", "ddx"],
                 ["switch", "--builtin", "tpoly:3:27:3", "--derivation", "ddx"],
                 ["switch", "--builtin", "witt:5+witt:5", "--derivation",
                  "ad:1"],
                 ["switch", "--builtin", "witt:7+witt:7", "--derivation",
                  "ad:0"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--output", "json"]) == 0
    assert fields._row_kernel.cache_info().currsize <= 64


def test_polynomial_derivative():
    F = GF(5)
    t = Polynomial.variable(F)
    f = t ** 5 + 2 * t ** 3 + t
    assert f.derivative() == 6 * t ** 2 + 1  # the T^5 term dies mod 5


# GF(2^17) lies above the table cap
assert GF(2, 17).q > fields._TABLE_CAP


@pytest.mark.parametrize("field", [GF(5), GF(2, 5), GF(2, 17)],
                         ids=str)
def test_multiplicity_of_products_of_linear_factors(field):
    # c (T - r_1)^m_1 ... (T - r_k)^m_k with distinct random roots: each
    # r_i has multiplicity m_i and cofactor f / (T - r_i)^m_i, and any
    # other element has multiplicity 0 and cofactor f itself
    rng = random.Random(field.q)
    t = Polynomial.variable(field)
    for _ in range(5):
        roots = list(dict.fromkeys(field.random_element(rng)
                                   for _ in range(4)))
        mults = [rng.randrange(1, 4) for _ in roots]
        factors = [(t - r) ** m for r, m in zip(roots, mults)]
        lead = field.random_element(rng) or field.one
        f = lead * functools.reduce(operator.mul, factors)
        for i, (r, m) in enumerate(zip(roots, mults)):
            rest = functools.reduce(operator.mul,
                                    factors[:i] + factors[i + 1:], t ** 0)
            assert f.multiplicity(r) == (m, lead * rest)
        other = next(x for x in map(field.from_int, range(field.q))
                     if x not in roots)
        assert f.multiplicity(other) == (0, f)
    with pytest.raises(ValueError, match="^the zero polynomial has no root "
                                         "multiplicity$"):
        Polynomial(field, []).multiplicity(field.one)


def test_multipoly_evaluate():
    F = GF(7)
    x = MultiPoly.variable(F, ("x", "y"), "x")
    y = MultiPoly.variable(F, ("x", "y"), "y")
    f = x ** 2 * y + 3 * y + 1
    assert multipoly_value(f, {"x": F.scalar(2), "y": F.scalar(3)}) == \
        F.scalar(4 * 3 + 9 + 1)


def test_bitrunc_series_arithmetic():
    F = GF(3)
    u = BiTruncSeries.shift_u(F, 3, 2)
    v = BiTruncSeries.shift_v(F, 3, 2)
    assert not u ** 3
    assert not v ** 2
    w = (1 + u) * (1 + v)
    assert w.coeffs == ((F.one, F.one), (F.one, F.one), (F.zero, F.zero))
    assert (u + v) ** 2 == u ** 2 + 2 * u * v  # v^2 truncates away
    assert u * v == v * u


def test_bitrunc_series_inverse():
    F = GF(5)
    rng = random.Random(4)
    for _ in range(25):
        ua, ub = rng.randrange(1, 4), rng.randrange(1, 4)
        coeffs = [[F.random_element(rng) for _ in range(ub)]
                  for _ in range(ua)]
        s = BiTruncSeries(F, ua, ub, coeffs)
        if s.coeffs[0][0]:
            inv = s.inverse()
            assert s * inv == BiTruncSeries.constant(F, ua, ub, F.one)
        else:
            with pytest.raises(NonInvertibleError):
                s.inverse()


def test_bitrunc_degenerate_orders():
    # order-1 truncation collapses the variable to zero
    F = GF(3)
    u = BiTruncSeries.shift_u(F, 1, 2)
    assert not u
    c = BiTruncSeries.constant(F, 1, 1, F.scalar(2))
    assert c * c == BiTruncSeries.constant(F, 1, 1, F.one)


ORDER_ONE_FIELDS = [(2, 1), (5, 1), (3, 3), (2, 17)]
ORDER_ONE_IDS = ["GF(%d)" % p if n == 1 else "GF(%d^%d)" % (p, n)
                 for p, n in ORDER_ONE_FIELDS]


def _lift(s, rng):
    """A series of order (2, 2) whose truncation to order (1, 1) is s."""
    F = s.field
    return BiTruncSeries(F, 2, 2, [[s.coeffs[0][0], F.random_element(rng)],
                                   [F.random_element(rng),
                                    F.random_element(rng)]])


@pytest.mark.parametrize("p,n", ORDER_ONE_FIELDS, ids=ORDER_ONE_IDS)
def test_order_one_series_arithmetic_matches_the_series_kernel(p, n):
    """Order (1, 1) computes on its one coefficient.  Truncation to order
    (1, 1) is a ring map, so every result must be the truncation of the
    same arithmetic at order (2, 2), whose products run on the series
    kernel; a product must also be the kernel's own (1, 1) product."""
    F = GF(p, n)
    rng = random.Random(50 * p + n)
    pack, unpack, _ = F.series_kernel(1, 1, 1, 2)

    def low(big):
        return BiTruncSeries.constant(F, 1, 1, big.coeffs[0][0])

    for _ in range(8):
        s = BiTruncSeries.constant(F, 1, 1, F.random_element(rng))
        t = BiTruncSeries.constant(F, 1, 1, F.random_element(rng))
        S, T = _lift(s, rng), _lift(t, rng)
        c = F.random_element(rng)
        cases = [(s + t, S + T), (s - t, S - T), (s * t, S * T),
                 (s - 1, S - 1), (1 - s, 1 - S), (3 * s, 3 * S),
                 (s * c, S * c), (c + s, c + S), (s ** 0, S ** 0),
                 (-s, -S), (s ** 3, S ** 3), (s.one(), S.one())]
        if s.coeffs[0][0]:
            cases.append((s.inverse(), S.inverse()))
        for got, want in cases:
            assert (got.ua, got.ub) == (1, 1)
            assert got == low(want)
        assert (s * t).coeffs == unpack(pack(s.coeffs) * pack(t.coeffs))
        assert (s == t) == (s.coeffs[0][0] == t.coeffs[0][0])
        assert s == s.coeffs[0][0] and s * 0 == 0
    zero = BiTruncSeries.constant(F, 1, 1, 0)
    for z in (zero, _lift(zero, rng)):
        with pytest.raises(NonInvertibleError):
            z.inverse()


@pytest.mark.parametrize("p,n", ORDER_ONE_FIELDS, ids=ORDER_ONE_IDS)
def test_order_one_series_refuse_other_rings(p, n):
    F = GF(p, n)
    other = GF(7) if p != 7 else GF(5)
    s = BiTruncSeries.constant(F, 1, 1, F.gen)
    refused = [other.one, BiTruncSeries.constant(other, 1, 1, 1),
               BiTruncSeries.constant(F, 1, 2, 1),
               BiTruncSeries.constant(F, 2, 1, F.gen)]
    for bad in refused:
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y):
            with pytest.raises(ValueError):
                op(s, bad)
            with pytest.raises(ValueError):
                op(bad, s)


def quotient_ring_for(p, a, b):
    return QuotientRing(p, a ** p - a, b ** p - b)


def test_quotient_ring_reduction():
    # X^p folds back to the scalar a^p - a
    F = GF(3, 2)
    a, b = F.from_int(3), F.from_int(5)
    ring = quotient_ring_for(3, a, b)
    x = ring.monomial(1, 0, F.one)
    y = ring.monomial(0, 1, F.one)
    assert x ** 3 == ring.element(
        [[a ** 3 - a, F.zero, F.zero], [F.zero] * 3, [F.zero] * 3])
    assert (x * y) ** 3 == ring.one() * ((a ** 3 - a) * (b ** 3 - b))
    assert x * y == y * x


def test_quotient_exponents_must_be_reduced():
    F = GF(3)
    ring = quotient_ring_for(3, F.one, F.scalar(2))
    assert ring.from_exponents([((1, 2), 1), ((1, 2), F.one)]) == \
        ring.monomial(1, 2, 2)
    for i, j in ((3, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="exponents"):
            ring.monomial(i, j, F.one)


def test_ring_elements_never_equal_a_scalar():
    # a polynomial, multipolynomial or quotient element equals only an
    # element of its own type, even where it is a constant; series still
    # compare with scalars, and of the four only Polynomial hashes
    F = GF(5)
    constants = [Polynomial(F, [F.one]),
                 MultiPoly.variable(F, ("x",), "x").one(),
                 quotient_ring_for(5, F.one, F.scalar(2)).one()]
    for elt in constants:
        assert elt == elt.one()
        for scalar in (1, F.one):
            assert (elt == scalar) is False and (scalar == elt) is False
            assert elt != scalar
    series = BiTruncSeries.constant(F, 2, 2, F.one)
    assert series == 1 and series == F.one
    for elt in constants[1:] + [series]:
        with pytest.raises(TypeError, match="unhashable"):
            hash(elt)


def test_ring_protocol_is_written_once():
    # every element type inherits the derived operations from RingElement
    # instead of writing its own
    subclasses = set(RingElement.__subclasses__())
    assert subclasses == {Polynomial, MultiPoly, BiTruncSeries,
                          QuotientElement, LinearMap}
    for cls in subclasses:
        own = {"__radd__", "__sub__", "__rsub__", "__pow__"} & \
            set(vars(cls))
        assert not own, (cls.__name__, own)


def test_quotient_inverse_dual_routes():
    """On row-0 elements the forward-substitution inverse and the p-power
    closed form must agree on every invertible element and reject the same
    non-invertible ones; on full elements quotient_inverse (the p-power
    route) must agree with the whole multiplication matrix, which is
    built for p <= 5.  Each random element is also tried times the
    nilpotent Y + (-yc)^(1/p) (X + (-xc)^(1/p) off row 0), a non-unit:
    random draws over the larger fields are almost never one."""
    cases = ((GF(3, 2), 4, 7, 40), (GF(2, 5), 9, 22, 10),
             (GF(5, 7), 1234, 56789, 4), (GF(13, 2), 31, 100, 4))
    for F, a, b, trials in cases:
        p = F.p
        rng = random.Random(5)
        ring = quotient_ring_for(p, F.from_int(a), F.from_int(b))
        lx = ring.monomial(1, 0, 1) + (-ring.xc).pth_root()
        ly = ring.monomial(0, 1, 1) + (-ring.yc).pth_root()
        routes = {"linear": (_quotient_inverse_linear,
                             _quotient_inverse_ppower)}
        if p <= 5:
            routes["full"] = (full_matrix_inverse, quotient_inverse)
        seen = {kind: [0, 0] for kind in routes}
        for _ in range(trials):
            full = ring.element([[F.random_element(rng) for _ in range(p)]
                                 for _ in range(p)])
            row0 = ring.from_y_poly(full.entries[0])
            pairs = [(row0, "linear"), (row0 * ly, "linear")]
            if "full" in routes:
                pairs += [(full, "full"), (full * lx, "full")]
            for u, kind in pairs:
                want_route, got_route = routes[kind]
                try:
                    want = want_route(u)
                except NonInvertibleError:
                    seen[kind][1] += 1
                    with pytest.raises(NonInvertibleError):
                        got_route(u)
                    continue
                seen[kind][0] += 1
                assert got_route(u) == want
                assert quotient_mul(u, want) == ring.one()
        assert all(invertible and singular
                   for invertible, singular in seen.values()), (F, seen)


@contextlib.contextmanager
def echelons_built():
    """A list with one entry per Echelon built in the body: every
    elimination of the package, a linear solve included, builds one."""
    built = []
    init = Echelon.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Echelon, "__init__", spy)
        yield built


def full_matrix_inverse(u):
    """u^(-1) by the whole p^2 x p^2 multiplication matrix, whatever the
    element: the reference for the one-block solve of row-0 elements."""
    ring = u.ring
    p = ring.p
    field = ring.one_entry.field
    cols = []
    for k in range(p):
        for l in range(p):
            prod = u * ring.monomial(k, l, ring.one_entry)
            cols.append([prod.entries[s][t] for s in range(p) for t in range(p)])
    rows = [[cols[c][r] for c in range(p * p)] for r in range(p * p)]
    rhs = [field.one] + [field.zero] * (p * p - 1)
    sol = solve(rows, rhs, field)
    if sol is None:
        raise NonInvertibleError("quotient element is not invertible")
    return ring.element([[sol[k * p + l] for l in range(p)] for k in range(p)])


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (7, 1), (7, 2), (5, 7)],
                         ids=["GF(2)", "GF(3)", "GF(7)", "GF(7^2)", "GF(5^7)"])
def test_row0_block_inverse_matches_full_matrix(p, n):
    """A row-0 element is inverted by forward substitution, with no linear
    system solved; the inverse, and the refusal of a singular element,
    agree with the whole matrix."""
    F = GF(p, n)
    rng = random.Random(100 * p + n)
    a, b = F.random_element(rng), F.random_element(rng)
    rings = [quotient_ring_for(p, a, b), quotient_ring_for(p, a, F.zero)]
    elements = [ring.from_y_poly([F.random_element(rng) for _ in range(p)])
                for ring in rings for _ in range(4)]
    # u_z of a pair with a + b in F_p^*, and Y with Y^p = 0
    singular = [_split_pair(p, a, F.one - a)[2], rings[1].monomial(0, 1, 1)]
    invertible = 0
    for u in elements + singular:
        try:
            want = full_matrix_inverse(u)
        except NonInvertibleError:
            with echelons_built() as built, \
                    pytest.raises(NonInvertibleError):
                _quotient_inverse_linear(u)
            assert not built
            continue
        assert u not in singular
        with echelons_built() as built:
            got = _quotient_inverse_linear(u)
        assert not built
        assert got == want
        invertible += 1
    assert invertible > 0


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (3, 2)],
                         ids=["GF(2)", "GF(3)", "GF(5)", "GF(3^2)"])
def test_full_inverse_matches_full_matrix(p, n):
    """An element off row 0 is inverted by quotient_inverse through the
    p-power route, with no linear solve; it agrees with the matrix of
    quotient products u X^k Y^l.  The linear route refuses it."""
    F = GF(p, n)
    rng = random.Random(10 * p + n)
    ring = quotient_ring_for(p, F.random_element(rng), F.random_element(rng))
    invertible = 0
    for _ in range(6):
        rows = [[F.random_element(rng) for _ in range(p)] for _ in range(p)]
        rows[p - 1][0] = F.one      # off row 0
        u = ring.element(rows)
        with pytest.raises(ValueError, match="row 0"):
            _quotient_inverse_linear(u)
        try:
            want = full_matrix_inverse(u)
        except NonInvertibleError:
            with echelons_built() as built, \
                    pytest.raises(NonInvertibleError):
                quotient_inverse(u)
            assert not built
            continue
        with echelons_built() as built:
            got = quotient_inverse(u)
        assert not built
        assert got == want
        invertible += 1
    assert invertible > 0


def test_quotient_inverse_dispatch():
    F = GF(3)
    ring = quotient_ring_for(3, F.one, F.one)  # a = b = 1: X^3 = 0, Y^3 = 0
    u = ring.one() + ring.monomial(1, 0, F.one)
    inv = quotient_inverse(u)
    assert quotient_mul(u, inv) == ring.one()
    with pytest.raises(NonInvertibleError):
        quotient_inverse(ring.monomial(1, 0, F.one))  # nilpotent


def test_quotient_ring_with_series_entries():
    # the entry ring used by the factor-wise coefficient tables
    F = GF(3)
    one = BiTruncSeries.constant(F, 2, 2, F.one)
    du = BiTruncSeries.shift_u(F, 2, 2)
    alpha = one + du          # unit with nilpotent part
    ring = QuotientRing(3, alpha ** 3 - alpha, one * 0)
    x = ring.monomial(1, 0, one)
    assert x ** 3 == ring.one() * (alpha ** 3 - alpha)
    u = ring.one() + x
    inv = _quotient_inverse_ppower(u)
    assert u * inv == ring.one()


def _series_ring(p, F, ua, ub, a0, b0):
    """The entry ring of the product-rule pair series: alpha = a0 + U,
    beta = b0 + V."""
    alpha = BiTruncSeries.constant(F, ua, ub, a0) \
        + BiTruncSeries.shift_u(F, ua, ub)
    beta = BiTruncSeries.constant(F, ua, ub, b0) \
        + BiTruncSeries.shift_v(F, ua, ub)
    return QuotientRing(p, alpha ** p - alpha, beta ** p - beta)


def _random_series(F, ua, ub, rng):
    return BiTruncSeries(F, ua, ub, [[F.random_element(rng)
                                      for _ in range(ub)] for _ in range(ua)])


def test_frobenius_scalar_matches_u_to_the_p():
    """u^p by quotient products is the scalar of the Frobenius formula,
    for field and series entries, and _scalar_power returns it with
    u^(p-1)."""
    rng = random.Random(11)
    cases = []
    for F in (GF(5), GF(3, 2)):
        for _ in range(6):
            ring = quotient_ring_for(F.p, F.random_element(rng),
                                     F.random_element(rng))
            cases.append((ring, F.random_element))
    F = GF(5)
    for ua in (1, 2, 3):
        for ub in (1, 2, 3):
            ring = _series_ring(5, F, ua, ub, F.random_element(rng),
                                F.random_element(rng))
            cases.append((ring, lambda r, ua=ua, ub=ub:
                          _random_series(F, ua, ub, r)))
    for ring, entry in cases:
        p = ring.p
        full = ring.element([[entry(rng) for _ in range(p)]
                             for _ in range(p)])
        # row 0 only: an element of the one-variable subring, with the
        # trailing columns zero
        row0 = ring.element([full.entries[0][:p - 1] + (ring.zero_entry,)]
                            + [[ring.zero_entry] * p] * (p - 1))
        for u in (full, row0):
            up = u ** p
            assert up.is_scalar()
            assert up.scalar_part == frobenius_scalar(u)
            upow, s = _scalar_power(u)
            assert upow == u ** (p - 1)
            assert s == up.scalar_part
            try:
                inv = _quotient_inverse_ppower(u)
            except NonInvertibleError:
                continue
            assert u * inv == ring.one()


@pytest.mark.parametrize("p,n,ua,ub", [(3, 1, 5, 7), (3, 2, 4, 3),
                                        (2, 3, 5, 2), (5, 1, 6, 11),
                                        (5, 7, 1, 1)])
def test_series_frobenius_matches_square_and_multiply(p, n, ua, ub):
    # orders above p keep the U^(pi) V^(pj) terms with i or j > 0
    F = GF(p, n)
    rng = random.Random(7 * p + ua + ub)
    for _ in range(4):
        s = _random_series(F, ua, ub, rng)
        frob = series_frobenius(s)
        assert frob == power(s, p, s.one())
        if ua > p or ub > p:
            assert any(c for i, row in enumerate(frob.coeffs)
                       for j, c in enumerate(row) if i or j)


def test_series_scaled_entry_by_entry():
    F = GF(5, 2)
    rng = random.Random(4)
    s = _random_series(F, 3, 2, rng)
    for c in (0, 3, -7, F.zero, F.one, F.random_element(rng)):
        want = s * BiTruncSeries.constant(F, 3, 2, c)   # kernel product
        assert s * c == want
        assert c * s == want
    for foreign in (GF(5).one, GF(5, 3).gen, GF(7).scalar(2)):
        with pytest.raises(ValueError, match="different field"):
            s * foreign
        with pytest.raises(ValueError, match="different field"):
            foreign * s


def test_ppower_inverse_refuses_series_scalar_without_constant_term():
    F = GF(5)
    ring = _series_ring(5, F, 3, 2, F.scalar(2), F.scalar(3))
    u = ring.monomial(1, 0, ring.one_entry)  # X; X^p = alpha^5 - alpha = -U
    s = frobenius_scalar(u)
    assert s and not s.coeffs[0][0]
    assert _scalar_power(u)[1] == s
    with pytest.raises(NonInvertibleError):
        _quotient_inverse_ppower(u)


@pytest.mark.parametrize("p", [5, 11])
def test_ppower_inverse_quotient_product_count(p, monkeypatch):
    """u^(p-1) by one left-to-right square-and-multiply, then u^p as the
    one product u * u^(p-1), then the u * inv check."""
    F = GF(p)
    rng = random.Random(p)
    ring = quotient_ring_for(p, F.scalar(2), F.scalar(3))
    while True:
        u = ring.element([[F.random_element(rng) for _ in range(p)]
                          for _ in range(p)])
        if frobenius_scalar(u):
            break
    calls = []
    original = QuotientElement.__mul__

    def counting(self, other):
        if isinstance(other, QuotientElement):
            calls.append(1)
        return original(self, other)

    monkeypatch.setattr(QuotientElement, "__mul__", counting)
    _quotient_inverse_ppower(u)
    e = p - 1
    assert len(calls) == (e.bit_length() - 1) + (bin(e).count("1") - 1) + 2
    assert len(calls) == {5: 4, 11: 6}[p]


def _symbolic_ring(p):
    """The entry ring of check_closed_form_congruence: GF(p)[alpha, beta]."""
    F = GF(p)
    vars_ = ("alpha", "beta")
    alpha = MultiPoly.variable(F, vars_, "alpha")
    beta = MultiPoly.variable(F, vars_, "beta")
    ring = QuotientRing(p, alpha ** p - alpha, beta ** p - beta)

    def entry(rng):
        return MultiPoly(F, vars_, {e: F.random_element(rng)
                                    for e in ((0, 0), (1, 0), (0, 1))})
    return ring, entry


def _field_case(p, n):
    F = GF(p, n)
    rng = random.Random(F.q)
    return (quotient_ring_for(p, F.random_element(rng),
                              F.random_element(rng)), F.random_element)


def _series_case(p, n, ua, ub):
    F = GF(p, n)
    rng = random.Random(F.q + ua * ub)
    return (_series_ring(p, F, ua, ub, F.random_element(rng),
                         F.random_element(rng)),
            lambda r: _random_series(F, ua, ub, r))


SCALAR_POWER_CASES = {
    "GF(2)": lambda: _field_case(2, 1),
    "GF(3^2)": lambda: _field_case(3, 2),
    "GF(5^7)": lambda: _field_case(5, 7),     # above the log-table cap
    # orders above p keep the U^(pi) V^(pj) terms of the entry powers
    "series-GF(3)-5x7": lambda: _series_case(3, 1, 5, 7),
    "series-GF(5)-6x11": lambda: _series_case(5, 1, 6, 11),
    "series-GF(2^3)-3x2": lambda: _series_case(2, 3, 3, 2),
    "symbolic-p2": lambda: _symbolic_ring(2),
    "symbolic-p3": lambda: _symbolic_ring(3),
}


@pytest.mark.parametrize("case", SCALAR_POWER_CASES)
def test_scalar_power_matches_frobenius_formula(case):
    """u * u^(p-1), the one route to u^p, is the scalar of the Frobenius
    formula, on full elements and on row-0 elements."""
    assert GF(5, 7).q > fields._TABLE_CAP
    ring, entry = SCALAR_POWER_CASES[case]()
    p = ring.p
    rng = random.Random(len(case))
    for _ in range(3):
        full = ring.element([[entry(rng) for _ in range(p)]
                             for _ in range(p)])
        row0 = ring.from_y_poly(full.entries[0])
        for u in (full, row0):
            upow, s = _scalar_power(u)
            assert s == frobenius_scalar(u)
            assert u * upow == ring.monomial(0, 0, s)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (3, 2)],
                         ids=["GF(2)", "GF(3)", "GF(5)", "GF(3^2)"])
def test_quotient_inverse_refuses_singular_off_row0_elements(p, n):
    """Off row 0, quotient_inverse (the p-power route, no linear solve)
    refuses the elements that the whole multiplication matrix finds
    singular."""
    F = GF(p, n)
    rng = random.Random(p * n)
    ring = quotient_ring_for(p, F.random_element(rng), F.random_element(rng))
    # (X + lam)^p = xc + lam^p = 0 for lam the p-th root of -xc; so for Y
    lx = ring.monomial(1, 0, 1) + (-ring.xc).pth_root()
    ly = ring.monomial(0, 1, 1) + (-ring.yc).pth_root()
    singular = [lx, lx * ly, lx * ring.monomial(0, 1, 1)]
    for _ in range(3):
        w = ring.element([[F.random_element(rng) for _ in range(p)]
                          for _ in range(p)])
        singular.append(w * lx)
    for u in singular:
        assert any(any(row) for row in u.entries[1:])
        with pytest.raises(NonInvertibleError):
            full_matrix_inverse(u)
        with echelons_built() as built, pytest.raises(NonInvertibleError):
            quotient_inverse(u)
        assert not built


def test_product_kernel_is_freed_with_its_ring():
    """A ring's packed-int kernel lives on the ring: once the ring and its
    elements are gone, so is the kernel (no cache outside the ring keeps
    every pair-series ring alive)."""
    F = GF(5)
    refs = []
    for xc, yc in ((F.scalar(2), F.scalar(3)),
                   (BiTruncSeries(F, 2, 3, [[1, 2], [3]]),
                    BiTruncSeries.shift_v(F, 2, 3))):
        ring = QuotientRing(5, xc, yc)
        u = ring.from_x_poly([1, 2, 3]) + ring.from_y_poly([0, 4])
        v = quotient_mul(u, u)
        assert v == u * u
        refs.append(weakref.ref(ring._kernel))
        del ring, u, v
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_outer_product_pads_and_refuses_degree_p():
    """Short coefficient lists are padded with zero_entry; p or more
    coefficients are refused, since X^p or Y^p would need a fold."""
    F = GF(5)
    ring = QuotientRing(5, F.scalar(2), F.scalar(3))
    xs, ys = [F.scalar(1), F.zero, F.scalar(4)], [F.scalar(2), F.scalar(3)]
    got = ring.outer_product(xs, ys)
    assert got == quotient_mul(ring.from_x_poly(xs), ring.from_y_poly(ys))
    assert got.entries[1] == (ring.zero_entry,) * 5
    assert got.entries[0][1] == F.scalar(3) and got.entries[2][0] == F.scalar(3)
    assert ring.outer_product([], ys).entries == ((ring.zero_entry,) * 5,) * 5
    with pytest.raises(ValueError):
        ring.outer_product([F.one] * 6, ys)
    with pytest.raises(ValueError):
        ring.outer_product(xs, [F.one] * 6)
