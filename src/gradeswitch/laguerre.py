"""Generalized Laguerre polynomials in characteristic p.

For n < p the polynomial

    L_n^(alpha)(X) = sum_{k=0}^{n} binom(alpha + n, n - k) (-X)^k / k!

makes sense over any field of characteristic p and any alpha (a field
element, another polynomial, or an operator).  The degree used everywhere
below defaults to n = p - 1, where L specializes at alpha = 0 to the
truncated exponential E(X) = sum_{k<p} X^k / k!.

This module provides one evaluator, :func:`laguerre_value`, for L at
commuting ring values (symbols, polynomials, series, operators), the
standard identity suite relating L at neighbouring alpha values, the three
factored forms of L_{p-1}^(Z^p)(Z^p - Z), and the coefficient tables
c'_{ij} that split a product of two Laguerre operator values over the
bivariate quotient ring R[X,Y]/(X^p - (a^p - a), Y^p - (b^p - b)): a
table's result is its p admissible coefficients c_0, ..., c_(p-1), with
their closed form checked over GF(p)[alpha, beta].
"""

import functools
import math
import operator
from dataclasses import dataclass

from .fields import GF
from .polyring import (MultiPoly, Polynomial, QuotientRing, quotient_inverse,
                       quotient_mul, quotient_mul_cells)


class VerificationError(RuntimeError):
    """A conclusion the theory guarantees failed to check out; this means a
    defect in the implementation (or its caller), not bad input."""


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@functools.lru_cache(maxsize=None)
def inverse_factorials(field):
    """(1/0!, 1/1!, ..., 1/(p-1)!) in the given field."""
    p = field.p
    out = [field.one]
    fact = field.one
    for k in range(1, p):
        fact = fact * k
        out.append(fact.inverse())
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _laguerre_scalars(field, n):
    """((-1)^k / (k! (n - k)!) for k = 0..n) in the given field: the
    scalar of the falling factorial in the X^k coefficient of
    L_n^(alpha)(X)."""
    inv = inverse_factorials(field)
    return tuple(-c if k % 2 else c
                 for k, c in enumerate(map(operator.mul, inv[n::-1], inv)))


def _check_p(p, field):
    if field.p != p:
        raise ValueError("field has characteristic %d, expected %d"
                         % (field.p, p))


def _falling_factorials(p, alpha, n):
    """(field, n, F) for L_n^(alpha), n defaulting to p - 1: F[m] is the
    falling factorial (alpha + n) (alpha + n - 1) ... (alpha + n - m + 1)
    for m = 0..n, in alpha's ring, the X^k coefficient of L_n^(alpha)(X)
    being F[n - k] times _laguerre_scalars(field, n)[k].  The list costs
    n - 1 ring products (none for n = 0)."""
    field = getattr(alpha, "field", None)
    if field is None:
        raise TypeError("cannot infer a base field from %r" % (alpha,))
    _check_p(p, field)
    if n is None:
        n = p - 1
    if not 0 <= n < p:
        raise ValueError("degree must satisfy 0 <= n < p")
    t = alpha + n
    falling = [t ** 0, t]
    for i in range(1, n):
        falling.append(falling[-1] * (t - i))
    return field, n, falling


def laguerre_coeffs(p, alpha, n=None):
    """The X^k coefficients (k = 0..n) of L_n^(alpha)(X), in alpha's ring.

    The X^k coefficient is binom(alpha + n, n - k) (-1)^k / k!: the
    falling factorial (alpha + n) (alpha + n - 1) ... (alpha + k + 1) of
    :func:`_falling_factorials` (n - 1 ring products for the whole list)
    times the field's cached (-1)^k / (k! (n - k)!), n + 1 scalar
    multiplies.  alpha may be a field element or any ring value that
    mixes with field scalars: a Polynomial or MultiPoly (symbolic alpha),
    a BiTruncSeries or a LinearMap (operator alpha).
    """
    field, n, falling = _falling_factorials(p, alpha, n)
    return tuple(map(operator.mul, falling[n::-1],
                     _laguerre_scalars(field, n)))


def laguerre_at(p, alpha, n=None):
    """L_n^(alpha)(X) as a univariate Polynomial over alpha's field."""
    if isinstance(alpha, int):
        alpha = GF(p).scalar(alpha)
    return Polynomial(alpha.field, laguerre_coeffs(p, alpha, n))


def laguerre_value(p, alpha, x, n=None):
    """L_n^(alpha)(x) for commuting ring values alpha and x.

    Horner's rule in x over the falling factorials F_m of alpha + n
    (:func:`_falling_factorials`) and the cached scalars s_k of
    :func:`_laguerre_scalars`: each step is acc.mul_add(x, F_(n-k), s_k)
    = acc x + s_k F_(n-k), which a LinearMap makes in one pass over its
    rows and every other ring value as a product, a scalar multiple and
    a sum.  So n ring products beyond the n - 1 of the falling
    factorials.  alpha and x may be field elements, Polynomials,
    MultiPolys over one variable tuple, BiTruncSeries or LinearMaps (x may
    also be an operator with alpha a field scalar); for n = 0 the value is
    the one of alpha's ring.
    """
    field, n, falling = _falling_factorials(p, alpha, n)
    scalars = _laguerre_scalars(field, n)
    acc = falling[0] * scalars[n]
    for k in range(n - 1, -1, -1):
        acc = acc.mul_add(x, falling[n - k], scalars[k])
    return acc


def _symbols(p):
    """alpha and X as MultiPoly variables over GF(p)."""
    field = GF(p)
    vars_ = ("alpha", "X")
    return (MultiPoly.variable(field, vars_, "alpha"),
            MultiPoly.variable(field, vars_, "X"))


def truncated_exp(p, field=None):
    """E(X) = sum_{k<p} X^k / k! = L_{p-1}^(0)(X)."""
    field = field or GF(p)
    return Polynomial(field, inverse_factorials(field))


# ---------------------------------------------------------------------------
# identity suite


def _dx(f):
    """Partial derivative in X."""
    out = {}
    i = f.vars.index("X")
    for e, c in f.terms.items():
        if e[i]:
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            nc = c * e[i]
            if nc:
                out[ne] = out.get(ne, f.field.zero) + nc
    return MultiPoly(f.field, f.vars, out)


IDENTITY_NAMES = ("step", "three_term", "derivative", "low_terms",
                  "p_power", "euler", "exp_diff")


def _check_identity(name, p, values):
    """The report of one identity of the suite (see
    :func:`check_all_identities`), with `values` as the map (n, shift) ->
    L_n^(alpha + shift)(X), filled by :func:`laguerre_value` on first use."""
    alpha, x = _symbols(p)

    def lag(n, shift=0):
        """L_n^(alpha + shift)(X)."""
        if (n, shift) not in values:
            values[n, shift] = laguerre_value(p, alpha + shift, x, n)
        return values[n, shift]

    def report(ok, detail=""):
        return CheckReport("%s[p=%d]" % (name, p), ok, detail)

    if name == "step":
        for n in range(1, p):
            diff = lag(n) - (lag(n, 1) - lag(n - 1, 1))
            if diff:
                return report(False, "fails at n=%d: %s" % (n, diff))
        return report(True, "n = 1..%d" % (p - 1))

    if name == "three_term":
        for n in range(1, p):
            lhs = n * lag(n, 1)
            rhs = (n - x) * lag(n - 1, 1) + (n + alpha) * lag(n - 1)
            if lhs - rhs:
                return report(False, "fails at n=%d" % n)
        return report(True, "n = 1..%d" % (p - 1))

    if name == "derivative":
        for n in range(1, p):
            d = _dx(lag(n))
            if d + lag(n - 1, 1):
                return report(False, "product form fails at n=%d" % n)
            if d - (lag(n) - lag(n, 1)):
                return report(False, "difference form fails at n=%d" % n)
        return report(True, "both forms, n = 1..%d" % (p - 1))

    if name == "low_terms":
        # multiply through by prod_{j=1}^{p-1} (alpha + j), which equals
        # alpha^(p-1) - 1, to clear the rising-product denominators
        clear = alpha ** 0
        for j in range(1, p):
            clear = clear * (alpha + j)
        if clear - (alpha ** (p - 1) - 1):
            return report(False, "clearing factor != alpha^(p-1) - 1")
        lhs = lag(p - 1) * clear
        rhs = (1 - alpha ** (p - 1)) * descending_form(p, alpha, x)
        return report(not (lhs - rhs), "cleared by alpha^(p-1) - 1")

    if name == "p_power":
        lhs = x ** p - (alpha ** p - alpha)
        rhs = -(x * lag(p - 1, 1)) + alpha * lag(p - 1)
        return report(not (lhs - rhs))

    if name == "euler":
        lp = lag(p - 1)
        lhs = x * _dx(lp)
        rhs = (x - alpha) * lp + x ** p - (alpha ** p - alpha)
        return report(not (lhs - rhs))

    if name == "exp_diff":
        e = truncated_exp(p)
        z = Polynomial.variable(e.field)
        return report(z * e.derivative() == z * e + z ** p)

    raise ValueError("unknown identity %r" % name)


def check_all_identities(p):
    """The reports of every identity in IDENTITY_NAMES, in that order:

    step        L_n^(a) = L_n^(a+1) - L_{n-1}^(a+1)                (all n < p)
    three_term  n L_n^(a+1) = (n - X) L_{n-1}^(a+1) + (n + a) L_{n-1}^(a)
    derivative  d/dX L_n^(a) = -L_{n-1}^(a+1) = L_n^(a) - L_n^(a+1)
    low_terms   denominator-cleared expansion of L_{p-1}^(a) in rising
                products (a+1)...(a+k)
    p_power     X^p - (a^p - a) = -X L_{p-1}^(a+1) + a L_{p-1}^(a)
    euler       X dL/dX = (X - a) L + X^p - (a^p - a),  L = L_{p-1}^(a)
    exp_diff    X E'(X) = X E(X) + X^p

    The checks share one map of Laguerre values for this call, so each
    L_n^(alpha + shift)(X) is built once (at most 2p values, shift 0 or 1)
    rather than once per use; nothing is kept after the call.
    """
    values = {}
    return [_check_identity(name, p, values) for name in IDENTITY_NAMES]


# ---------------------------------------------------------------------------
# the three factored forms of L_{p-1}^(Z^p)(Z^p - Z)


def lemma_eval(p):
    """L_{p-1}^(Z^p)(Z^p - Z) as a univariate Polynomial in Z over GF(p)."""
    z = Polynomial.variable(GF(p))
    return laguerre_value(p, z ** p, z ** p - z)


def lemma_product(p):
    """prod_{i=1}^{p-1} (1 + Z/i)^i over GF(p)."""
    return scalar_product_form(p, Polynomial.variable(GF(p)))


def lemma_binomial(p):
    """(-1)^(p(p-1)/2) prod_{j=1}^{p-1} binom(Z - 1, j) over GF(p)."""
    field = GF(p)
    z = Polynomial.variable(field)
    acc = Polynomial(field, [field.scalar((-1) ** (p * (p - 1) // 2))])
    binom = acc.one()           # binom(Z - 1, j), one factor at a time
    for j in range(1, p):
        binom = binom * (z - j) * field.scalar(j).inverse()
        acc = acc * binom
    return acc


def check_lemma_forms(p):
    """All three closed forms agree, with the expected degree, constant
    term 1, and a root of multiplicity i at Z = -i for each i in F_p^*."""
    f = lemma_eval(p)
    checks = [f == lemma_product(p), f == lemma_binomial(p),
              f.degree() == p * (p - 1) // 2,
              bool(f[0] == f.field.one)]
    checks += [f.multiplicity(-f.field.scalar(i))[0] == i
               for i in range(1, p)]
    return CheckReport("factored_forms[p=%d]" % p, all(checks),
                       "eval == product == signed-binomial, degree %d"
                       % (p * (p - 1) // 2))


def check_lemma_product_identity(p):
    """L^(Z^p)(Z^p - Z) * L^(-Z^p)(-Z^p + Z) == 1 - Z^(p(p-1))."""
    z = Polynomial.variable(GF(p))
    f2 = laguerre_value(p, -(z ** p), z - z ** p)
    return CheckReport("product_identity[p=%d]" % p,
                       lemma_eval(p) * f2 == 1 - z ** (p * (p - 1)),
                       "degree %d" % (p * (p - 1)))


def scalar_product_form(p, x):
    """prod_{i=1}^{p-1} (1 + x/i)^i for a field element or a polynomial x.

    This is the value L_{p-1}^(x^p)(x^p - x); at a field element it
    vanishes exactly when x is in F_p^*.
    """
    field = x.field
    _check_p(p, field)
    acc = x ** 0
    for i in range(1, p):
        acc = acc * (1 + field.scalar(i).inverse() * x) ** i
    return acc


# ---------------------------------------------------------------------------
# coefficient tables c'_{ij}


def in_prime_star(x):
    """True iff x lies in F_p^* (the only non-admissible sums a + b)."""
    return bool(x) and x ** (x.field.p - 1) == x.field.one


def _laguerre_xy_quotient(ring, coeff_values, p):
    """sum_k coeff_values[k] (X+Y)^k in `ring`: each (X+Y)^k spread by
    integer binomials.  This is the image of a polynomial in Z under
    Z -> X + Y, such as L at X + Y or an inverse taken in the Z subring."""
    items = []
    for k, c in enumerate(coeff_values):
        for i in range(k + 1):
            items.append(((i, k - i), c * math.comb(k, i)))
    return ring.from_exponents(items)


@functools.lru_cache(maxsize=None)
def _admissible_cells(p):
    """The cells (0, 0) and (i, p - i), 0 < i < p, of a coefficient table:
    the only (i, j) with 0 <= i, j < p and p dividing i + j."""
    return ((0, 0),) + tuple((i, p - i) for i in range(1, p))


def _split_pair(p, a, b):
    """(u, v, u_z) for a and b from one commutative ring R of
    characteristic p.

    v = L^(a)(X) L^(b)(Y) and u = L^(a+b)(X+Y) live in the quotient ring
    R[X,Y]/(X^p - xc, Y^p - yc), xc = a^p - a and yc = b^p - b; v has
    degree below p in X and in Y, so it is the outer product of the two
    coefficient lists, with no quotient product.  Since
    (X+Y)^p = X^p + Y^p = xc + yc, the map Z -> X + Y embeds the
    one-variable ring R[Z]/(Z^p - (xc + yc)) there, and u is the image of
    u_z = L^(a+b)(Z).  u_z sits on the Y axis (row 0) of
    QuotientRing(p, xc + yc, xc + yc); its powers and its inverse stay on
    row 0 and spread back by :func:`_laguerre_xy_quotient`.  The verified
    tables invert u_z (over a field, in the local ring
    F[Z]/((Z - c^(1/p))^p), c = xc + yc, by forward substitution);
    :func:`check_closed_form_congruence` needs u and v alone.
    """
    xc, yc = a ** p - a, b ** p - b
    ring = QuotientRing(p, xc, yc)
    v = ring.outer_product(laguerre_coeffs(p, a), laguerre_coeffs(p, b))
    l_ab = laguerre_coeffs(p, a + b)
    u = _laguerre_xy_quotient(ring, l_ab, p)
    u_z = QuotientRing(p, xc + yc, xc + yc).from_y_poly(l_ab)
    return u, v, u_z


def coefficient_table(p, a, b):
    """(c_0, ..., c_(p-1)): the p admissible coefficients of the verified
    table v * u^(-1) of :func:`_split_pair`, read at _admissible_cells(p).

    a and b come from one commutative ring of characteristic p: field
    elements, or truncated series for the product rule.  u is inverted in
    the Z subring: :func:`quotient_inverse` inverts the p-entry u_z, which
    lies on row 0 (for field entries by forward substitution in the
    local ring F[Z]/(Z^p - c) = F[W]/(W^p), W = Z - c^(1/p), where u_z
    is a unit exactly when u_z(c^(1/p)) is nonzero; for series by the
    p-power closed form u^(p-1) (u^p)^(-1)), and raises
    NonInvertibleError when it has no inverse, which is exactly when u
    has none.  The inverse w(Z) is spread to w(X+Y).

    The table T holds the admissible cells of v * w(X+Y), read from the
    packed product by :func:`quotient_mul_cells`; every other entry is
    ring.zero_entry.  One check over all p^2 cells, u * T == v, then
    proves the whole table.  quotient_inverse has verified u_z w_z == 1,
    and Z -> X + Y is a ring map, since (X+Y)^p = xc + yc, so
    u w(X+Y) == 1 and u is a unit.  u * T == v thus gives T = v u^(-1):
    the admissible cells are right, and c'_{ij} = 0 for p not dividing
    i + j, which T holds by construction.  A table that fails the check
    raises VerificationError.
    """
    u, v, u_z = _split_pair(p, a, b)
    w = _laguerre_xy_quotient(u.ring, quotient_inverse(u_z).entries[0], p)
    cells = _admissible_cells(p)
    table = quotient_mul_cells(v, w, cells)
    if quotient_mul(u, table) != v:
        raise VerificationError("coefficient table reconstruction failed: "
                                "u * table != v")
    return tuple(table.entries[i][j] for i, j in cells)


def c_coefficients(p, a, b):
    """The p coefficients of :func:`coefficient_table` for field elements
    a, b with a + b not in F_p^*.

    Raises NonInvertibleError when L^(a+b)(X+Y) is not invertible, which
    happens exactly on the excluded locus.
    """
    if isinstance(a, int):
        a = GF(p).scalar(a)
    if isinstance(b, int):
        b = GF(p).scalar(b)
    if a.field is not b.field:
        raise ValueError("a and b must come from one field")
    return coefficient_table(p, a, b)


def zero_pair_closed_form(p, field=None):
    """Expected c-values at a = b = 0: c0 = 1 and c_i = (-1)^i / i."""
    field = field or GF(p)
    vals = [field.one]
    for i in range(1, p):
        vals.append(field.scalar((-1) ** i) / i)
    return tuple(vals)


def closed_form_numerators(p, alpha, beta):
    """[c_i den for i < p], den = (alpha+beta)^(p-1) - 1, for alpha and beta
    from one commutative ring of characteristic p: with T_j(x) =
    prod_{k=j+1}^{p-1} (x + k), so T_0(x) = x^(p-1) - 1, c_0 den =
    -T_0(alpha) T_0(beta) and c_i den = -T_i(alpha) T_(p-i)(beta)."""
    def tails(x):   # [T_0(x), ..., T_(p-1)(x)], built from the right
        out = [x ** 0]
        for k in range(p - 1, 0, -1):
            out.append(out[-1] * (x + k))
        return out[::-1]
    ta, tb = tails(alpha), tails(beta)
    return [-(ta[i] * tb[-i % p]) for i in range(p)]


def check_closed_form_congruence(p):
    """u * N == ((alpha+beta)^(p-1) - 1) v over GF(p)[alpha, beta], with
    (u, v) of :func:`_split_pair` and N the closed_form_numerators on the
    admissible cells.  u^p is a nonzero scalar (scalar_product_form at
    alpha + beta), so this proves c_i = N_i / den at every admissible
    (a, b), and c'_{ij} = 0 for p not dividing i + j."""
    field = GF(p)
    alpha, beta = (MultiPoly.variable(field, ("alpha", "beta"), name)
                   for name in ("alpha", "beta"))
    u, v, _ = _split_pair(p, alpha, beta)
    table = u.ring.from_exponents(
        zip(_admissible_cells(p), closed_form_numerators(p, alpha, beta)))
    return CheckReport("closed_form_congruence[p=%d]" % p,
                       u * table == v * ((alpha + beta) ** (p - 1) - 1),
                       "c_i = N_i / ((alpha+beta)^(p-1) - 1), zero off "
                       "the admissible cells")


# ---------------------------------------------------------------------------
# the toral-switching operator form


def descending_form(p, alpha, x):
    """sum_{i<p} (prod_{k=i+1}^{p-1} (alpha + k)) x^i for commuting ring
    values alpha and x of characteristic p.

    Horner's rule in x with the products built from the right takes
    2(p - 1) ring products.  The negative of this sum is L_{p-1}^(alpha)(x);
    it shares no code with :func:`laguerre_coeffs`, so each checks the other.
    """
    acc = tail = alpha ** 0
    for i in range(p - 2, -1, -1):
        tail = tail * (alpha + (i + 1))
        acc = acc * x + tail
    return acc


def strade_operator_form_check(p):
    """-sum_{i<p} (prod_{k=i+1}^{p-1} (alpha + k)) X^i == L_{p-1}^(alpha)(X).

    This identifies the classical switching operator (descending products of
    ad-translates) with the Laguerre value used everywhere in this package.
    """
    alpha, x = _symbols(p)
    diff = -descending_form(p, alpha, x) - laguerre_value(p, alpha, x)
    return CheckReport("operator_form[p=%d]" % p, not diff,
                       "descending-product form equals Laguerre value")
