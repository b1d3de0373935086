"""Polynomial rings over the finite fields of :mod:`gradeswitch.fields`.

Three element flavours over a field F:

 * :class:`Polynomial`    — dense univariate,
 * :class:`MultiPoly`     — sparse multivariate (exponent tuple -> coefficient),
 * :class:`BiTruncSeries` — power series F[U,V]/(U^a, V^b) in two nilpotents,

plus :class:`QuotientRing`, the bivariate quotient R[X,Y]/(X^p - xc, Y^p - yc)
in which product-splitting coefficient tables are computed.  Quotient entries
may be field elements, multivariate polynomials (symbolic runs) or truncated
series (operator runs); all flavours share one small protocol: ring ops,
int and field-scalar mixing, ``** k`` for k >= 0 with ``x ** 0`` the ring
one, and truthiness as a nonzero test.  Truthiness scans every
coefficient, so hot loops test a zero by identity first, against the
object their kernel returns for zero (the field's ``zero``, which field
arithmetic below the log/exp table cap returns too, or a quotient ring's
``zero_entry``), and call truthiness only for other objects.

Every flavour, quotient elements and :class:`gradeswitch.galg.LinearMap`
included, derives from :class:`RingElement`.  A subclass writes ``+``,
unary ``-``, ``*`` and ``one()``; the base derives reflected ``+``, both
subtractions, ``** k`` and the Horner step ``a.mul_add(x, c, s)`` =
``a x + c s`` from them, and a LinearMap fuses that step into one pass.
"""

import functools
import math
import operator

from .fields import FqElement, _as_field_elt, embedding, power

_COEFFS = operator.attrgetter("coeffs")
_ADD = operator.add


class NonInvertibleError(ValueError):
    """Raised when a quotient-ring element has no inverse."""


class RingElement:
    """The ring protocol written once, on a subclass's own ``__add__``,
    ``__neg__``, ``__mul__`` and ``one()``: ``k + a``, ``a - b``,
    ``k - a``, ``a ** e`` for an int e >= 0 (``a ** 0`` is ``a.one()``)
    and the Horner step ``a.mul_add(x, c, s)`` = ``a x + c s``.  Operands
    that ``__add__`` refuses stay refused (NotImplemented)."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return power(self, e, None) if e else self.one()

    def mul_add(self, x, c, s):
        return self * x + c * s


def _row_kernel(field, length, count):
    """field.row_kernel with `length` and `count` rounded up to powers of
    two, so that polynomials of every degree share a few kernels."""
    return field.row_kernel(1 << (length - 1).bit_length(),
                            1 << (count - 1).bit_length())


class Polynomial(RingElement):
    """Dense univariate polynomial over an FqField.

    The zero polynomial has empty coeffs and degree -1.  Products run on
    the field's row kernel: coefficient k of a polynomial packs into block
    k of one wide int, so a product is one int product and one unpack.
    """

    __slots__ = ("field", "coeffs", "_rows")

    def __init__(self, field, coeffs):
        cs = [_as_field_elt(field, c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self._rows = None

    @classmethod
    def _trusted(cls, field, coeffs):
        """The polynomial with `coeffs`, a tuple of elements of `field`
        whose last is nonzero, unchecked."""
        f = object.__new__(cls)
        f.field = field
        f.coeffs = coeffs
        f._rows = None
        return f

    @classmethod
    def variable(cls, field):
        return cls(field, [field.zero, field.one])

    # -- basic queries -------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field is not self.field:
                raise ValueError("polynomials over different fields")
            return other
        if isinstance(other, (int, FqElement)):
            return Polynomial(self.field, [_as_field_elt(self.field, other)])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def one(self):
        return Polynomial(self.field, [self.field.one])

    def __mul__(self, other):
        if isinstance(other, (int, FqElement)):
            # a scalar multiple costs one element product per coefficient
            s = _as_field_elt(self.field, other)
            return Polynomial._trusted(self.field, tuple(
                [c * s for c in self.coeffs]) if s else ())
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Polynomial._trusted(self.field, ())
        # block k of the int product sums a_i b_j over i + j = k: at most
        # min(len a, len b) products of two packed elements
        count = len(a) + len(b) - 1
        pack, widen, unpack, _ = _row_kernel(self.field, min(len(a), len(b)),
                                             count)
        wa = widen(map(pack, map(_COEFFS, a)))
        wb = wa if b is a else widen(map(pack, map(_COEFFS, b)))
        return Polynomial._trusted(self.field, unpack(wa * wb)[:count])

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Long division.  Coefficient k of the remainder is read once, when
        the loop reaches it, and cancelled by the quotient's coefficient
        k - d, so it is never written back; a monic divisor is not scaled
        by its leading inverse.  Dividing by T + c thus costs one product
        and one sum per coefficient."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        d = o.degree()
        low = o.coeffs[:-1]
        lead = o.coeffs[-1]
        inv = None if lead == field.one else lead.inverse()
        quo = [field.zero] * max(len(rem) - d, 0)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                f = c if inv is None else c * inv
                quo[k - d] = f
                for j, b in enumerate(low, k - d):
                    rem[j] = rem[j] - f * b
        del rem[d:]
        while rem and not rem[-1]:
            rem.pop()
        return (Polynomial._trusted(field, tuple(quo)),
                Polynomial._trusted(field, tuple(rem)))

    def __floordiv__(self, other):
        r = divmod(self, other)
        return NotImplemented if r is NotImplemented else r[0]

    def __mod__(self, other):
        r = divmod(self, other)
        return NotImplemented if r is NotImplemented else r[1]

    def pow_mod(self, e, m):
        """self**e mod m for an int e >= 0 (e may be huge), by
        square-and-multiply on the row kernel.  Everything is 0 modulo a
        constant m.

        A residue is one wide int, coefficient k in block k.  A product of
        two residues is one int product, unpacked to its 2d - 1
        coefficients c_k (d = deg m) and reduced by one sum of the packed
        c_k times the wide rows of X^k mod m; a second unpack gives the
        residue.
        """
        base = self % m
        m = self._coerce(m)
        d = m.degree()
        if d == 0:
            # base is zero, and so is every power of it, the 0th included
            return power(base, e, base)
        field = self.field
        pack, widen, unpack, _ = _row_kernel(field, d, 2 * d - 1)
        rpack, _, runpack, _ = _row_kernel(field, 2 * d - 1, d)
        rows = m._reduction_rows()
        mul = operator.mul

        def mulmod(a, b):
            prod = map(rpack, map(_COEFFS, unpack(a * b)))
            residue = runpack(sum(map(mul, prod, rows)))
            return widen(map(pack, map(_COEFFS, residue)))

        wide = widen(map(pack, map(_COEFFS, base.coeffs)))
        return Polynomial(field, unpack(power(wide, e, 1, mulmod))[:d])

    def _reduction_rows(self):
        """The wide rows of X^k mod self for k < 2d - 1 (d = deg self >= 1)
        in the layout of ``_row_kernel(field, 2d - 1, d)``; built once per
        modulus."""
        if self._rows is None:
            field, d = self.field, self.degree()
            pack, widen, _, _ = _row_kernel(field, 2 * d - 1, d)
            inv = self.leading().inverse()
            tail = [-c * inv for c in self.coeffs[:-1]]  # X^d mod self
            zero = field.zero
            row = [field.one] + [zero] * (d - 1)
            rows = []
            for _ in range(2 * d - 1):
                rows.append(widen(map(pack, map(_COEFFS, row))))
                top, row = row[-1], [zero] + row[:-1]
                if top:
                    row = [x + top * t for x, t in zip(row, tail)]
            self._rows = tuple(rows)
        return self._rows

    def gcd(self, other):
        a, b = self, self._coerce(other)
        if b is None:
            raise TypeError("no gcd of a polynomial and %s"
                            % type(other).__name__)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def embed_to(self, field):
        """self over `field` by the canonical embedding: self itself on
        its own field, so its reduction rows serve both."""
        if field is self.field:
            return self
        emb = embedding(self.field, field)
        return Polynomial(field, [emb(c) for c in self.coeffs])

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        inv = self.leading().inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def multiplicity(self, root):
        """(mu, q) with self = (T - root)^mu q and q(root) != 0, by
        dividing T - root out while it divides.  The zero polynomial
        raises ValueError."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no root multiplicity")
        lin = Polynomial(self.field, [-root, self.field.one])
        mu, q = 0, self
        while True:
            quo, rem = divmod(q, lin)
            if rem:
                return mu, q
            mu, q = mu + 1, quo

    def derivative(self):
        return Polynomial(self.field,
                          [i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Horner from the leading coefficient over the nonzero
        coefficients only; x may be a field element or any ring value that
        mixes with field scalars (matrix, series, multipolynomial).

        Each gap g between two nonzero exponents (and from the lowest one
        down to 0) is one x ** g by square-and-multiply, so zero
        coefficients cost no product and no sum: T^25 takes 6 products,
        and a dense f of degree d the d - 1 of plain Horner.
        """
        cs = self.coeffs
        if len(cs) < 2:
            return (x ** 0) * (cs[0] if cs else self.field.zero)
        # the nonzero exponents below the degree, from the top, then 0
        lower = [i for i in range(len(cs) - 2, 0, -1) if cs[i]] + [0]
        step = x ** (len(cs) - 1 - lower[0])
        # the leading term, sparing the product by `one` of monic f
        acc = step if cs[-1] == self.field.one else step * cs[-1]
        for hi, lo in zip(lower, lower[1:]):
            acc = (acc + cs[hi]) * x ** (hi - lo)
        return acc + cs[0] if cs[0] else acc

    def squarefree_part(self):
        """The product of the distinct monic irreducible factors of self:
        the polynomial 1 for a nonzero constant.  The zero polynomial
        raises ValueError."""
        if self.degree() <= 0:
            if self.is_zero():
                raise ValueError("the zero polynomial has no squarefree part")
            return self.one()
        d = self.derivative()
        if d.is_zero():
            # self = g(T^p) = (g twisted by p-th roots)^p
            root = [c.pth_root() for c in self.coeffs[::self.field.p]]
            return Polynomial(self.field, root).squarefree_part()
        g = self.gcd(d)
        if g.degree() == 0:
            return self.monic()
        # gcd(f, f') holds a factor P^e of f as P^(e-1) when p does not
        # divide e, as P^e when it does: f / gcd(f, f') is the product of
        # the first kind, and gcd(f, f') without them a p-th power
        s = self // g
        c = g.gcd(s)
        while c.degree() > 0:
            g = g // c
            c = g.gcd(c)
        if g.degree() > 0:
            s = s * g.squarefree_part()
        return s.monic()

    def squarefree_is(self):
        """True iff self has no repeated roots: its squarefree part keeps
        its degree.  The zero polynomial raises ValueError."""
        return self.squarefree_part().degree() == self.degree()

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))


class MultiPoly(RingElement):
    """Sparse multivariate polynomial; terms map exponent tuples to nonzero
    coefficients.  Binary operations require identical variable tuples."""

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field, vars_, terms):
        self.field = field
        self.vars = tuple(vars_)
        clean = {}
        for exps, c in terms.items():
            c = _as_field_elt(field, c)
            if c:
                if len(exps) != len(self.vars):
                    raise ValueError("exponent tuple of wrong length")
                clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, field, vars_, terms):
        """The polynomial with `terms`, a dict from exponent tuples of
        length len(vars_) (a tuple) to nonzero elements of `field`,
        unchecked.  Ring operations on checked operands build their results
        here."""
        f = object.__new__(cls)
        f.field = field
        f.vars = vars_
        f.terms = terms
        return f

    @classmethod
    def constant(cls, field, vars_, c):
        return cls(field, vars_, {(0,) * len(vars_): _as_field_elt(field, c)})

    @classmethod
    def variable(cls, field, vars_, name):
        i = tuple(vars_).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars_)))
        return cls(field, vars_, {e: field.one})

    # -- queries ---------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    # -- ring structure ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.field is not self.field or other.vars != self.vars:
                raise ValueError("multipolynomials over different rings")
            return other
        if isinstance(other, (int, FqElement)):
            c = _as_field_elt(self.field, other)
            return MultiPoly._trusted(self.field, self.vars,
                                      {(0,) * len(self.vars): c} if c else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly._trusted(self.field, self.vars, out)

    def __neg__(self):
        return MultiPoly._trusted(self.field, self.vars,
                                  {e: -c for e, c in self.terms.items()})

    def one(self):
        return MultiPoly.constant(self.field, self.vars, 1)

    def __mul__(self, other):
        """Schoolbook product, the factor with fewer terms outside.  Its
        first term times the other factor gives distinct exponents and
        nonzero coefficients (F has no zero divisors), so that row is
        stored with no lookup; only the later rows add up.  A one-term
        factor (a monomial, a scalar) thus costs one entry product and one
        store per term of the other."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        small, big = self.terms, o.terms
        if len(small) > len(big):
            small, big = big, small
        if not small:
            return MultiPoly._trusted(self.field, self.vars, {})
        rows = iter(small.items())
        e1, c1 = next(rows)
        out = {tuple(map(_ADD, e1, e2)): c1 * c2 for e2, c2 in big.items()}
        for e1, c1 in rows:
            for e2, c2 in big.items():
                e = tuple(map(_ADD, e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
        return MultiPoly._trusted(self.field, self.vars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.field is other.field and self.vars == other.vars
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # graded-lex order: total degree, then exponents
        for exps, c in sorted(self.terms.items(),
                              key=lambda t: (sum(t[0]), t[0])):
            factors = []
            cs = str(c)
            if cs != "1" or not any(exps):
                factors.append("(%s)" % cs if "+" in cs else cs)
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e:
                    factors.append("%s^%d" % (v, e))
            parts.append("*".join(factors))
        return " + ".join(parts)


class BiTruncSeries(RingElement):
    """Element of F[U,V]/(U^ua, V^ub): series in two commuting nilpotents,
    truncated independently in each variable.  Coefficient [i][j] multiplies
    U^i V^j.  A product is one int multiply on the field's packed series
    kernel (:meth:`gradeswitch.fields.FqField.series_kernel`).

    At order (1, 1) the ring is F itself: a sum, a product, a negation or
    a scalar multiple is one field operation on the one coefficient, and
    an int or field scalar becomes a 1 x 1 row directly."""

    __slots__ = ("field", "ua", "ub", "coeffs")

    def __init__(self, field, ua, ub, coeffs):
        if ua < 1 or ub < 1:
            raise ValueError("orders must be >= 1")
        rows = []
        for i in range(ua):
            row = list(coeffs[i][:ub]) if i < len(coeffs) else []
            row = [_as_field_elt(field, c) for c in row]
            row += [field.zero] * (ub - len(row))
            rows.append(tuple(row))
        self.field = field
        self.ua = ua
        self.ub = ub
        self.coeffs = tuple(rows)

    @classmethod
    def _from_rows(cls, field, ua, ub, rows):
        """Series on rows that are already checked: ua tuples of ub
        elements of `field`.  Ring operations on checked operands build
        their results here, skipping the per-coefficient check."""
        obj = object.__new__(cls)
        obj.field = field
        obj.ua = ua
        obj.ub = ub
        obj.coeffs = rows
        return obj

    @classmethod
    def constant(cls, field, ua, ub, c):
        return cls(field, ua, ub, [[c]])

    @classmethod
    def shift_u(cls, field, ua, ub):
        """The class of U (zero when ua == 1)."""
        return cls(field, ua, ub, [[], [field.one]] if ua > 1 else [[]])

    @classmethod
    def shift_v(cls, field, ua, ub):
        return cls(field, ua, ub,
                   [[field.zero, field.one]] if ub > 1 else [[]])

    def __bool__(self):
        return any(any(c for c in row) for row in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, BiTruncSeries):
            if other.field is not self.field or (other.ua, other.ub) != \
                    (self.ua, self.ub):
                raise ValueError("series over different rings")
            return other
        if isinstance(other, (int, FqElement)):
            if self.ua == self.ub == 1:
                return BiTruncSeries._from_rows(
                    self.field, 1, 1, ((_as_field_elt(self.field, other),),))
            return BiTruncSeries.constant(self.field, self.ua, self.ub, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.ua == self.ub == 1:
            return BiTruncSeries._from_rows(
                self.field, 1, 1, ((self.coeffs[0][0] + o.coeffs[0][0],),))
        return BiTruncSeries._from_rows(
            self.field, self.ua, self.ub,
            tuple(tuple(a + b for a, b in zip(r1, r2))
                  for r1, r2 in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        if self.ua == self.ub == 1:
            return BiTruncSeries._from_rows(self.field, 1, 1,
                                            ((-self.coeffs[0][0],),))
        return BiTruncSeries._from_rows(
            self.field, self.ua, self.ub,
            tuple(tuple(-c for c in row) for row in self.coeffs))

    def one(self):
        return self._coerce(1)

    def __mul__(self, other):
        field, ua, ub = self.field, self.ua, self.ub
        if isinstance(other, (int, FqElement)):
            # a field scalar scales entry by entry, with no kernel product
            s = _as_field_elt(field, other)
            if ua == ub == 1:
                rows = ((self.coeffs[0][0] * s,),)
            else:
                rows = tuple(tuple(c * s for c in row) for row in self.coeffs)
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            if ua == ub == 1:
                rows = ((self.coeffs[0][0] * o.coeffs[0][0],),)
            else:
                pack, unpack, _ = field.series_kernel(ua, ub, 1, 2)
                rows = unpack(pack(self.coeffs) * pack(o.coeffs))
        return BiTruncSeries._from_rows(field, ua, ub, rows)

    __rmul__ = __mul__

    def inverse(self):
        """Geometric-series inverse; exists iff the constant term does."""
        c0 = self.coeffs[0][0]
        if not c0:
            raise NonInvertibleError("series with zero constant term")
        inv0 = c0.inverse()
        one = self.one()
        w = one - self * inv0
        acc = one
        term = one
        for _ in range((self.ua - 1) + (self.ub - 1)):
            term = term * w
            if not term:
                break
            acc = acc + term
        return acc * inv0

    def __eq__(self, other):
        if isinstance(other, (int, FqElement)):
            other = self._coerce(other)
        if not isinstance(other, BiTruncSeries):
            return NotImplemented
        return (self.field is other.field and (self.ua, self.ub) ==
                (other.ua, other.ub) and self.coeffs == other.coeffs)


# ---------------------------------------------------------------------------
# the bivariate quotient ring


class QuotientRing:
    """R[X,Y] / (X^p - xc, Y^p - yc) for a commutative coefficient ring R.

    xc and yc are the reduction constants (images of X^p and Y^p); they fix
    R, whose one and zero are derived through the shared ring protocol.
    Elements store a p x p matrix of coefficients, entry [i][j] multiplying
    X^i Y^j.  Products run on the ring's product kernel, built on first
    use (:meth:`_product_kernel`).
    """

    __slots__ = ("p", "xc", "yc", "one_entry", "zero_entry", "_kernel")

    def __init__(self, p, xc, yc):
        self.p = p
        self.xc = xc
        self.yc = yc
        self.one_entry = xc ** 0
        self.zero_entry = xc ** 0 - xc ** 0
        self._kernel = None

    def _product_kernel(self):
        """The function (u, v) -> entry rows of u v for two elements.

        Symbolic (MultiPoly) entries take the schoolbook loop; field and
        truncated-series entries take the packed-int kernel of
        :func:`_packed_product`, built once for this ring.
        """
        if self._kernel is None:
            self._kernel = (_schoolbook_product
                            if isinstance(self.one_entry, MultiPoly)
                            else _packed_product(self))
        return self._kernel

    def element(self, entries):
        rows = tuple(tuple(r) for r in entries)
        if len(rows) != self.p or any(len(r) != self.p for r in rows):
            raise ValueError("entries must form a p x p matrix")
        return QuotientElement(self, rows)

    def one(self):
        return self.monomial(0, 0, self.one_entry)

    def monomial(self, i, j, coeff):
        """coeff X^i Y^j for exponents 0 <= i, j < p; coeff (an int, a
        field scalar or an entry) is coerced into the entry ring."""
        return self.from_exponents((((i, j), coeff),))

    def from_exponents(self, items):
        """Element from ((i, j), coeff) pairs with 0 <= i, j < p; each
        coeff is coerced into the entry ring (the first at a pair is
        copied in, with no addition), and the coefficients of a repeated
        exponent pair add up.  Pairs left out hold ring.zero_entry."""
        p = self.p
        zero = self.zero_entry
        rows = [[zero] * p for _ in range(p)]
        for (i, j), c in items:
            if not (0 <= i < p and 0 <= j < p):
                raise ValueError("exponents must lie in 0..p-1")
            cur = rows[i][j]
            e = zero._coerce(c) if cur is zero else None
            rows[i][j] = cur + c if e is None else e
        return QuotientElement(self, tuple(tuple(r) for r in rows))

    def from_x_poly(self, coeffs):
        """sum coeffs[k] X^k (degrees < p)."""
        return self.from_exponents((((k, 0), c) for k, c in enumerate(coeffs)))

    def from_y_poly(self, coeffs):
        return self.from_exponents((((0, k), c) for k, c in enumerate(coeffs)))

    def outer_product(self, xs, ys):
        """(sum xs[i] X^i) (sum ys[j] Y^j) for at most p entries each, from
        the entry ring.  No exponent reaches p, so entry [i][j] is
        xs[i] ys[j]: p^2 entry products and no fold.  A row or column of a
        zero factor (ring.zero_entry, or any zero) is zero_entry itself,
        with no product."""
        p = self.p
        if len(xs) > p or len(ys) > p:
            raise ValueError("degrees must be below p")
        zero = self.zero_entry
        cols = [c if c is not zero and c else None for c in ys]
        cols += [None] * (p - len(cols))
        rows = [tuple([zero if c2 is None else c1 * c2 for c2 in cols])
                if c1 is not zero and c1 else (zero,) * p for c1 in xs]
        rows += [(zero,) * p] * (p - len(rows))
        return QuotientElement(self, tuple(rows))


class QuotientElement(RingElement):
    """Element of a :class:`QuotientRing`; immutable.  The packed-int
    kernel keeps the element's packed int once built."""

    __slots__ = ("ring", "entries", "_packed")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = entries
        self._packed = None

    def is_scalar(self):
        zero = self.ring.zero_entry
        return not any(c is not zero and c
                       for i, row in enumerate(self.entries)
                       for j, c in enumerate(row) if i or j)

    @property
    def scalar_part(self):
        return self.entries[0][0]

    def __bool__(self):
        return any(any(c for c in row) for row in self.entries)

    def _coerce_scalar(self, other):
        if isinstance(other, (int, FqElement)):
            return self.ring.one_entry * other
        if isinstance(other, type(self.ring.one_entry)):
            return other
        return None

    def __add__(self, other):
        if isinstance(other, QuotientElement):
            if other.ring is not self.ring:
                raise ValueError("elements of different quotient rings")
            return QuotientElement(self.ring, tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)))
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self + self.ring.monomial(0, 0, s)

    def __neg__(self):
        return QuotientElement(self.ring, tuple(
            tuple(-a for a in row) for row in self.entries))

    def one(self):
        return self.ring.one()

    def __mul__(self, other):
        """A product of two elements runs on the ring's product kernel.
        A scalar (an int, a field element or an entry) multiplies entry
        by entry; an entry that is ring.zero_entry is copied, by identity,
        with no entry product."""
        if isinstance(other, QuotientElement):
            ring = self.ring
            if other.ring is not ring:
                raise ValueError("elements of different quotient rings")
            return QuotientElement(ring, ring._product_kernel()(self, other))
        s = self._coerce_scalar(other)
        if s is None:
            return NotImplemented
        zero = self.ring.zero_entry
        return QuotientElement(self.ring, tuple(
            tuple([a if a is zero else a * s for a in row])
            for row in self.entries))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QuotientElement):
            return NotImplemented
        return self.ring is other.ring and self.entries == other.entries


def _schoolbook_product(u, v):
    """Entry rows of u v by entry products, exponents >= p folded back
    (the product of rings with MultiPoly entries)."""
    ring = u.ring
    p = ring.p
    terms = [(k, l, c2) for k, row in enumerate(v.entries)
             for l, c2 in enumerate(row) if c2]
    acc = [[ring.zero_entry] * (2 * p - 1) for _ in range(2 * p - 1)]
    for i, row in enumerate(u.entries):
        for j, c1 in enumerate(row):
            if c1:
                for k, l, c2 in terms:
                    acc[i + k][j + l] = acc[i + k][j + l] + c1 * c2
    # fold the exponents >= p back: Y^p = yc, then X^p = xc
    for row in acc:
        for t in range(p, 2 * p - 1):
            if row[t]:
                row[t - p] = row[t - p] + row[t] * ring.yc
    for s in range(p, 2 * p - 1):
        for t in range(p):
            if acc[s][t]:
                acc[s - p][t] = acc[s - p][t] + acc[s][t] * ring.xc
    return tuple(tuple(r[:p]) for r in acc[:p])


@functools.lru_cache(maxsize=None)
def _quotient_layout(p, bits):
    """(offsets, low_t, high_t, low_s) of the Kronecker layout of
    :func:`_packed_product` for entry blocks of `bits` bits.

    offsets[i][j] is the shift of entry [i][j]; low_t and high_t mask the
    blocks t < p and t < p - 1 of each of the 2p - 1 X rows, and low_s the
    rows s < p.  They depend on p and the block width alone, so every ring
    with that pair shares one layout (ints and tuples, no ring and no
    element)."""
    m = 2 * p - 1
    row_bits = m * bits
    offsets = tuple(tuple((i * m + j) * bits for j in range(p))
                    for i in range(p))
    low_t = sum(((1 << (p * bits)) - 1) << (s * row_bits) for s in range(m))
    high_t = sum(((1 << ((p - 1) * bits)) - 1) << (s * row_bits)
                 for s in range(m))
    low_s = (1 << (p * row_bits)) - 1
    return offsets, low_t, high_t, low_s


@functools.lru_cache(maxsize=None)
def _binomial_patterns(p, bits):
    """(B_0, ..., B_(p-1)) in the layout of :func:`_quotient_layout`: B_k
    holds the int binom(k, i) mod p at block (i, k - i), so
    sum_k pack(f_k) B_k packs f(X + Y) for f = sum_k f_k Z^k."""
    offsets = _quotient_layout(p, bits)[0]
    return tuple(sum(math.comb(k, i) % p << offsets[i][k - i]
                     for i in range(k + 1)) for k in range(p))


def _packed_product(ring):
    """The packed-int product kernel of a ring with field or
    truncated-series entries: a function (u, v) -> entry rows of u v,
    with the coefficient-table check as its `table_check`.

    Kronecker layout: entry [i][j] is the entry kernel's block (field
    digits, and for series above order (1, 1) the U^a V^b cells around
    them; an order-(1, 1) series packs as its one coefficient) at block
    i (2p - 1) + j, so X and Y are the outer axes with 2p - 1 blocks each,
    room for the product of two elements.  A product is one int multiply;
    Y^p = yc is folded by masking the blocks t >= p of every X row and
    adding them, times packed yc, at t - p, then X^p = xc the same way on
    the rows s >= p.  Each of the p^2 entries of the result is then a sum
    of p^2 products of at most four entries (c1 c2 yc xc), which is what
    the entry kernel's slots are sized for, and is unpacked once: U and V
    truncated, field digits folded through the reduction rows, one mod p.

    table_check(lz, xs, ys, items) tells whether u T == v for
    u = lz(X + Y) (lz the p coefficients of a polynomial in Z), v the
    outer product of the coefficient lists xs and ys, and T the table of
    the ((i, j), entry) pairs `items`, and never forms u, v or T as
    elements.  u packs as sum_k pack(lz[k]) B_k from the cached binomial
    patterns of :func:`_binomial_patterns`; u T is one product of the
    packed u by each packed table entry, shifted to its cell, folded as a
    product is; -v is added as (p - 1) times the product of packed xs on
    column 0 and packed ys on row 0, which needs no fold.  All p^2 blocks
    of that residual (`table_residual`) must unpack to zero.  A block
    sums, for each of the p table cells, one entry of u times a binomial
    weight below p times the table entry, times yc, xc or both, plus
    p - 1 times one entry product of v: p (p - 1) + 1 <= p^2 products of
    at most four entries, so the product's slots hold it.

    The layout (:func:`_quotient_layout`, kept as the kernel's `layout`)
    is built once per p and block width and shared; what is the ring's
    own is built here, once per ring: the entry kernel, asked of the
    field, and packed xc and yc.  The kernel lives on its ring, so no
    cache keeps a ring or an element.

    Zero entries are skipped by identity with ring.zero_entry, never by
    the truthiness of an entry (for a series, a scan of every
    coefficient): they pack to nothing, and a block that comes out zero
    unpacks to that object.  A zero that is another object packs to 0
    through the entry kernel, correctly but more slowly.
    """
    p = ring.p
    one = ring.one_entry
    field = one.field
    if not isinstance(one, BiTruncSeries):
        pack_entry, raw, bits = field.dot_kernel(p * p, 4)
        unpack_entry = raw
    elif one.ua == one.ub == 1:
        # order (1, 1): the one coefficient on the element kernel, the
        # same layout as series_kernel(1, 1, p * p, 4)
        epack, raw, bits = field.dot_kernel(p * p, 4)

        def pack_entry(c):
            return epack(c.coeffs[0][0])

        def unpack_entry(s):
            return BiTruncSeries._from_rows(field, 1, 1, ((raw(s),),))
    else:
        ua, ub = one.ua, one.ub
        spack, raw, bits = field.series_kernel(ua, ub, p * p, 4)

        def pack_entry(c):
            return spack(c.coeffs)

        def unpack_entry(s):
            return BiTruncSeries._from_rows(field, ua, ub, raw(s))
    layout = _quotient_layout(p, bits)
    offsets, low_t, high_t, low_s = layout
    shift_t, shift_s = p * bits, p * (2 * p - 1) * bits
    mask = (1 << bits) - 1
    xc, yc = pack_entry(ring.xc), pack_entry(ring.yc)
    zero = ring.zero_entry
    column = [shs[0] for shs in offsets]

    def packed(u):
        if u._packed is None:
            u._packed = sum([pack_entry(c) << sh
                             for row, shs in zip(u.entries, offsets)
                             for c, sh in zip(row, shs) if c is not zero])
        return u._packed

    def fold(s):
        s = (s & low_t) + ((s >> shift_t) & high_t) * yc
        return (s & low_s) + (s >> shift_s) * xc

    def product(u, v):
        s = fold(packed(u) * packed(v))
        return tuple([tuple([unpack_entry(b) if b else zero
                             for b in [(s >> sh) & mask for sh in shs]])
                      for shs in offsets])

    def spread(cs, shifts):
        return sum(map(operator.lshift, map(pack_entry, cs), shifts))

    def table_residual(lz, xs, ys, items):
        u = sum(map(operator.mul, map(pack_entry, lz),
                    _binomial_patterns(p, bits)))
        s = fold(sum([u * pack_entry(c) << offsets[i][j]
                      for (i, j), c in items]))
        return s + (p - 1) * spread(xs, column) * spread(ys, offsets[0])

    def table_check(lz, xs, ys, items):
        s = table_residual(lz, xs, ys, items)
        blank = raw(0)
        return all(not b or raw(b) == blank
                   for b in [(s >> sh) & mask for shs in offsets
                             for sh in shs])
    product.layout = layout
    product.table_check = table_check
    product.table_residual = table_residual
    return product


def quotient_mul(u, v):
    """Product in the quotient ring, by the ring's product kernel."""
    return u * v


@functools.lru_cache(maxsize=None)
def _shift_weights(p, sign):
    """rows[j][k - j] = binom(k, j) sign^(k - j) mod p for j <= k < p: the
    W^j coefficient of f(W + sign g) is the sum over k of rows[j][k - j]
    f_k g^(k - j)."""
    return tuple(tuple(math.comb(k, j) * sign ** (k - j) % p
                       for k in range(j, p)) for j in range(p))


def _quotient_inverse_linear(u):
    """Inverse of an element on row 0 (a polynomial in Y alone) with field
    entries, by forward substitution in a local ring; any other element
    raises ValueError.

    Such an element never folds X when it multiplies, so its inverse, if
    any, is on row 0 too: the inverse of u(Y) in F[Y]/(Y^p - yc).  The
    Frobenius map of F is bijective, so Y^p - yc = (Y - g)^p with
    g = yc^(1/p) (Lidl and Niederreiter, Finite Fields, 2.8 and 3.4),
    and in W = Y - g that ring is F[W]/(W^p), local with maximal ideal
    (W).  Write u(W + g) = sum t_j W^j (a Taylor shift):
    u is a unit exactly when t_0 = u(g) is nonzero, and multiplication
    by u is then lower-triangular Toeplitz in the W basis with diagonal
    t_0, so the W coefficients of the inverse follow by forward
    substitution, w_0 = 1/t_0 and w_k = sum_{j=1..k} s_j w_(k-j) with
    s_j = -t_j / t_0.  A shift by -g brings them back to the Y basis.

    Each t_0, s_j, w_k and coefficient of the result is one dot product
    on the field's packed ints, unpacked once; besides those, the
    inverse takes a p-th root, p - 2 field products for the powers of g
    and one field inverse, and solves no linear system.
    """
    ring = u.ring
    p = ring.p
    if not isinstance(ring.one_entry, FqElement) or \
            any(any(row) for row in u.entries[1:]):
        raise ValueError("linear inversion needs field entries on row 0")
    field = ring.one_entry.field
    # each sum below has at most p terms of an int weight below p times
    # at most three elements
    pack, unpack, _ = field.dot_kernel(p * (p - 1), 3)
    mul = operator.mul
    g = ring.yc.pth_root()
    powers = [field.one, g]
    for _ in range(p - 2):
        powers.append(powers[-1] * g)
    gs = list(map(pack, powers))
    us = list(map(pack, u.entries[0]))
    t0 = unpack(sum(map(mul, us, gs)))
    if not t0:
        raise NonInvertibleError("quotient element is not invertible")
    inv_t0 = t0.inverse()
    scale = pack(-inv_t0)
    up, down = _shift_weights(p, 1), _shift_weights(p, -1)
    s = [pack(unpack(scale * sum(map(mul, map(mul, us[j:], up[j]), gs))))
         for j in range(1, p)]
    ws = [pack(inv_t0)]
    for k in range(1, p):
        ws.append(pack(unpack(sum(map(mul, s[:k], reversed(ws))))))
    row = [unpack(sum(map(mul, map(mul, ws[j:], down[j]), gs)))
           for j in range(p)]
    inv = ring.element([row] + [[ring.zero_entry] * p] * (p - 1))
    if u * inv != ring.one():
        raise AssertionError("inverse verification failed")  # kernel defect
    return inv


def _scalar_power(u):
    """(u^(p-1), s) for the entry s = u^p, formed as u * u^(p-1).

    In characteristic p Frobenius is additive on the commutative quotient
    ring and (X^i Y^j)^p = xc^i yc^j, so u^p is a scalar, which the
    p-power inverse divides by.
    """
    upow = u ** (u.ring.p - 1)
    up = u * upow
    if not up.is_scalar():
        raise AssertionError("u^p is not a scalar")  # product kernel defect
    return upow, up.scalar_part


def _quotient_inverse_ppower(u):
    """Inverse via u^{-1} = u^{p-1} (u^p)^{-1}, with both powers from
    :func:`_scalar_power`.

    u is invertible exactly when the scalar u^p is; a zero field scalar,
    or a series scalar with zero constant term, raises
    NonInvertibleError.  The result is verified against u * inv == 1.
    """
    upow, s = _scalar_power(u)
    if isinstance(s, FqElement) and not s:
        raise NonInvertibleError("quotient element is not invertible")
    inv = upow * s.inverse()  # BiTruncSeries raises NonInvertibleError
    if u * inv != u.ring.one():
        raise NonInvertibleError("p-power inverse failed verification")
    return inv


def quotient_inverse(u):
    """Inverse in the quotient ring.

    Field entries on row 0 go through the forward substitution in a local
    ring of :func:`_quotient_inverse_linear`; every other element (series or
    symbolic entries, or field entries off row 0) takes the p-power
    closed form of :func:`_quotient_inverse_ppower`, which is complete
    for field entries too: u is invertible exactly when the scalar u^p
    is nonzero.  Either result is verified against u * inv == 1 before
    being returned.
    """
    if isinstance(u.ring.one_entry, FqElement) and \
            not any(any(row) for row in u.entries[1:]):
        return _quotient_inverse_linear(u)
    return _quotient_inverse_ppower(u)
