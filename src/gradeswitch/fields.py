"""Exact arithmetic in F_p and its finite extensions F_{p^n}.

Fields are created with :func:`GF` and cached, so repeated calls with equal
parameters return the identical object and elements can simply check
``x.field is y.field``.  An element of F_{p^n} is a coefficient vector
(c_0, ..., c_{n-1}) over F_p with respect to the residue class g of T in
F_p[T]/(modulus); the integer encoding c_0 + c_1*p + ... + c_{n-1}*p^{n-1}
orders elements totally and is used whenever a canonical choice has to be
made (smallest root, smallest modulus, smallest Artin-Schreier solution).

Default moduli come from a deterministic search for the monic irreducible
polynomial of the required degree with the smallest encoding, so the same
field is reconstructed in every run without a Conway table.  Each
candidate goes through Ben-Or's test, whose coprimality check is the
extended Euclidean algorithm finding no inverse.

A small field (q <= 2^16) builds discrete-log tables when it is
constructed: exp[k] = g^k for a multiplicative generator g, its inverse
log, and Zech's logarithms zech[k] = log(1 + g^k).  A product is
then exp[log a + log b], a sum exp[la + zech[lb - la]], and a negation
exp[la + (q-1)/2] for odd p (the identity for p = 2); a difference
a - b is the sum a + (-b), at every field size.  Every result is the
table's own element, or the field's ``zero``, and so are int scalars.
Larger fields fall back to coefficient-wise sums and products modulo the
modulus, and invert by the extended Euclidean algorithm against it: the
same product and the same Euclid on int tuples that search the moduli
and build the tables.
Dot products of whole vectors run on packed ints instead
(:meth:`FqField.dot_kernel`), whole rows of dot products at once on wide
ints (:meth:`FqField.row_kernel`), and so do sums of products of truncated
series in two nilpotents (:meth:`FqField.series_kernel`), which carry the
quotient-ring products of :mod:`gradeswitch.polyring`.  Everything is
exact; fields and elements are immutable.
"""

import functools
import math
import operator
import random
import struct
import sys

from .echelon import Echelon, first_dependence, kernel, solve

_TABLE_CAP = 1 << 16      # build log/exp tables when q <= this
_EXHAUST_CAP = 1 << 8     # root search by evaluation when q <= this
# largest degree over GF(p) of any field GF builds, and so of any
# splitting field the package picks: GF(p^64) builds in <= 0.7 s for
# p <= 13, GF(11^128) in 18.6 s
DEGREE_CAP = 64


def is_prime(m):
    """True iff m is prime: the first prime factor of m >= 2 is m itself,
    so a composite is refused at its smallest factor."""
    return m >= 2 and next(_prime_factors(m)) == m


def _prime_factors(m):
    """The distinct prime factors of m >= 1 in increasing order, each
    yielded as soon as trial division finds it."""
    d = 2
    while d * d <= m:
        if m % d == 0:
            yield d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        yield m


# ---------------------------------------------------------------------------
# F_p[T] on plain int tuples, little-endian: one product modulo a monic
# polynomial and one extended Euclidean algorithm.  They search and validate
# moduli, build the log/exp tables, and multiply and invert elements of
# fields above the table cap.

def _digits(enc, p, n):
    """The n base-p digits of enc, lowest first."""
    out = []
    for _ in range(n):
        out.append(enc % p)
        enc //= p
    return tuple(out)


def _mulmod(a, b, p, red):
    """a b mod f in F_p[T] for coefficient tuples a, b of length n, with
    red = _reduction_rows(p, f, n - 1), the rows T^(n+k) mod f of a monic
    f of degree n; the result has length n."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(2 * n - 2, n - 1, -1):
        ck = prod[k]
        if ck:
            row = red[k - n]
            for j in range(n):
                rj = row[j]
                if rj:
                    prod[j] = (prod[j] + ck * rj) % p
    return tuple(prod[:n])


def _inverse_mod(a, m, p):
    """The s with a s = 1 mod m in F_p[T], as a tuple of n coefficients,
    for a monic m of degree n >= 1 and an a of degree < n given by at most
    n coefficients; None when gcd(a, m) != 1 (a = 0 included).

    The extended Euclidean algorithm: each step divides r_(i-1) by r_i
    with quotient q and keeps s_(i+1) = s_(i-1) - q s_i, so that
    s_i a = r_i mod m, until r_i is a constant or zero.  s_i has degree
    n - deg r_(i-1) < n, so subtracting c T^k s_i touches only the
    w = n - deg r_(i-1) + 1 coefficients of s_(i-1) from k on."""
    n = len(m) - 1
    r0, r1 = list(m), list(a)
    s0, s1 = [0] * n, [1] + [0] * (n - 1)
    while True:
        while r1 and not r1[-1]:
            r1.pop()
        d = len(r1) - 1
        if d < 1:
            break
        inv = pow(r1[-1], p - 2, p)
        w = n - len(r0) + 2
        for k in reversed(range(len(r0) - d)):
            c = r0[k + d] * inv % p
            if c:
                r0[k:k + d + 1] = [(y - c * x) % p
                                   for x, y in zip(r1, r0[k:k + d + 1])]
                s0[k:k + w] = [(y - c * x) % p
                               for x, y in zip(s1, s0[k:k + w])]
        del r0[d:]
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r1:
        return None
    inv = pow(r1[0], p - 2, p)
    return tuple(c * inv % p for c in s1)


def power(x, e, one, mul=operator.mul):
    """x ** e for an integer e >= 0 in any ring: left-to-right
    square-and-multiply.

    Starts from x itself and never squares after the lowest bit, so it
    spends (e.bit_length() - 1) squarings plus (popcount(e) - 1) further
    products; e == 0 returns `one`.  `mul` is the product, for rings whose
    elements do not overload ``*`` or whose products reduce modulo
    something.  A negative e raises ValueError.
    """
    if e < 0:
        raise ValueError("negative exponent %d" % e)
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _is_irreducible(f, p):
    """Ben-Or's test of a monic f of degree n over F_p: f is irreducible
    exactly when gcd(T^(p^k) - T, f) = 1 for every k <= n/2, since a
    reducible f has a factor of some degree k <= n/2, which divides
    T^(p^k) - T.  The gcd is 1 exactly when T^(p^k) - T has an inverse
    mod f.  Most candidates have a small factor, so the search of the
    default modulus rejects them after a few Frobenius steps.  A zero
    constant term (T divides f) refuses f before any arithmetic, T^p is a
    monomial when p < n, and the reduction rows of f are built only when
    a Frobenius step first needs them."""
    n = len(f) - 1
    if n < 1:
        return False
    if n > 1 and not f[0]:
        return False
    mul = None
    h = (0, 1) + (0,) * (n - 2)
    for k in range(n // 2):
        if k == 0 and p < n:
            h = (0,) * p + (1,) + (0,) * (n - 1 - p)    # T^p, reduced
        else:
            if mul is None:
                mul = functools.partial(_mulmod, p=p,
                                        red=_reduction_rows(p, f, n - 1))
            h = power(h, p, None, mul)  # T^(p^(k+1)) mod f
        h_minus_t = (h[0], (h[1] - 1) % p) + h[2:]
        if _inverse_mod(h_minus_t, f, p) is None:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _smallest_irreducible(p, n):
    """The default modulus of GF(p, n), searched once per (p, n)."""
    for enc in range(p ** n):
        f = _digits(enc, p, n) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _reduction_rows(p, modulus, count):
    """T^(n+k) mod modulus as coefficient tuples, k = 0..count-1."""
    n = len(modulus) - 1
    rows = []
    cur = tuple((-c) % p for c in modulus[:n])  # T^n
    for _ in range(count):
        rows.append(cur)
        top = cur[n - 1]
        cur = (0,) + cur[:n - 1]
        if top:
            cur = tuple((s + top * r) % p for s, r in zip(cur, rows[0]))
    return tuple(rows)


# ---------------------------------------------------------------------------


class FqElement:
    """An element of an :class:`FqField`; immutable, supports field ops.

    Integers mix in as scalars (reduced mod p).  Elements of different
    fields never mix silently: combine them after an explicit embed().
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("FqElement is immutable")

    # -- conversions -------------------------------------------------------

    def __int__(self):
        """Canonical integer encoding c_0 + c_1 p + ... (total order key)."""
        e = 0
        for c in reversed(self.coeffs):
            e = e * self.field.p + c
        return e

    def __bool__(self):
        return any(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.field.scalar(other)
        if isinstance(other, FqElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        return None

    def __add__(self, other):
        fld = self.field
        o = other
        if o.__class__ is not FqElement or o.field is not fld:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        log = fld._log
        if log is None:
            p = fld.p
            return FqElement(fld, tuple((a + b) % p
                                        for a, b in zip(self.coeffs, o.coeffs)))
        # g^la + g^lb = g^(la + zech[lb - la]); a zero is a log miss
        exp = fld._exp
        la, lb = log.get(self.coeffs), log.get(o.coeffs)
        if la is None:
            return fld.zero if lb is None else exp[lb]
        if lb is None:
            return exp[la]
        z = fld._zech[lb - la]
        return fld.zero if z is None else exp[la + z]

    __radd__ = __add__

    def __neg__(self):
        fld = self.field
        log = fld._log
        if log is None:
            p = fld.p
            return FqElement(fld, tuple((-a) % p for a in self.coeffs))
        k = log.get(self.coeffs)
        return fld.zero if k is None else fld._exp[k + fld._half]

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        fld = self.field
        o = other
        if o.__class__ is not FqElement or o.field is not fld:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        log = fld._log
        if log is not None:
            # g^la g^lb = exp[la + lb] on the doubled table; a zero is a
            # log miss
            la, lb = log.get(self.coeffs), log.get(o.coeffs)
            if la is None or lb is None:
                return fld.zero
            return fld._exp[la + lb]
        a, b = self.coeffs, o.coeffs
        if not any(a) or not any(b):
            return fld.zero
        return FqElement(fld, _mulmod(a, b, fld.p, fld._red))

    __rmul__ = __mul__

    def mul_add(self, x, c, s):
        """self x + c s: the Horner step of the ring protocol."""
        return self * x + c * s

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        fld = self.field
        if not any(self.coeffs):
            if e > 0:
                return self
            if e == 0:
                return fld.one
            raise ZeroDivisionError("0 has no negative power")
        if e < 0:
            return self.inverse() ** (-e)
        if fld._log is not None:
            return fld._exp[(fld._log[self.coeffs] * e) % (fld.q - 1)]
        return power(self, e, fld.one)

    def inverse(self):
        fld = self.field
        if not self:
            raise ZeroDivisionError("0 is not invertible")
        if fld._log is not None:
            return fld._exp[(-fld._log[self.coeffs]) % (fld.q - 1)]
        return FqElement(fld, _inverse_mod(self.coeffs, fld.modulus, fld.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- Frobenius structure ------------------------------------------------

    def frobenius(self, k=1):
        """x^(p^k)."""
        return self ** (self.field.p ** k)

    def pth_root(self):
        """The unique y with y^p == x (Frobenius is bijective).

        Below the log/exp table cap, and over GF(p), it is x^(p^(n-1)).
        Above the cap it is the F_p-linear map x -> sum x_i (g^i)^(1/p),
        one packed dot product of the digits with the field's columns
        (:func:`_pth_root_map`)."""
        fld = self.field
        if fld._log is not None or fld.n == 1:
            return self ** (fld.p ** (fld.n - 1))
        cols, unpack = _pth_root_map(fld)
        return unpack(sum(map(operator.mul, self.coeffs, cols)))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FqElement):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __str__(self):
        if self.field.n == 1:
            return str(self.coeffs[0])
        parts = []
        for i in reversed(range(self.field.n)):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                v = "g" if i == 1 else "g^%d" % i
                parts.append(v if c == 1 else "%d%s" % (c, v))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "%r(%s)" % (self.field, self)


def _as_field_elt(field, c):
    """c as an element of `field`: an element of that field, or an int
    taken as a scalar."""
    if isinstance(c, FqElement):
        if c.field is not field:
            raise ValueError("coefficient from a different field")
        return c
    if isinstance(c, int):
        return field.scalar(c)
    raise TypeError("cannot use %r as a coefficient" % (c,))


class FqField:
    """The field F_{p^n} presented as F_p[T]/(modulus).  Create via GF()."""

    __slots__ = ("p", "n", "q", "modulus", "zero", "one", "gen",
                 "_red", "_exp", "_log", "_zech", "_half", "_scalars")

    def __init__(self, p, n, modulus):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", p ** n)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_red", _reduction_rows(p, modulus, n - 1))
        object.__setattr__(self, "zero", FqElement(self, (0,) * n))
        object.__setattr__(self, "one", FqElement(self, (1,) + (0,) * (n - 1)))
        gen = FqElement(self, (0, 1) + (0,) * (n - 2)) if n > 1 else self.one
        object.__setattr__(self, "gen", gen)
        if self.q <= _TABLE_CAP:
            self._build_tables()
        else:
            object.__setattr__(self, "_log", None)

    def __setattr__(self, *a):
        raise AttributeError("FqField is immutable")

    # -- constructors --------------------------------------------------------

    def from_coeffs(self, coeffs):
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.n:
            raise ValueError("too many coefficients for degree %d" % self.n)
        cs += [0] * (self.n - len(cs))
        return FqElement(self, tuple(cs))

    def from_int(self, enc):
        if not 0 <= enc < self.q:
            raise ValueError("encoding out of range")
        return FqElement(self, _digits(enc, self.p, self.n))

    def scalar(self, c):
        """The int c mod p as an element: the table's own one below the
        table cap."""
        if self._log is not None:
            return self._scalars[c % self.p]
        return FqElement(self, (c % self.p,) + self.zero.coeffs[1:])

    def elements(self):
        """All q elements in encoding order."""
        for enc in range(self.q):
            yield self.from_int(enc)

    def random_element(self, rng):
        return self.from_int(rng.randrange(self.q))

    def dot_kernel(self, length, factors=2):
        """(pack, unpack, bits) for sums of `length` products on ints.

        pack(x) is the int of an element or int scalar x; for any vectors
        u, v of that length, unpack(sum(map(operator.mul, pack(u),
        pack(v)))) is their dot product as an element.  With factors = f
        each term may be a product of up to f packed elements (f = 3:
        unpack(sum of pack(a) * pack(b) * pack(c) over `length` terms) is
        the sum of the a b c).  Every such sum fits in `bits` bits, so
        packed elements laid side by side `bits` apart multiply as blocks
        of a larger Kronecker layout; unpack takes one block.  pack reads
        the field's table of packed ints; unpack folds each high slot of
        the block with one multiply by its packed reduction row, reduces
        the n low slots mod p and returns interned elements.
        """
        return _dot_kernel(self, length, factors)

    def row_kernel(self, length, count):
        """(pack, widen, unpack, width) for `count` dot products of
        `length` terms at once.

        pack(c) is the int of the element with coefficient tuple c;
        widen(ints) lays `count` packed elements side by side as the
        blocks of one wide int.  For packed elements a_k and wide ints W_k
        (k < length), unpack(sum(map(operator.mul, a, W))) is the tuple of
        the `count` dot products, entry j the sum of a_k times entry j of
        W_k, as interned elements.  The slots are `width` bits wide and
        keep headroom for folding every block at once.
        """
        return _row_kernel(self, length, count)

    def series_kernel(self, ua, ub, length, factors):
        """(pack, unpack, bits) of :meth:`dot_kernel` for series in two
        nilpotents, F[U, V]/(U^ua, V^ub), given as ua rows of ub elements
        (row i, column j multiplies U^i V^j).

        unpack(sum of `length` products of up to `factors` packed series)
        is their sum as rows of interned elements, truncated to ua x ub;
        the sum fits in `bits` bits.
        """
        return _series_kernel(self, ua, ub, length, factors)

    def _find_generator(self):
        factors = list(_prime_factors(self.q - 1))
        one = self.one.coeffs
        mul = functools.partial(_mulmod, p=self.p, red=self._red)
        for enc in range(1, self.q):
            cand = self.from_int(enc).coeffs
            if all(power(cand, (self.q - 1) // l, None, mul) != one
                   for l in factors):
                return cand
        raise AssertionError("no multiplicative generator found")  # unreachable

    def _build_tables(self):
        g = self._find_generator()
        p, n, m = self.p, self.n, self.q - 1
        # x -> x g is F_p-linear: with row i the packed digits of g^i g,
        # the next power of g is the sum of its digits times the n rows,
        # each slot at most n (p-1)^2
        width, digits = _slots((n * (p - 1) ** 2).bit_length(), n)
        slots = range(0, n * width, width)
        rows = [sum(map(operator.lshift, _mulmod(e, g, p, self._red), slots))
                for e in ((0,) * i + (1,) + (0,) * (n - 1 - i)
                          for i in range(n))]
        mul, reduce = operator.mul, p.__rmod__
        powers = [self.one.coeffs]
        cur = g
        for _ in range(1, m):
            powers.append(cur)
            cur = tuple(map(reduce, digits(sum(map(mul, cur, rows)))))
        exp = [self.one]
        exp += map(functools.partial(FqElement, self), powers[1:])
        log = dict(zip(powers, range(m)))
        # Zech logarithms: zech[k] = log(1 + g^k), None where 1 + g^k = 0
        zech = [log.get(((c[0] + 1) % p,) + c[1:]) for c in powers]
        # Both tables repeat once, so every index the operators form (a sum
        # or a difference of two logs, or a log plus _half) reads its entry
        # modulo q - 1 without a reduction.  g^_half = -1.
        object.__setattr__(self, "_exp", tuple(exp) * 2)
        object.__setattr__(self, "_zech", tuple(zech) * 2)
        object.__setattr__(self, "_half", m // 2 if p > 2 else 0)
        object.__setattr__(self, "_log", log)
        # _scalars[c] is the element c of the prime field
        object.__setattr__(self, "_scalars", (self.zero,) + tuple(
            exp[log[(c,) + self.zero.coeffs[1:]]] for c in range(1, p)))

    # -- misc ------------------------------------------------------------------

    def to_json(self):
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __repr__(self):
        if self.n == 1:
            return "GF(%d)" % self.p
        return "GF(%d^%d)" % (self.p, self.n)


@functools.lru_cache(maxsize=None)
def _field(p, n, modulus):
    return FqField(p, n, modulus)


class _Capped(dict):
    """make(key) by key, built on first use; at most _INTERN_CAP of them
    are kept."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        x = self.make(key)
        if len(self) < _INTERN_CAP:
            self[key] = x
        return x


_INTERN_CAP = 1 << 12


@functools.lru_cache(maxsize=None)
def _interned(field):
    """The elements of one field by coefficient tuple, seeded with the
    field's own zero and one, so kernels return those very objects."""
    elements = _Capped(functools.partial(FqElement, field))
    elements[field.zero.coeffs] = field.zero
    elements[field.one.coeffs] = field.one
    return elements


@functools.lru_cache(maxsize=None)
def _packed(field, width):
    """The packed ints of one field's elements by coefficient tuple,
    c_i in slot i of `width` bits."""
    slots = tuple(range(0, field.n * width, width))
    return _Capped(lambda coeffs: sum(map(operator.lshift, coeffs, slots)))


@functools.lru_cache(maxsize=None)
def _dot_kernel(field, length, factors):
    # Kronecker substitution: c_0 + c_1 g + ... + c_{n-1} g^{n-1} packs into
    # sum c_i 2^(i w).  The product of f packed elements holds the
    # f (n - 1) + 1 coefficients of the product polynomial in its slots,
    # each a sum of at most n^(f-1) products of f digits, so a sum of
    # `length` such products holds at most length n^(f-1) (p-1)^f in a
    # slot.  Unpacking folds the high slots n + k as _row_kernel does, one
    # multiply-add each: the slot, reduced mod p, times T^(n+k) packed as
    # the small int sum r_kj 2^(j w), added to the masked low slots.  Each
    # of the f (n - 1) + 1 - n folds adds at most (p-1)^2 to a low slot,
    # so w is sized for length n^(f-1) (p-1)^f + (f (n-1) + 1 - n) (p-1)^2
    # and the fold never carries between slots; the n low slots are then
    # read and reduced mod p.  Elements pack from the field's _packed
    # table and unpack to its interned elements.  The f (n - 1) + 1 slots
    # of w bits are the block one such sum occupies.
    p, n = field.p, field.n
    elements = _interned(field)
    top = factors * (n - 1) + 1
    bound = length * n ** (factors - 1) * (p - 1) ** factors \
        + (top - n) * (p - 1) ** 2
    width = bound.bit_length() or 1
    if n == 1:
        def pack(x):
            return _as_field_elt(field, x).coeffs[0]

        def unpack(s):
            return elements[(s % p,)]
        return pack, unpack, width
    mask = (1 << width) - 1
    low = (1 << (n * width)) - 1
    packed = _packed(field, width)
    fold = tuple(((n + k) * width, packed[red])
                 for k, red in enumerate(_reduction_rows(
                     p, field.modulus, top - n)))
    slots = tuple(range(0, n * width, width))

    def pack(x):
        return packed[_as_field_elt(field, x).coeffs]

    def unpack(s):
        f = s & low
        for sh, red in fold:
            f += ((s >> sh) & mask) % p * red
        return elements[tuple([((f >> sh) & mask) % p for sh in slots])]
    return pack, unpack, top * width


def _slots(bits, count):
    """(width, digits) for ints of `count` slots that hold values of up to
    `bits` bits: slots of 8, 16, 32 or 64 bits where that is enough, read
    straight from the int's bytes through a memoryview, and `bits` wide
    slots read by shifting otherwise; digits(s) gives the slots of s,
    lowest first."""
    size = next((s for s in (1, 2, 4, 8) if 8 * s >= bits), None)
    if size is None:
        mask = (1 << bits) - 1
        every = tuple(range(0, count * bits, bits))
        return bits, lambda s: [(s >> sh) & mask for sh in every]
    code = next(c for c in "BHILQ" if struct.calcsize(c) == size)
    nbytes, order = count * size, sys.byteorder
    return 8 * size, lambda s: memoryview(s.to_bytes(nbytes, order)).cast(code)


@functools.lru_cache(maxsize=None)
def _row_kernel(field, length, count):
    # Kronecker substitution as in _dot_kernel, with entry j of a wide int
    # in block j of 2n - 1 slots of w bits.  A block of a sum of `length`
    # products of two packed elements holds at most length n (p-1)^2 in
    # each slot, so no block carries into the next.  Unpacking folds the
    # high slots n..2n-2 of all blocks at once: with T^(n+k) = sum r_kj g^j
    # packed as the small int sum r_kj 2^(j w), slot n + k of every block,
    # masked down to slot 0 and multiplied by that int, adds hi_k r_kj to
    # slot j of the same block.  A low slot then holds its own sum plus
    # n - 1 terms hi_k r_kj, each at most length n (p-1)^2 (p-1), so every
    # slot stays at most length n (p-1)^2 (1 + (n-1)(p-1)) and w is sized
    # for that bound: the fold never carries between slots.  The slots
    # are read by _slots; slot i of every block is then one strided slice,
    # reduced mod p, and zipping the n slices gives the coefficient tuples
    # of the whole row.
    p, n = field.p, field.n
    bound = length * n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
    span = 2 * n - 1
    width, digits = _slots(bound.bit_length() or 1, count * span)
    offsets = tuple(range(0, count * span * width, span * width))
    packed = _packed(field, width)
    every_block = sum(1 << sh for sh in offsets)
    low = ((1 << (n * width)) - 1) * every_block
    slot0 = ((1 << width) - 1) * every_block
    fold = tuple(((n + k) * width, packed[red])
                 for k, red in enumerate(field._red))
    reduce = p.__rmod__
    element = _interned(field).__getitem__

    def widen(ints):
        return sum(map(operator.lshift, ints, offsets))

    def unpack(s):
        f = s & low
        for sh, red in fold:
            f += ((s >> sh) & slot0) * red
        d = digits(f)
        return tuple(map(element, zip(*[map(reduce, d[i::span])
                                        for i in range(n)])))
    return packed.__getitem__, widen, unpack, width


@functools.lru_cache(maxsize=None)
def _series_kernel(field, ua, ub, length, factors):
    # The coefficient of U^i V^j is one element block of the dot kernel, at
    # cell i vs + j.  A product of `factors` series has U degree below
    # us = factors (ua - 1) + 1 and V degree below vs, so cells never
    # collide, and each cell sums at most (ua ub)^(factors-1) products per
    # term: the element blocks are sized for that many times `length`.
    pack_e, unpack_e, cell = _dot_kernel(
        field, length * (ua * ub) ** (factors - 1), factors)
    us, vs = factors * (ua - 1) + 1, factors * (ub - 1) + 1
    offsets = tuple(tuple((i * vs + j) * cell for j in range(ub))
                    for i in range(ua))
    mask = (1 << cell) - 1

    def pack(rows):
        return sum([pack_e(c) << sh for row, shs in zip(rows, offsets)
                    for c, sh in zip(row, shs)])

    def unpack(s):
        return tuple([tuple([unpack_e((s >> sh) & mask) for sh in shs])
                      for shs in offsets])
    return pack, unpack, us * vs * cell


def GF(p, n=1, modulus=None):
    """The finite field F_{p^n}; cached, so equal parameters give the
    identical object.

    modulus: optional monic irreducible of degree n over F_p, as a
    little-endian int sequence of length n+1.  Defaults to the irreducible
    polynomial with the smallest integer encoding.  A degree n above
    DEGREE_CAP raises ValueError before any modulus search or
    irreducibility test.
    """
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if n > DEGREE_CAP:
        raise ValueError("GF(%d^%d) exceeds the degree cap %d"
                         % (p, n, DEGREE_CAP))
    if modulus is None:
        modulus = _smallest_irreducible(p, n)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _is_irreducible(modulus, p):
            raise ValueError("modulus is not irreducible over F_%d" % p)
    return _field(p, n, modulus)


# ---------------------------------------------------------------------------
# module-level operations


def _frobenius_columns(field, k):
    """The images of the digit basis g^i, i < n, under x -> x^(p^k), an
    F_p-linear map: (g^i)^(p^k) = h^i with h = g^(p^k), one product
    each."""
    if k == 0:
        return [FqElement(field, (0,) * i + (1,) + (0,) * (field.n - 1 - i))
                for i in range(field.n)]
    h = field.gen ** (field.p ** k)
    cols = [field.one]
    for _ in range(field.n - 1):
        cols.append(cols[-1] * h)
    return cols


@functools.lru_cache(maxsize=None)
def _pth_root_map(field):
    """(columns, unpack) of x -> x^(1/p) = x^(p^(n-1)) on `field`: the
    images (g^i)^(1/p) of the digit basis, packed on the field's dot
    kernel for n products, so the root of x is unpack of the sum of its
    digits times the columns."""
    pack, unpack, _ = _dot_kernel(field, field.n, 2)
    cols = tuple(map(pack, _frobenius_columns(field, field.n - 1)))
    return cols, unpack


def additive_root(c, terms):
    """(F', x) for f = c + sum_j b_j T^(p^j) over F, given as c and its
    (j, b_j) pairs with distinct j: F' the canonical splitting field of f
    and x its smallest root there by encoding.

    x -> x^(p^l) permutes every finite field, so for the least l with
    b_l != 0, f splits where its separable part
    f_s = c + sum_j b_j U^(p^(j-l)) of degree p^t does: over GF(q^K) for
    the least K with U^(q^K) = U modulo f_s.  The residues of U, U^p, ...
    stay in the span of 1, U, ..., U^(p^(t-1)), so a p-th power is t + 1
    coefficient p-th powers, a shift and a fold of U^(p^t).  The number
    of steps is the degree of F' over GF(p); above DEGREE_CAP, and for a
    constant f, ValueError is raised.

    L(T) = sum_j b_j T^(p^j) is F_p-linear on F', so the roots are
    x0 + ker L, x0 one solution of L(x) = -c (Lidl-Niederreiter, Finite
    Fields, 3.4): :func:`solve` and :func:`kernel` over GF(p) on the
    digit rows of L.  The smallest root is x0 reduced against an echelon
    basis of ker L whose pivots are the highest digits, which depend
    only on ker L; it is checked against f.
    """
    field = c.field
    p, zero = field.p, field.zero
    terms = {j: b for j, b in terms if b}
    if not terms:
        raise ValueError("a constant has no root to find")
    low, t = min(terms), max(terms) - min(terms)
    # U^(p^t) modulo f_s, as (constant, U, U^p, ..., U^(p^(t-1)))
    lead = -terms[low + t].inverse()
    fold = [c * lead] + [terms.get(low + i, zero) * lead for i in range(t)]
    u = [zero, field.one] + [zero] * (t - 1) if t else fold
    y, n = u, 0
    while n == 0 or y != u:
        if n + field.n > DEGREE_CAP:
            raise ValueError("the splitting field of an additive polynomial "
                             "over %r exceeds the degree cap %d over GF(%d)"
                             % (field, DEGREE_CAP, p))
        n += field.n
        for _ in range(field.n):
            y = [a ** p for a in y]
            if t:
                top = y.pop()
                y = [a + top * b for a, b in zip([y[0], zero] + y[1:], fold)]
    big = field if n == field.n else GF(p, n)
    emb = embedding(field, big)
    terms = {j: emb(b) for j, b in terms.items()}
    c = emb(c)
    images = [big.zero] * big.n
    for j, b in terms.items():
        images = [y + b * x
                  for y, x in zip(images, _frobenius_columns(big, j))]
    prime = GF(p)
    rows = list(zip(*[y.coeffs for y in images]))
    x0 = solve(rows, (-c).coeffs, prime)
    if x0 is None:
        raise AssertionError("no root in the splitting field")  # unreachable
    # the kernel reversed, so that each pivot is a highest digit
    digits = Echelon([v[::-1] for v in kernel(rows, big.n, prime)],
                     field=prime).reduce(x0[::-1])
    x = big.from_coeffs([int(d) for d in reversed(digits)])
    if c + sum((b * x.frobenius(j) for j, b in terms.items()), big.zero):
        raise AssertionError("additive root fails f")  # elimination defect
    return big, x


@functools.lru_cache(maxsize=None)
def _generator_image(src, dst):
    """Coefficient tuple of the canonical image of src.gen inside dst: the
    smallest root of src's modulus f there.

    The d = src.n roots of f lie in the subfield K = ker(Frob^d - 1) of
    dst, a kernel over GF(p).  An element z of K of degree d over F_p
    generates K.  Its minimal polynomial m_z, read off the first
    dependence among its powers, splits in src, and each root w of m_z
    gives the isomorphism w -> z of src onto K.  That sends
    src.gen = sum_k c_k w^k, the c_k from one elimination over GF(p), to
    sum_k c_k z^k.  So the d roots of m_z, found in src rather than in
    dst, give the d roots of f in dst; the smallest is checked against f.
    """
    from .polyring import Polynomial
    p, d = dst.p, src.n
    prime = GF(p)
    basis = kernel(list(zip(*[(y - x).coeffs for y, x in zip(
        _frobenius_columns(dst, d), _frobenius_columns(dst, 0))])),
        dst.n, prime)
    rng = random.Random(0xC0FFEE ^ dst.q)
    while True:
        ts = [rng.randrange(p) for _ in basis]
        z = dst.from_coeffs([sum(map(operator.mul, ts, map(int, col)))
                             for col in zip(*basis)])
        zs = [dst.one]
        for _ in range(d):
            zs.append(zs[-1] * z)
        rel = first_dependence([x.coeffs for x in zs], prime)
        if len(rel) == d:
            break
    ws = _roots_in_field(Polynomial(src, [src.scalar(int(a)) for a in rel]
                                    + [src.one]))
    if len(ws) != d:
        raise AssertionError("minimal polynomial does not split")
    cols = list(zip(*[x.coeffs for x in zs[:d]]))
    images = []
    for w in ws:
        powers = [src.one]
        for _ in range(d - 1):
            powers.append(powers[-1] * w)
        c = solve(list(zip(*[x.coeffs for x in powers])), src.gen.coeffs,
                  prime)
        images.append(dst.from_coeffs(
            [sum(map(operator.mul, map(int, c), col)) for col in cols]))
    img = min(images, key=int)
    if Polynomial(dst, [dst.scalar(a) for a in src.modulus]).evaluate(img):
        raise AssertionError("no embedding found")  # embedding defect
    return img.coeffs


def embedding(src, dst):
    """The canonical field homomorphism src -> dst as a callable.

    Canonical means: the generator of src maps to the smallest root (by
    encoding) of src's modulus in dst, found in the subfield of dst of
    src's size (:func:`_generator_image`).  Requires src.n | dst.n and
    equal p.
    """
    if src.p != dst.p:
        raise ValueError("different characteristics")
    if dst.n % src.n:
        raise ValueError("no embedding: %r does not divide %r" % (src, dst))
    if src is dst:
        return lambda x: x
    if src.n == 1:
        def emb(x):
            return dst.scalar(x.coeffs[0])
        return emb
    img = FqElement(dst, _generator_image(src, dst))

    def emb(x):
        acc = dst.zero
        for c in reversed(x.coeffs):
            acc = acc * img + c
        return acc
    return emb


def embed(x, dst):
    """Image of x under the canonical embedding of its field into dst."""
    return embedding(x.field, dst)(x)


def embedding_over(src, dst, sub):
    """The embedding src -> dst that agrees with the canonical sub -> dst
    on sub, a subfield of src under its canonical embedding.

    Canonical embeddings need not compose to canonical ones, but any two
    embeddings of sub into dst differ by a power of Frobenius: this is
    the canonical src -> dst followed by the power x -> x^(p^k), k < sub.n,
    that sends the image of sub.gen to its canonical image.
    """
    emb = embedding(src, dst)
    x = emb(embed(sub.gen, src))
    target = embed(sub.gen, dst)
    for k in range(sub.n):
        if x == target:
            if k == 0:
                return emb
            e = dst.p ** k
            return lambda y: emb(y) ** e
        x = x ** dst.p
    raise AssertionError("no Frobenius power matches")  # unreachable


# ---------------------------------------------------------------------------
# polynomial root finding (the Polynomial type lives in polyring; imported
# lazily to keep this module at the bottom of the layering)


def _factor_degrees(f):
    """Degrees d such that the squarefree f has an irreducible factor of
    degree d (distinct-degree factorization)."""
    from .polyring import Polynomial
    field = f.field
    t = Polynomial.variable(field)
    s = f.monic()
    out = []
    h = t
    k = 0
    while s.degree() > 0:
        k += 1
        if 2 * k > s.degree():
            out.append(s.degree())
            break
        h = h.pow_mod(field.q, s)
        g = s.gcd(h - t)
        if g.degree() > 0:
            out.append(k)
            s = (s // g).monic()
            h = h % s
    return out


def _roots_in_field(f):
    """Distinct roots of f lying in its own coefficient field: by
    evaluation at every element when q <= _EXHAUST_CAP, so a search makes
    at most that many evaluations, and otherwise by equal-degree
    splitting of gcd(f, T^q - T)."""
    from .polyring import Polynomial
    field = f.field
    if field.q <= _EXHAUST_CAP:
        return [x for x in field.elements() if not f.evaluate(x)]
    t = Polynomial.variable(field)
    w = f.gcd(t.pow_mod(field.q, f) - t)
    return _split_linear(w.monic(), random.Random(0xC0FFEE ^ field.q))


def _split_linear(w, rng):
    """Roots of w, a squarefree product of monic linear factors, split by
    elements drawn from the random.Random rng."""
    from .polyring import Polynomial
    field = w.field
    if w.degree() <= 0:
        return []
    if w.degree() == 1:
        return [-w.coeffs[0]]
    t = Polynomial.variable(field)
    while True:
        a = field.from_int(rng.randrange(field.q))
        if field.p == 2:
            # Berlekamp's trace algorithm: Tr(a t) = sum (a t)^(2^i), i < n,
            # is 0 or 1 at each root.  A random scale a separates two roots
            # with probability 1/2; a shift t + a never separates roots of
            # equal trace.
            h = Polynomial(field, [field.zero])
            cur = (t * a) % w
            for _ in range(field.n):
                h = h + cur
                cur = cur.pow_mod(2, w)
        else:
            h = (t + a).pow_mod((field.q - 1) // 2, w) - field.one
        g = w.gcd(h)
        if 0 < g.degree() < w.degree():
            g = g.monic()
            return _split_linear(g, rng) + _split_linear((w // g).monic(), rng)


def roots_in_splitting_field(f):
    """(F', [(root, multiplicity), ...]) for the splitting field F' of f.

    F' is the canonical field F_{q^L} with L the lcm of the irreducible
    factor degrees (F itself when L = 1); the root list is sorted by
    encoding and its re-expansion is verified against f before
    returning.  A splitting field of degree above DEGREE_CAP over GF(p)
    raises ValueError in :func:`GF`.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no splitting field")
    field = f.field
    lcm = math.lcm(*_factor_degrees(f.squarefree_part()))
    big = field if lcm == 1 else GF(field.p, field.n * lcm)
    f2 = f.embed_to(big)
    return big, _multiplicities(f2, _roots_in_field(f2))


def _multiplicities(f, roots):
    """[(root, multiplicity), ...] for the distinct roots of f, all of
    them in its coefficient field, sorted by encoding; checked by
    re-expanding f."""
    from .polyring import Polynomial
    out = []
    check = Polynomial(f.field, [f.coeffs[-1]])
    t = Polynomial.variable(f.field)
    rest = f
    for r in sorted(roots, key=int):
        mult, rest = rest.multiplicity(r)
        out.append((r, mult))
        check = check * (t - r) ** mult
    if check != f or sum(m for _, m in out) != f.degree():
        raise AssertionError("root re-expansion failed")  # splitting defect
    return out
