"""Graded nonassociative algebras over finite fields, plus the linear maps
and subspaces needed to switch their gradings; their eliminations run in
:mod:`gradeswitch.echelon`.

Conventions: vectors are coefficient tuples in the algebra basis; a
:class:`LinearMap` acts on column vectors, ``apply(v) = M v``; a
:class:`Subspace` stores the reduced row echelon basis of its row space, so
equal subspaces compare (and hash) equal componentwise.  Structure constants
are sparse: ``products[(i, j)]`` lists the nonzero (k, coefficient) pairs of
e_i * e_j.
"""

import itertools
import math
import operator

from . import echelon
from .echelon import Echelon, first_dependence
from .fields import (FqElement, GF, _as_field_elt, embedding,
                     roots_in_splitting_field)
from .polyring import _COEFFS, Polynomial, RingElement


class LinearMap(RingElement):
    """Square matrix over an FqField acting on column vectors.

    Adding a field element s means M + s*I, so polynomials evaluate at
    matrices through the generic Horner rule.  Products, applies, sums and
    negations run on the field's row kernel: a map keeps its entries
    packed row by row, and its rows and its columns each packed into one
    wide int, entry j in block j, once built (it is immutable).  Row i of
    A B is then one sum of n products of A's packed entries with B's wide
    rows, A v one sum of n products of v's packed entries with A's wide
    columns, row i of A + B the sum of the two wide rows, and each is
    reduced to field elements in one pass over the whole row.  The kernel
    is sized for n + 1 products, so that the fused step A.mul_add(B, C, s)
    = A B + s C adds s times C's wide row i to row i of A B before that
    one pass.
    """

    __slots__ = ("field", "n", "rows", "_prows", "_wrows", "_wcols",
                 "_chain", "_minpoly")

    def __init__(self, field, rows):
        rs = tuple(tuple(_as_field_elt(field, x) for x in row) for row in rows)
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        self.field = field
        self.n = n
        self.rows = rs
        self._prows = self._wrows = self._wcols = self._chain = None
        self._minpoly = None

    @classmethod
    def _trusted(cls, field, rows):
        """The map with `rows`, n tuples of n elements of `field`,
        unchecked."""
        M = object.__new__(cls)
        M.field = field
        M.n = len(rows)
        M.rows = rows
        M._prows = M._wrows = M._wcols = M._chain = None
        M._minpoly = None
        return M

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._trusted(field, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, field, n):
        return cls._trusted(field, ((field.zero,) * n,) * n)

    def column(self, j):
        return tuple(row[j] for row in self.rows)

    def is_zero(self):
        zero = self.field.zero
        return not any(x is not zero and x for row in self.rows for x in row)

    def __bool__(self):
        return not self.is_zero()

    def _scalar(self, other):
        if isinstance(other, (int, FqElement)):
            return _as_field_elt(self.field, other)
        return None

    def _kernel(self):
        return self.field.row_kernel(self.n + 1, self.n)

    def _packed_rows(self):
        if self._prows is None:
            pack = self._kernel()[0]
            self._prows = tuple([tuple(map(pack, map(_COEFFS, row)))
                                 for row in self.rows])
        return self._prows

    def _wide_rows(self):
        if self._wrows is None:
            self._wrows = tuple(map(self._kernel()[1], self._packed_rows()))
        return self._wrows

    def _wide_columns(self):
        if self._wcols is None:
            self._wcols = tuple(map(self._kernel()[1],
                                    zip(*self._packed_rows())))
        return self._wcols

    # A sum of two wide rows holds at most 2 (p - 1) in a slot and p - 1
    # times a wide row at most (p - 1)^2: both within the kernel's bound
    # (whose slots are at least 8 bits wide), so each is one unpack.

    def __add__(self, other):
        if isinstance(other, LinearMap):
            self._same_space(other)
            return LinearMap._trusted(self.field, tuple(map(
                self._kernel()[2],
                map(operator.add, self._wide_rows(), other._wide_rows()))))
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return LinearMap._trusted(self.field, tuple(
            row[:i] + (row[i] + s,) + row[i + 1:]
            for i, row in enumerate(self.rows)))

    def __neg__(self):
        unpack, m = self._kernel()[2], self.field.p - 1
        return LinearMap._trusted(self.field, tuple(
            [unpack(w * m) for w in self._wide_rows()]))

    def one(self):
        return LinearMap.identity(self.field, self.n)

    def __mul__(self, other):
        if isinstance(other, LinearMap):
            self._same_space(other)
            unpack = self._kernel()[2]
            wide = other._wide_rows()
            mul = operator.mul
            return LinearMap._trusted(self.field, tuple([
                unpack(sum(map(mul, row, wide)))
                for row in self._packed_rows()]))
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return LinearMap._trusted(self.field, tuple(
            tuple([x * s for x in row]) for row in self.rows))

    def __rmul__(self, other):
        s = self._scalar(other)
        if s is None:
            return NotImplemented
        return self * s

    def mul_add(self, x, c, s):
        """self x + c s in one pass over each row when x and c are maps
        and s a scalar: row i is the sum of n products of this map's
        packed entries with x's wide rows plus packed s times c's wide
        row i, unpacked once.  A scalar x or c takes the plain form."""
        if not (isinstance(x, LinearMap) and isinstance(c, LinearMap)):
            return self * x + c * s
        self._same_space(x)
        self._same_space(c)
        pack, _, unpack, _ = self._kernel()
        ps = pack(_as_field_elt(self.field, s).coeffs)
        wide = x._wide_rows()
        mul = operator.mul
        return LinearMap._trusted(self.field, tuple([
            unpack(sum(map(mul, row, wide)) + ps * crow)
            for row, crow in zip(self._packed_rows(), c._wide_rows())]))

    def polynomial_value(self, f):
        """f(M) for a Polynomial f over M's field of degree below
        (n + 1)^2, by Paterson and Stockmeyer (SIAM J. Comput. 2(1), 1973):
        baby steps M^0, ..., M^(s-1) for s = ceil(sqrt(deg f + 1)), the
        giant step M^s, and one fused Horner step acc M^s + B(M) per
        further block B of s coefficients from the top.  Row i of B(M) is
        one sum of s <= n + 1 packed scalars times wide rows i, unpacked
        once.  About 2 sqrt(deg f) map products, against deg f for
        Horner's rule."""
        cs = f.coeffs
        s = math.isqrt(max(len(cs) - 1, 0)) + 1
        if s > self.n + 1:
            raise ValueError("degree %d is too high for an %d x %d map"
                             % (f.degree(), self.n, self.n))
        if not cs:
            return LinearMap.zero(self.field, self.n)
        pack, _, unpack, _ = self._kernel()
        powers = [self.one(), self]
        while len(powers) < min(s, len(cs)) + (len(cs) > s):
            powers.append(powers[-1] * self)

        def combination(block):
            terms = [(pack(c.coeffs), M._wide_rows())
                     for c, M in zip(block, powers) if c]
            return LinearMap._trusted(self.field, tuple([
                unpack(sum([c * wide[i] for c, wide in terms]))
                for i in range(self.n)]))
        starts = range(0, len(cs), s)
        acc = combination(cs[starts[-1]:])
        for k in reversed(starts[:-1]):
            acc = acc.mul_add(powers[s], combination(cs[k:k + s]),
                              self.field.one)
        return acc

    def p_power(self, k):
        """M^(p^k), from the chain M^p, M^(p^2), ... this map keeps: each
        power is formed once, and a repeated call returns the same
        object."""
        if k == 0:
            return self
        chain = self._chain
        if chain is None:
            chain = self._chain = [self ** self.field.p]
        while len(chain) < k:
            chain.append(chain[-1] ** self.field.p)
        return chain[k - 1]

    def apply(self, v):
        if len(v) != self.n:
            raise ValueError("vector of wrong length")
        pack, _, unpack, _ = self._kernel()
        field = self.field
        return unpack(sum(map(operator.mul, [
            pack(_as_field_elt(field, x).coeffs) for x in v],
            self._wide_columns())))

    def minimal_polynomial(self):
        """Least monic f with f(M) = 0: one Krylov sequence, refined by
        f(M) until it vanishes or deg f reaches n.  The map keeps f beside
        its p-power chain (it is immutable), so a repeated call on the
        same object returns the same polynomial and forms nothing.

        f starts as the local minimal polynomial of the all-ones vector
        (the least monic f with f(M) v = 0).  While F = f(M) is nonzero,
        its first nonzero column u = F e_s has local minimal polynomial
        mu_s / gcd(mu_s, f), with mu_s that of e_s, so f * mu_u =
        lcm(f, mu_s): f stays an lcm of local minimal polynomials, hence
        a divisor of M's, and its degree rises.  Either of two facts
        proves that f is M's, after at most n rounds: deg f = n, since
        M's minimal polynomial divides its characteristic one
        (Cayley-Hamilton), and then f(M) is never formed; or F = 0.
        """
        if self._minpoly is not None:
            return self._minpoly
        zero = self.field.zero
        f = self._local_minimal_polynomial((self.field.one,) * self.n)
        while f.degree() < self.n:
            u = next((col for col in zip(*f.evaluate(self).rows)
                      if any(x is not zero and x for x in col)), None)
            if u is None:
                break
            f = f * self._local_minimal_polynomial(u)
        self._minpoly = f
        return f

    def _local_minimal_polynomial(self, v):
        """Least monic f with f(M) v = 0, from the first dependence among
        v, M v, M^2 v, ..."""
        field = self.field
        return Polynomial(field, first_dependence(self._krylov(v), field)
                          + [field.one])

    def _krylov(self, v):
        """v, M v, M^2 v, ..."""
        while True:
            yield v
            v = self.apply(v)

    def embed_to(self, field):
        if field is self.field:
            return self
        emb = embedding(self.field, field)
        return LinearMap(field, [[emb(x) for x in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.field), self.rows))

    def _same_space(self, other):
        if other.field is not self.field or other.n != self.n:
            raise ValueError("maps on different spaces")


def kernel(M):
    """Basis of the null space of M (column-vector convention)."""
    return echelon.kernel(M.rows, M.n, M.field)


class Subspace:
    """Subspace of F^n stored as a reduced row echelon basis (canonical)."""

    __slots__ = ("field", "ambient", "basis", "pivots", "_echelon")

    def __init__(self, field, ambient, vectors):
        self._echelon = Echelon(vectors, field=field)
        self.basis, self.pivots = self._echelon.rref()
        self.field = field
        self.ambient = ambient

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, LinearMap.identity(field, ambient).rows)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return self._echelon.contains(v)

    def coordinates(self, v):
        """Coefficients of v in the echelon basis (v must lie here): the
        basis is reduced, so they are v's entries at the pivots."""
        if not self._echelon.contains(v):
            raise ValueError("vector outside the subspace")
        return tuple(v[pc] for pc in self.pivots)

    def image(self, M):
        """The image subspace M(self)."""
        return Subspace(self.field, self.ambient,
                        [M.apply(b) for b in self.basis])

    def __add__(self, other):
        self._compatible(other)
        return Subspace(self.field, self.ambient, self.basis + other.basis)

    def intersect(self, other):
        self._compatible(other)
        return Subspace(self.field, self.ambient, echelon.intersection(
            self.basis, other.basis, self.ambient, self.field))

    def map_field(self, field, emb=None):
        """This subspace over `field`, its basis mapped by the embedding
        emb, by default the canonical one."""
        if emb is None:
            if field is self.field:
                return self
            emb = embedding(self.field, field)
        return Subspace(field, self.ambient,
                        [tuple(emb(x) for x in b) for b in self.basis])

    def _compatible(self, other):
        if other.field is not self.field or other.ambient != self.ambient:
            raise ValueError("subspaces of different spaces")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field is other.field and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((id(self.field), self.ambient, self.basis))


def generalized_eigenspaces(D, f=None):
    """(F', ((eigenvalue, generalized eigenspace), ...)) after enlarging
    to a splitting field F' of the minimal polynomial f of D (formed here
    unless the caller has it); the pairs are sorted by eigenvalue
    encoding, and the eigenspaces are verified to fill the space.

    The rho-eigenspace is the kernel of D^(p^k) - rho^(p^k), which is
    (D - rho)^(p^k) in characteristic p, for the least k with p^k at
    least the multiplicity of rho in D's minimal polynomial: past that
    multiplicity the kernels of the powers of D - rho stop growing.
    D^(p^k) comes from D's own p-power chain, over D's field, and is
    embedded into F' once per k.  A simple root takes k = 0, and the
    largest k is the least r with D^(p^r) semisimple, so after
    switch.semisimple_exponent(D) the chain and the minimal polynomial
    are formed already.
    """
    if f is None:
        f = D.minimal_polynomial()
    big, roots = roots_in_splitting_field(f)
    p = big.p
    powers = {}     # k -> D^(p^k) over big
    entries = []
    for rho, mult in roots:
        k = 0
        while p ** k < mult:
            k += 1
        if k not in powers:
            powers[k] = D.p_power(k).embed_to(big)
        nmap = powers[k] - rho ** (p ** k)
        entries.append((rho, Subspace(big, D.n, kernel(nmap))))
    if sum(s.dim for _, s in entries) != D.n:
        raise AssertionError("generalized eigenspaces do not fill the space")
    stacked = [b for _, s in entries for b in s.basis]
    if Echelon(stacked).rank != D.n:
        raise AssertionError("generalized eigenspaces are not independent")
    return big, tuple(entries)


# ---------------------------------------------------------------------------
# graded algebras


class GradedAlgebra:
    """Finite-dimensional nonassociative algebra with a Z/m grading aligned
    to its basis, and optionally a p-th power map on basis vectors (for
    restricted Lie algebras).

    degrees[i] is the residue of basis vector e_i; products[(i, j)] lists
    the nonzero (k, coeff) of e_i e_j, each k once.  Constants given more
    than once for one (i, j, k) are summed first; a nonzero sum with
    deg e_k != deg e_i + deg e_j mod m raises ValueError.  pmap, when
    present, gives e_i^[p] as a vector, which toral.RestrictedLie checks
    against the p-map it derives from ad.  Products and the checks below
    run on the structure constants packed for the field's three-factor
    dot kernel, built once (the algebra is immutable).
    """

    __slots__ = ("field", "m", "degrees", "products", "pmap", "_sc")

    def __init__(self, field, m, degrees, products, pmap=None):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.field = field
        self.m = m
        self.degrees = tuple(int(d) % m for d in degrees)
        dim = len(self.degrees)
        clean = {}
        for (i, j), terms in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("basis index out of range")
            merged = {}     # k -> summed c, in order of first listing
            for k, c in terms:
                c = _as_field_elt(field, c)
                if not c:
                    continue
                if not 0 <= k < dim:
                    raise ValueError("basis index out of range")
                merged[k] = merged[k] + c if k in merged else c
            kept = tuple((k, c) for k, c in merged.items() if c)
            for k, _ in kept:
                if (self.degrees[i] + self.degrees[j]
                        - self.degrees[k]) % m:
                    raise ValueError(
                        "product e_%d e_%d hits e_%d outside the graded "
                        "component" % (i, j, k))
            if kept:
                clean[(i, j)] = kept
        self.products = clean
        if pmap is not None:
            pmap = tuple(tuple(_as_field_elt(field, c) for c in row)
                         for row in pmap)
            if len(pmap) != dim or any(len(r) != dim for r in pmap):
                raise ValueError("pmap must give one vector per basis element")
        self.pmap = pmap
        self._sc = None

    @classmethod
    def from_entries(cls, field, m, degrees, entries, pmap=None):
        prods = {}
        for i, j, k, c in entries:
            prods.setdefault((i, j), []).append((k, c))
        return cls(field, m, degrees, prods, pmap)

    @property
    def dim(self):
        return len(self.degrees)

    def basis_vector(self, i):
        return tuple(self.field.one if j == i else self.field.zero
                     for j in range(self.dim))

    def _constants(self):
        """(pack, unpack, rows) with rows[i] = {j: ((k, packed c), ...)}
        over the nonzero c = c_ijk.

        Every slot any product or check below accumulates is a sum of at
        most max(#{(i, j) : c_ijk != 0}, 3 dim) terms of up to three
        packed factors, which is the kernel's length.
        """
        if self._sc is None:
            pack, unpack, _ = self.field.dot_kernel(
                max(self._slot_terms(), 3 * self.dim, 1), 3)
            self._sc = (pack, unpack, self._structure_rows(pack))
        return self._sc

    def _slot_terms(self):
        """The most nonzero c_ijk over the pairs (i, j) for one k: the
        number of terms one slot of a product sums."""
        hits = [0] * self.dim
        for terms in self.products.values():
            for k, _ in terms:
                hits[k] += 1
        return max(hits, default=0)

    def _structure_rows(self, pack):
        """rows[i] = {j: ((k, pack(c)), ...)} over the nonzero c = c_ijk."""
        rows = tuple({} for _ in range(self.dim))
        for (i, j), terms in self.products.items():
            rows[i][j] = tuple([(k, pack(c)) for k, c in terms])
        return rows

    def _pack(self, v):
        """The packed entries of a vector of this algebra, zeros as 0."""
        if len(v) != self.dim:
            raise ValueError("vector of wrong length")
        return list(map(self._constants()[0], v))

    def _product(self, px, py):
        """x y from the packed entries of x and y."""
        _, unpack, rows = self._constants()
        out = [0] * self.dim
        _accumulate(rows, px, py, out)
        zero = self.field.zero
        return tuple([unpack(s) if s else zero for s in out])

    def product(self, x, y):
        """x y for vectors of `dim` entries: elements of this algebra's
        field, or ints taken as scalars."""
        return self._product(self._pack(x), self._pack(y))

    def left_multiplication(self, x):
        """The map y -> x y as a LinearMap (equals ad x for Lie brackets)."""
        _, unpack, rows = self._constants()
        n = self.dim
        acc = [[0] * n for _ in range(n)]   # acc[k][j]: e_k of x e_j
        for i, xi in enumerate(self._pack(x)):
            if xi:
                for j, terms in rows[i].items():
                    for k, c in terms:
                        acc[k][j] += xi * c
        zero = self.field.zero
        return LinearMap._trusted(self.field, tuple(
            tuple([unpack(s) if s else zero for s in row]) for row in acc))

    def grading_parts(self):
        """[(k, Subspace)] for k = 0..m-1; empty components included."""
        out = []
        for k in range(self.m):
            vecs = [self.basis_vector(i) for i, d in enumerate(self.degrees)
                    if d == k]
            out.append((k, Subspace(self.field, self.dim, vecs)))
        return out

    def change_field(self, field):
        if field is self.field:
            return self
        emb = embedding(self.field, field)
        prods = {ij: tuple((k, emb(c)) for k, c in terms)
                 for ij, terms in self.products.items()}
        pmap = None
        if self.pmap is not None:
            pmap = tuple(tuple(emb(c) for c in row) for row in self.pmap)
        return GradedAlgebra(field, self.m, self.degrees, prods, pmap)

    def __eq__(self, other):
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (self.field is other.field and self.m == other.m
                and self.degrees == other.degrees
                and self.products == other.products
                and self.pmap == other.pmap)

    # -- JSON ------------------------------------------------------------------

    def to_json(self):
        field = self.field
        obj = {
            "p": field.p,
            "field_degree": field.n,
            "modulus": list(field.modulus),
            "dim": self.dim,
            "m": self.m,
            "deg": list(self.degrees),
            "sc": [[i, j, k, _coeff_str(c)]
                   for (i, j) in sorted(self.products)
                   for k, c in self.products[(i, j)]],
        }
        if self.pmap is not None:
            obj["pmap"] = [[i, [_coeff_str(c) for c in row]]
                           for i, row in enumerate(self.pmap) if any(row)]
        return obj

    @classmethod
    def from_json(cls, obj):
        try:
            p = _json_int(obj["p"], "p")
            n = _json_int(obj.get("field_degree", 1), "field_degree")
            modulus = obj.get("modulus")
            if modulus:
                modulus = tuple(_json_int(c, "modulus") for c in modulus)
            field = GF(p, n, modulus or None)
            dim = _json_int(obj["dim"], "dim")
            m = _json_int(obj["m"], "m")
            degrees = [_json_int(d, "deg") for d in obj["deg"]]
            if len(degrees) != dim:
                raise ValueError("deg must list one residue per basis vector")
            entries = []
            for item in obj["sc"]:
                if not isinstance(item, list) or len(item) != 4:
                    raise _malformed("sc item %r is not [i, j, k, coefficient]"
                                     % (item,))
                i, j, k, cs = item
                entries.append((_json_int(i, "sc index"),
                                _json_int(j, "sc index"),
                                _json_int(k, "sc index"),
                                _json_coeff(field, cs)))
            pmap = None
            if "pmap" in obj:
                rows = [[field.zero] * dim for _ in range(dim)]
                for item in obj["pmap"]:
                    if not isinstance(item, list) or len(item) != 2:
                        raise _malformed("pmap item %r is not [i, vector]"
                                         % (item,))
                    i, row = item
                    i = _json_int(i, "pmap index")
                    if not 0 <= i < dim:
                        raise _malformed("pmap index %d out of range" % i)
                    rows[i] = [_json_coeff(field, c) for c in row]
                    if len(rows[i]) != dim:
                        raise ValueError("pmap vector of wrong length")
                pmap = rows
            return cls.from_entries(field, m, degrees, entries, pmap)
        except (KeyError, TypeError, IndexError) as exc:
            raise _malformed(exc) from exc


def _accumulate(rows, px, py, out):
    """out[k] += sum of px[i] py[j] c_ijk over i and j, on packed ints:
    rows as from :meth:`GradedAlgebra._structure_rows`, px and py packed
    for the same kernel."""
    for i, xi in enumerate(px):
        if xi:
            for j, terms in rows[i].items():
                yj = py[j]
                if yj:
                    f = xi * yj
                    for k, c in terms:
                        out[k] += f * c


def _malformed(detail):
    return ValueError("malformed algebra JSON: %s" % (detail,))


def _json_int(x, what):
    """x itself when it is a JSON integer; floats and bools are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise _malformed("%s must be an integer, not %r" % (what, x))
    return x


def _json_coeff(field, s):
    try:
        return _coeff_parse(field, s)
    except (ValueError, TypeError) as exc:
        raise _malformed("coefficient %r: %s" % (s, exc)) from exc


def _coeff_str(c):
    return ",".join(str(d) for d in c.coeffs)


def _coeff_parse(field, s):
    """A coefficient from its JSON form: a "d0,d1,..." digit string, one
    integer, or a list of integer digits.  Bools, floats and other types
    are refused, also inside digit lists (TypeError); a digit string that
    is not integers raises ValueError."""
    if isinstance(s, str):
        digits = [int(t) for t in s.split(",")]
    elif isinstance(s, list):
        digits = s
    else:
        digits = [s]
    for d in digits:
        if isinstance(d, bool) or not isinstance(d, int):
            raise TypeError("coefficient digits must be integers, not %r"
                            % (d,))
    return field.from_coeffs(digits)


# ---------------------------------------------------------------------------
# derivations and gradings


def is_derivation(A, D):
    """D(xy) = D(x)y + xD(y) on all basis pairs.

    One pass over the structure constants c_ijk builds the Leibniz defect
    D(e_i e_j) - D(e_i) e_j - e_i D(e_j) at (i, j, l) from the nonzero
    entries of column k and of rows i and j of D; D is a derivation iff
    every accumulated slot is zero.
    """
    _check_acts(A, D)
    pack, unpack, rows = A._constants()
    n = A.dim
    cols = [[] for _ in range(n)]   # cols[k]: (l, D_lk)
    negs = [[] for _ in range(n)]   # negs[a]: (i, -D_ai)
    for l, row in enumerate(D.rows):
        for k, x in enumerate(row):
            if x:
                cols[k].append((l, pack(x)))
                negs[l].append((k, pack(-x)))

    def defect():   # slot (i, j, l) as (i n + j) n + l
        for i, row in enumerate(rows):
            for j, terms in row.items():
                for k, c in terms:
                    for l, d in cols[k]:
                        yield (i * n + j) * n + l, c * d
                    for i2, d in negs[i]:
                        yield (i2 * n + j) * n + k, c * d
                    for j2, d in negs[j]:
                        yield (i * n + j2) * n + k, c * d
    return _vanishes(unpack, defect())


def _check_acts(A, D):
    if D.field is not A.field or D.n != A.dim:
        raise ValueError("map does not act on the algebra")


def _vanishes(unpack, terms):
    """True when, for every slot, the packed values of the (slot, value)
    terms sum to zero."""
    acc = {}
    for k, c in terms:
        acc[k] = acc.get(k, 0) + c
    return not any(map(unpack, acc.values()))


def bracket_failure(A):
    """Why the product of A is not a Lie bracket, or None when it is.

    Checked on the structure constants in the order alternation and
    antisymmetry on basis pairs, then the Jacobi identity on basis
    triples i < j < k.
    """
    unpack, rows = A._constants()[1:]
    n = A.dim
    for i in range(n):
        if i in rows[i]:
            return "bracket is not alternating"
        for j in range(i + 1, n):
            if not _vanishes(unpack,
                             rows[i].get(j, ()) + rows[j].get(i, ())):
                return "bracket is not antisymmetric"
    for i, j, k in itertools.combinations(range(n), 3):
        # [e_a, [e_b, e_c]] = sum_l c_bcl sum_m c_alm e_m, cyclically
        if not _vanishes(unpack, (
                (m, c1 * c2)
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                for l, c1 in rows[b].get(c, ())
                for m, c2 in rows[a].get(l, ()))):
            return "Jacobi identity fails"
    return None


def derivation_degree(A, D):
    """The degree d with D(A_k) <= A_{k+d}, or None if D is not graded.

    The zero map gets degree 0.
    """
    _check_acts(A, D)
    d = None
    for i in range(A.dim):
        img = D.column(i)
        ks = {A.degrees[k] for k, c in enumerate(img) if c}
        if not ks:
            continue
        if len(ks) > 1:
            return None
        di = (ks.pop() - A.degrees[i]) % A.m
        if d is None:
            d = di
        elif d != di:
            return None
    return 0 if d is None else d


def is_grading(A, parts):
    """True iff the labelled subspaces sum directly to A and multiply into
    the component of the combined label; labels are residues mod A.m,
    added mod A.m, and absent labels act as zero.

    When e_j e_i = s e_i e_j on every basis pair, for one sign s = 1 or
    -1, then v u = s u v for all u and v, and both lie in one subspace: so
    only the label pairs k <= l are checked, in the order of the parts,
    and inside one part the basis pairs i <= j.  Any other product is
    checked on every ordered pair.
    """
    by_label = {}
    for k, s in parts:
        k %= A.m
        if k in by_label:
            raise ValueError("duplicate label %r" % (k,))
        by_label[k] = s
    stacked = [b for s in by_label.values() for b in s.basis]
    if len(stacked) != A.dim or Echelon(stacked).rank != A.dim:
        return False
    # pairs of nonempty components only: of the m^2, most can be empty
    packed = [(k, [A._pack(b) for b in s.basis])
              for k, s in by_label.items() if s.basis]
    unordered = _commutes_up_to_sign(A)
    zero = A.field.zero
    for a, (k, us) in enumerate(packed):
        for b in range(a if unordered else 0, len(packed)):
            l, vs = packed[b]
            target = by_label.get((k + l) % A.m)
            for i, pu in enumerate(us):
                for pv in vs[i:] if unordered and a == b else vs:
                    w = A._product(pu, pv)
                    if (any(x is not zero and x for x in w)
                            and (target is None or not target.contains(w))):
                        return False
    return True


def _commutes_up_to_sign(A):
    """True when the structure constants give e_j e_i = s e_i e_j on every
    basis pair for one sign s = 1 or -1 (in characteristic 2 the two signs
    are one test)."""
    prods = A.products

    def signed(neg):
        return all(dict(prods.get((j, i), ()))
                   == {k: -c if neg else c for k, c in terms}
                   for (i, j), terms in prods.items())
    return signed(False) or (A.field.p != 2 and signed(True))


# ---------------------------------------------------------------------------
# builders


def witt(p):
    """The Witt algebra W(1;1) over GF(p): basis e_{-1}, ..., e_{p-2} with
    [e_a, e_b] = (b - a) e_{a+b}, graded by index mod p.  Index a is basis
    slot a+1.  No p-map is stored: toral.RestrictedLie derives its
    e_0^[p] = e_0 and e_a^[p] = 0 otherwise from ad."""
    field = GF(p)
    dim = p
    entries = []
    for a in range(-1, p - 1):
        for b in range(-1, p - 1):
            c = (b - a) % p
            if c and -1 <= a + b <= p - 2:
                entries.append((a + 1, b + 1, a + b + 1, c))
    degrees = [(t - 1) % p for t in range(dim)]
    return GradedAlgebra.from_entries(field, p, degrees, entries)


def truncated_poly(p, length, m):
    """Divided-power truncated polynomial algebra over GF(p): basis
    x^(0), ..., x^(length-1) with x^(i) x^(j) = binom(i+j, i) x^(i+j)
    (zero once i+j reaches length), graded by subscript mod m."""
    if length < 1 or m < 1:
        raise ValueError("truncated polynomial algebra needs length >= 1 "
                         "and m >= 1, not length %d, m %d" % (length, m))
    field = GF(p)
    entries = []
    for i in range(length):
        for j in range(length):
            if i + j < length:
                c = math.comb(i + j, i) % p
                if c:
                    entries.append((i, j, i + j, c))
    degrees = [i % m for i in range(length)]
    return GradedAlgebra.from_entries(field, m, degrees, entries)


def truncated_poly_derivation(A, which):
    """'ddx' (the shift x^(j) -> x^(j-1), i.e. d/dx in divided powers) or
    'xddx' (the Euler operator x^(j) -> j x^(j))."""
    n = A.dim
    field = A.field
    rows = [[field.zero] * n for _ in range(n)]
    if which == "ddx":
        for j in range(1, n):
            rows[j - 1][j] = field.one
    elif which == "xddx":
        for j in range(n):
            rows[j][j] = field.scalar(j)
    else:
        raise ValueError("unknown derivation %r" % which)
    return LinearMap(field, rows)


def direct_sum(A, B):
    """Direct sum of algebras over the same field with equal m.  It
    carries no p-map: toral.RestrictedLie derives the sum's from ad."""
    if A.field is not B.field:
        raise ValueError("summands over different fields")
    if A.m != B.m:
        raise ValueError("summands with different grading moduli")
    da = A.dim
    prods = {}
    for (i, j), terms in A.products.items():
        prods[(i, j)] = terms
    for (i, j), terms in B.products.items():
        prods[(i + da, j + da)] = tuple((k + da, c) for k, c in terms)
    return GradedAlgebra(A.field, A.m, A.degrees + B.degrees, prods)
