"""Tori of restricted Lie algebras and torus replacement along a root
vector.

A torus here is a subalgebra spanned by pairwise-commuting vectors whose
adjoint maps are semisimple; its simultaneous eigenspaces give the root
space decomposition.  Replacing T by
T_x = {t - beta(t) * sum_{k<r} x^[p]^k} for a root vector x in L_beta with
x^[p]^r in T produces a new torus whose root spaces are the images of the
old ones under the switching operator of D = ad x; the classical
connecting map

    E = -sum_{i<p} (prod_{k=i+1}^{p-1} (g(D) - h(D) + k)) D^i

is that same operator written as one global polynomial in commuting maps.
"""

from dataclasses import dataclass

from .echelon import Echelon
from .galg import Subspace, bracket_failure, generalized_eigenspaces
from .laguerre import descending_form
from .switch import HypothesisError, VerificationError, _check_r, \
    build_LD


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_scale(v, c):
    return tuple(c * x for x in v)


def _vec_is_zero(v):
    return not any(v)


def _flat(M):
    """The entries of a LinearMap, row by row."""
    return [x for row in M.rows for x in row]


class RestrictedLie:
    """A graded algebra validated to be a restricted Lie algebra, with its
    p-map derived from ad.

    Checks alternating and antisymmetric brackets and the Jacobi identity
    on all basis triples (galg.bracket_failure).  On a centerless Lie
    algebra ad is injective, so x^[p] is the one z with ad z = (ad x)^p,
    and a p-map exists exactly when every (ad e_i)^p is inner (Jacobson's
    criterion).  Refuses an algebra with a center, one where some
    (ad e_i)^p is not inner, and a given algebra.pmap that differs from
    the derived map.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.field = algebra.field
        self.p = algebra.field.p
        self.dim = algebra.dim
        failure = bracket_failure(algebra)
        if failure:
            raise ValueError(failure)
        # the rows (flat(ad e_i) | e_i): a dependent one is a nonzero
        # element of the center
        self._ad = Echelon(width=self.dim ** 2, field=self.field)
        for i in range(self.dim):
            e = self.basis_vector(i)
            if not self._ad.add(_flat(self.ad(e)) + list(e)):
                raise ValueError("center is nontrivial; ad does not "
                                 "determine elements")
        for i in range(self.dim):
            try:
                z = self.pth_power(self.basis_vector(i))
            except ValueError:
                raise ValueError("ad(e_%d)^p is not inner: no p-map" % i) \
                    from None
            if algebra.pmap is not None and algebra.pmap[i] != z:
                raise ValueError("ad(e_%d)^p differs from ad(e_%d^[p])"
                                 % (i, i))

    def bracket(self, x, y):
        return self.algebra.product(x, y)

    def ad(self, x):
        return self.algebra.left_multiplication(x)

    def basis_vector(self, i):
        return self.algebra.basis_vector(i)

    def pth_power(self, x):
        """x^[p], the z with ad z = (ad x)^p.

        (flat((ad x)^p) | 0) reduced against the rows (flat(ad e_i) | e_i)
        vanishes on its head exactly when (ad x)^p is inner, and then its
        tail is -z: the tail trick of echelon.first_dependence.  Raises
        ValueError when (ad x)^p is not inner, which construction rules
        out.
        """
        n2, zero = self.dim ** 2, self.field.zero
        w = self._ad.reduce(_flat(self.ad(x).p_power(1)) + [zero] * self.dim)
        if any(c is not zero and c for c in w[:n2]):
            raise ValueError("ad(x)^p is not inner")
        return tuple(-c for c in w[n2:])

    def is_toral(self, t):
        """t^[p] == t."""
        return self.pth_power(t) == tuple(t)


class Torus:
    """Span of pairwise-commuting vectors with semisimple adjoints, over
    the field of its algebra.

    eigen[i] is (F_i, ((eigenvalue, eigenspace), ...)) for the adjoint of
    basis vector t_i: its generalized eigenspaces over the field F_i where
    it splits.  ad t_i is semisimple exactly when its minimal polynomial,
    which finding them formed, is squarefree, as in
    switch.semisimple_exponent; so a semisimple torus that splits only
    over a larger F_i is accepted, and root_decomposition refuses it.
    """

    def __init__(self, lie, vectors):
        self.lie = lie
        self.subspace = Subspace(lie.field, lie.dim, vectors)
        self.basis = self.subspace.basis
        if not self.basis:
            raise ValueError("torus must be nonzero")
        self.eigen = []
        for i, t in enumerate(self.basis):
            for u in self.basis[i + 1:]:
                if not _vec_is_zero(lie.bracket(t, u)):
                    raise HypothesisError("torus generators commute")
            adt = lie.ad(t)
            big, dec = generalized_eigenspaces(adt)
            if not adt.minimal_polynomial().squarefree_is():
                raise HypothesisError("torus adjoints are semisimple")
            self.eigen.append((big, dec))

    @property
    def dim(self):
        return self.subspace.dim

    def contains(self, v):
        return self.subspace.contains(v)

    def value_on(self, beta, t):
        """beta(t) for a root label beta (tuple over self.basis)."""
        coords = self.subspace.coordinates(t)
        acc = self.lie.field.zero
        for b, c in zip(beta, coords):
            acc = acc + b * c
        return acc

    def root_of(self, x):
        """The root tuple with [t_i, x] = beta_i x, or None if x is not a
        common eigenvector of the torus basis."""
        if _vec_is_zero(x):
            return None
        lead = next(i for i, c in enumerate(x) if c)
        inv = x[lead].inverse()
        out = []
        for t in self.basis:
            y = self.lie.bracket(t, x)
            c = y[lead] * inv
            if tuple(y) != _vec_scale(x, c):
                return None
            out.append(c)
        return tuple(out)

    def nonzero_root(self, x):
        """root_of(x), refused unless x is a root vector for a nonzero
        root."""
        beta = self.root_of(x)
        if beta is None or not any(beta):
            raise HypothesisError("x is a root vector for a nonzero root")
        return beta


def root_decomposition(torus):
    """The root spaces of the algebra for the torus, over torus.lie.field,
    as ((root label, Subspace), ...) sorted by label; a root label is a
    tuple of eigenvalues.

    The eigenspaces the torus holds for each ad t refine the parts by
    intersection.  A torus with an adjoint that splits only over a larger
    field is refused, naming that field: the caller builds the algebra
    over a field containing every one named (GradedAlgebra.change_field)
    and decomposes there.
    """
    lie = torus.lie
    field = lie.field
    wider = ["ad t_%d splits over %r" % (i, big)
             for i, (big, _) in enumerate(torus.eigen) if big is not field]
    if wider:
        raise HypothesisError("torus adjoints split over %r" % field,
                              "; ".join(wider))
    parts = [((), Subspace.full(field, lie.dim))]
    for _, eigen in torus.eigen:
        refined = []
        for label, space in parts:
            for rho, eig in eigen:
                sub = space.intersect(eig)
                if sub.dim:
                    refined.append((label + (rho,), sub))
        parts = refined
    if sum(s.dim for _, s in parts) != lie.dim:
        raise VerificationError("root spaces do not fill the algebra")
    parts.sort(key=lambda e: [int(c) for c in e[0]])
    return tuple(parts)


def switch_torus(lie, torus, x, r):
    """(T_x generators, beta, w): the replacement torus span
    {t - beta(t) w} with w = sum_{k=0}^{r-1} x^[p]^k.

    Requires x to be a root vector for a nonzero root beta with
    x^[p]^r in the torus; the returned generators are validated to span a
    torus again.
    """
    beta = torus.nonzero_root(x)
    w = (lie.field.zero,) * lie.dim
    y = x
    for _ in range(r):
        w = _vec_add(w, y)
        y = lie.pth_power(y)
    if not torus.contains(y):   # y = x^[p]^r
        raise HypothesisError("x^[p]^r lies in the torus",
                              "r = %d" % r)
    gens = [_vec_add(t, _vec_scale(w, -torus.value_on(beta, t)))
            for t in torus.basis]
    new_torus = Torus(lie, gens)
    if new_torus.dim != torus.dim:
        raise VerificationError("replacement torus has the wrong dimension")
    return new_torus, beta, w


def strade_map(result):
    """The switching operator rebuilt as one global operator product
    -sum_{i<p} (prod_{k=i+1}^{p-1} (alpha + k)) D^i, at the map alpha(D)
    of the residue alpha the result's switch_map was built from."""
    D = result.derivation
    return -descending_form(result.field_final.p,
                            D.polynomial_value(result.alpha), D)


@dataclass
class ToralComparison:
    """Outcome of switching a torus along a root vector both ways."""

    torus: object
    torus_x: object
    beta: object
    w: object
    r: int
    old_roots: object
    new_roots: object
    switch: object
    strade_agrees: bool
    spaces_match: bool
    torus_x_toral: bool


def compare_switch_to_toral(lie, torus_vectors, x, r=None):
    """Replace the torus along x and check the two descriptions of the new
    root spaces against each other.

    Both tori stay over lie.field, and both must split there
    (root_decomposition).  Verifies: T_x is a torus (commuting,
    semisimple, toral generators); the switching operator of D = ad x
    maps each old root space onto a new one (equal multisets of
    subspaces, compared over the switch's field F', which contains
    lie.field through the canonical embedding build_LD used for D); and
    the descending operator-product form of the connecting map equals
    the switching operator build_LD evaluates at D from its residue
    modulo D's minimal polynomial, exactly.
    """
    _check_r(r)
    torus = Torus(lie, torus_vectors)
    old = root_decomposition(torus)
    if len(x) != lie.dim:
        raise ValueError("x has the wrong length")
    torus.nonzero_root(x)   # refused before the switch is built
    res = build_LD(lie.algebra, lie.ad(x), r=r)
    r = res.r
    torus_x, beta, w = switch_torus(lie, torus, x, r)
    toral_x = all(lie.is_toral(t) for t in torus_x.basis)

    new = root_decomposition(torus_x)

    strade_agrees = strade_map(res) == res.switch_map

    big = res.field_final
    switched = [s.map_field(big).image(res.switch_map) for _, s in old]
    target = [s.map_field(big) for _, s in new]
    spaces_match = sorted(switched, key=_space_key) == \
        sorted(target, key=_space_key)

    out = ToralComparison(
        torus=torus, torus_x=torus_x, beta=beta, w=w, r=r,
        old_roots=old, new_roots=new, switch=res,
        strade_agrees=strade_agrees, spaces_match=spaces_match,
        torus_x_toral=toral_x)
    if not strade_agrees:
        raise VerificationError("operator-product form of the connecting "
                                "map disagrees with the Laguerre value")
    if not spaces_match:
        raise VerificationError("switched root spaces differ from the "
                                "root spaces of the replacement torus")
    return out


def _space_key(s):
    return [[int(x) for x in row] for row in s.basis]
