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
The refinement helpers split off the kernel T_0 of beta, so that the
switch acts along a single cyclic direction while fixing every T_0-root
space.
"""

import math
from dataclasses import dataclass

from .echelon import kernel
from .fields import GF, embed, embedding
from .galg import Decomposition, Subspace, bracket_failure, \
    generalized_eigenspaces, is_grading
from .laguerre import descending_form
from .switch import HypothesisError, VerificationError, _check_r, \
    build_LD


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_scale(v, c):
    return tuple(c * x for x in v)


def _vec_is_zero(v):
    return not any(v)


class RestrictedLie:
    """A graded algebra validated to be a restricted Lie algebra.

    Checks alternating and antisymmetric brackets, the Jacobi identity on
    all basis triples (galg.bracket_failure), and ad(e_i)^p == ad(e_i^[p])
    against the stored p-th power rows.
    """

    def __init__(self, algebra):
        if algebra.pmap is None:
            raise ValueError("a restricted Lie algebra needs p-th power rows")
        self.algebra = algebra
        self.field = algebra.field
        self.p = algebra.field.p
        self.dim = algebra.dim
        failure = bracket_failure(algebra)
        if failure:
            raise ValueError(failure)
        for i in range(self.dim):
            adi = algebra.left_multiplication(algebra.basis_vector(i))
            if adi.p_power(1) != algebra.left_multiplication(algebra.pmap[i]):
                raise ValueError("ad(e_%d)^p differs from ad(e_%d^[p])" % (i, i))

    def bracket(self, x, y):
        return self.algebra.product(x, y)

    def ad(self, x):
        return self.algebra.left_multiplication(x)

    def basis_vector(self, i):
        return self.algebra.basis_vector(i)

    def supports_commute(self, x):
        """True when the basis vectors carrying x pairwise commute."""
        sup = [i for i, c in enumerate(x) if c]
        basis = self.algebra.basis_vector
        return all(_vec_is_zero(self.bracket(basis(i), basis(j)))
                   for a, i in enumerate(sup) for j in sup[a + 1:])

    def pth_power(self, x):
        """x^[p] through linearity over a pairwise-commuting support.

        For x = sum c_i e_i with [e_i, e_j] = 0 on the support, the p-th
        power is sum c_i^p e_i^[p].  Raises ValueError otherwise.
        """
        if not self.supports_commute(x):
            raise ValueError("support does not commute; p-th power rule "
                             "unavailable")
        acc = (self.field.zero,) * self.dim
        for i, c in enumerate(x):
            if c:
                acc = _vec_add(acc, _vec_scale(self.algebra.pmap[i], c ** self.p))
        return acc

    def center(self):
        """The x with [e_i, x] = 0 for every basis vector e_i: one kernel
        of the rows of every ad e_i, stacked."""
        rows = [row for i in range(self.dim)
                for row in self.ad(self.algebra.basis_vector(i)).rows]
        return Subspace(self.field, self.dim,
                        kernel(rows, self.dim, self.field))

    def is_toral(self, t):
        """t^[p] == t, decided through the p-th power rule or, failing
        that, on a centerless algebra: there ad is injective and
        ad(t^[p]) = ad(t)^p, so t^[p] == t iff ad(t)^p == ad(t)."""
        try:
            return self.pth_power(t) == tuple(t)
        except ValueError:
            if self.center().dim:
                raise ValueError("center is nontrivial; ad does not "
                                 "determine elements")
            adt = self.ad(t)
            return adt.p_power(1) == adt

    def change_field(self, field):
        return RestrictedLie(self.algebra.change_field(field))


class Torus:
    """Span of pairwise-commuting vectors with semisimple adjoints.

    eigen[i] is (F_i, Decomposition) for the adjoint of basis vector t_i:
    its generalized eigenspaces over a field F_i where it splits.  ad t_i
    is semisimple exactly when it acts on each of them as its eigenvalue.
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
            adt = adt.embed_to(big)
            if any(adt.apply(b) != _vec_scale(b, rho)
                   for rho, space in dec for b in space.basis):
                raise HypothesisError("torus adjoints are semisimple")
            self.eigen.append((big, dec))

    def change_field(self, field):
        """This torus over `field`, its eigenspaces carried along."""
        out = object.__new__(Torus)
        out.lie = self.lie.change_field(field)
        out.subspace = self.subspace.map_field(field)
        out.basis = out.subspace.basis
        out.eigen = [(field, Decomposition(field, [
            (embed(rho, field), space.map_field(field))
            for rho, space in dec])) for _, dec in self.eigen]
        return out

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
    """(lie', torus', Decomposition) over a field where every adjoint of
    the torus basis splits; root labels are eigenvalue tuples.

    The eigenspaces the torus holds for each ad t refine the parts by
    intersection.  When some adjoint splits only over a larger field, the
    algebra and the torus first move once, to the field of degree the lcm
    of the splitting degrees.
    """
    lie = torus.lie
    degree = math.lcm(*(big.n for big, _ in torus.eigen))
    if degree != lie.field.n:
        torus = torus.change_field(GF(lie.p, degree))
        lie = torus.lie
    field = lie.field
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
    return lie, torus, Decomposition(field, parts)


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
    -sum_{i<p} (prod_{k=i+1}^{p-1} (alpha + k)) D^i, at the alpha the
    result's switch_map was built from."""
    return -descending_form(result.field_final.p, result.alpha,
                            result.derivation)


@dataclass
class ToralComparison:
    """Outcome of switching a torus along a root vector both ways."""

    lie: object
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
    torus_x_toral: object   # None when undecidable


def compare_switch_to_toral(lie, torus_vectors, x, r=None):
    """Replace the torus along x and check the two descriptions of the new
    root spaces against each other.

    Verifies: T_x is a torus (commuting, semisimple, toral generators when
    decidable); the switching operator of D = ad x maps each old root
    space onto a new one (equal multisets of subspaces); and the
    descending operator-product form of the connecting map equals the
    switching operator build_LD evaluates by Horner's rule, exactly.
    """
    _check_r(r)
    lie, torus, old = root_decomposition(Torus(lie, torus_vectors))
    if len(x) != lie.dim:
        raise ValueError("x has the wrong length")
    torus.nonzero_root(x)   # refused before the switch is built
    res = build_LD(lie.algebra, lie.ad(x), r=r)
    r = res.r
    torus_x, beta, w = switch_torus(lie, torus, x, r)
    try:
        toral_x = all(lie.is_toral(t) for t in torus_x.basis)
    except ValueError:
        toral_x = None  # undecidable without a usable p-th power

    lie2, _, new = root_decomposition(torus_x)

    d1, d2 = res.field_final.n, lie2.field.n
    f_common = GF(lie.p, math.lcm(d1, d2))

    emap = strade_map(res)
    strade_agrees = emap == res.switch_map

    lmap = res.switch_map.embed_to(f_common)
    switched = [space.map_field(f_common).image(lmap) for _, space in old]
    target = [s.map_field(f_common) for _, s in new]
    spaces_match = sorted(switched, key=_space_key) == \
        sorted(target, key=_space_key)

    out = ToralComparison(
        lie=lie, torus=torus, torus_x=torus_x, beta=beta, w=w, r=r,
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


@dataclass
class RefinedSwitch:
    """Outcome of switching along the direction of one toral element."""

    lie: object
    beta: object
    t1: object
    torus0_basis: object
    line_parts: object
    residual_parts: object
    product_parts: object
    switch: object
    switched_line_parts: object
    switched_product_parts: object
    line_grading_ok: bool
    product_grading_ok: bool
    residual_fixed: bool


def refine_grading(lie, torus_vectors, x, r=None):
    """Split the root grading into the t_1 direction times the rest,
    switch along D = ad x, and verify what the switch does to each part.

    t_1 is a toral element with beta(t_1) = 1; T_0 = ker beta.  The root
    decomposition is the product of the t_1-eigenvalue grading (labels in
    F_p) and the T_0-root grading (labels gamma_0).  After switching: the
    F_p-grading by switched components is again a grading, every T_0-root
    space is fixed setwise, and the switched product grading is a grading
    over pairs.
    """
    _check_r(r)
    lie, torus, dec = root_decomposition(Torus(lie, torus_vectors))
    field = lie.field
    beta = torus.nonzero_root(x)

    # t_1: scale a torus basis vector with beta(t) != 0 to beta(t_1) = 1;
    # for the torus to stay honest t_1 must be toral.
    j = next(i for i, b in enumerate(beta) if b)
    t1 = _vec_scale(torus.basis[j], beta[j].inverse())
    if not lie.is_toral(t1):
        raise HypothesisError("a toral element with beta value 1 exists")

    # T_0 = ker(beta) inside the torus
    t0_vecs = []
    for i, t in enumerate(torus.basis):
        if not beta[i]:
            t0_vecs.append(t)
        elif i != j:
            t0_vecs.append(_vec_add(t, _vec_scale(t1, -beta[i])))
    for t in t0_vecs:
        if not _vec_is_zero(lie.bracket(t, x)):
            raise VerificationError("T_0 does not centralize x")

    # group the root spaces by t_1-eigenvalue and by restriction to T_0
    def t0_label(root):
        return tuple(torus.value_on(root, t) for t in t0_vecs)

    line, residual, product = {}, {}, {}
    for root, space in dec:
        k = torus.value_on(root, t1)
        if k ** lie.p != k:
            raise VerificationError("t_1 eigenvalue outside the prime field")
        kk = int(k.coeffs[0])
        g0 = t0_label(root)
        line.setdefault(kk, []).extend(space.basis)
        residual.setdefault(g0, []).extend(space.basis)
        product.setdefault((kk, g0), []).extend(space.basis)
    line_parts = [(k, Subspace(field, lie.dim, v))
                  for k, v in sorted(line.items())]
    residual_parts = [(g0, Subspace(field, lie.dim, v))
                      for g0, v in sorted(residual.items(),
                                          key=lambda e: [int(c) for c in e[0]])]
    product_parts = [(lb, Subspace(field, lie.dim, v))
                     for lb, v in sorted(product.items(),
                                         key=lambda e: (e[0][0],
                                                        [int(c) for c in e[0][1]]))]

    res = build_LD(lie.algebra, lie.ad(x), r=r)
    f2 = res.field_final
    lmap = res.switch_map
    alg2 = res.algebra
    p = lie.p

    switched_line = [(k, s.map_field(f2).image(lmap)) for k, s in line_parts]
    line_ok = is_grading(alg2, switched_line, lambda a, b: (a + b) % p)

    emb = embedding(field, f2)
    residual_fixed = True
    for g0, s in residual_parts:
        s2 = s.map_field(f2)
        if s2.image(lmap) != s2:
            residual_fixed = False

    def addpair(a, b):
        return ((a[0] + b[0]) % p,
                tuple(u + v for u, v in zip(a[1], b[1])))

    switched_product = []
    for (kk, g0), s in product_parts:
        g0e = tuple(emb(c) for c in g0)
        switched_product.append(((kk, g0e), s.map_field(f2).image(lmap)))
    product_ok = is_grading(alg2, switched_product, addpair)

    out = RefinedSwitch(
        lie=lie, beta=beta, t1=t1, torus0_basis=tuple(t0_vecs),
        line_parts=line_parts, residual_parts=residual_parts,
        product_parts=product_parts, switch=res,
        switched_line_parts=switched_line,
        switched_product_parts=switched_product,
        line_grading_ok=line_ok, product_grading_ok=product_ok,
        residual_fixed=residual_fixed)
    if not line_ok:
        raise VerificationError("switched cyclic grading failed to verify")
    if not residual_fixed:
        raise VerificationError("a T_0 root space moved under the switch")
    if not product_ok:
        raise VerificationError("switched product grading failed to verify")
    return out
