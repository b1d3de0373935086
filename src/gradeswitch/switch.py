"""Switching the grading of an algebra along a graded derivation D.

Pipeline: find the least r with D^(p^r) semisimple, the minimal relation
D^(p^n) + a_{n-1} D^(p^(n-1)) + ... + a_r D^(p^r) = 0, and an additive
polynomial g such that alpha = (g - h)(D), h(T) = sum_{1<=i<r} T^(p^i),
obeys the switching law alpha^p - alpha = D^p.  The switching operator is

    L_D = L_{p-1}^(alpha)(D),

an invertible map.  g(D) acts on each generalized eigenspace A^(rho) of D
as the scalar g(rho), and there L_D^(p^r) is the nonzero scalar
prod_i (1 + g(rho)/i)^i.  Applying L_D to every component of a grading by
a derivation of degree d with m | p d yields a new grading; the two-sided
product rule expresses L_D x * L_D y through L_D applied to a fixed
combination of xy and D^i x * D^(p-i) y, with coefficients taken from the
product-splitting tables evaluated at commuting operators.

One builder, :func:`build_LD`, takes (A, D) to a SwitchResult over the
field F' of g, where the eigenvalues of D always lie; where D^(p^2) = D^p
its g is gamma T^p with gamma^p - gamma = 1 (0 when D^p = 0).  Since
the relation, alpha and L_D are polynomials in D, the relation is read in
F[T]/(m_D), m_D the minimal polynomial of D over its field F, and alpha,
the switching law, the Laguerre value and the scalar law modulo m_D over
F'.  alpha stays that residue, which a reader evaluates at D itself, and
L_D is evaluated at D once.
"""

from dataclasses import dataclass

from .echelon import first_dependence
from .fields import additive_root, embedding, embedding_over
from .galg import _accumulate, _check_acts, derivation_degree, \
    generalized_eigenspaces, is_derivation, is_grading
from .laguerre import VerificationError, coefficient_table, \
    laguerre_value, scalar_product_form
from .polyring import BiTruncSeries, NonInvertibleError, Polynomial


class HypothesisError(RuntimeError):
    """A named mathematical hypothesis fails on the given input."""

    def __init__(self, hypothesis, detail=""):
        self.hypothesis = hypothesis
        self.detail = detail
        super().__init__("hypothesis failed: %s%s"
                         % (hypothesis, " (%s)" % detail if detail else ""))


@dataclass(frozen=True)
class PPolynomial:
    """Additive polynomial sum_i b_i T^(p^i) over a field."""

    field: object
    terms: tuple  # ((exponent i, coefficient b_i), ...) sorted, b_i != 0

    @classmethod
    def make(cls, field, pairs):
        """sum_i b_i T^(p^i) from (i, b_i) pairs; the coefficients of a
        repeated exponent add up, and zero sums are dropped."""
        coeffs = {}
        for i, c in pairs:
            i = int(i)
            coeffs[i] = coeffs[i] + c if i in coeffs else c
        return cls(field, tuple((i, coeffs[i]) for i in sorted(coeffs)
                                if coeffs[i]))

    def is_zero(self):
        return not self.terms

    def __call__(self, x):
        """sum_i b_i x^(p^i) at a scalar or a map x, on one p-power chain."""
        acc, k = x * self.field.zero, 0
        for i, b in self.terms:
            for _ in range(i - k):
                x = x ** self.field.p
            acc, k = acc + x * b, i
        return acc

    def __sub__(self, other):
        return PPolynomial.make(self.field, self.terms
                                + tuple((i, -b) for i, b in other.terms))

    def to_json(self):
        return [[i, list(b.coeffs)] for i, b in self.terms]


@dataclass(frozen=True)
class Relation:
    """D^(p^n) + sum_{i=r}^{n-1} a_i D^(p^i) = 0 with a_r != 0; when
    degenerate, D^(p^r) = 0 and no relation is needed."""

    field: object
    r: int
    n: int
    coeffs: tuple  # (a_r, ..., a_{n-1})
    degenerate: bool

    def coefficient(self, i):
        return self.coeffs[i - self.r]

    def to_json(self):
        return {"r": self.r, "n": self.n, "degenerate": self.degenerate,
                "coeffs": [list(a.coeffs) for a in self.coeffs]}


def semisimple_exponent(D):
    """Least r such that D^(p^r) has a squarefree minimal polynomial."""
    p = D.field.p
    r = 0
    bound = 1
    while p ** bound < max(D.n, 2):
        bound += 1
    while True:
        if D.p_power(r).minimal_polynomial().squarefree_is():
            return r
        if r > bound:
            raise AssertionError("no semisimple p-power iterate found")
        r += 1


def p_power_relation(m, r):
    """Minimal monic relation among S, S^p, S^(p^2), ... for S = D^(p^r),
    read off the minimal polynomial m of D over its field F.

    T -> D identifies F[T]/(m) with F[D], so the first dependence among
    the residues T^(p^k) mod m, k >= r (deg m + 1 of them suffice), is
    P(T) = T^(p^t) + sum_{k<t} rep[k] T^(p^k), the least additive
    polynomial with P(S) = 0; rep[0] != 0 exactly when S is semisimple.
    If rep[0] != 0, P is separable, so the minimal polynomial of S, which
    divides P, is squarefree.  If rep[0] = 0, P(S) = Q(S)^p for an
    additive Q of degree p^(t-1); Q(S) is nilpotent, so for semisimple S
    it is zero, a dependence before the first.  Returns the degenerate
    relation when S = 0, that is when T^(p^r) is 0 mod m.
    """
    field, p, d = m.field, m.field.p, m.degree()
    x = Polynomial.variable(field).pow_mod(p ** r, m)
    if not x:
        return Relation(field, r, r, (), True)

    def residues(x):
        while True:
            yield [x[i] for i in range(d)]
            x = x.pow_mod(p, m)

    # S^(p^t) = -sum_{k<t} rep[k] S^(p^k)
    rep = first_dependence(residues(x), field)
    if not rep[0]:
        raise HypothesisError("D^(p^r) semisimple",
                              "r = %d gives a non-semisimple power" % r)
    return Relation(field, r, r + len(rep), tuple(rep), False)


def build_g(relation):
    """(F', g, lambda) with g an additive polynomial supported on exponents
    r..n-1 for which alpha = (g - h)(D) obeys alpha^p - alpha = D^p, as
    :func:`build_LD` checks modulo m_D.  Since h(D)^p - h(D) = D^(p^r) - D^p
    telescopes, this makes g(D) an Artin-Schreier root of D^(p^r).

    lambda is a root of the constraint polynomial
    1 + T + sum_{k=r}^{n-1} a_k^(p^(n-1-k)) T^(p^(n-k)), an affine additive
    polynomial kept as its terms: its smallest root in the canonical
    splitting field, found by :func:`additive_root` as a linear solve
    over F_p.  The coefficients b_i of g follow from lambda by a
    recursion, checked at its last step.
    """
    field = relation.field
    if relation.degenerate:
        return field, PPolynomial.make(field, ()), None
    r, n = relation.r, relation.n
    p = field.p
    terms = [(0, field.one)] + [
        (n - k, relation.coefficient(k) ** (p ** (n - 1 - k)))
        for k in range(r, n)]
    _, lam = additive_root(field.one, terms)
    big = lam.field
    emb = embedding(field, big)
    if big.one + PPolynomial.make(big, [(j, emb(b)) for j, b in terms])(lam):
        raise HypothesisError("lambda solves the constraint polynomial")
    a_big = {k: emb(relation.coefficient(k)) for k in range(r, n)}
    b = {n - 1: lam}
    for h in range(n - 2, r - 1, -1):
        b[h] = (b[h + 1] + lam ** p * a_big[h + 1]).pth_root()
    if -(big.one) - b[r] != lam ** p * a_big[r]:
        raise VerificationError("additive polynomial recursion inconsistent")
    g = PPolynomial.make(big, [(i, b[i]) for i in range(r, n)])
    return big, g, lam


def h_polynomial(field, r):
    """h(T) = sum_{i=1}^{r-1} T^(p^i); empty when r <= 1."""
    return PPolynomial.make(field, [(i, field.one) for i in range(1, r)])


@dataclass
class SwitchResult:
    """Everything produced while switching a grading along D."""

    algebra: object          # over the final field
    derivation: object       # D over the final field
    field_start: object
    field_final: object
    r_raw: int
    r: int
    relation: object
    g: object
    lam: object
    decomposition: object
    block_scalars: tuple
    switch_map: object
    alpha: object            # (g - h)(T) mod m_D, L_D = L_{p-1}^(alpha(D))(D)
    old_parts: tuple
    new_parts: tuple
    degree: int = None               # set by switch_grading
    grading_ok: bool = None
    product_rule_pairs: int = None

    def to_json(self):
        fin = self.field_final
        out = {
            "field_start": self.field_start.to_json(),
            "field_final": fin.to_json(),
            "r": self.r,
            "r_raw": self.r_raw,
            "relation": self.relation.to_json() if self.relation else None,
            "g": self.g.to_json() if self.g else None,
            "lambda": list(self.lam.coeffs) if self.lam is not None else None,
            "eigenvalues": [list(v.coeffs) for v, _ in self.decomposition],
            "block_dims": [s.dim for _, s in self.decomposition],
            "block_scalars": [list(s.coeffs) for _, s in self.block_scalars],
            "switch_map": [[list(x.coeffs) for x in row]
                           for row in self.switch_map.rows],
            "new_parts": [[k, [[list(x.coeffs) for x in b] for b in s.basis]]
                          for k, s in self.new_parts],
            "grading_ok": self.grading_ok,
            "product_rule_pairs": self.product_rule_pairs,
        }
        if self.degree is not None:
            out["degree"] = self.degree
        return out


def _check_r(r):
    """Refuse a negative exponent override (None means compute it)."""
    if r is not None and r < 0:
        raise ValueError("r must be >= 0, not %d" % r)


def build_LD(A, D, r=None):
    """The switching operator L = L_{p-1}^(alpha)(D) of D on A, with every
    scalar law verified.

    A supplied r must be at least the semisimplicity exponent, as p-th
    powers of a semisimple map stay semisimple.  The generalized
    eigenspaces of D, found over the field E where D splits, reach the
    field F' of g through the embedding that agrees with the canonical
    one on A's field F.

    The relation lives in F[D] and alpha, the law, the operator and its
    scalar law in F'[D], which T -> D identifies with F'[T]/(m_D), m_D the
    minimal polynomial of D (degree d <= n), so each is a congruence of
    Polynomials mod m_D: the relation among the T^(p^k), alpha(T) =
    (g - h)(T) along T^(p^i) mod m_D against alpha(T)^p - alpha(T) = T^p,
    the operator's residue P = L_{p-1}^(alpha(T))(T) mod m_D as one
    Laguerre value, and :func:`_scalar_law`.  The result keeps alpha as
    its residue; the one map formed is L = P(D), in about 2 sqrt(d)
    products (LinearMap.polynomial_value).  No power of D's p-power chain
    is formed here, so the chain stops at D^(p^r_raw), where
    :func:`semisimple_exponent` and the eigenspaces left it.

    E always embeds in F', so an E whose degree does not divide that of
    F' raises VerificationError (Lidl-Niederreiter, Finite Fields, 3.4).
    With S = D^(p^r), m = n - r and the relation's a_k:
    - the eigenvalues rho^(p^r) of S are roots of the separable
      P(U) = U^(p^m) + sum_k a_k U^(p^(k-r)), as P(S) = 0, and
      F(rho) = F(rho^(p^r)); so E lies in the splitting field of P (a
      degenerate relation has S = 0, so E = F = F');
    - F' splits 1 + Q, Q(T) = T + sum_k a_k^(p^(n-1-k)) T^(p^(n-k)), whose
      roots are one root plus the roots of Q; so F' splits Q;
    - on any finite K containing F, Q(y)^p = P*(y^p)^(p^m), where P* is
      the adjoint of P under the trace form Tr_{K/F_p}(x y).  Adjoint
      maps have equal rank, so the separable P and Q, both of p-degree
      m, split over the same fields.
    """
    _check_acts(A, D)
    _check_r(r)
    r_raw = semisimple_exponent(D)
    if r is None:
        r = r_raw
    elif r < r_raw:
        raise HypothesisError("D^(p^r) semisimple",
                              "supplied r = %d fails" % r)
    r = max(r, 1)
    mD = D.minimal_polynomial()
    relation = p_power_relation(mD, r)
    f1, g, lam = build_g(relation)
    p = f1.p
    # alpha = (g - h)(T) on the chain of T^p in F'[T]/(m_D) (the relation
    # was read in F[T]/(m_D)), T standing for D; every exponent of g - h
    # is at least 1
    m = mD.embed_to(f1)
    t = Polynomial.variable(f1) % m
    tp = x = t.pow_mod(p, m)
    alpha, j = tp * 0, 1
    for i, b in (g - h_polynomial(f1, r)).terms:
        for _ in range(i - j):
            x = x.pow_mod(p, m)
        alpha, j = alpha + x * b, i
    if alpha.pow_mod(p, m) - alpha != tp:
        raise VerificationError("alpha^p - alpha != D^p")
    big, dec = generalized_eigenspaces(D, mD)
    if f1.n % big.n:
        raise VerificationError("eigenvalue field %r does not embed in %r"
                                % (big, f1))
    if big is not f1:
        into = embedding_over(big, f1, A.field)
        dec = tuple(sorted(
            [(into(rho), space.map_field(f1, into)) for rho, space in dec],
            key=lambda entry: int(entry[0])))
    a1 = A.change_field(f1)
    d1 = D.embed_to(f1)
    poly = laguerre_value(p, alpha, t) % m
    scalars = _scalar_law(poly, m, dec, g, r)
    lmap = d1.polynomial_value(poly)
    old_parts = tuple(a1.grading_parts())
    return SwitchResult(
        algebra=a1, derivation=d1, field_start=A.field, field_final=f1,
        r_raw=r_raw, r=r, relation=relation, g=g, lam=lam,
        decomposition=dec, block_scalars=scalars,
        switch_map=lmap, alpha=alpha, old_parts=old_parts,
        new_parts=tuple((k, s.image(lmap)) for k, s in old_parts))


def _scalar_law(poly, m, dec, g, r):
    """((rho, s), ...) over the eigenvalues rho of dec, with
    s = L_{p-1}^(g(rho)^p)(g(rho)^p - g(rho)) checked against its product
    form, nonzero, and L^(p^r) checked to act on A^(rho) as s, for the
    operator L = poly(D) and m = m_D.

    The multiplicity mu of rho in m is that in what the eigenvalues
    before rho left of m (Polynomial.multiplicity): it must be at least
    1, and the eigenvalues must use up m.  D's minimal polynomial on
    A^(rho) = ker (D - rho)^mu is (T - rho)^mu, so the law there is that
    poly^(p^r) - s is 0 mod (T - rho)^mu.  G = g(D) acts on A^(rho) as the
    scalar g(rho), since the nilpotent part N of D there has
    N^(p^r) = 0; the eigenspaces span the space, so this is the scalar
    law of the whole operator.
    """
    field = m.field
    p = field.p
    power = poly.pow_mod(p ** r, m)
    rest = m
    scalars = []
    for rho, _ in dec:
        mu, rest = rest.multiplicity(rho)
        if not mu:
            raise VerificationError("eigenvalue %s is not a root of D's "
                                    "minimal polynomial" % (rho,))
        grho = g(rho)
        s_lag = laguerre_value(p, grho ** p, grho ** p - grho)
        if s_lag != scalar_product_form(p, grho):
            raise VerificationError("scalar law: Laguerre and product forms "
                                    "disagree at rho = %s" % (rho,))
        if not s_lag:
            raise VerificationError("scalar law gives zero at rho = %s "
                                    "(operator not invertible)" % (rho,))
        if (power - s_lag) % Polynomial(field, [-rho, field.one]) ** mu:
            raise VerificationError("L^(p^r) is not the predicted "
                                    "scalar at rho = %s" % (rho,))
        scalars.append((rho, s_lag))
    if rest.degree():
        raise VerificationError("eigenvalue multiplicities add up to %d, "
                                "not deg m_D = %d"
                                % (m.degree() - rest.degree(), m.degree()))
    return tuple(scalars)


def switch_grading(A, D, r=None, check_product_rule=True):
    """Full switching run: hypothesis checks on (A, D), the operator, the
    switched grading with verification, and the two-sided product rule."""
    d = derivation_degree(A, D)
    if d is None or not is_derivation(A, D):
        raise HypothesisError("D is a graded derivation")
    if (A.field.p * d) % A.m:
        raise HypothesisError("m divides p*d",
                              "d = %d, m = %d, p = %d" % (d, A.m, A.field.p))
    result = build_LD(A, D, r=r)
    result.degree = d
    if not is_grading(result.algebra, result.new_parts):
        raise VerificationError("switched components fail the grading check")
    result.grading_ok = True
    if check_product_rule:
        result.product_rule_pairs = verify_product_rule(result)
    return result


# ---------------------------------------------------------------------------
# the two-sided product rule


def _pair_coefficient_series(p, field, a0, b0, sa, sb):
    """c-values of the product-splitting table at alpha = a0 + U, b0 + V.

    U and V stand for the nilpotent parts of the coefficient operators on
    the two tensor factors (orders sa, sb).  Returns (c_0, ..., c_(p-1))
    as bivariate truncated series; coefficient [j][k] of c_i multiplies
    nil_x^j applied to the left factor times nil_y^k applied to the right.
    """
    alpha = BiTruncSeries.constant(field, sa, sb, a0) \
        + BiTruncSeries.shift_u(field, sa, sb)
    beta = BiTruncSeries.constant(field, sa, sb, b0) \
        + BiTruncSeries.shift_v(field, sa, sb)
    try:
        return coefficient_table(p, alpha, beta)
    except NonInvertibleError as exc:
        raise VerificationError("product-rule coefficient denominator is "
                                "not invertible: %s" % exc) from exc


def verify_product_rule(result):
    """Check L_D x * L_D y == L_D(c_0(xy) + sum_i c_i(D^i x, D^(p-i) y)) on
    every pair of eigen-basis vectors.

    The coefficients c_i are evaluated at alpha(D), formed once from the
    result's residue alpha, acting on the left factor and again on the
    right factor, the way the operator identity behind the switched
    grading composes with the multiplication map.  On A^(rho), alpha(D) is
    the scalar a0 = alpha(rho) = g(rho) - h(rho) plus nil = alpha(D) - a0,
    nilpotent and commuting with D.  Returns the number of pairs checked.
    A VerificationError of a pair series is raised again naming its
    components (rho, sigma), its message kept.

    The sweep runs on packed ints.  Each grid vector D^i nil^j x, each
    L x and each L y is packed once.  By bilinearity the inner argument is
    sum_(i,j) (nil^j D^i x) Y_ij with Y_ij = sum_k c_ijk nil^k D^(p-i) y
    (c_ijk the coefficient [j][k] of the series c_i, D^0 y for i = 0),
    so each Y_ij is summed once per y, and each pair sums its inner
    argument on one kernel sized for all of its terms, products of four
    packed factors (c_ijk, the two vector entries and a structure
    constant), and unpacks it once.
    """
    a2 = result.algebra
    d2 = result.derivation
    f2 = d2.field
    p = f2.p
    n = a2.dim
    alpha = d2.polynomial_value(result.alpha)
    dec = result.decomposition
    values = {rho for rho, _ in dec}
    lmap = result.switch_map
    zero = f2.zero
    zero_vec = (zero,) * n

    # Per eigenvalue: a0, and for each basis vector x the grid of
    # D^i nil^j x, its rows j running until nil^j x = 0.  The longest grid
    # is the order sa of nil on the eigenspace; a grid longer than the
    # eigenspace means nil is not nilpotent.
    eigen = []
    for rho, space in dec:
        a0 = result.alpha.evaluate(rho)
        nil = alpha - a0
        grids = []
        for v in space.basis:
            grid = []
            while any(v):
                if len(grid) == space.dim:
                    raise VerificationError("alpha - a0 not nilpotent on "
                                            "the eigenspace of %s" % (rho,))
                dcol = [v]
                for _ in range(p - 1):
                    dcol.append(d2.apply(dcol[-1]))
                grid.append(dcol)
                v = nil.apply(v)
            grids.append(grid)
        eigen.append((rho, space, a0, max(map(len, grids)), grids))

    # One kernel for every inner argument: per structure constant hitting
    # a slot, p sa sb terms of four packed factors.
    smax = max((sa for _, _, _, sa, _ in eigen), default=0)
    pack, unpack, _ = f2.dot_kernel(
        max(a2._slot_terms(), 1) * p * smax * smax, 4)
    rows = a2._structure_rows(pack)

    def packed(v):
        pv = [pack(c) for c in v]
        return pv if any(pv) else None

    # Per eigenvalue: the grids packed (None where a vector vanishes, and
    # for the rows from the grid's end to sa), and L x packed for the
    # algebra's own product.
    info = [(rho, space, a0, sa,
             [[[packed(v) for v in row] for row in grid]
              + [[None] * p] * (sa - len(grid)) for grid in grids],
             [a2._pack(lmap.apply(x)) for x in space.basis])
            for rho, space, a0, sa, grids in eigen]

    pairs = 0
    for rho, vspace, a0, sa, xgrids, plx in info:
        for sigma, wspace, b0, sb, ygrids, ply in info:
            if rho + sigma not in values:
                for x in vspace.basis:
                    for y in wspace.basis:
                        if a2.product(x, y) != zero_vec:
                            raise VerificationError(
                                "product outside the eigenspace sum")
                for lx in plx:
                    for ly in ply:
                        if any(a2._product(lx, ly)):
                            raise VerificationError(
                                "switched product outside the eigenspace sum")
                pairs += len(vspace.basis) * len(wspace.basis)
                continue
            try:
                cseries = _pair_coefficient_series(p, f2, a0, b0, sa, sb)
            except VerificationError as exc:
                raise VerificationError(
                    "pair series of components (%s, %s): %s"
                    % (rho, sigma, exc)) from exc
            cpacked = [[[pack(c) for c in row] for row in ser.coeffs]
                       for ser in cseries]
            for ygrid, ly in zip(ygrids, ply):
                # Y_ij, or None where it vanishes
                ys = []
                for i, cp in enumerate(cpacked):
                    col = [ygrid[k][p - i if i else 0] for k in range(sb)]
                    yi = []
                    for crow in cp:
                        terms = [(c, v) for c, v in zip(crow, col)
                                 if c and v is not None]
                        # nonzero when any term is: the packed ints are
                        # nonnegative and a nonzero element packs to > 0
                        yi.append([sum([c * v[b] for c, v in terms])
                                   for b in range(n)] if terms else None)
                    ys.append(yi)
                for xgrid, lx in zip(xgrids, plx):
                    acc = [0] * n
                    for i, yi in enumerate(ys):
                        for j, y in enumerate(yi):
                            xv = xgrid[j][i]
                            if y is not None and xv is not None:
                                _accumulate(rows, xv, y, acc)
                    rhs = lmap.apply([unpack(t) if t else zero for t in acc])
                    if a2._product(lx, ly) != rhs:
                        raise VerificationError(
                            "product rule fails on a basis pair in "
                            "components (%s, %s)" % (rho, sigma))
                    pairs += 1
    return pairs
