"""Reference routines that only the tests call: the inverse of a linear
map, its matrix on an invariant subspace, a map from its columns, a
MultiPoly's value at a scalar point, the check that a p-power relation
holds at D, the p-power relation as the package once found it among the
flattened maps D^(p^k), the p-map tables and p-th power rule that the
Witt builders once stored, the generalized eigenspaces as kernels of the
powers (D - rho)^mult that the package once formed, alpha = (g - h)(D)
as build_LD once formed it on D's own p-power chain, and the switching
operator as build_LD once formed it, on n x n maps.  The package has no
caller for them, so they live here, next to the tests that use them."""

from gradeswitch import galg
from gradeswitch.echelon import Echelon, first_dependence, kernel
from gradeswitch.fields import (_as_field_elt, embedding_over,
                                roots_in_splitting_field)
from gradeswitch.galg import LinearMap, Subspace
from gradeswitch.laguerre import laguerre_value, scalar_product_form
from gradeswitch.switch import HypothesisError, PPolynomial, Relation, \
    build_g, h_polynomial, p_power_relation, semisimple_exponent


def inverse(M):
    """M^(-1), read off the reduced row echelon form of (M | I); a
    singular M raises ValueError."""
    n, field = M.n, M.field
    aug = [list(row) + [field.one if i == j else field.zero
                        for j in range(n)]
           for i, row in enumerate(M.rows)]
    rows, piv = Echelon(aug).rref()
    if len(rows) < n or piv != tuple(range(n)):
        raise ValueError("matrix is singular")
    return LinearMap(field, [row[n:] for row in rows])


def restrict_to(M, subspace):
    """Matrix of M in the basis of an M-invariant subspace."""
    coords = [subspace.coordinates(M.apply(b)) for b in subspace.basis]
    k = subspace.dim
    return LinearMap(M.field, [[coords[j][i] for j in range(k)]
                               for i in range(k)])


def from_columns(field, cols):
    """The LinearMap whose columns are `cols`."""
    return LinearMap(field, [[col[i] for col in cols]
                             for i in range(len(cols[0]))]) if cols \
        else LinearMap(field, [])


def multipoly_value(f, values):
    """f at a scalar point {var: FqElement or int}, each power of a
    variable formed once."""
    total = f.field.zero
    cache = {v: [f.field.one] for v in f.vars}

    def power(v, e):
        c = cache[v]
        x = _as_field_elt(f.field, values[v])
        while len(c) <= e:
            c.append(c[-1] * x)
        return c[e]

    for exps, coeff in f.terms.items():
        term = coeff
        for v, e in zip(f.vars, exps):
            if e:
                term = term * power(v, e)
        total = total + term
    return total


def relation_holds(rel, D):
    """The p-power relation `rel` holds at D (the degenerate one reads
    D^(p^r) = 0)."""
    poly = PPolynomial.make(rel.field, [*enumerate(rel.coeffs, rel.r),
                                        (rel.n, rel.field.one)])
    return poly(D).is_zero()


def p_power_relation_by_maps(D, r):
    """switch.p_power_relation for S = D^(p^r) as the package once found
    it: the first dependence among the maps D^(p^k), k >= r, each
    flattened to its n^2 entries, formed on D's own p-power chain up to
    D^(p^n); degenerate when S = 0."""
    field = D.field
    if D.p_power(r).is_zero():
        return Relation(field, r, r, (), True)
    rep = first_dependence(
        ([x for row in D.p_power(k).rows for x in row]
         for k in range(r, r + D.n * D.n + 1)), field)
    if not rep[0]:
        raise HypothesisError("D^(p^r) semisimple",
                              "r = %d gives a non-semisimple power" % r)
    return Relation(field, r, r + len(rep), tuple(rep), False)


def witt_pmap(field, sizes):
    """The p-map table once stored for the sum of witt(p) over p in
    sizes, over `field`: e_0^[p] = e_0 and e_a^[p] = 0 otherwise in each
    summand (e_0 is slot 1 of its summand), block diagonal over the
    sum."""
    dim = sum(sizes)
    rows = [[field.zero] * dim for _ in range(dim)]
    off = 0
    for p in sizes:
        rows[off + 1][off + 1] = field.one
        off += p
    return [tuple(row) for row in rows]


def supports_commute(A, x):
    """True when the basis vectors carrying x pairwise commute in A."""
    sup = [i for i, c in enumerate(x) if c]
    return all(not any(A.product(A.basis_vector(i), A.basis_vector(j)))
               for a, i in enumerate(sup) for j in sup[a + 1:])


def semilinear_pth_power(table, x):
    """sum c_i^p e_i^[p] for x = sum c_i e_i, from a p-map table: the
    p-th power of x when its support pairwise commutes."""
    field = x[0].field
    acc = [field.zero] * len(x)
    for c, row in zip(x, table):
        if c:
            cp = c ** field.p
            acc = [a + cp * b for a, b in zip(acc, row)]
    return tuple(acc)


def center(A):
    """A basis of {x : e_i x = 0 for every i}: one kernel of the rows of
    every left multiplication, stacked."""
    rows = [row for i in range(A.dim)
            for row in A.left_multiplication(A.basis_vector(i)).rows]
    return kernel(rows, A.dim, A.field)


def eigenspaces_by_powers(D):
    """(F', ((rho, eigenspace), ...)) as
    :func:`gradeswitch.galg.generalized_eigenspaces` once found them: D
    embedded into the splitting field F' of its minimal polynomial, and
    the rho-eigenspace the kernel of (D - rho)^mult, mult the
    multiplicity of rho there, by square-and-multiply."""
    big, roots = roots_in_splitting_field(D.minimal_polynomial())
    D2 = D.embed_to(big)
    return big, tuple(
        (rho, Subspace(big, D.n, galg.kernel((D2 - rho) ** mult)))
        for rho, mult in roots)


def alpha_on_chain(D, r):
    """alpha = (g - h)(D) over the field F' of g for the exponent
    max(r, 1), as build_LD once formed it: each term of g - h from D's
    own p-power chain over its field, embedded into F'."""
    r = max(r, 1)
    f1, g, _ = build_g(p_power_relation(D.minimal_polynomial(), r))
    alpha = LinearMap.zero(f1, D.n)
    for i, b in (g - h_polynomial(f1, r)).terms:
        alpha = alpha + D.p_power(i).embed_to(f1) * b
    return alpha


def switch_by_maps(A, D, r=None):
    """(switch_map, block_scalars, alpha) as build_LD once formed them on
    n x n maps over the field F' of g: alpha = (g - h)(D) on the chain of
    D over F', checked against alpha^p - alpha = D^p; the Laguerre value
    L_{p-1}^(alpha)(D) by Horner's rule; and L^(p^r) applied to each
    basis vector of each generalized eigenspace (kernels of
    (D - rho)^mult over F'), which it must multiply by the scalar
    L_{p-1}^(g(rho)^p)(g(rho)^p - g(rho)) of the product form."""
    r_raw = semisimple_exponent(D)
    r = max(r_raw if r is None else r, 1)
    f1, g, _ = build_g(p_power_relation(D.minimal_polynomial(), r))
    p = f1.p
    d1 = D.embed_to(f1)
    alpha = (g - h_polynomial(f1, r))(d1)
    assert alpha ** p - alpha == d1 ** p, "the switching law fails"
    lmap = laguerre_value(p, alpha, d1)
    power = lmap ** (p ** r)
    big, dec = eigenspaces_by_powers(D)
    into = embedding_over(big, f1, A.field)
    scalars = []
    for rho, space in sorted(((into(rho), space.map_field(f1, into))
                              for rho, space in dec),
                             key=lambda entry: int(entry[0])):
        grho = g(rho)
        s = laguerre_value(p, grho ** p, grho ** p - grho)
        assert s and s == scalar_product_form(p, grho), "scalar law"
        for x in space.basis:
            assert power.apply(x) == tuple(s * c for c in x), "L^(p^r)"
        scalars.append((rho, s))
    return lmap, tuple(scalars), alpha
