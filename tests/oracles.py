"""Reference routines that only the tests call: the inverse of a linear
map, its matrix on an invariant subspace, a map from its columns, a
MultiPoly's value at a scalar point, and the check that a p-power
relation holds at D.  The package has no caller for them, so they live
here, next to the tests that use them."""

from gradeswitch.echelon import Echelon
from gradeswitch.fields import _as_field_elt
from gradeswitch.galg import LinearMap
from gradeswitch.switch import PPolynomial


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
