"""Algebras that only the tests build."""

from gradeswitch.fields import GF
from gradeswitch.galg import GradedAlgebra


def torus_line(p, m):
    """One-dimensional trivial algebra whose generator is its own p-th
    power: a line of toral elements for direct sums."""
    field = GF(p)
    return GradedAlgebra(field, m, [0], {}, [[field.one]])


def companion_blocks(p, degrees):
    """(A, D): the zero-product algebra over GF(p) of dimension
    sum(degrees), graded trivially, and D made of one companion block per
    degree d, of the default modulus of GF(p^d).  D is semisimple and
    splits over GF(p^lcm(degrees))."""
    from gradeswitch.fields import _smallest_irreducible
    from gradeswitch.galg import LinearMap
    field = GF(p)
    dim = sum(degrees)
    rows = [[field.zero] * dim for _ in range(dim)]
    off = 0
    for d in degrees:
        f = _smallest_irreducible(p, d)
        for i in range(d):
            if i:
                rows[off + i][off + i - 1] = field.one
            rows[off + i][off + d - 1] = field.scalar(-f[i])
        off += d
    return GradedAlgebra(field, 1, [0] * dim, {}), LinearMap(field, rows)
