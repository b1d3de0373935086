"""Algebras that only the tests build."""

from gradeswitch.fields import GF
from gradeswitch.galg import GradedAlgebra


def torus_line(p, m):
    """One-dimensional trivial algebra whose generator is its own p-th
    power: a line of toral elements for direct sums."""
    field = GF(p)
    return GradedAlgebra(field, m, [0], {}, [[field.one]])
