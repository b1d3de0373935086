import pytest

from gradeswitch.echelon import (
    Echelon, first_dependence, kernel, solve)
from gradeswitch.fields import GF


def test_solve_cases():
    F = GF(5)
    s = F.scalar
    rows = [[s(1), s(2)], [s(3), s(4)]]
    sol = solve(rows, [s(1), s(2)], F)
    assert sol is not None
    assert [sol[0] + 2 * sol[1], 3 * sol[0] + 4 * sol[1]] == [s(1), s(2)]
    # inconsistent system
    rows = [[s(1), s(1)], [s(2), s(2)]]
    assert solve(rows, [s(1), s(3)], F) is None
    # underdetermined but consistent
    sol = solve([[s(1), s(1)]], [s(3)], F)
    assert sol is not None and sol[0] + sol[1] == s(3)


def test_solve_sets_free_variables_to_zero():
    F = GF(7)
    s = F.scalar
    # x0 + 2 x2 = 3, x1 + x2 = 1: pivots 0 and 1, x2 free
    assert solve([[s(1), s(0), s(2)], [s(0), s(1), s(1)]], [s(3), s(1)],
                 F) == [s(3), s(1), s(0)]
    # the first row meets the pivot of the second: back substitution
    assert solve([[s(1), s(1), s(0)], [s(0), s(1), s(1)]], [s(5), s(2)],
                 F) == [s(3), s(2), s(0)]


def test_echelon_add_reduce_contains():
    F = GF(3)
    s = F.scalar
    ech = Echelon()
    assert ech.add((s(0), s(1), s(2)))
    assert ech.add((s(1), s(1), s(1)))
    assert not ech.add((s(1), s(2), s(0)))  # the sum of the first two
    assert ech.rank == 2
    assert ech.contains((s(2), s(0), s(1)))
    assert not ech.contains((s(0), s(0), s(1)))
    assert ech.reduce((s(1), s(2), s(0))) == [F.zero] * 3
    # rref leaves the span alone
    rows, piv = ech.rref()
    assert piv == (0, 1)
    assert rows == ((s(1), s(0), s(2)), (s(0), s(1), s(2)))
    assert ech.contains((s(2), s(0), s(1)))
    assert not ech.contains((s(0), s(0), s(1)))


def test_rref_and_kernel_of_empty_and_zero_input():
    F = GF(5)
    assert Echelon([]).rref() == ((), ())
    assert Echelon([(F.zero, F.zero)]).rref() == ((), ())
    assert kernel([], 2, F) == ((F.one, F.zero), (F.zero, F.one))


def test_ints_without_a_field_are_refused():
    # ints are scalars only of a field named by field= or by an element
    for vectors in ([[1, 2], [3, 4]], [[0, 0]], [[]]):
        with pytest.raises(ValueError, match="field="):
            Echelon(vectors).rref()
    with pytest.raises(ValueError, match="field="):
        Echelon().contains((1, 0))
    F = GF(5)
    s = F.scalar
    assert Echelon([[1, 2], [3, 4]], field=F).rref() == (
        ((F.one, F.zero), (F.zero, F.one)), (0, 1))
    assert Echelon([[s(1), 2], [3, 4]]).rref() == (
        ((F.one, F.zero), (F.zero, F.one)), (0, 1))
    assert Echelon([[s(2), 4]]).rref() == (((F.one, s(2)),), (0,))


def test_kernel_of_rectangular_rows():
    F = GF(5)
    s = F.scalar
    ker = kernel([[s(1), s(2), s(3)]], 3, F)
    assert ker == ((s(3), s(1), s(0)), (s(2), s(0), s(1)))


def test_first_dependence():
    F = GF(5)
    s = F.scalar
    v0, v1 = (s(1), s(0)), (s(0), s(1))
    v2 = (s(2), s(3))
    # v2 - 2 v0 - 3 v1 = 0
    assert first_dependence([v0, v1, v2], F) == [s(-2), s(-3)]
    assert first_dependence([v0, v1], F) is None
    assert first_dependence([v0, (s(4), s(0))], F) == [s(-4)]
    assert first_dependence([], F) is None


def test_entries_from_another_field_are_refused():
    # zeros included: GF(5)'s zero is not GF(5^2)'s
    from gradeswitch.galg import Subspace
    K, F = GF(5, 2), GF(5)
    S = Subspace(K, 3, [(K.one, K.zero, K.zero)])
    for v in [(F.zero, F.one, F.zero), (F.one, F.one, F.zero),
              (F.zero, F.zero, F.zero), (K.one, F.zero, K.zero)]:
        with pytest.raises(ValueError):
            S.contains(v)
    with pytest.raises(ValueError):
        Subspace.zero(K, 2).contains((F.zero, F.zero))
    # ints stay scalars
    assert S.contains((1, 0, 0)) and S.contains((2, K.zero, 0))
    assert not S.contains((0, 1, 0))

    ech = Echelon([(K.one, K.zero, K.zero)])
    with pytest.raises(ValueError):
        ech.add((F.zero, F.one, F.zero))
    assert ech.rank == 1
    ech = Echelon()
    assert ech.add((F.one, F.zero))
    with pytest.raises(ValueError):
        ech.add((K.zero, K.one))
    assert ech.add((0, 3)) and ech.rank == 2

    with pytest.raises(ValueError):
        solve([[K.one, K.zero]], [F.one], K)
    with pytest.raises(ValueError):
        solve([[F.one, F.zero]], [F.one], K)
    assert solve([[K.one, 0]], [3], K) == [K.scalar(3), K.zero]
