import itertools
import random

import pytest

from gradeswitch.cli import _parse_builtin, _parse_derivation
from gradeswitch.echelon import Echelon, kernel as echelon_kernel, solve
from gradeswitch.fields import GF, embedding, embedding_over
from gradeswitch.galg import (
    GradedAlgebra, LinearMap, Subspace, _coeff_parse, derivation_degree,
    direct_sum, generalized_eigenspaces, is_derivation, is_grading, kernel,
    truncated_poly, truncated_poly_derivation, witt)
from gradeswitch.polyring import Polynomial
from gradeswitch.toral import RestrictedLie
from algebra_builders import torus_line
from oracles import from_columns, inverse, witt_pmap
from test_eigen_route import builtin_pairs


def rand_map(field, n, rng):
    return LinearMap(field, [[field.random_element(rng) for _ in range(n)]
                             for _ in range(n)])


def test_rref_canonical():
    F = GF(5)
    s = F.scalar
    rows, piv = Echelon([(s(0), s(2), s(4)), (s(0), s(1), s(2)),
                         (s(1), s(1), s(1))]).rref()
    assert tuple(piv) == (0, 1)
    assert list(rows) == [(s(1), s(0), s(4)), (s(0), s(1), s(2))]


def test_linear_map_arithmetic():
    F = GF(7)
    rng = random.Random(10)
    A = rand_map(F, 3, rng)
    B = rand_map(F, 3, rng)
    I = LinearMap.identity(F, 3)
    assert A + 2 == A + 2 * I  # scalars mean scalar multiples of identity
    assert (A - A).is_zero()
    assert A * I == A and I * A == A
    v = tuple(F.random_element(rng) for _ in range(3))
    assert (A * B).apply(v) == A.apply(B.apply(v))
    assert A ** 3 == A * A * A


@pytest.mark.parametrize("field", [GF(2), GF(7), GF(3, 2), GF(5, 5),
                                   GF(7, 7), GF(2, 17)], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 40])
def test_products_of_the_top_element_fill_every_slot(field, n):
    # every coefficient p - 1 makes each packed dot product as large as it
    # gets for its length: each entry is n * c^2
    c = field.from_coeffs([field.p - 1] * field.n)
    A = LinearMap(field, [[c] * n for _ in range(n)])
    want = c * c * n
    assert (A * A).rows == ((want,) * n,) * n
    assert A.apply((c,) * n) == (want,) * n


def test_empty_map():
    F = GF(3, 2)
    E = LinearMap(F, [])
    assert (E * E).rows == () and E.apply(()) == () and (E + 1).rows == ()


def test_apply_refuses_foreign_and_misshapen_vectors():
    F, G = GF(5), GF(7)
    A = LinearMap(F, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        A.apply((G.one, G.one))
    with pytest.raises(ValueError):
        A.apply((F.one, G.one))
    with pytest.raises(ValueError):
        A.apply((F.one,))
    with pytest.raises(ValueError):
        A.apply((F.one,) * 3)
    with pytest.raises(TypeError):
        A.apply((F.one, "1"))


def test_apply_coerces_int_entries_to_scalars():
    F = GF(5, 2)
    rng = random.Random(13)
    A = rand_map(F, 3, rng)
    ints = (7, -1, 0)
    assert A.apply(ints) == A.apply(tuple(F.scalar(k) for k in ints))


def test_maps_on_different_spaces_do_not_combine():
    A = LinearMap(GF(5), [[1, 2], [3, 4]])
    B = LinearMap(GF(7), [[1, 2], [3, 4]])
    C = LinearMap(GF(5), [[1]])
    for other in (B, C):
        with pytest.raises(ValueError):
            A * other
        with pytest.raises(ValueError):
            A + other
    with pytest.raises(ValueError):
        A + GF(7).one


def test_from_columns_and_column():
    F = GF(5)
    cols = [(F.one, F.zero), (F.scalar(2), F.scalar(3))]
    M = from_columns(F, cols)
    assert M.column(0) == cols[0] and M.column(1) == cols[1]
    assert M.apply((F.one, F.zero)) == cols[0]


def test_p_power_is_iterated_frobenius_power():
    F = GF(3)
    rng = random.Random(11)
    A = rand_map(F, 4, rng)
    assert A.p_power(1) == A ** 3
    assert A.p_power(2) == (A ** 3) ** 3


def test_kernel_and_solve():
    F = GF(5)
    s = F.scalar
    M = LinearMap(F, [[s(1), s(2), s(3)], [s(2), s(4), s(6 % 5)],
                      [s(0), s(0), s(1)]])
    ker = kernel(M)
    assert len(ker) == 1
    for v in ker:
        assert M.apply(v) == (F.zero,) * 3
    b = M.apply((s(1), s(1), s(1)))
    x = solve(M.rows, b, F)
    assert x is not None and M.apply(x) == b
    assert solve(M.rows, (s(0), s(1), s(0)), F) is None  # inconsistent


def test_inverse_and_rank():
    F = GF(7)
    rng = random.Random(12)
    for _ in range(20):
        A = rand_map(F, 3, rng)
        if Echelon(A.rows).rank == 3:
            assert A * inverse(A) == LinearMap.identity(F, 3)
        else:
            with pytest.raises(ValueError):
                inverse(A)


def brute_char_poly(M):
    """det(T I - M) via the Leibniz permutation sum."""
    F = M.field
    n = M.n
    t = Polynomial.variable(F)
    entries = [[t - M.rows[i][j] if i == j else
                Polynomial(F, [-M.rows[i][j]])
                for j in range(n)] for i in range(n)]
    acc = Polynomial(F, [])
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):  # count cycles for the signature
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j, clen = perm[j], clen + 1
            if clen % 2 == 0:
                sign = -sign
        term = Polynomial(F, [F.scalar(sign)])
        for i in range(n):
            term = term * entries[i][perm[i]]
        acc = acc + term
    return acc


def test_minimal_polynomial_properties():
    F = GF(3)
    rng = random.Random(14)
    for _ in range(15):
        A = rand_map(F, 4, rng)
        mp = A.minimal_polynomial()
        cp = brute_char_poly(A)
        assert mp.evaluate(A).is_zero()
        assert (cp % mp).is_zero()
        assert mp.leading() == F.one
    # companion matrix of T^2 + 1 over GF(3)
    C = LinearMap(F, [[F.zero, -F.one], [F.one, F.zero]])
    t = Polynomial.variable(F)
    assert C.minimal_polynomial() == t ** 2 + 1


def test_minimal_polynomial_applies_each_krylov_vector_once(monkeypatch):
    # a cyclic map with the all-ones vector cyclic: its Krylov sequence
    # reaches degree n after n applies, and deg f = n ends the search
    F = GF(7)
    n = 6
    rows = [[F.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = F.one
    rows[0][n - 1] = F.scalar(3)
    rows[n - 1][n - 1] = F.scalar(2)
    C = LinearMap(F, rows)
    applies = []
    plain = LinearMap.apply

    def counted(self, v):
        applies.append(v)
        return plain(self, v)

    monkeypatch.setattr(LinearMap, "apply", counted)
    f = C.minimal_polynomial()
    assert f.degree() == n and len(applies) == n
    # no unit vector reaches this map's minimal polynomial alone, but the
    # all-ones vector does: its Krylov sequence has degree 3 (2 on the
    # Jordan block of 2, 1 on the eigenspace of 5), below n = 4, so f(M)
    # is formed once and its vanishing ends the search
    D = LinearMap(F, [[F.scalar(2), F.one, F.zero, F.zero],
                      [F.zero, F.scalar(2), F.zero, F.zero],
                      [F.zero, F.zero, F.scalar(5), F.zero],
                      [F.zero, F.zero, F.zero, F.scalar(5)]])
    applies.clear()
    t = Polynomial.variable(F)
    assert D.minimal_polynomial() == (t - 2) ** 2 * (t - 5)
    assert len(applies) == 3


def test_subspace_dimension_formula():
    F = GF(3)
    rng = random.Random(15)
    for _ in range(25):
        U = Subspace(F, 5, [tuple(F.random_element(rng) for _ in range(5))
                            for _ in range(rng.randrange(4))])
        V = Subspace(F, 5, [tuple(F.random_element(rng) for _ in range(5))
                            for _ in range(rng.randrange(4))])
        s = U + V
        i = U.intersect(V)
        assert U.dim + V.dim == s.dim + i.dim
        for b in i.basis:
            assert U.contains(b) and V.contains(b)


def stacked_kernel_intersect(U, V):
    """U ∩ V by the kernel of the stacked transpose [B1 | -B2] and
    recombining B1 entry by entry: the reference for the Zassenhaus
    intersection on the echelon engine."""
    F, n = U.field, U.ambient
    k1, k2 = U.dim, V.dim
    if not k1 or not k2:
        return Subspace(F, n, ())
    stacked = [[(U.basis[i][r] if i < k1 else -V.basis[i - k1][r])
                for i in range(k1 + k2)] for r in range(n)]
    vecs = []
    for kv in echelon_kernel(stacked, k1 + k2, F):
        v = [F.zero] * n
        for i in range(k1):
            for r in range(n):
                v[r] = v[r] + kv[i] * U.basis[i][r]
        vecs.append(tuple(v))
    return Subspace(F, n, vecs)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (2, 5)],
                         ids=["GF(3)", "GF(5^2)", "GF(2^5)"])
def test_intersect_matches_stacked_kernel(p, n):
    F = GF(p, n)
    rng = random.Random(F.q)
    dim = 5
    spaces = [Subspace(F, dim, ()), Subspace.full(F, dim)]
    common = [tuple(F.random_element(rng) for _ in range(dim))
              for _ in range(2)]
    for k in range(1, dim + 1):
        vecs = [tuple(F.random_element(rng) for _ in range(dim))
                for _ in range(k)]
        spaces.append(Subspace(F, dim, vecs))
        # spaces sharing a line or a plane, so that most intersections are
        # neither zero nor a whole side
        spaces.append(Subspace(F, dim, vecs[:k - 1] + common[:k % 3]))
    for U in spaces:
        for V in spaces:
            got = U.intersect(V)
            assert got == stacked_kernel_intersect(U, V)
            assert U.dim + V.dim == (U + V).dim + got.dim
    assert {U.intersect(V).dim for U in spaces for V in spaces} >= \
        set(range(dim + 1))


def test_subspace_coordinates_and_image():
    F = GF(5)
    U = Subspace(F, 3, [(F.one, F.scalar(2), F.zero),
                        (F.zero, F.zero, F.one)])
    v = tuple(a + b for a, b in zip(U.basis[0], U.basis[1]))
    coords = U.coordinates(v)
    assert coords == (F.one, F.one)
    with pytest.raises(ValueError):
        U.coordinates((F.one, F.zero, F.zero))
    M = LinearMap(F, [[F.zero, F.one, F.zero], [F.one, F.zero, F.zero],
                      [F.zero, F.zero, F.one]])
    img = U.image(M)
    assert img.dim == 2
    assert img.contains(M.apply(U.basis[0]))


def test_subspace_canonical_equality():
    F = GF(3)
    a = Subspace(F, 3, [(F.one, F.one, F.zero), (F.zero, F.one, F.one)])
    b = Subspace(F, 3, [(F.one, F.scalar(2), F.one),
                        (F.zero, F.one, F.one)])
    assert a == b and hash(a) == hash(b)


def test_generalized_eigenspaces_diagonalizable():
    F = GF(5)
    D = LinearMap(F, [[F.scalar(2), F.zero], [F.zero, F.scalar(3)]])
    big, dec = generalized_eigenspaces(D)
    assert big is F
    assert [rho for rho, _ in dec] == [F.scalar(2), F.scalar(3)]
    assert tuple(dec[0][1].basis) == ((F.one, F.zero),)
    assert sum(s.dim for _, s in dec) == 2


def test_generalized_eigenspaces_need_extension():
    # companion of T^2 + 1 over GF(3) splits only in GF(9)
    F = GF(3)
    C = LinearMap(F, [[F.zero, -F.one], [F.one, F.zero]])
    big, dec = generalized_eigenspaces(C)
    assert big is GF(3, 2)
    assert len(dec) == 2
    C2 = C.embed_to(big)
    for rho, space in dec:
        assert rho ** 2 == -big.one
        assert space.dim == 1
        v = space.basis[0]
        assert C2.apply(v) == tuple(rho * c for c in v)


def test_generalized_eigenspaces_nilpotent_and_invariance():
    F = GF(3)
    N = LinearMap(F, [[F.zero, F.one, F.zero], [F.zero, F.zero, F.one],
                      [F.zero, F.zero, F.zero]])
    big, dec = generalized_eigenspaces(N)
    assert big is F and len(dec) == 1
    (rho, space), = dec
    assert not rho and space.dim == 3
    rng = random.Random(16)
    M = rand_map(F, 4, rng)
    big, dec = generalized_eigenspaces(M)
    M2 = M.embed_to(big)
    for _, space in dec:
        assert space.image(M2).dim <= space.dim
        for b in space.basis:
            assert space.contains(M2.apply(b))


def test_witt_structure_constants():
    W = witt(5)
    F = W.field
    e = [W.basis_vector(i) for i in range(5)]  # slot i is e_{i-1}
    # [e_{-1}, e_1] = 2 e_0
    assert W.product(e[0], e[2]) == tuple(2 * c for c in e[1])
    # [e_0, e_1] = e_1, [e_1, e_0] = -e_1
    assert W.product(e[1], e[2]) == e[2]
    assert W.product(e[2], e[1]) == tuple(-c for c in e[2])
    # [e_2, e_3] falls out of range (index 5): zero
    assert not any(W.product(e[3], e[4]))
    # restricted structure, derived from ad: only e_0 has a nonzero p-th
    # power; the builtin stores no table
    assert W.pmap is None
    zero = (F.zero,) * 5
    assert [RestrictedLie(W).pth_power(v) for v in e] == \
        [zero, e[1], zero, zero, zero]
    assert W.degrees == tuple((i - 1) % 5 for i in range(5))


def test_truncated_poly_divided_powers():
    A = truncated_poly(3, 9, 3)
    x = [A.basis_vector(i) for i in range(9)]
    # x^(1) x^(1) = binom(2,1) x^(2) = 2 x^(2)
    assert A.product(x[1], x[1]) == tuple(2 * c for c in x[2])
    # x^(1) x^(2) = binom(3,1) x^(3) = 3 x^(3) = 0 over GF(3)
    assert not any(A.product(x[1], x[2]))
    # truncation kills overflow
    assert not any(A.product(x[8], x[1]))
    # x^(0) is the identity
    for v in x:
        assert A.product(x[0], v) == v


def test_builtin_gradings_verify():
    for A in (witt(5), witt(7), truncated_poly(3, 9, 3),
              truncated_poly(5, 5, 5)):
        assert is_grading(A, A.grading_parts())


def test_is_grading_rejects_wrong_parts():
    A = witt(5)
    parts = A.grading_parts()
    relabeled = [((k + 1) % 5, s) for k, s in parts]
    assert not is_grading(A, relabeled)
    with pytest.raises(ValueError):
        is_grading(A, parts + [parts[0]])  # duplicate label
    assert not is_grading(A, parts[1:])     # four vectors do not span
    # two vectors that span one dimension: with every product zero, only
    # their rank tells
    F = GF(3)
    Z = GradedAlgebra(F, 2, [0, 1], {})
    line = Subspace(F, 2, [Z.basis_vector(0)])
    assert not is_grading(Z, [(0, line), (1, line)])


def test_off_grade_structure_constant_is_refused():
    F = GF(3)
    with pytest.raises(ValueError, match="product e_1 e_1 hits e_0 outside "
                                         "the graded component"):
        GradedAlgebra.from_entries(F, 3, [0, 1, 2], [(1, 1, 0, F.one)])


def test_off_grade_constants_that_cancel_are_accepted():
    # the constants listed for one (i, j, k) are summed before the grade
    # test: c and -c off grade give no product, c and c still refuse
    A = GradedAlgebra.from_entries(GF(3), 3, [0, 1, 2],
                                   [(1, 1, 0, 1), (1, 1, 0, -1)])
    assert A.products == {}
    with pytest.raises(ValueError, match="product e_1 e_1 hits e_0 outside "
                                         "the graded component"):
        GradedAlgebra.from_entries(GF(3), 3, [0, 1, 2],
                                   [(1, 1, 0, 1), (1, 1, 0, 1)])


def test_malformed_algebras_are_refused():
    # a deg list of the wrong length, summands that differ in field or in
    # grading modulus, and a modulus that is not monic
    obj = witt(3).to_json()
    obj["deg"] = obj["deg"][:-1]
    with pytest.raises(ValueError, match="deg must list one residue per "
                                         "basis vector"):
        GradedAlgebra.from_json(obj)
    with pytest.raises(ValueError, match="summands over different fields"):
        direct_sum(witt(3), witt(3).change_field(GF(3, 2)))
    with pytest.raises(ValueError, match="summands with different grading "
                                         "moduli"):
        direct_sum(witt(3), truncated_poly(3, 3, 1))
    obj = witt(3).to_json()
    obj.update(field_degree=2, modulus=[1, 0, 2])
    with pytest.raises(ValueError, match="modulus must be monic of degree n"):
        GradedAlgebra.from_json(obj)
    with pytest.raises(ValueError, match="modulus must be monic of degree n"):
        GF(3, 2, (2, 0, 2))


def test_json_roundtrip():
    W = witt(5)
    tabled = GradedAlgebra(W.field, W.m, W.degrees, W.products,
                           witt_pmap(W.field, [5]))
    for A in (W, truncated_poly(3, 9, 3), witt(3).change_field(GF(3, 2)),
              tabled):
        B = GradedAlgebra.from_json(A.to_json())
        assert B == A
        assert B.pmap == A.pmap
    with pytest.raises(ValueError):
        GradedAlgebra.from_json({"p": 3})


def test_pmap_tables_of_the_wrong_shape_are_refused():
    W = witt(5)
    table = witt_pmap(W.field, [5])
    for bad in (table[:4], table[:4] + [table[4][:4]]):
        with pytest.raises(ValueError, match="^pmap must give one vector "
                                             "per basis element$"):
            GradedAlgebra(W.field, W.m, W.degrees, W.products, bad)
    obj = W.to_json()
    obj["pmap"] = [[1, ["0", "1", "0", "0"]]]
    with pytest.raises(ValueError, match="^pmap vector of wrong length$"):
        GradedAlgebra.from_json(obj)


def test_json_rejects_non_integer_sizes():
    for key, bad in (("p", 5.5), ("dim", 2.7), ("m", True), ("p", "5"),
                     ("modulus", [0.5, 1])):
        obj = witt(5).to_json()
        obj[key] = bad
        with pytest.raises(ValueError, match="malformed algebra JSON"):
            GradedAlgebra.from_json(obj)
    obj = witt(5).to_json()
    obj["sc"][0][2] = 1.0
    with pytest.raises(ValueError, match="malformed algebra JSON"):
        GradedAlgebra.from_json(obj)


def test_json_rejects_pmap_index_out_of_range():
    for bad in (-1, 5):
        obj = witt(5).to_json()
        obj["pmap"] = [[1, ["0", "1", "0", "0", "0"]], [bad, ["1"] * 5]]
        with pytest.raises(ValueError, match="malformed algebra JSON"):
            GradedAlgebra.from_json(obj)


def test_json_bad_coefficient_names_the_input():
    obj = witt(5).to_json()
    obj["sc"][0][3] = "x"
    with pytest.raises(ValueError, match="malformed algebra JSON"):
        GradedAlgebra.from_json(obj)


@pytest.mark.parametrize("bad", [True, False, 1.5, [1.5], [True], ["1"]])
def test_json_coefficient_refuses_bools_and_floats(bad):
    obj = witt(5).to_json()
    obj["sc"][0][3] = bad
    with pytest.raises(ValueError, match="malformed algebra JSON: "
                                         "coefficient"):
        GradedAlgebra.from_json(obj)


def test_json_coefficient_forms():
    F = GF(3, 2)
    assert _coeff_parse(F, "2,1") == _coeff_parse(F, [2, 1]) \
        == F.from_coeffs([2, 1])
    assert _coeff_parse(F, 5) == F.from_coeffs([2])


def test_direct_sum_structure():
    A = direct_sum(witt(5), torus_line(5, 5))
    assert A.dim == 6
    e = [A.basis_vector(i) for i in range(6)]
    assert not any(A.product(e[0], e[5]))
    assert A.product(e[1], e[2]) == e[2]
    # the sum stores no p-map table: each Witt summand's e_0 is toral
    # under the map derived from ad
    assert A.pmap is None
    L = RestrictedLie(direct_sum(witt(5), witt(5)))
    assert L.is_toral(L.basis_vector(1)) and L.is_toral(L.basis_vector(6))
    with pytest.raises(ValueError):
        direct_sum(witt(5), witt(3))


def test_change_field_preserves_products():
    A = witt(5)
    B = A.change_field(GF(5, 2))
    rng = random.Random(17)
    emb = lambda v: tuple(B.field.scalar(int(c)) for c in v)
    for _ in range(10):
        x = tuple(A.field.random_element(rng) for _ in range(5))
        y = tuple(A.field.random_element(rng) for _ in range(5))
        assert B.product(emb(x), emb(y)) == emb(A.product(x, y))


def test_change_field_carries_the_pmap_table():
    W = witt(5)
    A = GradedAlgebra(W.field, W.m, W.degrees, W.products,
                      witt_pmap(W.field, [5]))
    F = GF(5, 2)
    B = A.change_field(F)
    assert B.pmap == tuple(witt_pmap(F, [5]))
    assert B == GradedAlgebra(F, W.m, W.degrees, W.change_field(F).products,
                              witt_pmap(F, [5]))
    RestrictedLie(B)    # the carried table agrees with the derived p-map


def test_map_field_defaults_to_the_canonical_embedding():
    small, big = GF(5, 2), GF(5, 4)
    rng = random.Random(23)
    U = Subspace(small, 4, [tuple(small.random_element(rng)
                                  for _ in range(4)) for _ in range(2)])
    emb = embedding(small, big)
    V = U.map_field(big)
    assert V == U.map_field(big, emb)
    assert V.field is big and V.dim == 2
    assert V.basis == tuple(tuple(emb(c) for c in b) for b in U.basis)
    assert U.map_field(small) is U


@pytest.mark.parametrize("spec,derivation", builtin_pairs(),
                         ids=lambda x: x)
def test_map_field_equals_the_re_reduced_subspace(spec, derivation):
    """The embedded basis is stored with no elimination; it equals the
    subspace re-reduced from it, pivots and membership included, on each
    generalized eigenspace of every builtin and derivation of
    builtin_pairs, mapped into the field of twice the eigenvalue field's
    degree by the canonical embedding and by the one switch_grading
    takes (embedding_over)."""
    A = _parse_builtin(spec)
    D = _parse_derivation(A, derivation, None)
    big, dec = generalized_eigenspaces(D)
    target = GF(big.p, 2 * big.n)
    rng = random.Random(len(spec) * 31 + big.n)
    for emb in (embedding(big, target), embedding_over(big, target, A.field)):
        for _, space in dec:
            got = space.map_field(target, emb)
            want = Subspace(target, space.ambient,
                            [tuple(emb(x) for x in b) for b in space.basis])
            assert got == want
            assert (got.field, got.ambient, got.pivots) == \
                (want.field, want.ambient, want.pivots)
            inside = [tuple(emb(x) for x in b) for b in space.basis]
            outside = [tuple(target.random_element(rng)
                             for _ in range(space.ambient))
                       for _ in range(3)]
            for v in inside + outside:
                assert got.contains(v) == want.contains(v)
            for v in inside:
                assert got.coordinates(v) == want.coordinates(v)
            assert got.image(D.embed_to(target)) == \
                want.image(D.embed_to(target))


def test_derivations_and_degrees():
    A = truncated_poly(3, 9, 3)
    ddx = truncated_poly_derivation(A, "ddx")
    xddx = truncated_poly_derivation(A, "xddx")
    assert is_derivation(A, ddx)
    assert is_derivation(A, xddx)
    assert derivation_degree(A, ddx) == 2   # lowers the grade by one mod 3
    assert derivation_degree(A, xddx) == 0
    W = witt(5)
    for i in range(5):
        ad = W.left_multiplication(W.basis_vector(i))
        assert is_derivation(W, ad)
        assert derivation_degree(W, ad) == (i - 1) % 5
    with pytest.raises(ValueError):
        truncated_poly_derivation(A, "bogus")


def test_non_derivation_detected():
    W = witt(5)
    F = W.field
    rows = [[F.zero] * 5 for _ in range(5)]
    rows[0][0] = F.one
    assert not is_derivation(W, LinearMap(F, rows))
    assert derivation_degree(W, LinearMap(F, rows)) == 0  # graded, degree 0
    rows[1][0] = F.one  # now maps slot 0 across two degrees
    assert derivation_degree(W, LinearMap(F, rows)) is None
    rows[1][0] = F.zero
    rows[3][1] = F.one  # slot 0 keeps its degree, slot 1 moves by 2
    assert derivation_degree(W, LinearMap(F, rows)) is None


def test_product_refuses_foreign_and_misshapen_vectors():
    W = witt(5)
    F, G = W.field, GF(7)
    e = [W.basis_vector(i) for i in range(5)]
    for bad in ((F.one,) * 4, (F.one,) * 6, ()):
        with pytest.raises(ValueError):
            W.product(bad, e[1])
        with pytest.raises(ValueError):
            W.product(e[1], bad)
        with pytest.raises(ValueError):
            W.left_multiplication(bad)
    foreign = e[0][:4] + (G.one,)
    with pytest.raises(ValueError):
        W.product(foreign, e[1])
    with pytest.raises(ValueError):
        W.product(e[1], (G.zero,) * 5)   # refused even where it is zero
    with pytest.raises(TypeError):
        W.product(e[1], (F.one, "1", 0, 0, 0))


def test_product_coerces_int_entries_to_scalars():
    A = truncated_poly(5, 5, 5).change_field(GF(5, 2))
    F = A.field
    x, y = (7, -1, 0, 3, 1), (2, 0, 4, -3, 1)
    assert A.product(x, y) == A.product(tuple(F.scalar(k) for k in x),
                                        tuple(F.scalar(k) for k in y))
    assert A.left_multiplication(x) == A.left_multiplication(
        tuple(F.scalar(k) for k in x))


def test_derivation_checks_refuse_maps_on_other_spaces():
    W = witt(5)
    for D in (LinearMap(W.field, [[1] * 4] * 4),
              LinearMap(GF(7), [[1] * 5] * 5)):
        for check in (is_derivation, derivation_degree):
            with pytest.raises(ValueError):
                check(W, D)


def test_repeated_constants_are_merged():
    # constants listed more than once for one (i, j, k) are summed, and a
    # sum that cancels is dropped, so the algebra equals the one written
    # with the sums and writes no cancelling pair to JSON
    F = GF(3)
    empty = GradedAlgebra.from_entries(F, 1, [0], [])
    cancel = GradedAlgebra.from_entries(F, 1, [0], [(0, 0, 0, 1),
                                                    (0, 0, 0, -1)])
    assert cancel.products == {}
    assert cancel == empty
    assert cancel.to_json() == empty.to_json()
    assert cancel.to_json()["sc"] == []
    repeated = GradedAlgebra.from_entries(
        F, 1, [0, 0], [(0, 0, 1, 1), (0, 1, 1, 2), (0, 0, 0, 2),
                       (0, 0, 1, 1), (0, 1, 1, 1)])
    summed = GradedAlgebra.from_entries(F, 1, [0, 0], [(0, 0, 1, 2),
                                                       (0, 0, 0, 2)])
    assert repeated.products == {(0, 0): ((1, F.scalar(2)), (0, F.scalar(2)))}
    assert repeated == summed
    assert repeated.to_json() == summed.to_json()
    assert repeated.to_json()["sc"] == [[0, 0, 1, "2"], [0, 0, 0, "2"]]
    assert GradedAlgebra.from_json(repeated.to_json()) == summed
    x = (F.one, F.scalar(2))
    assert repeated.product(x, x) == summed.product(x, x)
