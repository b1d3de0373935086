"""Differential tests of the packed structure constants behind
``GradedAlgebra``.

Products, left multiplications, the Leibniz check and the grading check
are compared with the schoolbook routines they replaced: a product that
scans every index pair and multiplies ``FqElement`` terms one by one, and a
derivation check that compares D(e_i e_j) with D(e_i) e_j + e_i D(e_j) on
every basis pair.  Algebras are random (sparse and dense, repeated
structure constants included; general, commutative or anticommutative)
over prime fields, log-table fields and a field above the log-table cap,
from dimension 0 up.  Skipped when hypothesis is not installed."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch import cli, galg  # noqa: E402
from gradeswitch.fields import GF, _TABLE_CAP  # noqa: E402
from gradeswitch.galg import (GradedAlgebra, LinearMap, Subspace,  # noqa: E402
                              bracket_failure, is_derivation, is_grading)
from gradeswitch.switch import switch_grading  # noqa: E402

FIELDS = [GF(2), GF(3), GF(7), GF(3, 2), GF(5, 5), GF(2, 17)]
assert FIELDS[-1].q > _TABLE_CAP
# the reference product multiplies polynomials above the table cap
MAX_DIM = {F: (12 if F.q <= _TABLE_CAP else 6) for F in FIELDS}

SETTINGS = hypothesis.settings(max_examples=30, deadline=None,
                               derandomize=True, database=None)


# -- the schoolbook routines, kept as oracles ---------------------------------

def reference_product(A, x, y):
    out = [A.field.zero] * A.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            terms = A.products.get((i, j))
            if terms:
                f = xi * yj
                for k, c in terms:
                    out[k] = out[k] + f * c
    return tuple(out)


def reference_is_derivation(A, D):
    basis = [A.basis_vector(i) for i in range(A.dim)]
    images = [D.apply(b) for b in basis]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = D.apply(reference_product(A, basis[i], basis[j]))
            rhs = tuple(a + b for a, b in zip(
                reference_product(A, images[i], basis[j]),
                reference_product(A, basis[i], images[j])))
            if lhs != rhs:
                return False
    return True


def reference_is_grading(A, parts):
    by_label = {k % A.m: s for k, s in parts}
    stacked = [b for s in by_label.values() for b in s.basis]
    if len(stacked) != A.dim or Subspace(A.field, A.dim, stacked).dim \
            != A.dim:
        return False
    for k, s in by_label.items():
        for l, t in by_label.items():
            target = by_label.get((k + l) % A.m)
            for u in s.basis:
                for v in t.basis:
                    w = reference_product(A, u, v)
                    if any(w) and (target is None or not target.contains(w)):
                        return False
    return True


# -- inputs -------------------------------------------------------------------

def entry(field, rng):
    # the all-(p-1) element fills every slot of the packing the most
    kind = rng.randrange(4)
    if kind == 0:
        return field.zero
    if kind == 1:
        return field.from_coeffs([field.p - 1] * field.n)
    return field.random_element(rng)


def vector(field, dim, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return (field.zero,) * dim
    if kind == 1:
        return (field.from_coeffs([field.p - 1] * field.n),) * dim
    return tuple(entry(field, rng) for _ in range(dim))


SYMMETRIES = ("general", "commutative", "anticommutative")


def random_algebra(field, dim, rng, symmetry="general"):
    """A graded algebra with random structure constants, sparse or dense,
    some of them listed twice for the same (i, j, k).

    A commutative or anticommutative draw lists c_jik = c_ijk or -c_ijk
    beside each c_ijk with i > j.  An anticommutative one has c_iik = 0,
    except in characteristic 2, where -1 = 1 and c_iik is drawn too."""
    m = rng.randrange(1, 4)
    degrees = [rng.randrange(m) for _ in range(dim)]
    density = rng.choice([0.1, 0.5, 1.0])
    entries = []

    def put(i, j, k, c):
        entries.append((i, j, k, c))
        if symmetry != "general" and i != j:
            entries.append((j, i, k, -c if symmetry == "anticommutative"
                            else c))
    for i in range(dim):
        for j in range(dim if symmetry == "general" else i + 1):
            if i == j and symmetry == "anticommutative" and field.p != 2:
                continue
            for k in range(dim):
                if (degrees[i] + degrees[j] - degrees[k]) % m:
                    continue
                if rng.random() < density:
                    put(i, j, k, entry(field, rng))
                    if rng.random() < 0.1:
                        put(i, j, k, entry(field, rng))
    return GradedAlgebra.from_entries(field, m, degrees, entries)


cases = st.tuples(st.sampled_from(FIELDS), st.integers(0, 1 << 30))


def draw(field, seed, symmetry="general"):
    rng = random.Random(seed)
    dim = rng.choice([0, 1, rng.randrange(2, MAX_DIM[field] + 1)])
    return rng, random_algebra(field, dim, rng, symmetry)


# -- products -----------------------------------------------------------------

@SETTINGS
@hypothesis.given(cases)
def test_product_matches_reference(case):
    field, seed = case
    rng, A = draw(field, seed)
    for _ in range(4):
        x, y = vector(field, A.dim, rng), vector(field, A.dim, rng)
        assert A.product(x, y) == reference_product(A, x, y)


@SETTINGS
@hypothesis.given(cases)
def test_left_multiplication_matches_reference(case):
    field, seed = case
    rng, A = draw(field, seed)
    x = vector(field, A.dim, rng)
    cols = [reference_product(A, x, A.basis_vector(j)) for j in range(A.dim)]
    assert A.left_multiplication(x) == LinearMap(
        field, [[col[i] for col in cols] for i in range(A.dim)])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products_of_top_vectors_on_a_dense_algebra(field):
    # every structure constant and every entry is the all-(p-1) element,
    # which fills each packed slot of a three-factor product the most
    dim = 5
    top = field.from_coeffs([field.p - 1] * field.n)
    A = GradedAlgebra.from_entries(
        field, 1, [0] * dim,
        [(i, j, k, top) for i in range(dim) for j in range(dim)
         for k in range(dim)])
    x = (top,) * dim
    assert A.product(x, x) == (dim * dim * top * top * top,) * dim


# -- the Leibniz check --------------------------------------------------------

@SETTINGS
@hypothesis.given(cases)
def test_is_derivation_matches_reference_on_random_maps(case):
    field, seed = case
    rng, A = draw(field, seed)
    D = LinearMap(field, [[entry(field, rng) if rng.random() < 0.3
                           else field.zero for _ in range(A.dim)]
                          for _ in range(A.dim)])
    assert is_derivation(A, D) == reference_is_derivation(A, D)


def _derivations():
    out = []
    for spec, der in [("witt:5", "ad:0"), ("witt:5", "ad:1"),
                      ("witt:7", "ad:3"), ("witt:3+witt:3", "ad:4"),
                      ("tpoly:3:9:3", "ddx"), ("tpoly:3:9:3", "xddx"),
                      ("tpoly:5:5:5", "ddx"), ("tpoly:5:5:5", "xddx")]:
        A = cli._parse_builtin(spec)
        out.append((spec, der, A, cli._parse_derivation(A, der, None)))
    return out


DERIVATIONS = _derivations()


@pytest.mark.parametrize("spec,der,A,D", DERIVATIONS,
                         ids=["%s %s" % d[:2] for d in DERIVATIONS])
def test_known_derivations_pass(spec, der, A, D):
    assert is_derivation(A, D)
    assert reference_is_derivation(A, D)


@SETTINGS
@hypothesis.given(st.sampled_from(DERIVATIONS), st.integers(0, 1 << 30))
def test_one_entry_perturbation_is_caught(known, seed):
    # ad e_i of Witt and ddx/xddx fail after any one-entry change, except
    # that the divided-power algebra has derivations of its own with a
    # single entry, x^(p^k) -> the top basis vector, and adding one of
    # those keeps a derivation; the oracle decides those cases.
    spec, _, A, D = known
    rng = random.Random(seed)
    field, n = A.field, A.dim
    a, b = rng.randrange(n), rng.randrange(n)
    rows = [list(r) for r in D.rows]
    rows[a][b] = rows[a][b] + field.scalar(rng.randrange(1, field.p))
    E = LinearMap(field, rows)
    want = reference_is_derivation(A, E)
    assert is_derivation(A, E) == want
    if not (spec.startswith("tpoly") and a == n - 1
            and _is_power(b, field.p)):
        assert not want


def _is_power(b, p):
    """b == p^k for some k >= 0."""
    while b > 1 and b % p == 0:
        b //= p
    return b == 1


# -- the grading check --------------------------------------------------------

GRADINGS = [("tpoly:3:9:3", "ddx"), ("tpoly:5:5:5", "xddx"),
            ("witt:5+witt:5", "ad:1"), ("witt:7", "ad:0")]


@pytest.mark.parametrize("spec,der", GRADINGS)
def test_transported_parts_are_a_grading(spec, der):
    A = cli._parse_builtin(spec)
    res = switch_grading(A, cli._parse_derivation(A, der, None),
                         check_product_rule=False)
    B = res.algebra
    assert galg._commutes_up_to_sign(B)     # so the unordered pairs serve
    for parts in (res.old_parts, res.new_parts):
        assert is_grading(B, parts)
        assert reference_is_grading(B, parts)


@pytest.mark.parametrize("spec,der", GRADINGS)
def test_relabelled_part_is_not_a_grading(spec, der):
    A = cli._parse_builtin(spec)
    res = switch_grading(A, cli._parse_derivation(A, der, None),
                         check_product_rule=False)
    B = res.algebra
    # swap the labels of the first two nonzero parts
    k, l = [k for k, s in res.new_parts if s.dim][:2]
    swap = {k: l, l: k}
    moved = [(swap.get(j, j), s) for j, s in res.new_parts]
    assert reference_is_grading(B, moved) is False
    assert is_grading(B, moved) is False


def mutated_part(A, parts, rng):
    """parts with one basis vector u of one part replaced by u + v, v in
    another part: still a direct sum, but a grading only by chance; None
    when fewer than two parts are nonzero."""
    full = [k for k, s in parts if s.dim]
    if len(full) < 2:
        return None
    k, l = rng.sample(full, 2)
    by_label = dict(parts)
    u, *rest = by_label[k].basis
    v = by_label[l].basis[0]
    by_label[k] = Subspace(A.field, A.dim,
                           [tuple(a + b for a, b in zip(u, v))] + rest)
    return list(by_label.items())


def perturbed_constant(A, rng):
    """A with one c_ijk, i != j, moved by an amount that keeps
    e_j e_i = s e_i e_j from holding at (i, j) for either sign s; None when
    no such (i, j, k) respects the grading."""
    field = A.field
    slots = [(i, j, k) for i in range(A.dim) for j in range(A.dim)
             for k in range(A.dim) if i != j
             and not (A.degrees[i] + A.degrees[j] - A.degrees[k]) % A.m]
    if not slots:
        return None
    i, j, k = rng.choice(slots)
    a = dict(A.products.get((i, j), ())).get(k, field.zero)
    c = field.zero
    while not c or c == -2 * a:
        c = field.random_element(rng)
    entries = [(i2, j2, k2, c2) for (i2, j2), terms in A.products.items()
               for k2, c2 in terms]
    return GradedAlgebra.from_entries(field, A.m, A.degrees,
                                      entries + [(i, j, k, c)])


def grading_checks_agree(A, rng, symmetry):
    """Compare is_grading with the reference on A's own parts, on them
    with shuffled labels and with one mutated part, and the same on A with
    one constant moved off its symmetry; the number of refusals seen."""
    assert symmetry == "general" or galg._commutes_up_to_sign(A)
    parts = A.grading_parts()
    assert is_grading(A, parts) is True
    perm = list(range(A.m))
    rng.shuffle(perm)
    shuffled = [(perm[k], s) for k, s in parts]
    B = perturbed_constant(A, rng)
    assert B is None or symmetry == "general" \
        or not galg._commutes_up_to_sign(B)
    refused = 0
    for alg in (A, B):
        for moved in (shuffled, mutated_part(A, parts, rng)):
            if alg is not None and moved is not None:
                want = reference_is_grading(alg, moved)
                assert is_grading(alg, moved) == want
                refused += not want
    return refused


@SETTINGS
@hypothesis.given(cases, st.sampled_from(SYMMETRIES))
def test_is_grading_matches_reference_on_random_algebras(case, symmetry):
    field, seed = case
    rng, A = draw(field, seed, symmetry)
    grading_checks_agree(A, rng, symmetry)


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_is_grading_matches_reference_by_symmetry(field, symmetry):
    # the unordered-pair check on commutative and anticommutative draws,
    # the ordered one on general draws and on every draw with one
    # constant moved off the symmetry; in characteristic 2, where -1 = 1,
    # anticommutative draws have nonzero squares e_i e_i
    refused = squares = 0
    for seed in range(8):
        rng = random.Random(seed)
        A = random_algebra(field, rng.randrange(2, MAX_DIM[field] + 1), rng,
                           symmetry)
        squares += sum((i, i) in A.products for i in range(A.dim))
        refused += grading_checks_agree(A, rng, symmetry)
    assert refused
    assert squares or (symmetry == "anticommutative" and field.p != 2)


@pytest.mark.parametrize("field", [GF(3), GF(2)], ids=repr)
def test_a_square_outside_its_part_is_refused(field):
    # e_0 e_0 = e_1 and no other product: commutative, and over GF(2)
    # anticommutative too.  Labelling e_0 by 0 puts e_0 e_0 outside its
    # part, and only the pair of e_0 with itself shows it
    A = GradedAlgebra.from_entries(field, 2, [1, 0], [(0, 0, 1, field.one)])
    assert galg._commutes_up_to_sign(A)
    e0, e1 = (Subspace(field, 2, [A.basis_vector(i)]) for i in range(2))
    assert is_grading(A, [(1, e0), (0, e1)]) is True
    moved = [(0, e0), (1, e1)]
    assert reference_is_grading(A, moved) is False
    assert is_grading(A, moved) is False


@pytest.mark.parametrize("order", [1, -1])
def test_a_product_neither_commutative_nor_anticommutative_is_swept_in_order(
        order):
    # e_1 e_0 = e_1 and e_0 e_1 = 0.  Labelling e_0 by 1 and e_1 by 0 is
    # no grading, since e_1 e_0 = e_1 is not in the part of label 0 + 1;
    # only the ordered pair (e_1, e_0) shows it, and in the first part
    # order unordered pairs would take (e_0, e_1) for those labels instead
    F = GF(3)
    A = GradedAlgebra.from_entries(F, 2, [0, 1], [(1, 0, 1, F.one)])
    assert not galg._commutes_up_to_sign(A)
    e0, e1 = (Subspace(F, 2, [A.basis_vector(i)]) for i in range(2))
    assert is_grading(A, [(0, e0), (1, e1)]) is True
    moved = [(1, e0), (0, e1)][::order]
    assert reference_is_grading(A, moved) is False
    assert is_grading(A, moved) is False


# -- the Lie bracket checks ---------------------------------------------------

def test_bracket_checks_on_builtins():
    for spec in ("witt:5", "witt:7", "witt:3+witt:3"):
        assert bracket_failure(cli._parse_builtin(spec)) is None
    assert bracket_failure(cli._parse_builtin("tpoly:3:3:3")) \
        == "bracket is not alternating"


@pytest.mark.parametrize("field", [GF(3), GF(3, 2)], ids=repr)
def test_bracket_checks_name_the_failing_axiom(field):
    one = field.one
    # [e0, e1] = e2 but [e1, e0] = e2 too
    A = GradedAlgebra.from_entries(field, 1, [0] * 3,
                                   [(0, 1, 2, one), (1, 0, 2, one)])
    assert bracket_failure(A) == "bracket is not antisymmetric"
    # antisymmetric, but [e0, [e1, e2]] = e0 alone breaks Jacobi
    B = GradedAlgebra.from_entries(field, 1, [0] * 3,
                                   [(1, 2, 1, one), (2, 1, 1, -one),
                                    (0, 1, 0, one), (1, 0, 0, -one)])
    assert bracket_failure(B) == "Jacobi identity fails"
    # a constant listed twice that cancels leaves e0 e0 = 0
    C = GradedAlgebra.from_entries(field, 1, [0], [(0, 0, 0, one),
                                                   (0, 0, 0, -one)])
    assert bracket_failure(C) is None
