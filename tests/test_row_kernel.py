"""Deterministic worst cases of the row kernel behind ``LinearMap``.

A product row is one sum of n packed entries times the right operand's
wide rows, and an apply one sum against the map's wide columns; each
sum is reduced in one pass.  The entry whose coefficients are all p - 1
fills every slot of that layout the most, so matrices made of it, and
mixed with zeros and random entries, are checked against a schoolbook
reference at the sizes 0, 1 and 40 (the CLI's dimension cap) and for
short product chains.  The slot width is checked against the folding
bound directly, on the kernel itself, including fields whose slots are
too wide to be read as machine words.  The dot kernel, which folds one
block's high slots after reducing them mod p, gets the same headroom
check for products of two, three and four elements at the lengths the
package asks of it, and a seeded differential test against element
arithmetic.
"""

import functools
import operator
import random

import pytest

from gradeswitch.cli import DEFAULT_DIM_CAP
from gradeswitch.fields import GF, _TABLE_CAP, _reduction_rows
from gradeswitch.galg import LinearMap

assert DEFAULT_DIM_CAP == 40
SIZES = (0, 1, DEFAULT_DIM_CAP)
FIELDS = [GF(2), GF(7), GF(5, 5), GF(7, 7)]
# above the log/exp table cap: products are polynomial products
BIG = GF(2, 17)
assert BIG.q > _TABLE_CAP and GF(7, 7).q > _TABLE_CAP
# slots wider than 64 bits: read by shifting instead of as machine words
WIDE = [GF(2 ** 31 - 1), GF(1048583, 2)]


def full(field):
    """The element with every coefficient p - 1."""
    return field.from_coeffs([field.p - 1] * field.n)


class Reference:
    """Schoolbook products: each term an FqElement product, the terms
    summed coefficient by coefficient and reduced mod p once.  Each
    distinct element product is computed once, which keeps the 40 x 40
    references over fields without tables cheap."""

    def __init__(self, field):
        self.field = field
        self.products = {}

    def mul(self, a, b):
        key = (a.coeffs, b.coeffs)
        if key not in self.products:
            self.products[key] = a * b
        return self.products[key]

    def dot(self, row, col):
        terms = [self.mul(a, b).coeffs for a, b in zip(row, col)]
        return self.field.from_coeffs([sum(c) for c in zip(*terms)])

    def product(self, A, B):
        cols = [B.column(j) for j in range(B.n)]
        return tuple(tuple(self.dot(row, col) for col in cols)
                     for row in A.rows)

    def apply(self, A, v):
        return tuple(self.dot(row, v) for row in A.rows)


def worst(field, n):
    return LinearMap(field, [[full(field)] * n] * n)


def mixed(field, n, rng):
    pool = [field.zero, full(field), field.one]
    pool += [field.random_element(rng) for _ in range(4)]
    return LinearMap(field, [[rng.choice(pool) for _ in range(n)]
                             for _ in range(n)])


def check_map(M, N, v):
    ref = Reference(M.field)
    MN = M * N
    assert MN.rows == ref.product(M, N)
    # a chain: the product's own packed rows and wide rows feed the next
    chain = MN * M
    assert chain.rows == ref.product(LinearMap(M.field, MN.rows), M)
    assert (M * (N * M)).rows == chain.rows
    assert M.apply(v) == ref.apply(M, v)
    assert MN.apply(v) == ref.apply(MN, v)
    # cached packed forms give the same answers again
    assert (M * N).rows == MN.rows and M.apply(v) == ref.apply(M, v)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_all_p_minus_one_entries_match_schoolbook(field, n):
    M = worst(field, n)
    check_map(M, M, (full(field),) * n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mixed_entries_match_schoolbook(field, n):
    rng = random.Random(n * 1009 + field.q)
    size = n if field.q <= _TABLE_CAP else min(n, 12)
    M, N = mixed(field, size, rng), mixed(field, size, rng)
    check_map(M, N, tuple(rng.choice([full(field), field.zero,
                                      field.random_element(rng)])
                          for _ in range(size)))


@pytest.mark.parametrize("field", [BIG] + WIDE, ids=repr)
def test_large_fields_match_schoolbook(field):
    rng = random.Random(17)
    check_map(worst(field, 9), worst(field, 9), (full(field),) * 9)
    check_map(mixed(field, 7, rng), mixed(field, 7, rng),
              tuple(field.random_element(rng) for _ in range(7)))


def test_wide_fields_really_need_wide_slots():
    for field, n in zip(WIDE, (7, DEFAULT_DIM_CAP)):
        assert field.row_kernel(n, n)[3] > 64
    M = worst(WIDE[1], DEFAULT_DIM_CAP)
    check_map(M, M, (full(WIDE[1]),) * DEFAULT_DIM_CAP)


def folded_slot_maximum(field, length):
    """Largest slot after the fold of a block summing `length` products
    of two all-(p-1) elements, computed slot by slot: slot s of one such
    product holds (p-1)^2 once for every i + j = s, and slot n + k folds
    into slot j times the coefficient of g^j in T^(n+k)."""
    p, n = field.p, field.n
    raw = [length * (p - 1) ** 2 * sum(1 for i in range(n) if 0 <= s - i < n)
           for s in range(2 * n - 1)]
    rows = _reduction_rows(p, field.modulus, n - 1)
    return max(raw[j] + sum(raw[n + k] * rows[k][j] for k in range(n - 1))
               for j in range(n))


@pytest.mark.parametrize("length", (1, 7, DEFAULT_DIM_CAP))
@pytest.mark.parametrize("field", FIELDS + [BIG] + WIDE, ids=repr)
def test_row_kernel_headroom(field, length):
    p, n = field.p, field.n
    pack, widen, unpack, width = field.row_kernel(length, 3)
    bound = length * n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
    assert bound < 1 << width
    assert folded_slot_maximum(field, length) <= bound
    # the worst sum: `length` products of all-(p-1) elements in each of
    # three blocks, with an element of small coefficients beside it
    x = full(field)
    y = field.from_coeffs([1] * n)
    a = [pack(x.coeffs)] * length
    wide = [widen([pack(x.coeffs), pack(y.coeffs), 0])] * length
    s = sum(map(operator.mul, a, wide))
    assert unpack(s) == (x * x * length, x * y * length, field.zero)
    assert unpack(0) == (field.zero,) * 3


# The dot kernel's fields: a prime field, log-table fields, fields above
# the table cap and characteristic 2.
DOT_FIELDS = [GF(13), GF(3, 3), GF(5, 5), GF(7, 2), GF(5, 7), BIG, GF(2, 8)]
assert GF(5, 7).q > _TABLE_CAP and GF(3, 3).q <= _TABLE_CAP


def dot_lengths(field):
    """The lengths the package asks of the dot kernel: one term, the
    p-th-root map (n), an echelon row and an algebra product at the
    dimension cap, the row-0 inverse p (p - 1), a quotient product p p
    and its series cells at order (p, p), p p (p p)^3."""
    p, n = field.p, field.n
    return sorted({1, n, DEFAULT_DIM_CAP + 1, 3 * DEFAULT_DIM_CAP,
                   p * (p - 1), p * p, p ** 8})


def dot_folded_slot_maximum(field, length, factors):
    """Largest a low slot can reach in the dot kernel's unpack, computed
    slot by slot: slot s of a product of `factors` all-(p-1) elements
    holds (p-1)^factors once for every way of writing s as a sum of
    `factors` exponents below n, and slot n + k, reduced mod p (so at
    most p - 1), folds into slot j times the coefficient of g^j in
    T^(n+k)."""
    p, n = field.p, field.n
    top = factors * (n - 1) + 1
    ways = [1] + [0] * (top - 1)
    for _ in range(factors):
        ways = [sum(ways[s - i] for i in range(n) if 0 <= s - i < top)
                for s in range(top)]
    raw = [length * (p - 1) ** factors * w for w in ways]
    rows = _reduction_rows(p, field.modulus, top - n)
    return max(raw[j] + sum((p - 1) * rows[k][j] for k in range(top - n))
               for j in range(n))


@pytest.mark.parametrize("factors", (2, 3, 4))
@pytest.mark.parametrize("field", DOT_FIELDS, ids=repr)
def test_dot_kernel_headroom(field, factors):
    p, n = field.p, field.n
    top = factors * (n - 1) + 1
    x = full(field)
    y = field.from_coeffs([1] * n)
    for length in dot_lengths(field):
        pack, unpack, bits = field.dot_kernel(length, factors)
        width, rest = divmod(bits, top)
        assert rest == 0
        bound = length * n ** (factors - 1) * (p - 1) ** factors \
            + (top - n) * (p - 1) ** 2
        assert dot_folded_slot_maximum(field, length, factors) <= bound
        assert bound < 1 << width
        # the worst sum: `length` products of all-(p-1) elements, alone
        # and with one more term of small coefficients
        worst = length * pack(x) ** factors
        want = x ** factors * field.scalar(length)
        assert unpack(worst) == want
        if length > 1:
            worst -= pack(x) ** factors
            assert unpack(worst + pack(y) ** factors) == \
                want - x ** factors + y ** factors
        assert unpack(0) is field.zero


@pytest.mark.parametrize("factors", (2, 3, 4))
@pytest.mark.parametrize("field", DOT_FIELDS, ids=repr)
def test_dot_kernel_matches_element_arithmetic(field, factors):
    rng = random.Random(field.q * 7 + factors)
    pool = [field.zero, field.one, full(field)]
    for length in (1, 2, field.p, 25):
        pack, unpack, _ = field.dot_kernel(length, factors)
        for _ in range(3):
            terms = [[rng.choice(pool) if rng.random() < 0.2
                      else field.random_element(rng)
                      for _ in range(factors)] for _ in range(length)]
            s = sum(functools.reduce(operator.mul, map(pack, t))
                    for t in terms)
            want = field.zero
            for t in terms:
                want = want + functools.reduce(operator.mul, t)
            assert unpack(s) == want
    # an int packs as the scalar it stands for
    assert pack(-1) == pack(field.scalar(-1))
