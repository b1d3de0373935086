"""The coefficient-table check on packed ints against the object route.

``coefficient_table`` proves a table T by u T == v, with u = L^(a+b)(X+Y)
and v = L^(a)(X) L^(b)(Y) in R[X,Y]/(X^p - xc, Y^p - yc).  It runs that
check as the ``table_check`` of the ring's packed product kernel, which
packs u from the coefficients of L^(a+b)(Z) and the cached binomial
patterns of (X+Y)^k, multiplies it by each table entry at its cell, folds
X^p and Y^p as a product does, adds -v as p - 1 times the packed outer
product, and requires every block to unpack to zero.

The differential test compares its verdict with the object route
(``_split_pair`` and ``u * table == v``) on seeded admissible pairs over
fields of characteristic 2, 3, 5, 7 and 13, one of them above the log/exp
table cap, with field entries and series of orders (1, 1), (2, 3) and
(3, 3): both accept the closed-form table, and both refuse each value off
by one, a stray nonzero at a cell off the admissible ones and a random
table.  The headroom test computes the exact largest slot of the residual
at all-(p-1) entries, the worst case, against the bound the entry
kernel's slots are sized for, and checks every block of that residual
against a schoolbook product.
"""

import random

import pytest

from gradeswitch.fields import GF, _TABLE_CAP
from gradeswitch.laguerre import (
    _admissible_cells, _laguerre_xy_quotient, _split_pair, coefficient_table,
    in_prime_star, laguerre_coeffs)
from gradeswitch.polyring import (
    BiTruncSeries, QuotientRing, _schoolbook_product)

FIELDS = [GF(2, 4), GF(3, 3), GF(5), GF(7, 2), GF(5, 7), GF(13)]
assert GF(5, 7).q > _TABLE_CAP >= GF(7, 2).q
ORDERS = [None, (1, 1), (2, 3), (3, 3)]


def field_id(F):
    return "GF(%d)" % F.p if F.n == 1 else "GF(%d^%d)" % (F.p, F.n)


def admissible_pairs(F, orders, rng, count=2):
    """`count` seeded pairs (a, b) with a + b outside F_p^*: field
    elements, or a0 + U and b0 + V as the product rule builds them, the
    second pair's a sharing V with b."""
    pairs = []
    while len(pairs) < count:
        a0, b0 = F.random_element(rng), F.random_element(rng)
        if in_prime_star(a0 + b0):
            continue
        if orders is None:
            pairs.append((a0, b0))
            continue
        u = BiTruncSeries.shift_u(F, *orders)
        v = BiTruncSeries.shift_v(F, *orders)
        a = a0 + u + (v if pairs else 0)
        pairs.append((a, b0 + v))
    return pairs


def non_admissible_cells(p, rng):
    """(0, 1), (p - 1, 0) and a random cell with p not dividing i + j."""
    cells = [(i, j) for i in range(p) for j in range(p) if (i + j) % p]
    return [(0, 1), (p - 1, 0), rng.choice(cells)]


@pytest.mark.parametrize("orders", ORDERS, ids=str)
@pytest.mark.parametrize("F", FIELDS, ids=field_id)
def test_packed_check_matches_the_object_route(F, orders):
    p = F.p
    rng = random.Random(F.q * 10 + len(str(orders)))
    for a, b in admissible_pairs(F, orders, rng):
        u, v = _split_pair(p, a, b)
        ring = u.ring
        check = ring._product_kernel().table_check
        lists = (laguerre_coeffs(p, a + b), laguerre_coeffs(p, a),
                 laguerre_coeffs(p, b))

        def verdicts(items):
            items = list(items)
            packed = check(*lists, items)
            assert packed == (u * ring.from_exponents(items) == v), items
            return packed

        values = coefficient_table(p, a, b)
        cells = _admissible_cells(p)
        assert verdicts(zip(cells, values))
        one = ring.one_entry
        for k in range(p):
            off = values[:k] + (values[k] + 1,) + values[k + 1:]
            assert not verdicts(zip(cells, off)), k
        for cell in non_admissible_cells(p, rng):
            assert not verdicts(list(zip(cells, values)) + [(cell, one)])
        random_values = [ring.one_entry * F.random_element(rng)
                         for _ in range(p)]
        assert not verdicts(zip(cells, random_values))


# -- headroom -----------------------------------------------------------------

def above_cap(p):
    """The smallest extension of F_p above the log/exp table cap."""
    n = 2
    while p ** n <= _TABLE_CAP:
        n += 1
    return GF(p, n)


HEADROOM_PRIMES = (2, 3, 5, 7, 11, 13)
# (field, orders) per entry kernel: an element below and above the cap,
# an order-(1, 1) series and a series above it
KERNELS = [(lambda p: GF(p, 2), None), (above_cap, None),
           (lambda p: GF(p), (1, 1)), (lambda p: GF(p), (2, 3))]
KERNEL_IDS = ["element", "element-above-cap", "series(1,1)", "series(2,3)"]


def full_entry(F, orders):
    """The entry whose every field digit is p - 1."""
    x = F.from_coeffs([F.p - 1] * F.n)
    if orders is None:
        return x
    return BiTruncSeries(F, *orders, [[x] * orders[1]] * orders[0])


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("p", HEADROOM_PRIMES)
def test_table_check_headroom(p, kernel):
    """A block of the residual u T - v sums, for each of the p table
    cells, one entry of u (a Laguerre coefficient times a binomial weight
    below p) times the table entry, times yc, xc or both after the folds,
    plus p - 1 times one entry product of v: at most p (p - 1) + 1 <= p^2
    products of four entries, the sum the product kernel's slots hold.
    At all-(p-1) digits every slot is at its largest; the largest must
    stay within the raw bound of the entry kernel, whose slots add room
    for the unpack's own fold, and every block must unpack to the
    schoolbook u T - v."""
    make, orders = kernel
    F = make(p)
    n = F.n
    x = full_entry(F, orders)
    ring = QuotientRing(p, x, x)
    cells = list(zip(_admissible_cells(p), [x] * p))
    lists = ([x] * p, [x] * p, [x] * p)
    s = ring._product_kernel().table_residual(*lists, cells)
    ua, ub = orders or (1, 1)
    length = p * p * (ua * ub) ** 3
    top = 4 * (n - 1) + 1
    if orders is None or orders == (1, 1):
        _, raw, bits = F.dot_kernel(p * p, 4)
        cells_per_entry = 1
    else:
        _, raw, bits = F.series_kernel(ua, ub, p * p, 4)
        cells_per_entry = (4 * (ua - 1) + 1) * (4 * (ub - 1) + 1)
    width, rest = divmod(bits, top * cells_per_entry)
    assert rest == 0
    bound = length * n ** 3 * (p - 1) ** 4
    assert bound + (top - n) * (p - 1) ** 2 < 1 << width
    offsets = ring._product_kernel().layout[0]
    mask = (1 << bits) - 1
    blocks = [[(s >> sh) & mask for sh in row] for row in offsets]
    slot = (1 << width) - 1
    peak = max((b >> (k * width)) & slot for row in blocks for b in row
               for k in range(top * cells_per_entry))
    assert 0 < peak <= bound
    # no block carried into the next: the residual is exactly the blocks
    assert s == sum(b << sh for row, shs in zip(blocks, offsets)
                    for b, sh in zip(row, shs))
    u = _laguerre_xy_quotient(ring, lists[0], p)
    table = ring.from_exponents(cells)
    want = ring.element(_schoolbook_product(u, table)) \
        - ring.outer_product(lists[1], lists[2])
    for row, want_row in zip(blocks, want.entries):
        for b, w in zip(row, want_row):
            got = raw(b)
            if orders is None:
                assert got == w
            elif orders == (1, 1):
                assert got == w.coeffs[0][0]
            else:
                assert got == w.coeffs
