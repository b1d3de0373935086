"""Differential tests of the packed-int product kernel behind
``QuotientElement``.

Products in R[X,Y]/(X^p - xc, Y^p - yc) are compared with the schoolbook
loop they replaced, which multiplies entries one pair at a time and folds
X^p and Y^p back entry by entry; series entries are multiplied there by a
schoolbook loop too, which also checks the series kernel behind
``BiTruncSeries.__mul__`` on its own.  R is a finite field or a truncated
series ring F[U,V]/(U^a, V^b) with orders 1 to 3, over prime fields,
log-table fields and a field above the log-table cap; p runs over 2, 3, 5
and 7.  The reduction constants xc and yc are random, zero, all-(p-1) or
the pair-series constants alpha^p - alpha, so they carry U and V terms.
Elements include zero and all-(p-1) entries, which fill the kernel's
slots the most.  Rings over one field are checked to share one kernel
layout.  Skipped when hypothesis is not installed."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch import polyring  # noqa: E402
from gradeswitch.fields import GF, FqElement, _TABLE_CAP  # noqa: E402
from gradeswitch.polyring import (  # noqa: E402
    BiTruncSeries, MultiPoly, QuotientElement, QuotientRing)
from frobenius_oracle import frobenius_scalar  # noqa: E402

FIELDS = [GF(2), GF(3), GF(5, 5), GF(3, 3), GF(2, 17)]
assert FIELDS[-1].q > _TABLE_CAP
PRIMES = [2, 3, 5, 7]
ORDERS = [None, (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2), (3, 3)]

SETTINGS = hypothesis.settings(max_examples=40, deadline=None,
                               derandomize=True, database=None)


# -- the schoolbook products, kept as the oracles -------------------------------

def reference_series_product(a, b):
    """Coefficient rows of a b for two series of one ring, one pair of
    coefficients at a time, truncated to the ring's orders."""
    ua, ub = a.ua, a.ub
    out = [[a.field.zero] * ub for _ in range(ua)]
    for i in range(ua):
        for j in range(ub):
            c = a.coeffs[i][j]
            if not c:
                continue
            for k in range(ua - i):
                brow, orow = b.coeffs[k], out[i + k]
                for l in range(ub - j):
                    if brow[l]:
                        orow[j + l] = orow[j + l] + c * brow[l]
    return tuple(tuple(r) for r in out)


def entry_product(a, b):
    """a b for two entries, series through the schoolbook oracle."""
    if isinstance(a, BiTruncSeries):
        return BiTruncSeries(a.field, a.ua, a.ub,
                             reference_series_product(a, b))
    return a * b


def reference_product(u, v):
    ring = u.ring
    p = ring.p
    terms = [(k, l, c2) for k, row in enumerate(v.entries)
             for l, c2 in enumerate(row) if c2]
    acc = [[ring.zero_entry] * (2 * p - 1) for _ in range(2 * p - 1)]
    for i, row in enumerate(u.entries):
        for j, c1 in enumerate(row):
            if c1:
                for k, l, c2 in terms:
                    acc[i + k][j + l] = acc[i + k][j + l] \
                        + entry_product(c1, c2)
    for row in acc:
        for t in range(p, 2 * p - 1):
            if row[t]:
                row[t - p] = row[t - p] + entry_product(row[t], ring.yc)
    for s in range(p, 2 * p - 1):
        for t in range(p):
            if acc[s][t]:
                acc[s - p][t] = acc[s - p][t] \
                    + entry_product(acc[s][t], ring.xc)
    return tuple(tuple(r[:p]) for r in acc[:p])


# -- inputs -----------------------------------------------------------------------

def field_entry(F, kind, rng):
    if kind == "zero":
        return F.zero
    if kind == "max":
        # every digit p - 1: the largest value a slot can receive
        return F.from_coeffs([F.p - 1] * F.n)
    return F.random_element(rng)


def entry(F, orders, kind, rng):
    """A field element (orders None) or a series whose every coefficient
    is of the given kind."""
    if orders is None:
        return field_entry(F, kind, rng)
    ua, ub = orders
    return BiTruncSeries(F, ua, ub, [[field_entry(F, kind, rng)
                                      for _ in range(ub)] for _ in range(ua)])


def pair_constant(F, orders, rng):
    """alpha^p - alpha at alpha = a0 + U (or b0 + V) with p the field's
    characteristic, as in the product-rule pair series."""
    a0 = F.random_element(rng)
    if orders is None:
        return a0 ** F.p - a0
    ua, ub = orders
    shift = (BiTruncSeries.shift_u if rng.randrange(2) else
             BiTruncSeries.shift_v)(F, ua, ub)
    alpha = BiTruncSeries.constant(F, ua, ub, a0) + shift
    return alpha ** F.p - alpha


def constant(F, orders, kind, rng):
    if kind == "pair":
        return pair_constant(F, orders, rng)
    return entry(F, orders, kind, rng)


def element(ring, F, orders, kind, rng):
    p = ring.p
    if kind == "sparse":
        return ring.element([[entry(F, orders, "random", rng)
                              if rng.randrange(3) == 0 else ring.zero_entry
                              for _ in range(p)] for _ in range(p)])
    if kind == "mixed":
        return ring.element([[entry(F, orders, rng.choice(
            ["zero", "max", "random"]), rng) for _ in range(p)]
            for _ in range(p)])
    return ring.element([[entry(F, orders, kind, rng) for _ in range(p)]
                         for _ in range(p)])


ENTRY_KINDS = ["zero", "max", "random", "sparse", "mixed"]
CONSTANT_KINDS = ["zero", "max", "random", "pair"]


@st.composite
def products(draw):
    F = draw(st.sampled_from(FIELDS))
    p = draw(st.sampled_from(PRIMES))
    orders = draw(st.sampled_from(ORDERS))
    if F.q > _TABLE_CAP and orders is not None:
        # the reference multiplies polynomials above the table cap
        p = min(p, 3)
        orders = (min(orders[0], 2), min(orders[1], 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    xc = constant(F, orders, draw(st.sampled_from(CONSTANT_KINDS)), rng)
    yc = constant(F, orders, draw(st.sampled_from(CONSTANT_KINDS)), rng)
    ring = QuotientRing(p, xc, yc)
    u = element(ring, F, orders, draw(st.sampled_from(ENTRY_KINDS)), rng)
    v = element(ring, F, orders, draw(st.sampled_from(ENTRY_KINDS)), rng)
    return u, v


@SETTINGS
@hypothesis.given(products())
def test_product_matches_reference(case):
    u, v = case
    w = u * v
    assert w.entries == reference_product(u, v)
    # cached packed operands give the same product again, and the product
    # is itself a valid operand
    assert (u * v).entries == w.entries
    assert (v * u).entries == w.entries
    assert (w * u).entries == reference_product(w, u)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_all_max_entries(F, p):
    """Every entry, xc and yc with every digit p - 1: the largest sums the
    slots must hold without carrying into their neighbours."""
    rng = random.Random(0)
    # the reference spends p^4 series products on one product; keep the
    # widest series to the smaller p and below the table cap
    shapes = [None]
    if p <= 5:
        shapes.append((2, 3) if F.q <= _TABLE_CAP else (2, 2))
    for orders in shapes:
        top = entry(F, orders, "max", rng)
        ring = QuotientRing(p, top, top)
        u = element(ring, F, orders, "max", rng)
        assert (u * u).entries == reference_product(u, u)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_series_product_matches_reference(F):
    """BiTruncSeries products, on the series kernel, against the
    schoolbook loop: orders 1..3 in each variable, zero, all-(p-1) and
    random coefficients on either side."""
    rng = random.Random(3)
    kinds = ["zero", "max", "random"]
    for ua in (1, 2, 3):
        for ub in (1, 2, 3):
            for ka in kinds:
                for kb in kinds:
                    a = entry(F, (ua, ub), ka, rng)
                    b = entry(F, (ua, ub), kb, rng)
                    assert (a * b).coeffs == reference_series_product(a, b)


def test_zero_products():
    F = GF(3, 3)
    rng = random.Random(1)
    for orders in (None, (2, 2)):
        ring = QuotientRing(3, constant(F, orders, "pair", rng),
                            constant(F, orders, "pair", rng))
        zero = element(ring, F, orders, "zero", rng)
        u = element(ring, F, orders, "random", rng)
        for a, b in ((zero, u), (u, zero), (zero, zero)):
            assert (a * b).entries == reference_product(a, b)
            assert not a * b


@pytest.mark.parametrize("orders", [None, (1, 1), (3, 2)], ids=str)
@pytest.mark.parametrize("F", [GF(3), GF(5, 5)], ids=repr)
def test_zeros_that_are_not_the_ring_zero(F, orders):
    """The kernel skips zero entries by identity with ring.zero_entry.
    Zeros that are other objects - built by constructors and passed to
    ring.element or from_exponents, or left by from_exponents items that
    cancel in series entries - must pack, multiply and scale like it:
    products against _schoolbook_product, scalar multiples against
    entrywise products, and the Frobenius scalar against u^p.  Field
    entries below the table cap cancel to the field's own zero, which is
    ring.zero_entry."""
    rng = random.Random(F.q)
    p = F.p
    ring = QuotientRing(p, constant(F, orders, "pair", rng),
                        constant(F, orders, "pair", rng))
    if orders is None:
        zeros = [F.from_coeffs([0]), F.from_int(0), FqElement(F, (0,) * F.n)]
    else:
        zeros = [BiTruncSeries(F, orders[0], orders[1], [])
                 for _ in range(3)]
    assert len({id(z) for z in zeros + [ring.zero_entry]}) == 4
    assert all(z == ring.zero_entry and not z for z in zeros)
    u = ring.element([[zeros[(i + j) % 3] if (i + j) % 2 else
                       entry(F, orders, "random", rng) for j in range(p)]
                      for i in range(p)])
    c, d = (entry(F, orders, "random", rng) for _ in range(2))
    w = ring.from_exponents([((0, 1), c), ((2, 1), d), ((0, 1), -c),
                             ((1, 2), d), ((2, 1), -d), ((1, 1), zeros[0]),
                             ((0, 2), zeros[1]), ((2, 0), zeros[2])])
    # a zero given to from_exponents is copied in as it is ...
    for (i, j), z in zip(((1, 1), (0, 2), (2, 0)), zeros):
        assert w.entries[i][j] is z
    # ... and items that cancel leave what entry arithmetic returns
    interned = orders is None and F.q <= _TABLE_CAP
    for i, j in ((0, 1), (2, 1)):
        assert (w.entries[i][j] is ring.zero_entry) == interned
        assert not w.entries[i][j]
    # u with its zeros replaced by the ring's own
    same = ring.element([[e if e else ring.zero_entry for e in row]
                         for row in u.entries])
    for a, b in ((u, w), (w, u), (u, u), (w, w), (u, same), (same, w)):
        assert (a * b).entries == polyring._schoolbook_product(a, b)
    assert (u * w).entries == (same * w).entries
    # u^p is the scalar that Frobenius computes, zeros told by identity
    for a in (u, w, same):
        assert a ** p == ring.monomial(0, 0, frobenius_scalar(a))
    scalars = [0, 1, F.scalar(-1), F.random_element(rng)]
    if orders is not None:
        scalars.append(entry(F, orders, "random", rng))
    for a in (u, w):
        for s in scalars:
            want = tuple(tuple(e * s for e in row) for row in a.entries)
            assert (a * s).entries == want
            # the scaled element is a valid operand
            assert ((a * s) * w).entries == polyring._schoolbook_product(
                a * s, w)


def test_symbolic_entries_take_the_schoolbook_loop():
    F = GF(3)
    vars_ = ("alpha", "beta")
    alpha = MultiPoly.variable(F, vars_, "alpha")
    beta = MultiPoly.variable(F, vars_, "beta")
    ring = QuotientRing(3, alpha ** 3 - alpha, beta ** 3 - beta)
    assert ring._product_kernel() is polyring._schoolbook_product
    u = ring.from_x_poly([alpha, beta, alpha * beta])
    v = ring.from_y_poly([beta, 1, alpha])
    assert (u * v).entries == reference_product(u, v)
    for orders in (None, (2, 1)):
        rng = random.Random(2)
        xc = constant(F, orders, "pair", rng)
        assert QuotientRing(3, xc, xc)._product_kernel() is not \
            polyring._schoolbook_product


def test_tracer_binds_one_product():
    # the benchmark's tracer counts quotient products by replacing the one
    # function bound as both __mul__ and __rmul__
    assert QuotientElement.__dict__["__rmul__"] is \
        QuotientElement.__dict__["__mul__"]


@pytest.mark.parametrize("orders", [None, (1, 1), (2, 3)], ids=str)
def test_rings_share_one_layout(monkeypatch, orders):
    """Two rings over one field with different xc and yc share one layout
    object, while each still builds its own kernel, asking the field for
    its entry kernel once per ring, and multiplies with its own xc and
    yc."""
    F = GF(7, 2)
    p = F.p
    rng = random.Random(5)
    asked = []
    original = type(F).series_kernel

    def counting(self, *args):
        asked.append(args)
        return original(self, *args)
    monkeypatch.setattr(type(F), "series_kernel", counting)
    rings = []
    while len(rings) < 2:
        xc, yc = (constant(F, orders, "random", rng) for _ in range(2))
        if all((xc, yc) != (r.xc, r.yc) for r in rings):
            rings.append(QuotientRing(p, xc, yc))
    kernels = [r._product_kernel() for r in rings]
    assert kernels[0] is not kernels[1]
    assert kernels[0].layout is kernels[1].layout
    assert [r._product_kernel() for r in rings] == kernels
    # the series kernel above order (1, 1) only, once per ring
    assert len(asked) == (2 if orders == (2, 3) else 0)
    for ring in rings:
        for kinds in (("random", "random"), ("max", "mixed")):
            u, v = (element(ring, F, orders, k, rng) for k in kinds)
            assert (u * v).entries == polyring._schoolbook_product(u, v)
