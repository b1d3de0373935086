"""Truncated series of order (1, 1) against the field they collapse to.

F[U, V]/(U, V) is F itself, so a coefficient table built on order-(1, 1)
series must be the field table entry for entry, and refuse exactly the
pairs the field table refuses.  The series route inverts by the p-power
closed form and multiplies on the element kernel inside ``_packed_product``;
the field route inverts by the linear solve.  The last tests pin which
kernel the product-rule pair series use: order (1, 1) never touches the
series kernel, higher orders still do.
"""

import contextlib
import io
import random

import pytest

from gradeswitch import cli, fields, switch
from gradeswitch.fields import GF, _TABLE_CAP
from gradeswitch.laguerre import coefficient_table, in_prime_star
from gradeswitch.polyring import BiTruncSeries, NonInvertibleError
from gradeswitch.switch import VerificationError

# (p, n): both characteristics 2 and odd, prime and extension fields,
# p up to 11, and GF(2^17) above the log/exp table cap
FIELDS = [(2, 3), (3, 1), (3, 3), (5, 5), (7, 2), (11, 1), (2, 17)]
assert GF(2, 17).q > _TABLE_CAP
FIELD_IDS = ["GF(%d)" % p if n == 1 else "GF(%d^%d)" % (p, n)
             for p, n in FIELDS]


def _pairs(F, rng):
    """The zero pair, three random pairs and two pairs with a + b in
    F_p^* (the excluded locus)."""
    p = F.p
    pairs = [(F.zero, F.zero)]
    pairs += [(F.random_element(rng), F.random_element(rng))
              for _ in range(3)]
    pairs += [(a, F.scalar(k) - a)
              for k, a in ((1, F.random_element(rng)),
                           (p - 1, F.random_element(rng)))]
    return pairs


def _one_by_one(F, c):
    return BiTruncSeries.constant(F, 1, 1, c)


@pytest.mark.parametrize("p,n", FIELDS, ids=FIELD_IDS)
def test_order_one_series_tables_equal_field_tables(p, n):
    F = GF(p, n)
    rng = random.Random(100 * p + n)
    refused = 0
    for a, b in _pairs(F, rng):
        sa, sb = _one_by_one(F, a), _one_by_one(F, b)
        if in_prime_star(a + b):
            refused += 1
            with pytest.raises(NonInvertibleError):
                coefficient_table(p, a, b)
            with pytest.raises(NonInvertibleError):
                coefficient_table(p, sa, sb)
            with pytest.raises(VerificationError):
                switch._pair_coefficient_series(p, F, a, b, 1, 1)
            continue
        want = coefficient_table(p, a, b)
        got = coefficient_table(p, sa, sb)
        assert all(isinstance(c, BiTruncSeries) and (c.ua, c.ub) == (1, 1)
                   for c in got)
        assert tuple(c.coeffs[0][0] for c in got) == want
        assert got == tuple(_one_by_one(F, c) for c in want)
        assert switch._pair_coefficient_series(p, F, a, b, 1, 1) == got
    assert refused >= 2


def _refusing_series_kernel(*args):
    raise AssertionError("series kernel called at order (1, 1)")


@pytest.mark.parametrize("p,n", FIELDS, ids=FIELD_IDS)
def test_order_one_pair_series_never_use_the_series_kernel(monkeypatch,
                                                           p, n):
    F = GF(p, n)
    rng = random.Random(7 * p + n)
    monkeypatch.setattr(fields.FqField, "series_kernel",
                        _refusing_series_kernel)
    for a, b in _pairs(F, rng)[:4]:
        if not in_prime_star(a + b):
            assert len(switch._pair_coefficient_series(p, F, a, b, 1, 1)) \
                == p


def _pair_series_orders(monkeypatch, argv):
    """The (sa, sb) of every pair series a switch run makes, and the
    number of series-kernel calls it makes."""
    orders, kernel_calls = [], []
    original = switch._pair_coefficient_series
    kernel = fields.FqField.series_kernel

    def recording(p, field, a0, b0, sa, sb):
        orders.append((sa, sb))
        return original(p, field, a0, b0, sa, sb)

    def counting(self, *args):
        kernel_calls.append(args)
        return kernel(self, *args)
    monkeypatch.setattr(switch, "_pair_coefficient_series", recording)
    monkeypatch.setattr(fields.FqField, "series_kernel", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--output", "json"]) == 0
    return orders, len(kernel_calls)


@pytest.mark.parametrize("spec,der", [("witt:11", "ad:0"),
                                      ("tpoly:2:8:2", "xddx"),
                                      ("tpoly:5:5:5", "xddx")])
def test_semisimple_switch_runs_without_the_series_kernel(monkeypatch, spec,
                                                         der):
    orders, kernel_calls = _pair_series_orders(
        monkeypatch, ["switch", "--builtin", spec, "--derivation", der])
    assert orders and set(orders) == {(1, 1)}
    assert kernel_calls == 0


def test_order_three_pair_series_still_use_the_series_kernel(monkeypatch):
    orders, kernel_calls = _pair_series_orders(
        monkeypatch, ["switch", "--builtin", "tpoly:3:9:3",
                      "--derivation", "ddx"])
    assert set(orders) == {(3, 3)}
    assert kernel_calls > 0
