import math
import random

import pytest

from gradeswitch import laguerre
from gradeswitch.fields import GF
from gradeswitch.galg import LinearMap
from gradeswitch.laguerre import (
    CheckReport, _split_pair, c_coefficients, check_all_identities,
    check_closed_form_congruence, check_lemma_forms,
    check_lemma_product_identity, closed_form_numerators, coefficient_table,
    descending_form,
    in_prime_star, laguerre_at, laguerre_coeffs, laguerre_value,
    lemma_binomial, lemma_eval, lemma_product, scalar_product_form,
    strade_operator_form_check, truncated_exp, zero_pair_closed_form)
from gradeswitch.polyring import (BiTruncSeries, MultiPoly, NonInvertibleError,
                                  Polynomial, quotient_inverse, quotient_mul)
from oracles import multipoly_value


def test_laguerre_at_matches_binomial_formula():
    # independent recomputation with integer binomials
    for p in (3, 5, 7):
        F = GF(p)
        n = p - 1
        for a in range(p):
            poly = laguerre_at(p, F.scalar(a))
            for k in range(n + 1):
                want = math.comb(a + n, n - k) * (-1) ** k
                want = want * pow(math.factorial(k), -1, p)
                assert poly[k] == F.scalar(want)


def reference_coeffs(p, alpha, n):
    """binom(alpha + n, n - k) (-1)^k / k! for k = 0..n, each binomial
    rebuilt from its own falling factorial."""
    field = alpha.field
    t = alpha + n
    out = []
    for k in range(n + 1):
        m = n - k
        binom = t ** 0
        for i in range(m):
            binom = binom * (t - i)
        scale = (-1) ** k * pow(math.factorial(m) * math.factorial(k), -1, p)
        out.append(binom * field.scalar(scale))
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_laguerre_coeffs_match_reference(p):
    """Every degree n < p, with alpha a field element, a truncated series,
    a matrix and a symbol."""
    rng = random.Random(p)
    F = GF(p, 2)
    Fp = GF(p)
    alphas = [
        F.random_element(rng),
        BiTruncSeries(F, 2, 3, [[F.random_element(rng) for _ in range(3)]
                                for _ in range(2)]),
        LinearMap(Fp, [[Fp.random_element(rng) for _ in range(3)]
                       for _ in range(3)]),
        MultiPoly.variable(Fp, ("alpha",), "alpha"),
    ]
    for alpha in alphas:
        for n in range(p):
            assert laguerre_coeffs(p, alpha, n) == \
                reference_coeffs(p, alpha, n), (alpha, n)


def test_laguerre_symbolic_specializes():
    p = 5
    F = GF(p)
    sym = laguerre_value(p, *laguerre._symbols(p))
    for a in range(p):
        for x in range(p):
            v = multipoly_value(sym, {"alpha": F.scalar(a), "X": F.scalar(x)})
            assert v == laguerre_at(p, a).evaluate(F.scalar(x))


def test_truncated_exp_is_alpha_zero():
    for p in (2, 3, 5, 7):
        F = GF(p)
        assert truncated_exp(p) == laguerre_at(p, 0)
        e = truncated_exp(p)
        for k in range(p):
            assert e[k] == F.scalar(pow(math.factorial(k), -1, p))


def test_laguerre_coeffs_at_polynomial_alpha():
    p = 5
    F = GF(p, 2)
    C = laguerre_coeffs(p, Polynomial.variable(F))
    rng = random.Random(6)
    for _ in range(20):
        a = F.random_element(rng)
        poly = laguerre_at(p, a)
        for k in range(p):
            assert C[k].evaluate(a) == poly[k]


def test_identity_suite_passes():
    for p in (2, 3, 5, 7):
        reports = check_all_identities(p)
        assert len(reports) == 7
        for rep in reports:
            assert isinstance(rep, CheckReport)
            assert rep.passed, rep


def test_identity_names_are_checked_individually():
    rep = laguerre._check_identity("three_term", 5, {})
    assert rep.passed
    with pytest.raises(ValueError):
        laguerre._check_identity("nonsense", 5, {})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_identity_suite_builds_each_value_once(p, monkeypatch):
    """check_all_identities shares its Laguerre values across the checks:
    at most 2p of them (n < p, shift 0 or 1), and the same reports as the
    checks run one by one."""
    calls = []
    original = laguerre.laguerre_value

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(laguerre, "laguerre_value", counted)
    reports = check_all_identities(p)
    assert 0 < len(calls) <= 2 * p
    assert reports == [laguerre._check_identity(name, p, {})
                       for name in laguerre.IDENTITY_NAMES]
    assert all(rep.passed for rep in reports)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_shared_values_still_catch_a_wrong_coefficient(p, monkeypatch):
    """One coefficient of L_{p-1} off by one, at any position, fails at
    least one identity of check_all_identities.  The X^k coefficient is
    F[n - k] s_k, with F the falling factorials that laguerre_coeffs and
    laguerre_value share and s_k = _laguerre_scalars(field, n)[k], so
    adding 1/s_k to F[n - k] adds 1 to it."""
    original = laguerre._falling_factorials
    clean = laguerre_coeffs(p, GF(p).zero)
    for k in range(p):
        def off_by_one(p_, alpha, n, k=k):
            field, n, falling = original(p_, alpha, n)
            if n == p_ - 1:
                falling = list(falling)
                falling[n - k] = falling[n - k] + laguerre._laguerre_scalars(
                    field, n)[k].inverse()
            return field, n, falling

        monkeypatch.setattr(laguerre, "_falling_factorials", off_by_one)
        assert laguerre_coeffs(p, GF(p).zero) == \
            clean[:k] + (clean[k] + 1,) + clean[k + 1:]
        failed = [rep.name for rep in check_all_identities(p)
                  if not rep.passed]
        assert failed, k
    monkeypatch.setattr(laguerre, "_falling_factorials", original)
    assert all(rep.passed for rep in check_all_identities(p))


def test_lemma_eval_frozen_p3():
    # L_2^(Z^3)(Z^3 - Z) = 1 + 2Z + 2Z^2 + Z^3 over F_3
    assert [int(c) for c in lemma_eval(3).coeffs] == [1, 2, 2, 1]


def test_lemma_three_forms_agree():
    for p in (2, 3, 5, 7):
        f = lemma_eval(p)
        assert f == lemma_product(p)
        assert f == lemma_binomial(p)
        assert f.degree() == p * (p - 1) // 2
        assert check_lemma_forms(p).passed


def test_lemma_product_identity():
    for p in (2, 3, 5):
        assert check_lemma_product_identity(p).passed


def test_scalar_product_form_vanishing():
    # vanishes exactly on F_p^*
    p = 5
    F = GF(p, 2)
    zeros = [x for x in F.elements() if not scalar_product_form(p, x)]
    expect = [x for x in F.elements() if in_prime_star(x)]
    assert sorted(map(int, zeros)) == sorted(map(int, expect))
    assert len(zeros) == p - 1


def test_scalar_product_form_is_laguerre_value():
    p = 7
    F = GF(p, 2)
    rng = random.Random(7)
    for _ in range(25):
        x = F.random_element(rng)
        lhs = laguerre_at(p, x ** p).evaluate(x ** p - x)
        assert lhs == scalar_product_form(p, x)


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2)])
def test_scalar_product_form_at_Z_evaluates_to_its_values(p, n):
    # one formula for field elements and polynomials: its value at Z,
    # evaluated at x, is its value at x; over GF(p) the value at Z is
    # lemma_product
    F = GF(p, n)
    at_z = scalar_product_form(p, Polynomial.variable(F))
    assert at_z.degree() == p * (p - 1) // 2
    for x in F.elements():
        assert at_z.evaluate(x) == scalar_product_form(p, x)
    if n == 1:
        assert at_z == lemma_product(p)


def test_zero_pair_closed_form_values():
    assert [int(c) for c in zero_pair_closed_form(5)] == [1, 4, 3, 3, 4]
    F = GF(3)
    assert zero_pair_closed_form(3) == (F.one, F.scalar(2), F.scalar(2))


def test_c_table_zero_pair():
    for p in (2, 3, 5, 7):
        F = GF(p)
        assert c_coefficients(p, F.zero, F.zero) == zero_pair_closed_form(p)


def test_c_table_random_admissible():
    p = 3
    F = GF(p, 2)
    rng = random.Random(8)
    done = 0
    while done < 20:
        a, b = F.random_element(rng), F.random_element(rng)
        if in_prime_star(a + b):
            continue
        tab = c_coefficients(p, a, b)
        assert isinstance(tab, tuple) and len(tab) == p
        assert tab[0] == bivariate_table(p, a, b)[0][0]
        done += 1


def test_c_table_rejects_excluded_locus():
    F = GF(3)
    with pytest.raises(NonInvertibleError):
        c_coefficients(3, F.one, F.zero)  # a + b = 1 lies in F_3^*
    # integers are accepted and coerced
    assert c_coefficients(3, 0, 0) == zero_pair_closed_form(3)


def test_c_table_symmetric_in_arguments():
    p = 5
    F = GF(p, 2)
    rng = random.Random(9)
    done = 0
    while done < 8:
        a, b = F.random_element(rng), F.random_element(rng)
        if in_prime_star(a + b):
            continue
        t1 = c_coefficients(p, a, b)
        t2 = c_coefficients(p, b, a)
        # c_i(a, b) at X^i Y^(p-i) is c_(p-i)(b, a) at Y^i X^(p-i)
        assert t1[0] == t2[0]
        assert t1[1:] == t2[:0:-1]
        done += 1


def bivariate_table(p, a, b):
    """v * u^(-1) with u = L^(a+b)(X+Y) inverted as a full p^2-entry
    element of R[X,Y]/(X^p - xc, Y^p - yc): the reference for the table
    builder, which inverts u in the one-variable subring Z = X + Y."""
    u, v, _ = _split_pair(p, a, b)
    return quotient_mul(v, quotient_inverse(u)).entries


def assert_routes_agree(p, a, b):
    """Both routes give one table, or both refuse the pair; the oracle's
    table is zero off the admissible cells."""
    try:
        want = bivariate_table(p, a, b)
    except NonInvertibleError:
        with pytest.raises(NonInvertibleError):
            coefficient_table(p, a, b)
        return False
    cells = laguerre._admissible_cells(p)
    assert coefficient_table(p, a, b) == tuple(want[i][j] for i, j in cells)
    assert not any(c for i, row in enumerate(want) for j, c in enumerate(row)
                   if (i, j) not in cells)
    return True


@pytest.mark.parametrize("p,n", [(5, 1), (7, 2), (5, 7)],
                         ids=["GF(5)", "GF(7^2)", "GF(5^7)"])
def test_field_tables_match_bivariate_oracle(p, n):
    # GF(7^2) lies below the log/exp table cap, GF(5^7) above it
    F = GF(p, n)
    rng = random.Random(31 * p + n)
    pairs = [(F.zero, F.zero)]
    pairs += [(F.random_element(rng), F.random_element(rng))
              for _ in range(4)]
    pairs += [(a, F.scalar(k) - a)          # a + b = k in F_p^*
              for k, a in ((1, F.random_element(rng)),
                           (p - 1, F.random_element(rng)))]
    for a, b in pairs:
        assert assert_routes_agree(p, a, b) == (not in_prime_star(a + b))


# (p, field degree, ua, ub): the orders the bench's product-rule builtins
# reach (3x3 over GF(3) from tpoly:3:9:3 ddx, 1x1 elsewhere), plus a mixed
# one
SERIES_CASES = [(3, 1, 3, 3), (3, 3, 1, 1), (5, 5, 1, 1), (11, 1, 1, 1),
                (5, 1, 2, 3)]


@pytest.mark.parametrize("p,n,ua,ub", SERIES_CASES)
def test_series_tables_match_bivariate_oracle(p, n, ua, ub):
    F = GF(p, n)
    rng = random.Random(1000 * p + 100 * n + 10 * ua + ub)
    a0s = [F.random_element(rng) for _ in range(3)]
    b0s = [F.random_element(rng), F.random_element(rng), F.one - a0s[2]]
    for a0, b0 in zip(a0s, b0s):
        alpha = a0 + BiTruncSeries.shift_u(F, ua, ub)
        beta = b0 + BiTruncSeries.shift_v(F, ua, ub)
        assert assert_routes_agree(p, alpha, beta) == \
            (not in_prime_star(a0 + b0))


def test_table_inverts_only_one_variable_elements(monkeypatch):
    """The table builder hands quotient_inverse the p-entry u_z on row 0
    of its ring, never the full p^2-entry u."""
    seen = []
    original = laguerre.quotient_inverse

    def guarded(w):
        assert not any(any(row) for row in w.entries[1:]), w
        seen.append(w)
        return original(w)

    monkeypatch.setattr(laguerre, "quotient_inverse", guarded)
    F = GF(5, 2)
    rng = random.Random(12)
    a, b = F.random_element(rng), F.random_element(rng)
    c_coefficients(5, a, b)
    c_coefficients(5, 0, 0)
    coefficient_table(5, a + BiTruncSeries.shift_u(F, 2, 3),
                      b + BiTruncSeries.shift_v(F, 2, 3))
    with pytest.raises(NonInvertibleError):
        c_coefficients(5, 2, 4)
    assert len(seen) == 4


def refusal_pairs():
    """(p, a, b) with a + b off the excluded locus: over GF(5), over
    GF(7^2), and a series pair of orders (2, 3) over GF(5)."""
    cases = []
    for p, n in ((5, 1), (7, 2)):
        F = GF(p, n)
        rng = random.Random(41 * p + n)
        a, b = F.random_element(rng), F.random_element(rng)
        while in_prime_star(a + b):
            b = F.random_element(rng)
        cases.append((p, a, b))
    F = GF(5)
    # a0 + b0 = 0, the one sum in GF(5) outside F_5^*
    cases.append((5, F.scalar(2) + BiTruncSeries.shift_u(F, 2, 3),
                  F.scalar(3) + BiTruncSeries.shift_v(F, 2, 3)))
    return cases


REFUSAL_IDS = ["GF(5)", "GF(7^2)", "series(2,3)"]


@pytest.mark.parametrize("p,a,b", refusal_pairs(), ids=REFUSAL_IDS)
def test_table_refuses_a_nonzero_non_admissible_cell(monkeypatch, p, a, b):
    """One Laguerre coefficient of L^(a) off by one makes v u^(-1) nonzero
    at some cell (i, j) with p not dividing i + j.  The table holds the
    admissible cells only, so the reconstruction u * table == v fails."""
    coefficient_table(p, a, b)
    original = laguerre.laguerre_coeffs

    def perturbed(q, alpha, n=None):
        cs = original(q, alpha, n)
        return (cs[0], cs[1] + 1) + cs[2:] if alpha is a else cs
    monkeypatch.setattr(laguerre, "laguerre_coeffs", perturbed)
    u, v, _ = _split_pair(p, a, b)
    full = quotient_mul(v, quotient_inverse(u))
    assert any(full.entries[i][j] for i in range(p) for j in range(p)
               if (i + j) % p)
    with pytest.raises(laguerre.VerificationError,
                       match="reconstruction failed"):
        coefficient_table(p, a, b)


@pytest.mark.parametrize("p,a,b", refusal_pairs(), ids=REFUSAL_IDS)
def test_table_refuses_a_perturbed_admissible_cell(monkeypatch, p, a, b):
    """c_1 = c'_{1,p-1} off by one, as read from the cell product, fails
    the reconstruction."""
    coefficient_table(p, a, b)
    original = laguerre.quotient_mul_cells

    def perturbed(u, v, cells):
        t = original(u, v, cells)
        rows = [list(row) for row in t.entries]
        rows[1][p - 1] = rows[1][p - 1] + 1
        return t.ring.element(rows)
    monkeypatch.setattr(laguerre, "quotient_mul_cells", perturbed)
    with pytest.raises(laguerre.VerificationError,
                       match="reconstruction failed"):
        coefficient_table(p, a, b)


def outer_v_cases():
    """(p, a, b) over every entry kind: field elements below and above the
    log/exp cap (a in F_p makes all but one Laguerre coefficient zero),
    series of orders (1, 1) and (3, 2), with a mixed pair whose factors
    share a nilpotent, and symbolic MultiPoly entries."""
    cases = []
    for p, n in ((7, 1), (7, 2), (5, 7)):
        F = GF(p, n)
        rng = random.Random(17 * p + n)
        cases += [(p, F.random_element(rng), F.random_element(rng))
                  for _ in range(2)]
        cases += [(p, F.zero, F.zero), (p, F.one, F.scalar(2))]
    F = GF(7)
    for ua, ub in ((1, 1), (3, 2)):
        u, v = BiTruncSeries.shift_u(F, ua, ub), BiTruncSeries.shift_v(F, ua, ub)
        cases += [(7, F.scalar(3) + u, F.scalar(5) + v),
                  (7, F.one + u, F.zero + v),
                  (7, F.scalar(2) + u + v, F.scalar(4) + u)]
    for p in (3, 5):
        vars_ = ("alpha", "beta")
        cases.append((p, MultiPoly.variable(GF(p), vars_, "alpha"),
                      MultiPoly.variable(GF(p), vars_, "beta")))
    return cases


@pytest.mark.parametrize("p,a,b", outer_v_cases())
def test_split_pair_v_is_the_kernel_product(p, a, b):
    """v = L^(a)(X) L^(b)(Y) as an outer product of the two coefficient
    lists equals the quotient product of the two one-variable elements."""
    u, v, _ = _split_pair(p, a, b)
    ring = u.ring
    want = quotient_mul(ring.from_x_poly(laguerre_coeffs(p, a)),
                        ring.from_y_poly(laguerre_coeffs(p, b)))
    assert v.ring is ring
    assert v == want
    zero = ring.zero_entry
    for row, want_row in zip(v.entries, want.entries):
        for c, w in zip(row, want_row):
            assert type(c) is type(zero)
            if c is zero:
                assert not w


def test_closed_form_coefficients_satisfy_the_congruence(monkeypatch):
    # a numerator off by alpha fails the check; acceptance criterion 4
    # runs it unperturbed for every p up to 13 under a time budget
    for p in (2, 3, 5, 7):
        assert check_closed_form_congruence(p).passed
    for p in (2, 3, 5, 7):
        for i in range(p):
            def wrong(q, alpha, beta, i=i):
                nums = closed_form_numerators(q, alpha, beta)
                nums[i] = nums[i] + alpha
                return nums
            monkeypatch.setattr(laguerre, "closed_form_numerators", wrong)
            rep = check_closed_form_congruence(p)
            assert rep.name == "closed_form_congruence[p=%d]" % p
            assert rep.passed is False


@pytest.mark.parametrize("p,n", [(2, 1), (2, 5), (3, 3), (5, 7), (7, 2),
                                 (13, 2)],
                         ids=["GF(2)", "GF(2^5)", "GF(3^3)", "GF(5^7)",
                              "GF(7^2)", "GF(13^2)"])
def test_c_coefficients_match_the_closed_form(p, n):
    # the tables at field elements against closed_form_numerators / den,
    # den = (a+b)^(p-1) - 1: nonzero exactly on the admissible pairs; on
    # the excluded locus a + b in F_p^* c_coefficients refuses
    F = GF(p, n)
    rng = random.Random(1000 * p + n)
    pairs = [(F.zero, F.zero)] + [(a, -a) for a in (F.one, F.gen)]
    pairs += [(F.random_element(rng), F.random_element(rng))
              for _ in range(4)]
    excluded = [(a, F.scalar(k) - a) for k in range(1, p)[:2]
                for a in (F.zero, F.random_element(rng))]
    admissible = 0
    for a, b in pairs + excluded:
        den = (a + b) ** (p - 1) - 1
        if not den:
            assert in_prime_star(a + b)
            with pytest.raises(NonInvertibleError):
                c_coefficients(p, a, b)
            continue
        want = tuple(c / den for c in closed_form_numerators(p, a, b))
        assert c_coefficients(p, a, b) == want
        admissible += 1
    assert admissible >= 3


def test_strade_operator_form():
    for p in (2, 3, 5, 7):
        assert strade_operator_form_check(p).passed
    # laguerre_value at operators and series against -descending_form,
    # which shares no code with laguerre_coeffs
    rng = random.Random(10)
    for F in (GF(5), GF(3, 2)):
        p = F.p
        M = LinearMap(F, [[F.random_element(rng) for _ in range(4)]
                          for _ in range(4)])
        a0 = F.random_element(rng)
        alpha = Polynomial(F, [F.random_element(rng)
                               for _ in range(3)]).evaluate(M)
        for a in (alpha, a0):
            assert laguerre_value(p, a, M) == -descending_form(p, a, M)
        ua, ub = 3, 2
        x = BiTruncSeries(F, ua, ub, [[F.random_element(rng)
                                       for _ in range(ub)]
                                      for _ in range(ua)])
        alpha = a0 + BiTruncSeries.shift_u(F, ua, ub)
        assert laguerre_value(p, alpha, x) == -descending_form(p, alpha, x)


def test_failing_identity_reports_its_difference():
    # a wrong value of L_1^(alpha+1)(X) breaks the step identity at n = 1
    # by -X, printed by MultiPoly.__str__ over GF(5)
    alpha, x = laguerre._symbols(5)
    wrong = laguerre_value(5, alpha + 1, x, 1) + x
    rep = laguerre._check_identity("step", 5, {(1, 1): wrong})
    assert rep.name == "step[p=5]"
    assert rep.passed is False
    assert rep.detail == "fails at n=1: 4*X"
    assert laguerre._check_identity("step", 5, {}).passed


def test_failing_derivative_identity_names_its_form():
    # the same wrong L_1^(alpha+1)(X) leaves the product form
    # d/dX L_1^(alpha) = -L_0^(alpha+1) intact at n = 1 and breaks the
    # difference form d/dX L_1^(alpha) = L_1^(alpha) - L_1^(alpha+1)
    alpha, x = laguerre._symbols(5)
    wrong = laguerre_value(5, alpha + 1, x, 1) + x
    rep = laguerre._check_identity("derivative", 5, {(1, 1): wrong})
    assert rep.name == "derivative[p=5]"
    assert rep.passed is False
    assert rep.detail == "difference form fails at n=1"
    assert laguerre._check_identity("derivative", 5, {}).passed
