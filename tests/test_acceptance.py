"""Acceptance suite: one test per contract criterion, verified exactly.

Run `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion.  Every assertion is exact arithmetic (no tolerances); runtime
budgets are asserted alongside the mathematics.
"""

import contextlib
import io
import random
import time

from gradeswitch.cli import main as cli_main
from gradeswitch.fields import GF
from gradeswitch.galg import (
    LinearMap, Subspace, is_grading, truncated_poly,
    truncated_poly_derivation, witt)
from gradeswitch.laguerre import (
    IDENTITY_NAMES, c_coefficients, check_all_identities,
    check_closed_form_congruence, check_lemma_product_identity, in_prime_star,
    laguerre_at, lemma_binomial, lemma_eval, lemma_product,
    scalar_product_form, strade_operator_form_check, truncated_exp,
    zero_pair_closed_form, _laguerre_xy_quotient)
from gradeswitch.polyring import QuotientRing, quotient_mul
from gradeswitch.switch import (
    build_LD, h_polynomial, switch_grading, verify_product_rule)
from gradeswitch.toral import RestrictedLie, compare_switch_to_toral
from oracles import restrict_to
from time_budget import untraced

PRIMES = (2, 3, 5, 7, 11, 13)


def _verdict(num, ok, detail=""):
    line = "ACCEPTANCE %2d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " - " + detail
    print(line)
    assert ok, line


# switch results shared by criteria 5, 6 and 7; built once, with the
# end-to-end build time of each case recorded for the budget check
_CASES = {}
_TIMES = {}


def _switch_cases():
    if _CASES:
        return _CASES
    for p in (5, 7):
        W = witt(p)
        D = W.left_multiplication(W.basis_vector(0))
        t0 = time.monotonic()
        _CASES["witt:%d" % p] = switch_grading(W, D)
        _TIMES["witt:%d" % p] = time.monotonic() - t0
    for p in (3, 5):
        A = truncated_poly(p, p * p, p)
        D = truncated_poly_derivation(A, "ddx")
        t0 = time.monotonic()
        _CASES["ddx:%d" % p] = switch_grading(A, D)
        _TIMES["ddx:%d" % p] = time.monotonic() - t0
    for p in (3, 5):
        A = truncated_poly(p, p, p)
        D = truncated_poly_derivation(A, "xddx")
        t0 = time.monotonic()
        _CASES["xddx:%d" % p] = switch_grading(A, D)
        _TIMES["xddx:%d" % p] = time.monotonic() - t0
    return _CASES


def test_criterion_01_identity_suite():
    t0 = time.monotonic()
    ok = True
    for p in PRIMES:
        reports = check_all_identities(p)
        ok = ok and tuple(r.name.split("[")[0] for r in reports) == \
            IDENTITY_NAMES
        ok = ok and all(r.passed for r in reports)
    dt = time.monotonic() - t0
    ok = ok and dt < 10.0
    _verdict(1, ok, "7 identities x %d primes in %.2fs (budget 10s)"
             % (len(PRIMES), dt))


def test_criterion_02_lemma_factored_forms():
    t0 = time.monotonic()
    ok = True
    for p in PRIMES:
        f = lemma_eval(p)
        ok = ok and f == lemma_product(p)
        ok = ok and f == lemma_binomial(p)
        ok = ok and f.degree() == p * (p - 1) // 2
        ok = ok and check_lemma_product_identity(p).passed
    dt = time.monotonic() - t0
    ok = ok and dt < 10.0
    _verdict(2, ok, "three forms + product identity, degree p(p-1)/2, "
             "%.2fs (budget 10s)" % dt)


def test_criterion_03_coefficient_tables():
    t0 = time.monotonic()
    ok = True
    pair_counts = {}
    for p in (2, 3, 5, 7):
        count = 0
        for deg in (2, 3):
            F = GF(p, deg)
            rng = random.Random(1000 * p + deg)
            done = 0
            while done < 25:
                a = F.random_element(rng)
                b = F.random_element(rng)
                if in_prime_star(a + b):
                    continue
                cvals = c_coefficients(p, a, b)
                # reconstruction, redone from the p values on the
                # admissible cells (0, 0) and (i, p - i)
                ring = QuotientRing(p, a ** p - a, b ** p - b)
                entries = [[F.zero] * p for _ in range(p)]
                entries[0][0] = cvals[0]
                for i in range(1, p):
                    entries[i][p - i] = cvals[i]
                v = quotient_mul(ring.from_x_poly(laguerre_at(p, a).coeffs),
                                 ring.from_y_poly(laguerre_at(p, b).coeffs))
                u = _laguerre_xy_quotient(ring, laguerre_at(p, a + b).coeffs,
                                          p)
                ok = ok and quotient_mul(u, ring.element(entries)) == v
                done += 1
            count += done
        pair_counts[p] = count
        ok = ok and count >= 50
        F0 = GF(p)
        ok = ok and c_coefficients(p, F0.zero, F0.zero) == \
            zero_pair_closed_form(p)
    dt = time.monotonic() - t0
    ok = ok and dt < 60.0
    _verdict(3, ok, "%s admissible pairs per p, zero-pair closed form, "
             "%.2fs (budget 60s)" % (sorted(pair_counts.values()), dt))


def test_criterion_04_symbolic_tables():
    # timed untraced, so that the budget holds in every run;
    # tests/test_laguerre.py runs the closed-form lines traced
    with untraced():
        t0 = time.monotonic()
        ok = all(check_closed_form_congruence(p).passed for p in PRIMES)
        dt = time.monotonic() - t0
    ok = ok and dt < 10.0
    _verdict(4, ok, "closed-form tables over GF(p)[alpha, beta] for p in "
             "{%s}, %.2fs (budget 10s)" % (",".join(map(str, PRIMES)), dt))


def test_criterion_05_switch_end_to_end():
    cases = _switch_cases()
    ok = True
    details = []
    # (a) Witt algebras: the switch is the truncated exponential
    for p in (5, 7):
        res = cases["witt:%d" % p]
        W = witt(p)
        D = W.left_multiplication(W.basis_vector(0))
        ok = ok and res.switch_map == truncated_exp(p).evaluate(D)
        ok = ok and is_grading(res.algebra, res.new_parts)
        ok = ok and res.grading_ok
    # (b) divided powers with d/dx: the r = 2 branch
    for p in (3, 5):
        res = cases["ddx:%d" % p]
        ok = ok and res.r == 2
        ok = ok and res.relation.degenerate and res.g.is_zero()
        h = h_polynomial(res.field_final, 2)
        ok = ok and h.terms == ((1, res.field_final.one),)  # h(T) = T^p
        ok = ok and is_grading(res.algebra, res.new_parts)
    # (c) divided powers with the Euler operator: eigenline scalars
    for p in (3, 5):
        res = cases["xddx:%d" % p]
        gamma = res.lam
        for rho, space in res.decomposition:
            ok = ok and space.dim == 1
            expect = laguerre_at(p, rho * gamma).evaluate(rho)
            v = space.basis[0]
            ok = ok and res.switch_map.apply(v) == \
                tuple(expect * c for c in v)
        ok = ok and res.switch_map.rank() == res.algebra.dim
        ok = ok and is_grading(res.algebra, res.new_parts)
    worst = max(_TIMES.values())
    ok = ok and worst < 30.0
    details.append("6 cases, slowest %.2fs (budget 30s each)" % worst)
    _verdict(5, ok, "; ".join(details))


def test_criterion_06_bijectivity_scalar_cross_check():
    cases = _switch_cases()
    ok = True
    blocks = 0
    for res in cases.values():
        p = res.field_final.p
        r_eff = max(res.r, 1)
        for rho, space in res.decomposition:
            block = restrict_to(res.switch_map, space)
            grho = res.g(rho)
            scalar = laguerre_at(p, grho ** p).evaluate(grho ** p - grho)
            product_form = scalar_product_form(p, grho)
            ok = ok and scalar == product_form
            ok = ok and bool(scalar)
            I = LinearMap.identity(res.field_final, space.dim)
            ok = ok and block.p_power(r_eff) == I * scalar
            blocks += 1
    _verdict(6, ok, "matrix power == Laguerre value == product form on "
             "%d blocks" % blocks)


def test_criterion_07_product_rule_all_pairs():
    cases = _switch_cases()
    ok = True
    total = 0
    for res in cases.values():
        pairs = verify_product_rule(res)
        ok = ok and pairs == res.algebra.dim ** 2
        total += pairs
    _verdict(7, ok, "two-sided identity on %d basis pairs" % total)


def test_criterion_08_toral_demo():
    t0 = time.monotonic()
    ok = True
    for p in (5, 7):
        L = RestrictedLie(witt(p))
        F = L.field
        e0, em1 = L.basis_vector(1), L.basis_vector(0)
        out = compare_switch_to_toral(L, [e0], em1, r=1)
        want = Subspace(F, p, [tuple(a + b for a, b in zip(e0, em1))])
        ok = ok and out.torus_x.subspace == want
        ok = ok and out.torus_x_toral is True
        ok = ok and out.spaces_match and out.strade_agrees
        ok = ok and len(out.new_roots) == p
    for p in PRIMES:
        ok = ok and strade_operator_form_check(p).passed
    dt = time.monotonic() - t0
    ok = ok and dt < 60.0
    _verdict(8, ok, "replacement torus + root space images + symbolic "
             "operator form, %.2fs (budget 60s)" % dt)


def test_criterion_09_g_construction():
    ok = True
    for p in (3, 5):
        A = truncated_poly(p, p, p)
        D = truncated_poly_derivation(A, "xddx")
        ok = ok and D.p_power(2) == D.p_power(1)  # D^(p^2) - D^p = 0
        res = build_LD(A, D)
        lam = res.lam
        f2 = res.field_final
        ok = ok and 1 + lam - lam ** p == f2.zero  # root polynomial kills it
        gD = res.g(res.derivation)
        ok = ok and gD ** p - gD == res.derivation.p_power(1)
    _verdict(9, ok, "1 + T - T^p annihilates lambda; g(D)^p - g(D) == D^p")


def test_criterion_10_cli_determinism():
    commands = [
        ["identities", "--p", "3", "--output", "json"],
        ["coeffs", "--p", "3", "--trials", "10", "--seed", "0",
         "--output", "json"],
        ["switch", "--builtin", "tpoly:3:9:3", "--derivation", "ddx",
         "--output", "json"],
        ["toral", "--builtin", "witt:5", "--x", "e:-1", "--r", "1",
         "--output", "json"],
    ]
    ok = True
    for argv in commands:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(list(argv))
            ok = ok and code == 0
            outs.append(buf.getvalue())
        ok = ok and outs[0] == outs[1] and outs[0]
    _verdict(10, ok, "byte-identical JSON for %d repeated commands"
             % len(commands))
