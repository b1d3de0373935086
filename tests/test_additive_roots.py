"""The linear-algebra routes of `fields` against root finding.

`additive_root` takes an affine additive polynomial as its terms, reads
its splitting degree off the p-power residues of T modulo the separable
part, and finds the smallest root by one elimination over GF(p);
`_generator_image` finds the canonical image of a generator in the
subfield of the target field.  Both replace equal-degree splitting in the
large field, which stays their oracle: `roots_in_splitting_field` on the
dense polynomial for the roots, and `_roots_in_field` over the target
field for the images.  Fields the package picks on its own stop at
`fields.DEGREE_CAP` over GF(p).
"""

import json
import random

import pytest

from algebra_builders import companion_blocks
from gradeswitch import fields, switch
from gradeswitch.cli import main
from gradeswitch.fields import (
    DEGREE_CAP, GF, additive_root, roots_in_splitting_field)
from gradeswitch.polyring import Polynomial
from gradeswitch.switch import Relation, VerificationError, build_g, \
    build_LD, switch_grading
from time_budget import time_limit


def affine_additive(F, c, bs):
    """c + sum_j bs[j] T^(p^j) over F, dense: the root-finding oracle's
    form of what additive_root takes as c and enumerate(bs)."""
    coeffs = [F.zero] * (F.p ** (len(bs) - 1) + 1)
    coeffs[0] = c
    for j, b in enumerate(bs):
        coeffs[F.p ** j] = b
    return Polynomial(F, coeffs)


def drawn(F, seed, s):
    """A seeded (c, [b_0, ..., b_s]) with b_s != 0: s is the span n - r
    of a switching constraint, whose degree is p^(n-r)."""
    rng = random.Random(seed)
    bs = [F.random_element(rng) for _ in range(s)]
    bs.append(F.from_int(rng.randrange(1, F.q)))
    return F.random_element(rng), bs


# (p, n, span s, seed, degree of the splitting field over GF(p^n)): the
# splitting fields lie below _EXHAUST_CAP, between it and _TABLE_CAP, and
# above _TABLE_CAP, for p = 2 and odd p; spans 0 to 6
ADDITIVE_CASES = [
    (2, 1, 3, 0, 7), (2, 2, 2, 0, 4), (2, 3, 3, 0, 3), (2, 5, 3, 0, 4),
    (2, 9, 2, 2, 2), (3, 1, 2, 0, 3), (3, 1, 3, 9, 4), (3, 2, 2, 2, 3),
    (3, 2, 2, 0, 6), (3, 3, 1, 0, 2), (5, 1, 1, 0, 4), (5, 3, 1, 0, 4),
    (7, 1, 1, 0, 3), (7, 2, 1, 1, 3), (11, 1, 1, 0, 10), (5, 2, 0, 0, 1),
    (2, 1, 4, 0, 12), (2, 2, 4, 1, 15), (3, 1, 4, 2, 2), (2, 1, 5, 3, 7),
    (2, 1, 6, 1, 14),
]


def test_additive_cases_cover_both_caps():
    sizes = [p ** (n * k) for p, n, _, _, k in ADDITIVE_CASES]
    assert any(q <= fields._EXHAUST_CAP for q in sizes)
    assert any(fields._EXHAUST_CAP < q <= fields._TABLE_CAP for q in sizes)
    assert any(q > fields._TABLE_CAP for q in sizes)
    assert {s for _, _, s, _, _ in ADDITIVE_CASES} == set(range(7))
    assert any(p == 2 and q > fields._TABLE_CAP
               for (p, *_), q in zip(ADDITIVE_CASES, sizes))


@pytest.mark.parametrize(
    "p, n, s, seed, k", ADDITIVE_CASES,
    ids=["GF(%d^%d)-span%d-seed%d" % c[:4] for c in ADDITIVE_CASES])
def test_additive_root_matches_root_finding(p, n, s, seed, k):
    F = GF(p, n)
    # the switching constraint's shape 1 + T + ..., and any c and b_0
    rng = random.Random(seed)
    constraint = [F.one] + ([F.random_element(rng) for _ in range(s - 1)]
                            + [F.from_int(rng.randrange(1, F.q))] if s else [])
    for c, bs in ((F.one, constraint), drawn(F, seed, s)):
        with time_limit(20):
            big, x = additive_root(c, enumerate(bs))
            split, roots = roots_in_splitting_field(affine_additive(F, c, bs))
        assert split is big and x == roots[0][0]
        # a coset of ker L, every root of one multiplicity (1 when b_0 != 0)
        mults = {m for _, m in roots}
        assert len(mults) == 1 and len(roots) * mults.pop() == p ** s
        if bs is constraint:
            assert all(m == 1 for _, m in roots)
        # shifted up one exponent, f(T^p): an inseparable polynomial with
        # no T term, the same splitting field and the p-th roots of the
        # roots of f as its roots
        assert additive_root(c, enumerate(bs, 1)) == (
            big, min((r.pth_root() for r, _ in roots), key=int))
    # the drawn polynomial splits in the field the case table names
    assert big.n == n * k


def test_additive_root_of_an_inseparable_polynomial():
    # without a T term, c + b T^p is a p-th power with one root of
    # multiplicity p, and c + b T^p + T^(p^2) has repeated roots too
    F = GF(3, 2)
    rng = random.Random(5)
    for _ in range(4):
        c, b = F.random_element(rng), F.from_int(rng.randrange(1, F.q))
        for bs in ([F.zero, b], [F.zero, b, F.one]):
            big, x = additive_root(c, [(j, a) for j, a in enumerate(bs)
                                       if a])
            split, roots = roots_in_splitting_field(affine_additive(F, c, bs))
            assert split is big and x == roots[0][0]
            assert all(m == 3 for _, m in roots)


def test_additive_root_refuses_other_polynomials():
    F = GF(5)
    for terms in ([], [(0, F.zero)], [(1, F.zero), (3, F.zero)]):
        with pytest.raises(ValueError, match="constant"):
            additive_root(F.one, terms)


@pytest.mark.parametrize("field, span", [((3, 2), 1), ((3, 2), 2),
                                         ((2, 2), 3)], ids=str)
def test_build_g_takes_the_smallest_constraint_root(field, span):
    # build_g's constraint 1 + T + sum a_k^(p^(n-1-k)) T^(p^(n-k)), with
    # n - r = span, against its smallest root by root finding
    F = GF(*field)
    rng = random.Random(span)
    for r in (1, 2):
        coeffs = [F.from_int(rng.randrange(1, F.q))] + [
            F.random_element(rng) for _ in range(span - 1)]
        rel = Relation(F, r, r + span, tuple(coeffs), False)
        n = rel.n
        bs = [F.one] + [coeffs[n - j - r] ** (F.p ** (j - 1))
                        for j in range(1, span + 1)]
        big, g, lam = build_g(rel)
        split, roots = roots_in_splitting_field(
            affine_additive(F, F.one, bs))
        assert split is big and lam == roots[0][0]


# (source field, target field) as (p, n) or (p, n, modulus); sources
# below and above the log/exp table cap, targets up to GF(7^49)
EMBEDDING_PAIRS = [
    ((2, 2), (2, 4)), ((2, 2), (2, 4, (1, 0, 0, 1, 1))), ((2, 3), (2, 12)),
    ((2, 8), (2, 16)), ((3, 2, (2, 1, 1)), (3, 6)), ((3, 7), (3, 14)),
    ((5, 5), (5, 25)), ((5, 10), (5, 20)), ((7, 7), (7, 49)),
    ((11, 2), (11, 6)), ((13, 3), (13, 6)), ((3, 10), (3, 20)),
    ((7, 5), (7, 10)),
]


@pytest.mark.parametrize("src, dst", EMBEDDING_PAIRS, ids=str)
def test_generator_image_matches_root_finding(src, dst):
    S, T = GF(*src), GF(*dst)
    with time_limit(30):
        image = fields._generator_image(S, T)
        roots = fields._roots_in_field(
            Polynomial(T, [T.scalar(c) for c in S.modulus]))
    assert image == min(roots, key=int).coeffs
    assert len(roots) == S.n


@pytest.mark.parametrize("p, t", [(2, 13), (5, 6), (7, 5)], ids=str)
def test_companion_switches_stay_fast(p, t):
    # D is one companion block of degree t, so its p-power relation spans
    # t steps and build_g's constraint has degree p^(t-1); written out as
    # a dense polynomial, it kept build_LD busy for over 30 s
    A, D = companion_blocks(p, [t])
    with time_limit(2):
        res = switch_grading(A, D)
    assert res.relation.n - res.relation.r == t - 1
    assert res.field_final is GF(p, t) and res.grading_ok
    assert res.product_rule_pairs == t * t


def test_additive_root_refuses_a_splitting_field_above_the_cap():
    # a root x of T^(2^k) - T - 1 over GF(2) has x^(2^k) = x + 1 and
    # x^(2^(2k)) = x: it splits over GF(2^10) at k = 5 and over GF(2^66)
    # at k = 33, where the search stops after DEGREE_CAP p-power steps
    F = GF(2)
    assert additive_root(F.one, [(0, F.one), (5, F.one)])[0] is GF(2, 10)
    with time_limit(2), pytest.raises(ValueError, match="exceeds the "
                                      "degree cap %d" % DEGREE_CAP):
        additive_root(F.one, [(0, F.one), (33, F.one)])


DEGREE_2310 = [2, 3, 5, 7, 11]


def test_a_splitting_degree_of_2310_is_refused_at_once(tmp_path, capsys):
    # companion blocks of degrees 2, 3, 5, 7 and 11 over GF(5): D splits
    # over GF(5^2310), and so does build_g's constraint, which as a dense
    # polynomial kept the run busy for over 120 s
    A, D = companion_blocks(5, DEGREE_2310)
    path = tmp_path / "deg2310.json"
    path.write_text(json.dumps({
        "algebra": A.to_json(),
        "derivation": [[int(x) for x in row] for row in D.rows]}))
    with time_limit(2):
        code = main(["switch", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2 and "exceeds the degree cap %d" % DEGREE_CAP in err
    with time_limit(2), pytest.raises(ValueError, match="degree cap"):
        build_LD(A, D)
    with time_limit(2), pytest.raises(
            ValueError, match=r"GF\(5\^2310\) exceeds the degree cap"):
        roots_in_splitting_field(D.minimal_polynomial())


def test_an_eigenvalue_field_outside_g_field_is_refused(monkeypatch):
    # g of this D lives over GF(2^4).  D's eigenvalues always lie in g's
    # field, so a substituted eigenvalue field of degree 17 is refused as
    # a defect before any eigenspace is embedded
    A, D = companion_blocks(2, [2])
    assert build_LD(A, D).field_final is GF(2, 4)
    monkeypatch.setattr(switch, "generalized_eigenspaces",
                        lambda D, f: (GF(2, 17), None))
    monkeypatch.setattr(switch, "embedding_over", None)  # not called
    with pytest.raises(VerificationError, match=r"GF\(2\^17\) does not "
                       r"embed in GF\(2\^4\)"):
        build_LD(A, D)
