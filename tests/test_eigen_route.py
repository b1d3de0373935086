"""D's eigenspaces over D's own field, against the route they replaced.

:func:`switch.build_LD` finds the generalized eigenspaces of D over the
field E where D splits and embeds them into the field F' of g, and forms
alpha from D's own p-power chain over the start field.  The route it
replaced embedded D into F' first and did both there; it is kept here as
the oracle.  Both must give the same final field object, the same
eigenvalues in the same order, the same subspaces, the same alpha and the
same switching operator.  Where D^(p^2) = D^p, build_LD must also take
its closed form.

The p-power relation is read off D's minimal polynomial m_D over the
start field, as the first dependence among the residues T^(p^k) mod m_D;
the first dependence among the flattened maps D^(p^k), which it
replaced, is its oracle (oracles.p_power_relation_by_maps).
"""

import json
import random

import pytest

from gradeswitch import cli
from gradeswitch.cli import DEFAULT_DIM_CAP, DEFAULT_PRIMES
from gradeswitch.fields import GF, embed, embedding_over
from gradeswitch.galg import GradedAlgebra, LinearMap, \
    generalized_eigenspaces, witt
from gradeswitch.laguerre import laguerre_value
from gradeswitch.switch import HypothesisError, build_g, build_LD, \
    h_polynomial, p_power_relation, semisimple_exponent
from oracles import p_power_relation_by_maps
from test_switch import assert_special_closed_form, is_special
from time_budget import time_limit, untraced


def old_route(D, g, r):
    """(F'', decomposition, alpha, switch map) with D embedded into g's
    field F' first: alpha = (g - h)(D) powered there, and the eigenspaces
    of D over F' found over its splitting field F'', which is F' itself
    when D's eigenvalues lie in F'."""
    f1 = g.field
    d1 = D.embed_to(f1)
    alpha = (g - h_polynomial(f1, r))(d1)
    f2, dec = generalized_eigenspaces(d1)
    alpha = alpha.embed_to(f2)
    return f2, dec, alpha, laguerre_value(f1.p, alpha, d1.embed_to(f2))


def build_LD_g(D):
    """(g over F', r) as :func:`build_LD` forms them."""
    r = max(semisimple_exponent(D), 1)
    return build_g(p_power_relation(D.minimal_polynomial(), r))[1], r


def assert_same_relation(D, r):
    """p_power_relation on D's minimal polynomial gives what the first
    dependence among the flattened maps D^(p^k) gives: the same Relation,
    or the same HypothesisError."""
    try:
        want = p_power_relation_by_maps(D, r)
    except HypothesisError as exc:
        with pytest.raises(HypothesisError) as info:
            p_power_relation(D.minimal_polynomial(), r)
        assert str(info.value) == str(exc)
    else:
        assert p_power_relation(D.minimal_polynomial(), r) == want


def assert_same_route(res, old):
    f2, dec, alpha, lmap = old
    assert res.field_final is f2
    assert all(rho.field is f2 and s.field is f2
               for rho, s in res.decomposition)
    assert [rho for rho, _ in res.decomposition] == [rho for rho, _ in dec]
    assert [s for _, s in res.decomposition] == [s for _, s in dec]
    assert res.alpha == alpha
    assert res.switch_map == lmap


def check_both_routes(A, D):
    """build_LD against the old route, and where D^(p^2) = D^p against its
    closed form; returns g's field."""
    g, r = build_LD_g(D)
    res = build_LD(A, D)
    assert_same_route(res, old_route(D, g, r))
    if is_special(D):
        assert_special_closed_form(res, D)
    return g.field


def builtin_pairs():
    """Every Witt algebra of a default prime with every ad e_a, and the
    truncated polynomial algebras tpoly:p:L:p with L = p and L = p^2
    within the default dim cap, with ddx and xddx; plus the direct sums
    that the report pins and the benchmark run."""
    out = []
    for p in DEFAULT_PRIMES:
        out += [("witt:%d" % p, "ad:%d" % i) for i in range(p)]
        for length in (p, p * p):
            if length <= DEFAULT_DIM_CAP:
                out += [("tpoly:%d:%d:%d" % (p, length, p), der)
                        for der in ("ddx", "xddx")]
    out += [("witt:3+witt:3", "ad:1"), ("witt:3+witt:3+witt:3", "ad:1"),
            ("witt:5+witt:5", "ad:1"), ("witt:5+witt:5+witt:5", "ad:1"),
            ("witt:7+witt:7", "ad:0")]
    return out


@pytest.mark.parametrize("spec,der", builtin_pairs(),
                         ids=lambda x: x)
def test_builtins_take_the_old_route(spec, der):
    A = cli._parse_builtin(spec)
    check_both_routes(A, cli._parse_derivation(A, der, None))


@pytest.mark.parametrize("spec,der", builtin_pairs(),
                         ids=lambda x: x)
def test_builtins_read_the_relation_of_the_flattened_maps(spec, der):
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    r_raw = semisimple_exponent(D)
    for r in (max(r_raw, 1), r_raw + 2):
        assert_same_relation(D, r)


def test_relation_at_r_16_matches_the_flattened_maps():
    A = cli._parse_builtin("witt:5")
    assert_same_relation(cli._parse_derivation(A, "ad:1", None), 16)


# (p, n, modulus) of the start fields of the random matrices; the
# non-default moduli make canonical embeddings that do not compose
RANDOM_FIELDS = [(2, 1, None), (3, 1, None), (5, 1, None), (2, 2, None),
                 (3, 2, (2, 1, 1)), (2, 3, (1, 0, 1, 1))]


@pytest.mark.parametrize("p,n,modulus", RANDOM_FIELDS)
def test_random_matrices_with_an_enlarged_field(p, n, modulus):
    """Seeded random maps of a 2-, 3- or 4-dimensional space (an algebra
    with zero product) whose g lives in a proper extension F' of F."""
    F = GF(p, n, modulus)
    rng = random.Random(1000 * p + n)
    enlarged = 0
    for trial in range(12):
        dim = 2 + trial % 3
        A = GradedAlgebra(F, 1, [0] * dim, {})
        D = LinearMap(F, [[F.random_element(rng) for _ in range(dim)]
                          for _ in range(dim)])
        if check_both_routes(A, D) is not F:
            enlarged += 1
    assert enlarged >= 6


# start fields of the embedding property: prime fields and two of degree 2
EMBED_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


def test_eigenvalue_field_embeds_in_g_field():
    """The field E where D splits divides the field F' of g, for every r
    from max(r_raw, 1) to two above it, so build_LD ends over F' itself:
    8 seeded random maps of a 1- to 5-dimensional space per start field,
    120 cases, some with E = GF(3^12) and F' = GF(3^36).  Untraced: no
    line of the package runs only here."""
    with untraced(), time_limit(5):
        for p, n in EMBED_FIELDS:
            F = GF(p, n)
            rng = random.Random(100 * p + n)
            for _ in range(8):
                dim = rng.randint(1, 5)
                A = GradedAlgebra(F, 1, [0] * dim, {})
                D = LinearMap(F, [[F.random_element(rng) for _ in range(dim)]
                                  for _ in range(dim)])
                big, _ = generalized_eigenspaces(D)
                low = max(semisimple_exponent(D), 1)
                for r in range(low, low + 3):
                    f1 = build_g(
                        p_power_relation(D.minimal_polynomial(), r))[0]
                    assert f1.n % big.n == 0
                    assert build_LD(A, D, r).field_final is f1


def witt_json(modulus):
    """W(1;1) over GF(3^2) with the given modulus, graded trivially (so
    every derivation is graded), as an algebra JSON object."""
    obj = witt(3).to_json()
    obj.update(field_degree=2, modulus=list(modulus), m=1, deg=[0, 0, 0])
    assert "pmap" not in obj    # builtins store no p-map table
    return obj


def test_json_input_over_gf9_with_a_non_default_modulus(tmp_path, capsys):
    modulus = (2, 1, 1)
    assert GF(3, 2).modulus != modulus
    obj = witt_json(modulus)
    A = GradedAlgebra.from_json(json.loads(json.dumps(obj)))
    F = A.field
    assert F is GF(3, 2, modulus)
    rng = random.Random(9)
    fields_seen = set()
    for trial in range(10):
        x = [F.random_element(rng) for _ in range(3)]
        D = A.left_multiplication(x)
        rows = [[list(c.coeffs) for c in row] for row in D.rows]
        assert cli._derivation_matrix(A, rows) == D
        fields_seen.add(check_both_routes(A, D).n)
        if trial < 2:
            path = tmp_path / ("w%d.json" % trial)
            path.write_text(json.dumps({"algebra": obj, "derivation": rows}))
            assert cli.main(["switch", "--input", str(path), "--derivation",
                             "json", "--output", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["verdict"] == "pass"
            assert report["results"][0]["field_start"]["modulus"] == \
                list(modulus)
    assert {4, 6} <= fields_seen


def test_eigenvalues_reach_the_final_field_through_g_field():
    """Over GF(3^2) with modulus T^2 + 1, the canonical embeddings
    GF(3^2) -> GF(3^4) -> GF(3^12) and GF(3^2) -> GF(3^12) differ, and
    embedding_over fixes the second on the start field."""
    F, mid, big = GF(3, 2, (1, 0, 1)), GF(3, 4), GF(3, 12)

    def through(x):
        return embed(embed(x, mid), big)
    assert through(F.gen) != embed(F.gen, big)
    emb = embedding_over(mid, big, F)
    assert emb(embed(F.gen, mid)) == embed(F.gen, big)
    rng = random.Random(4)
    moved = 0
    for _ in range(8):
        x, y = mid.random_element(rng), mid.random_element(rng)
        assert emb(x * y) == emb(x) * emb(y)
        assert emb(x + y) == emb(x) + emb(y)
        moved += emb(x) != embed(x, big)
    assert moved  # not the canonical GF(3^4) -> GF(3^12)
    # where the canonical embeddings compose, it is the canonical one
    assert all(embedding_over(mid, big, GF(3))(x) == embed(x, big)
               for x in (mid.gen, mid.gen + 1))
    with pytest.raises(ValueError, match="does not divide"):
        embedding_over(mid, GF(3, 6), F)


def test_p_power_keeps_one_chain():
    W = witt(5)
    D = W.left_multiplication(W.basis_vector(0))
    assert D.p_power(0) is D
    chain = [D.p_power(k) for k in range(4)]
    assert [D.p_power(k) for k in (3, 1, 2, 0)] == \
        [chain[3], chain[1], chain[2], chain[0]]
    assert all(D.p_power(k) is chain[k] for k in range(4))
    assert chain[1] == D ** 5 and chain[2] == D ** 25
    assert chain[3] == chain[2] ** 5
