"""Transport (naturality) tests of the switching operator.

An invertible phi that maps every homogeneous component to itself carries
(A, D) to (phi.A, phi D phi^(-1)), where phi.A multiplies by
x *' y = phi(phi^(-1) x * phi^(-1) y).  The switch of the carried pair
must be the carried switch: the same r, relation, g, lambda and block
scalars, the switching map and its alpha conjugated by phi and the
switched components mapped by phi.  phi has a random invertible block on
each component, so the carried inputs are dense where the builtins are
sparse; on them the switch is also compared with the blockwise oracle,
and where D^(p^2) = D^p with its closed form g = gamma T^p and with the
blockwise oracle at alpha = rho gamma on each eigenspace.
Skipped when hypothesis is not installed."""

import functools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gradeswitch import cli  # noqa: E402
from gradeswitch.galg import GradedAlgebra, LinearMap  # noqa: E402
from gradeswitch.switch import switch_grading  # noqa: E402
from oracles import inverse  # noqa: E402
from test_switch import assert_special_closed_form, \
    blockwise_switch_map, is_special  # noqa: E402

CASES = [("witt:5", "ad:0"), ("witt:5", "ad:1"), ("witt:3+witt:3", "ad:1"),
         ("tpoly:3:9:3", "ddx"), ("tpoly:5:5:5", "xddx"),
         ("witt:11", "ad:0")]

SETTINGS = hypothesis.settings(max_examples=6, deadline=None,
                               derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def builtin_switch(spec, der):
    A = cli._parse_builtin(spec)
    D = cli._parse_derivation(A, der, None)
    return A, D, switch_grading(A, D)


def component_automorphism(A, rng):
    """A random invertible map with one block on each homogeneous
    component of A (the components are spanned by basis vectors)."""
    F, n = A.field, A.dim
    rows = [[F.zero] * n for _ in range(n)]
    for k in set(A.degrees):
        idx = [i for i, d in enumerate(A.degrees) if d == k]
        while True:
            block = LinearMap(F, [[F.random_element(rng) for _ in idx]
                                  for _ in idx])
            if block.rank() == len(idx):
                break
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                rows[i][j] = block.rows[a][b]
    return LinearMap(F, rows)


def transport(A, phi):
    """phi.A: the algebra on the same graded basis with
    x *' y = phi(phi^(-1) x * phi^(-1) y)."""
    inv = inverse(phi)
    cols = [inv.column(i) for i in range(A.dim)]
    entries = []
    for i, x in enumerate(cols):
        for j, y in enumerate(cols):
            z = phi.apply(A.product(x, y))
            entries.extend((i, j, k, c) for k, c in enumerate(z) if c)
    return GradedAlgebra.from_entries(A.field, A.m, A.degrees, entries)


@pytest.mark.parametrize("spec,der", CASES,
                         ids=["%s-%s" % c for c in CASES])
@SETTINGS
@hypothesis.given(seed=st.integers(0, 1 << 30))
def test_switch_commutes_with_component_automorphisms(spec, der, seed):
    A, D, res = builtin_switch(spec, der)
    phi = component_automorphism(A, random.Random(seed))
    B = transport(A, phi)
    E = phi * D * inverse(phi)
    got = switch_grading(B, E)

    assert got.field_final is res.field_final
    assert (got.r, got.r_raw) == (res.r, res.r_raw)
    assert got.relation == res.relation
    assert got.g == res.g and got.lam == res.lam
    assert got.block_scalars == res.block_scalars
    assert got.degree == res.degree
    assert got.product_rule_pairs == res.product_rule_pairs
    phi2 = phi.embed_to(res.field_final)
    assert got.switch_map == phi2 * res.switch_map * inverse(phi2)
    assert got.alpha == phi2 * res.alpha * inverse(phi2)
    assert got.new_parts == tuple((k, s.image(phi2))
                                  for k, s in res.new_parts)

    assert got.switch_map == blockwise_switch_map(got)
    if is_special(E):
        assert_special_closed_form(got, E)
        assert got.switch_map == blockwise_switch_map(got, True)
