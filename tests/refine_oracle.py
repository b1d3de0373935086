"""Refinement of a root grading along one toral direction.

t_1 is a toral element with beta(t_1) = 1 and T_0 = ker beta.  Switching
along D = ad x must act along the single cyclic direction of t_1 and fix
every T_0-root space.  :func:`refine_grading` checks that with the
package's own root decomposition and switch; no command of the package
calls it, so it lives here with its tests.  Its product grading is
labelled by pairs, which the package's grading check (labels mod m) does
not take, so its grading check is here too: :func:`is_grading_over`, a
sweep over every ordered pair.
"""

from dataclasses import dataclass

from gradeswitch.fields import embedding
from gradeswitch.galg import Subspace
from gradeswitch.switch import HypothesisError, VerificationError, \
    _check_r, build_LD
from gradeswitch.toral import Torus, _vec_add, _vec_is_zero, _vec_scale, \
    root_decomposition


def is_grading_over(alg, parts, add):
    """True iff the labelled subspaces sum directly to alg and each
    product of basis vectors of the parts labelled k and l lies in the
    part labelled add(k, l), every ordered pair checked; labels may be any
    hashable values, and absent labels act as zero."""
    by_label = dict(parts)
    stacked = [b for s in by_label.values() for b in s.basis]
    if len(stacked) != alg.dim \
            or Subspace(alg.field, alg.dim, stacked).dim != alg.dim:
        return False
    for k, s in by_label.items():
        for l, t in by_label.items():
            target = by_label.get(add(k, l))
            for u in s.basis:
                for v in t.basis:
                    w = alg.product(u, v)
                    if any(w) and (target is None or not target.contains(w)):
                        return False
    return True


@dataclass
class RefinedSwitch:
    """Outcome of switching along the direction of one toral element."""

    lie: object
    beta: object
    t1: object
    torus0_basis: object
    line_parts: object
    residual_parts: object
    product_parts: object
    switch: object
    switched_line_parts: object
    switched_product_parts: object
    line_grading_ok: bool
    product_grading_ok: bool
    residual_fixed: bool


def refine_grading(lie, torus_vectors, x, r=None):
    """Split the root grading into the t_1 direction times the rest,
    switch along D = ad x, and verify what the switch does to each part.

    t_1 is a toral element with beta(t_1) = 1; T_0 = ker beta.  The root
    decomposition is the product of the t_1-eigenvalue grading (labels in
    F_p) and the T_0-root grading (labels gamma_0).  After switching: the
    F_p-grading by switched components is again a grading, every T_0-root
    space is fixed setwise, and the switched product grading is a grading
    over pairs.
    """
    _check_r(r)
    torus = Torus(lie, torus_vectors)
    dec = root_decomposition(torus)
    field = lie.field
    beta = torus.nonzero_root(x)

    # t_1: scale a torus basis vector with beta(t) != 0 to beta(t_1) = 1;
    # for the torus to stay honest t_1 must be toral.
    j = next(i for i, b in enumerate(beta) if b)
    t1 = _vec_scale(torus.basis[j], beta[j].inverse())
    if not lie.is_toral(t1):
        raise HypothesisError("a toral element with beta value 1 exists")

    # T_0 = ker(beta) inside the torus
    t0_vecs = []
    for i, t in enumerate(torus.basis):
        if not beta[i]:
            t0_vecs.append(t)
        elif i != j:
            t0_vecs.append(_vec_add(t, _vec_scale(t1, -beta[i])))
    for t in t0_vecs:
        if not _vec_is_zero(lie.bracket(t, x)):
            raise VerificationError("T_0 does not centralize x")

    # group the root spaces by t_1-eigenvalue and by restriction to T_0
    def t0_label(root):
        return tuple(torus.value_on(root, t) for t in t0_vecs)

    line, residual, product = {}, {}, {}
    for root, space in dec:
        k = torus.value_on(root, t1)
        if k ** lie.p != k:
            raise VerificationError("t_1 eigenvalue outside the prime field")
        kk = int(k.coeffs[0])
        g0 = t0_label(root)
        line.setdefault(kk, []).extend(space.basis)
        residual.setdefault(g0, []).extend(space.basis)
        product.setdefault((kk, g0), []).extend(space.basis)
    line_parts = [(k, Subspace(field, lie.dim, v))
                  for k, v in sorted(line.items())]
    residual_parts = [(g0, Subspace(field, lie.dim, v))
                      for g0, v in sorted(residual.items(),
                                          key=lambda e: [int(c) for c in e[0]])]
    product_parts = [(lb, Subspace(field, lie.dim, v))
                     for lb, v in sorted(product.items(),
                                         key=lambda e: (e[0][0],
                                                        [int(c) for c in e[0][1]]))]

    res = build_LD(lie.algebra, lie.ad(x), r=r)
    f2 = res.field_final
    lmap = res.switch_map
    alg2 = res.algebra
    p = lie.p

    switched_line = [(k, s.map_field(f2).image(lmap)) for k, s in line_parts]
    line_ok = is_grading_over(alg2, switched_line, lambda a, b: (a + b) % p)

    emb = embedding(field, f2)
    residual_fixed = True
    for g0, s in residual_parts:
        s2 = s.map_field(f2)
        if s2.image(lmap) != s2:
            residual_fixed = False

    def addpair(a, b):
        return ((a[0] + b[0]) % p,
                tuple(u + v for u, v in zip(a[1], b[1])))

    switched_product = []
    for (kk, g0), s in product_parts:
        g0e = tuple(emb(c) for c in g0)
        switched_product.append(((kk, g0e), s.map_field(f2).image(lmap)))
    product_ok = is_grading_over(alg2, switched_product, addpair)

    out = RefinedSwitch(
        lie=lie, beta=beta, t1=t1, torus0_basis=tuple(t0_vecs),
        line_parts=line_parts, residual_parts=residual_parts,
        product_parts=product_parts, switch=res,
        switched_line_parts=switched_line,
        switched_product_parts=switched_product,
        line_grading_ok=line_ok, product_grading_ok=product_ok,
        residual_fixed=residual_fixed)
    if not line_ok:
        raise VerificationError("switched cyclic grading failed to verify")
    if not residual_fixed:
        raise VerificationError("a T_0 root space moved under the switch")
    if not product_ok:
        raise VerificationError("switched product grading failed to verify")
    return out
