"""u^p in the quotient ring by the Frobenius formula: the test oracle for
the one route the package takes, ``u * u^(p-1)``
(:func:`gradeswitch.polyring._scalar_power`).

The formula shares no quotient-ring product with that route: in
characteristic p Frobenius is additive on the commutative quotient ring
and (X^i Y^j)^p = xc^i yc^j, so u^p is the entry
sum_{i,j} c_ij^p xc^i yc^j.  A series entry's own p-th power is additive
too, sum c_ij^p U^(pi) V^(pj) truncated.
"""

from gradeswitch.polyring import BiTruncSeries


def series_frobenius(s):
    """s^p for a BiTruncSeries s, additively: one field p-th power per
    surviving coefficient and no series product."""
    p, field = s.field.p, s.field
    rows = [[field.zero] * s.ub for _ in range(s.ua)]
    for i in range(0, s.ua, p):
        for j in range(0, s.ub, p):
            rows[i][j] = s.coeffs[i // p][j // p] ** p
    return BiTruncSeries._from_rows(field, s.ua, s.ub,
                                    tuple(tuple(r) for r in rows))


def frobenius_scalar(u):
    """u^p as an entry: sum_{i,j} c_ij^p xc^i yc^j, by Horner's rule in
    yc along each row, then in xc over the rows.  Zero entries are told
    by identity with ring.zero_entry, as in the product kernel."""
    ring = u.ring
    p = ring.p
    zero = ring.zero_entry

    def frob(c):
        if c is zero:
            return c
        return series_frobenius(c) if isinstance(c, BiTruncSeries) \
            else c ** p

    def horner(values, x):
        # sum values[k] x^k; no product above the highest value that is
        # not ring.zero_entry
        acc = zero
        for c in reversed(values):
            acc = c if acc is zero else acc * x + c
        return acc

    return horner([horner([frob(c) for c in row], ring.yc)
                   for row in u.entries], ring.xc)
