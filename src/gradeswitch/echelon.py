"""Exact elimination over a field: one incremental echelon basis and the
routines built on it.

Every elimination in the package goes through :class:`Echelon`: reduced
row echelon forms, kernels, linear solves, span membership and the
dependence search behind minimal polynomials and p-power relations.
Entries are field elements with ``+``, ``-``, ``*``, ``inverse()`` and
truthiness as a nonzero test; where a routine has to make new vectors, its
``field`` argument supplies ``zero`` and ``one``.  The module imports nothing from the package, so every layer,
``fields`` included, can use it.
"""


class Echelon:
    """Echelon basis of a row space, grown one vector at a time.

    A stored row has a 1 in its pivot column, zeros before it, and zeros in
    the pivot columns of the rows stored earlier.  Only the first `width`
    columns (all by default) may hold pivots; later columns ride along, so
    a right-hand side or a combination of the inputs is reduced with them.
    """

    __slots__ = ("width", "rows")

    def __init__(self, vectors=(), width=None):
        self.width = width
        self.rows = []  # (pivot, dense row, [(column, nonzero entry)])
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """v minus the combination of stored rows that clears their pivots."""
        w = list(v)
        for c, _, nz in self.rows:
            f = w[c]
            if f:
                for i, x in nz:
                    w[i] = w[i] - f * x
        return w

    def contains(self, v):
        return not any(self.reduce(v))

    def add(self, v):
        """Store v's reduction; False (nothing stored) when v is dependent."""
        return self._insert(self.reduce(v)) is not None

    def _insert(self, w):
        """Store a reduced vector under its leading column; return that
        column, or None when w vanishes on every pivot-eligible column."""
        width = len(w) if self.width is None else self.width
        c = next((i for i in range(width) if w[i]), None)
        if c is not None:
            inv = w[c].inverse()
            row = [x * inv if x else x for x in w]
            self.rows.append((c, row, _support(row, c)))
        return c

    def rref(self):
        """(rows, pivots) of the reduced row echelon form, rows as tuples.

        The stored rows are replaced by the reduced ones, which span the
        same space and are sparser.
        """
        rows = sorted(self.rows, key=lambda e: e[0])
        for k in range(len(rows) - 1, -1, -1):
            c, _, nz = rows[k]
            for j in range(k):
                cj, row, _ = rows[j]
                f = row[c]
                if f:
                    for i, x in nz:
                        row[i] = row[i] - f * x
                    rows[j] = (cj, row, _support(row, cj))
        self.rows = rows
        return (tuple(tuple(row) for _, row, _ in rows),
                tuple(c for c, _, _ in rows))


def _support(row, start):
    return [(i, row[i]) for i in range(start, len(row)) if row[i]]


def rref(vectors):
    """Reduced row echelon form of the span; (nonzero rows, pivot columns)."""
    return Echelon(vectors).rref()


def kernel(rows, n, field):
    """Basis of {x in F^n : rows * x = 0}, one vector per free column."""
    red, piv = rref(rows)
    pivots = set(piv)
    out = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [field.zero] * n
        v[fc] = field.one
        for r, pc in zip(red, piv):
            v[pc] = -r[fc]
        out.append(tuple(v))
    return tuple(out)


def solve(rows, rhs, field):
    """One x with rows * x = rhs, free variables set to zero, or None when
    the system is inconsistent.  rows may be rectangular."""
    n = len(rows[0]) if rows else 0
    ech = Echelon(width=n)
    for row, b in zip(rows, rhs):
        w = ech.reduce(list(row) + [b])
        if ech._insert(w) is None and w[n]:
            return None
    # a stored row is zero at the pivots of earlier rows, so back
    # substitution runs in reverse insertion order
    x = [field.zero] * n
    for c, row, nz in reversed(ech.rows):
        acc = row[n]
        for i, a in nz:
            if c < i < n and x[i]:
                acc = acc - a * x[i]
        x[c] = acc
    return x


def first_dependence(vectors, field):
    """The first v_t lying in the span of v_0, ..., v_{t-1}, as the list
    (c_0, ..., c_{t-1}) with v_t + sum_k c_k v_k = 0; None if the vectors
    run out first.

    Each vector is reduced together with a tail that records it as a
    combination of the inputs, so the relation is read off the tail.
    """
    ech = None
    for t, v in enumerate(vectors):
        if ech is None:
            ech = Echelon(width=len(v))
        w = ech.reduce(list(v) + [field.zero] * t + [field.one])
        if ech._insert(w) is None:
            return w[ech.width:ech.width + t]
    return None
