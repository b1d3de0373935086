"""Exact elimination over a field: one incremental echelon basis and the
routines built on it.

Every elimination in the package goes through :class:`Echelon`: reduced
row echelon forms, kernels, linear solves, span membership, span
intersections and the dependence search behind minimal polynomials and
p-power relations.
Entries are elements of one field, or ints taken as scalars of it.  An element
has a ``field`` and ``+``, ``-``, ``*``, ``inverse()`` and truthiness as a
nonzero test; the field supplies ``zero``, ``one`` and ``dot_kernel``, the
packed-int arithmetic that :meth:`Echelon.reduce` runs on.  The kernel
unpacks every zero to the field's own ``zero``, and so does element
arithmetic on a field with log/exp tables, so a zero test reads ``x is
not zero and x``: identity first, truthiness only for other objects, such
as zeros built by constructors or by arithmetic above the table cap.  The
module imports nothing from the package, so every layer, ``fields``
included, can use it.
"""


class Echelon:
    """Echelon basis of a row space, grown one vector at a time.

    A stored row has a 1 in its pivot column, zeros before it, and zeros in
    the pivot columns of the rows stored earlier.  Only the first `width`
    columns (all by default) may hold pivots; later columns ride along, so
    a right-hand side or a combination of the inputs is reduced with them.
    All vectors have one length.  The field is `field`, or else that of
    the first vector's elements; an entry from another field, and ints
    while no field is known, are refused with ``ValueError``.
    """

    __slots__ = ("width", "field", "rows", "_pack", "_unpack")

    def __init__(self, vectors=(), width=None, field=None):
        self.width = width
        self.field = field
        # (pivot, dense row, its nonzero columns, their packed entries)
        self.rows = []
        self._pack = self._unpack = None
        for v in vectors:
            self.add(v)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, v):
        """v minus the combination of stored rows that clears their pivots.

        The multiples of stored rows are summed as packed ints of the
        field's dot kernel, and each column they touch is unpacked once,
        together with v's entry: at most width + 1 terms.  Entries that
        no stored row touches come back as they are, ints as scalars.
        """
        out = self._checked(v)
        if not self.rows:
            return out
        pack, unpack, zero = self._pack, self._unpack, self.field.zero
        w = [0] * len(out)
        touched = set()
        for c, _, cols, vals in self.rows:
            f = unpack(w[c] + pack(out[c])) if w[c] else out[c]
            if f is not zero and f:
                g = pack(-f)
                for i, x in zip(cols, vals):
                    w[i] += g * x
                touched.update(cols)
        for i in touched:
            out[i] = unpack(w[i] + pack(out[i]))
        return out

    def contains(self, v):
        out = self.reduce(v)
        zero = self.field.zero
        return not any(x is not zero and x for x in out)

    def add(self, v):
        """Store v's reduction; False (nothing stored) when v is dependent."""
        return self._insert(self.reduce(v)) is not None

    def _checked(self, v):
        """v as a list of elements, ints taken as scalars.  Refuses an
        entry from another field, and a vector that names no field while
        none is known; fixes the field and its kernel on first use."""
        try:
            named = {x.field for x in v}
            ints = False
        except AttributeError:     # ints have no field
            named = {x.field for x in v if not isinstance(x, int)}
            ints = True
        if self.field is None and len(named) == 1:
            self.field = named.pop()
        elif named and named != {self.field}:
            raise ValueError("elements of different fields")
        if self.field is None:
            raise ValueError("no field for these entries: pass field=")
        if self._pack is None:
            width = len(v) if self.width is None else self.width
            self._pack, self._unpack, _ = self.field.dot_kernel(width + 1)
        if ints:
            one = self.field.one
            return [x * one if isinstance(x, int) else x for x in v]
        return list(v)

    def _insert(self, w):
        """Store a reduced vector under its leading column; return that
        column, or None when w vanishes on every pivot-eligible column."""
        width = len(w) if self.width is None else self.width
        zero = self.field.zero
        cols = [i for i, x in enumerate(w) if x is not zero and x]
        if not cols or cols[0] >= width:
            return None
        c = cols[0]
        inv = w[c].inverse()
        row = list(w)
        for i in cols:
            row[i] = w[i] * inv
        self.rows.append(self._row(c, row, cols))
        return c

    def _row(self, c, row, cols=None):
        """The stored form of a row with pivot c and nonzero columns cols."""
        if cols is None:
            cols = [i for i in range(c, len(row)) if row[i]]
        return c, row, cols, list(map(self._pack, [row[i] for i in cols]))

    def rref(self):
        """(rows, pivots) of the reduced row echelon form, rows as tuples.

        The stored rows are replaced by the reduced ones, which span the
        same space and are sparser.
        """
        rows = sorted(self.rows, key=lambda e: e[0])
        for k in range(len(rows) - 1, -1, -1):
            c, below, cols, _ = rows[k]
            for j in range(k):
                cj, row, _, _ = rows[j]
                f = row[c]
                if f:
                    for i in cols:
                        row[i] = row[i] - f * below[i]
                    rows[j] = self._row(cj, row)
        self.rows = rows
        return (tuple(tuple(row) for _, row, _, _ in rows),
                tuple(c for c, _, _, _ in rows))


def kernel(rows, n, field):
    """Basis of {x in F^n : rows * x = 0}, one vector per free column."""
    red, piv = Echelon(rows, field=field).rref()
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
    ech = Echelon(width=n, field=field)
    for row, b in zip(rows, rhs):
        w = ech.reduce(list(row) + [b])
        if ech._insert(w) is None and w[n]:
            return None
    # a stored row is zero at the pivots of earlier rows, so back
    # substitution runs in reverse insertion order
    x = [field.zero] * n
    for c, row, cols, _ in reversed(ech.rows):
        acc = row[n]
        for i in cols:
            if c < i < n and x[i]:
                acc = acc - row[i] * x[i]
        x[c] = acc
    return x


def intersection(us, ws, n, field):
    """Vectors spanning span(us) ∩ span(ws) in F^n, a basis when us and
    ws are bases (Zassenhaus).

    The rows (u | u) are stored with pivots in the first n columns; a
    (w | 0) whose reduction vanishes there leaves in its last n columns a
    combination of the u that is w minus stored w's, so lies in both
    spans: the tail trick of :func:`first_dependence`.
    """
    ech = Echelon(width=n, field=field)
    for u in us:
        ech.add(list(u) + list(u))
    zeros = [field.zero] * n
    out = []
    for w in ws:
        r = ech.reduce(list(w) + zeros)
        if ech._insert(r) is None:
            out.append(tuple(r[n:]))
    return out


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
            ech = Echelon(width=len(v), field=field)
        w = ech.reduce(list(v) + [field.zero] * t + [field.one])
        if ech._insert(w) is None:
            return w[ech.width:ech.width + t]
    return None
