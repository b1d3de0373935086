"""Host-speed reference for the benchmark's timings.

On a shared host the speed of a core drifts by up to 1.8x within
minutes, and every task kind slows down or speeds up together.  To take
that drift out of the end-to-end metrics, the run times this fixed kernel
after every task, and each task's time is rescaled by the kernel's local
speed: ``reference seconds = wall seconds * REFERENCE_S / kernel seconds``.

The kernel is the kind of work the package spends its time on, written
here and independent of ``src/``: pure-Python arithmetic on small objects
over GF(5^3) with log/exp tables and tuple coefficients, a matrix product
and two row reductions.  A change to the package cannot change how long
it takes.  The cyclic garbage collector is off while it runs, so the size
of the package's heap does not leak into the reference either.
"""

import gc
import time

P, N = 5, 3
MODULUS = (2, 1, 0)  # x^3 = x + 2 over GF(5); x generates the unit group
Q = P ** N
SIZE = 28
# wall seconds of one sample on the reference host: 2-core Xeon VM,
# CPython 3.11, uncontended; reference seconds are scaled to it
REFERENCE_S = 0.040


class Elt:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __sub__(self, other):
        return Elt(tuple((x - y) % P for x, y in zip(self.c, other.c)))

    def __add__(self, other):
        return Elt(tuple((x + y) % P for x, y in zip(self.c, other.c)))

    def __mul__(self, other):
        a, b = self.c, other.c
        if not any(a) or not any(b):
            return ZERO
        return EXP[(LOG[a] + LOG[b]) % (Q - 1)]

    def inverse(self):
        return EXP[-LOG[self.c] % (Q - 1)]


def _times_x(c):
    top = c[-1]
    shifted = (0,) + c[:-1]
    return tuple((s + top * m) % P for s, m in zip(shifted, MODULUS))


ZERO = Elt((0,) * N)
EXP, LOG = [], {}
_c = (1,) + (0,) * (N - 1)
for _k in range(Q - 1):
    EXP.append(Elt(_c))
    LOG[_c] = _k
    _c = _times_x(_c)
assert len(LOG) == Q - 1, "x does not generate GF(5^3)^*"


def _matmul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        r = []
        for col in cols:
            s = ZERO
            for x, y in zip(row, col):
                s = s + x * y
            r.append(s)
        out.append(r)
    return out


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows))
                    if any(rows[i][col].c)), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != rank and any(f.c):
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kernel():
    """One fixed unit of work; returns a checksum."""
    a = [[EXP[(i * 7 + j * 3) % (Q - 1)] if (i + j) % 4 else ZERO
          for j in range(SIZE)] for i in range(SIZE)]
    b = [[EXP[(i * 5 + j * 11 + 1) % (Q - 1)] for j in range(SIZE)]
         for i in range(SIZE)]
    c = _matmul(a, b)
    return _rank(c) + _rank(a) + sum(LOG.get(x.c, Q) for x in c[0])


CHECKSUM = kernel()


def sample():
    """Wall seconds of one kernel run, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        check = kernel()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if check != CHECKSUM:
        raise RuntimeError("reference kernel gave %r, want %r"
                           % (check, CHECKSUM))
    return dt
