"""The reference kernel that measures how fast the host runs right now.

The benchmark's host is shared, and its speed swings by up to about
1.7x for seconds to minutes at a time.  `worker.py` times `reference()`
between items, and `run.py` scales every time it reports by
REF_NOMINAL_S / (the reference's median time around that moment), so a
reported time reads as it would on this host at its usual speed.
The kernel is fixed benchmark code that never imports flowlattice, so
a change to the library moves the scaled times exactly as it moves the
raw ones.  It does the kind of work the library does: exact rational
elimination, GF(2) rank over bitmasks, and small tuples and dicts.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median time of one reference() on the 2-vCPU Xeon (Python 3.11.7)
# that the recorded figures come from, at its usual speed.
REF_NOMINAL_S = 0.0012
REF_EVERY_S = 0.025     # time the kernel before an item at most this often
REF_WINDOW = 4          # an item's speed: the median of this many samples each side

_MATRIX = ((2, -1, 0, 3), (1, 1, 4, 0), (0, 5, -2, 1), (3, 0, 1, 1))
_VECTORS = (0b1011, 0b0110, 0b1101, 0b0011, 0b1110, 0b0101, 0b1001)


def reference():
    """A fixed ~1 ms computation; returns a checksum so it cannot be skipped."""
    n = len(_MATRIX)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(_MATRIX)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    ranks = 0
    for mask in range(1 << len(_VECTORS)):
        basis = []
        for k, v in enumerate(_VECTORS):
            if mask >> k & 1:
                for b in basis:
                    v = min(v, v ^ b)
                if v:
                    basis.append(v)
        ranks += len(basis)
    table = {(i, i % 7): tuple(range(i % 5)) for i in range(200)}
    return ranks + len(table) + int(sum(a[i][n + i] for i in range(n)))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
