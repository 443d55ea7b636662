"""Total unimodularity by enumerating every minor of the input.

`flowlattice.intmat.is_totally_unimodular` decides the verdict on the
matrix left after stripping zero, unit and +-parallel rows and columns,
and enumerates the input only when that core is not TU.  This is the
earlier routine, which always enumerates the input; the tests compare
the two for exact equality, witnesses included.
"""

import itertools

from flowlattice.errors import BoundExceededError
from flowlattice.intmat import UnimodularityCheck, _bound, _minor_det


def tu_by_enumeration(m, bound=None) -> UnimodularityCheck:
    """Ascending by submatrix order; the first witness is lexicographically least."""
    order_cap = min(m.rows, m.cols)
    b = _bound("tu", bound)
    if order_cap > b:
        raise BoundExceededError("min(rows, cols)", order_cap, b)
    memo: dict = {}
    for k in range(1, order_cap + 1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                d = _minor_det(m, rows, cols, memo)
                if abs(d) > 1:
                    return UnimodularityCheck(False, rows, cols, d)
    return UnimodularityCheck(True)
