"""Total and weak unimodularity by enumerating every minor of the input.

`flowlattice.intmat.is_totally_unimodular` decides the verdict on the
matrix left after stripping zero, unit and +-parallel rows and columns,
and names its witness by Camion's Eulerian test; `is_weakly_unimodular`
decides by one elimination.  These are the earlier routines, which
expand every minor by cofactors with a memo; the tests compare the two
for exact equality, witnesses included.
"""

import itertools

from flowlattice.intmat import UnimodularityCheck, _gate


def _minor_det(m, rows: tuple, cols: tuple, memo: dict) -> int:
    """Determinant of m[rows, cols] by expansion along its first row."""
    key = (rows, cols)
    got = memo.get(key)
    if got is not None:
        return got
    if len(rows) == 1:
        d = m.entries[rows[0]][cols[0]]
    else:
        d = 0
        rest = rows[1:]
        sign = 1
        for j, c in enumerate(cols):
            a = m.entries[rows[0]][c]
            if a:
                d += sign * a * _minor_det(m, rest, cols[:j] + cols[j + 1:], memo)
            sign = -sign
    memo[key] = d
    return d


def _order_cap(m) -> int:
    """min(rows, cols), gated by the TU bound of the enclosing `bounds` scope."""
    return _gate("tu", "min(rows, cols)", min(m.rows, m.cols))


def _check_minors(m, orders) -> UnimodularityCheck:
    """Minors of the given orders, ascending; fails on the lexicographically
    least (order, rows, cols) one with |det| > 1."""
    memo: dict = {}
    for k in orders:
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                d = _minor_det(m, rows, cols, memo)
                if abs(d) > 1:
                    return UnimodularityCheck(False, rows, cols, d)
    return UnimodularityCheck(True)


def tu_by_enumeration(m) -> UnimodularityCheck:
    """Every order, ascending; the first witness is lexicographically least."""
    return _check_minors(m, range(1, _order_cap(m) + 1))


def wu_by_enumeration(m) -> UnimodularityCheck:
    """The maximal order only; the first witness is lexicographically least."""
    k = _order_cap(m)
    return _check_minors(m, (k,) if k else ())
