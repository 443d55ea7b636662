"""Per-subset rank routines that the GF(2) echelon form replaced.

`flowlattice.matroid` reads circuits, loops, co-loops and independent
rows off one echelon form of the representation mod 2; on a TU
certificate the same independent rows are the unimodular block that
`flowlattice.rebuild` takes as the pivot columns of its Gauss-Jordan
elimination.
These are the earlier routines, which rank (or take the determinant of)
column or row subsets one at a time over the rationals, and the
definition of a loop as a zero column; the tests compare the two for
exact equality.
"""

import itertools

from flowlattice.intmat import IntegerMatrix, determinant, rank
from flowlattice.matroid import subset_rank


def circuits_by_rank(m) -> tuple[tuple[int, ...], ...]:
    """Minimal dependent sets by ranking all 2^n subsets, size then lex order."""
    found: list[tuple[int, ...]] = []
    found_sets: list[frozenset] = []
    n = m.size
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            cs = set(combo)
            if any(f <= cs for f in found_sets):
                continue
            if subset_rank(m, combo) < size:
                found.append(combo)
                found_sets.append(frozenset(combo))
    return tuple(found)


def loops_by_zero_columns(m) -> tuple[int, ...]:
    """Elements whose column of the representation is zero."""
    return tuple(j for j in range(m.size) if not any(m.rep.column(j)))


def coloops_by_rank(m) -> tuple[int, ...]:
    """Elements whose deletion drops the rank."""
    return tuple(
        j for j in range(m.size)
        if subset_rank(m, [e for e in range(m.size) if e != j]) < m.rank
    )


def independent_rows_by_rank(mat: IntegerMatrix) -> list[int]:
    """Greedy maximal set of linearly independent rows, in order."""
    kept: list[int] = []
    r = 0
    for i in range(mat.rows):
        if rank(mat.select_rows(kept + [i])) > r:
            kept.append(i)
            r += 1
    return kept


def incidence_rep_by_rank(edges) -> IntegerMatrix:
    """`from_graph`'s representation: signed incidence rows kept by rank."""
    vertices = sorted({v for e in edges for v in e}, key=lambda v: (str(type(v)), v))
    vindex = {v: i for i, v in enumerate(vertices)}
    d = [[0] * len(edges) for _ in vertices]
    for j, (tail, head) in enumerate(edges):
        if tail != head:
            d[vindex[head]][j] = 1
            d[vindex[tail]][j] = -1
    full = IntegerMatrix.from_rows(d)
    return full.select_rows(independent_rows_by_rank(full))


def first_unimodular_square_by_det(u: IntegerMatrix) -> tuple[int, ...] | None:
    """Lexicographically least row set carrying an invertible s-by-s block."""
    for combo in itertools.combinations(range(u.rows), u.cols):
        if determinant(u.select_rows(combo)) != 0:
            return combo
    return None
