"""Exact eliminations that the one fraction-free Gauss-Jordan core replaced.

`flowlattice.intmat._gauss_jordan` now gives rank, determinant, leading
minors, lattice coordinates, inverses and the lexicographically least
base in one pass each, and the flow of a circuit off the one free
column of a pass over its columns.  These are the earlier routines: a
Bareiss determinant, `Fraction` Gauss-Jordan rank, solve and inverse, a
fraction-free inverse, a determinant scan over all r-subsets for the
first base, one determinant per leading minor for the Gram check, and
the saturated integer kernel (a Euclidean row reduction) with the
circuit flow read off it.  The tests compare them with the library for
exact equality, errors included.
"""

import itertools
from fractions import Fraction
from math import isqrt

from flowlattice.errors import (
    DefinitenessError,
    DimensionError,
    FlowLatticeError,
    MembershipError,
    NotABaseError,
)
from flowlattice.flows import FlowVector, _canonical_sign
from flowlattice.gram import GramMatrix
from flowlattice.intmat import IntegerMatrix
from flowlattice.matroid import RegularMatroid, StandardForm


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, computed exactly."""
    a = [[Fraction(x) for x in r] for r in m.entries]
    nr, nc = m.rows, m.cols
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


def bases(m: RegularMatroid):
    """All bases in lexicographic order."""
    for combo in itertools.combinations(range(m.size), m.rank):
        if determinant(m.rep.select_columns(combo)) != 0:
            yield combo


def first_base(m: RegularMatroid) -> tuple[int, ...]:
    for b in bases(m):
        return b
    raise NotABaseError((), "matroid has no base of the stated rank")


def _integer_inverse(z: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a square integer matrix with determinant +-1.

    One fraction-free (Bareiss) Gauss-Jordan pass over [z | I]: it ends
    at [d I | adj], where d is the determinant up to the sign of the row
    swaps and adj is d times the inverse.
    """
    n = z.rows
    if n == 0:
        return z
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(z.entries)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            raise NotABaseError(tuple(range(n)), "determinant 0 is not a unit")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p, pk = a[k][k], a[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pk)]
        prev = p
    if abs(prev) != 1:
        raise NotABaseError(tuple(range(n)), f"determinant {sign * prev} is not a unit")
    return IntegerMatrix.from_rows([[prev * x for x in row[n:]] for row in a])


def coordinatize(m: RegularMatroid, base) -> StandardForm:
    """Bring the representation to [I_r L] with the base columns first."""
    base = tuple(sorted(base))
    if len(base) != m.rank or len(set(base)) != len(base):
        raise NotABaseError(base, f"expected {m.rank} distinct elements")
    sub = m.rep.select_columns(base)
    d = determinant(sub)
    if d == 0:
        raise NotABaseError(base, "vanishing r-by-r determinant")
    perm = base + tuple(j for j in range(m.size) if j not in set(base))
    f = _integer_inverse(sub)
    mat = f * m.rep.select_columns(perm)
    return StandardForm(mat, perm, base)


def gram_of(columns) -> GramMatrix:
    """Exact Gram matrix of independent columns; rejects dependent input."""
    if isinstance(columns, IntegerMatrix):
        b = columns
    else:
        b = IntegerMatrix.from_columns(columns)
    g = b.transpose() * b
    for k in range(1, g.rows + 1):
        minor = determinant(g.submatrix(range(k), range(k)))
        if minor <= 0:
            raise DefinitenessError(k, minor)
    return GramMatrix(g)


def integer_kernel_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Basis of ker(m) over the integers: columns span ker(m) ∩ Z^cols.

    Integer row reduction of [m^T | I] by unimodular operations; the
    identity block rows facing a zeroed m^T row form a saturated basis,
    so every integer kernel vector is an integer combination of the
    columns (not merely a finite-index sublattice).
    """
    n, r = m.cols, m.rows
    work = [list(col) + [int(i == j) for j in range(n)]
            for i, col in enumerate(m.columns())]
    # work is n rows of [m^T | I_n]
    pivot_row = 0
    for col in range(r):
        while True:
            live = [i for i in range(pivot_row, n) if work[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(work[i][col]))
            work[pivot_row], work[best] = work[best], work[pivot_row]
            done = True
            p = work[pivot_row][col]
            for i in range(pivot_row + 1, n):
                if work[i][col] != 0:
                    q = work[i][col] // p
                    work[i] = [x - q * y for x, y in zip(work[i], work[pivot_row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                pivot_row += 1
                break
    kernel_rows = [row[r:] for row in work[pivot_row:]]
    return IntegerMatrix.from_columns(kernel_rows, nrows=n)




def circuit_flow(m: RegularMatroid, circuit: tuple[int, ...]) -> FlowVector:
    """The sign-canonical simple flow supported on the given circuit."""
    sub = m.rep.select_columns(circuit)
    k = integer_kernel_basis(sub)
    if k.cols != 1:
        raise MembershipError(f"subset {circuit} does not support a unique flow line")
    local = k.column(0)
    if any(abs(x) != 1 for x in local):
        raise FlowLatticeError("circuit flow is not a unit vector pattern")
    coords = [0] * m.size
    for pos, e in enumerate(circuit):
        coords[e] = local[pos]
    return FlowVector(_canonical_sign(coords))


def _solve_exact(m: IntegerMatrix, rhs) -> list[Fraction] | None:
    """Solve m.x = rhs exactly; m has full column rank.  None if inconsistent."""
    rows = [[Fraction(v) for v in row] + [Fraction(b)]
            for row, b in zip(m.entries, rhs)]
    nr, nc = m.rows, m.cols
    piv_cols = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    if len(piv_cols) < nc:
        return None  # dependent columns; callers guarantee full rank
    for i in range(r, nr):
        if rows[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(piv_cols):
        x[c] = rows[i][nc]
    return x


def _fraction_inverse(g: IntegerMatrix) -> list[list[Fraction]]:
    n = g.rows
    aug = [[Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(g.entries)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _coeff_box(gram: GramMatrix, bound: int) -> list[int]:
    """Per-coordinate enumeration limits from the inverse Gram diagonal."""
    inv = _fraction_inverse(gram.mat)
    limits = []
    for i in range(gram.order):
        cap = inv[i][i] * bound
        limits.append(isqrt(cap.numerator // cap.denominator))
    return limits


def _identity_block_rows(q: IntegerMatrix) -> list[int]:
    """Row indices forming I_s in column order (first match per unit row)."""
    s = q.cols
    out = []
    used = set()
    for j in range(s):
        unit = tuple(1 if c == j else 0 for c in range(s))
        row = next(
            i for i in range(q.rows)
            if i not in used and q.entries[i] == unit
        )
        used.add(row)
        out.append(row)
    return out
