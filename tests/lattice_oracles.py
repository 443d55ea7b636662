"""Lattice-side oracles for positive definite integer Gram matrices.

Nothing here imports flowlattice: these functions decide isometry of
lattices from their Gram matrices alone, so a test can check the paper's
theorem (flow lattices are isometric iff the co-loop-free minors are
isomorphic) against an actual lattice isometry.

`short_vectors` is Fincke & Pohst's enumeration (Math. Comp. 44, 1985)
in exact `fractions.Fraction` arithmetic: the form is completed to a sum
of squares, sum_i q_i (x_i + sum_{j>i} mu_ij x_j)^2, and the coordinates
are fixed from the last to the first, each inside the interval that the
remaining budget leaves.  `isometry` is Plesken & Souvignier's backtrack
("Computing isometries of lattices", J. Symbolic Comput. 24, 1997):
basis vector i of the first lattice goes to a vector of the second of
norm a_ii whose inner products with the earlier images are the a_ij.
Gram matrices are lists (or tuples) of integer rows.
"""

from fractions import Fraction
from math import ceil, floor, isqrt


def _squares(gram):
    """q and mu with x^T gram x = sum_i q[i] (x_i + sum_{j>i} mu[i][j] x_j)^2
    (the LDL^T factorization); raises ValueError unless gram is positive
    definite."""
    n = len(gram)
    q = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i] = Fraction(gram[i][i]) - sum(mu[k][i] ** 2 * q[k] for k in range(i))
        if q[i] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            mu[i][j] = (gram[i][j] - sum(mu[k][i] * mu[k][j] * q[k] for k in range(i))) / q[i]
    return q, mu


def determinant(gram) -> int:
    """det gram, the product of the q of its sum of squares."""
    d = Fraction(1)
    for x in _squares(gram)[0]:
        d *= x
    return int(d)


def short_vectors(gram, bound) -> list[tuple[int, ...]]:
    """Every nonzero integer x with x^T gram x <= bound, in the order the
    enumeration meets them (x and -x both appear)."""
    n = len(gram)
    q, mu = _squares(gram)
    x = [0] * n
    out = []

    def walk(i, budget):
        if i < 0:
            if any(x):
                out.append(tuple(x))
            return
        c = -sum(mu[i][j] * x[j] for j in range(i + 1, n))
        r = isqrt(floor(budget / q[i])) + 1         # |x_i - c| <= sqrt(budget / q_i) < r
        for v in range(floor(c) - r, ceil(c) + r + 1):
            t = q[i] * (v - c) ** 2
            if t <= budget:
                x[i] = v
                walk(i - 1, budget - t)
        x[i] = 0

    walk(n - 1, Fraction(bound))
    return out


def isometry(a, b):
    """An integer X with X^T b X = a, as a tuple of rows, or None when the
    lattices with Gram matrices a and b are not isometric.

    Column i of X is the image of basis vector i: a vector of norm a_ii
    whose inner products with the images before it are the a_ji.  With
    det a = det b, every complete map has det X = +-1, so it is an
    isometry onto the whole lattice.
    """
    n = len(a)
    if len(b) != n or determinant(a) != determinant(b):
        return None
    if n == 0:
        return ()
    by_norm: dict[int, list] = {}
    for v in short_vectors(b, max(a[i][i] for i in range(n))):
        bv = tuple(sum(b[i][j] * v[j] for j in range(n)) for i in range(n))
        by_norm.setdefault(sum(x * y for x, y in zip(v, bv)), []).append((v, bv))
    images: list = []

    def extend(i) -> bool:
        if i == n:
            return True
        for v, bv in by_norm.get(a[i][i], ()):
            if all(sum(x * y for x, y in zip(u, bv)) == a[j][i] for j, (u, _) in enumerate(images)):
                images.append((v, bv))
                if extend(i + 1):
                    return True
                images.pop()
        return False

    if not extend(0):
        return None
    return tuple(tuple(v[i] for v, _ in images) for i in range(n))
