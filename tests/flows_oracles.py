"""Flow-lattice routines that the ellipsoid walk and the bitmask loop replaced.

`flowlattice.flows.enumerate_coefficients` now walks the Gram ellipsoid
depth first over an exact LDL^T (Fincke-Pohst), and
`consistent_decompose` runs one loop over bitmask supports.  These are
the earlier routines, kept verbatim: the inverse-diagonal box, the box
scan, the metric simplicity test over that scan, and the recursive
conforming-flow search.  The tests compare them with the library for
exact equality, order and errors included.
"""

import itertools
from math import isqrt

from flowlattice.errors import DimensionError, FormatError, MembershipError
from flowlattice.flows import FlowLattice, FlowVector, SimpleMetricResult, _circuit_flow
from flowlattice.gram import GramMatrix
from flowlattice.intmat import _gauss_jordan
from flowlattice.matroid import RegularMatroid, circuits


def _find_conforming(m: RegularMatroid, circs, beta: FlowVector) -> FlowVector:
    """A simple flow with support inside and signs agreeing with beta."""
    supp = set(beta.support)
    circuit = next(c for c in circs if set(c) <= supp)
    alpha = _circuit_flow(m, circuit)
    e = min(alpha.support, key=lambda i: (abs(beta.coords[i]), i))
    if alpha.coords[e] * beta.coords[e] < 0:
        alpha = -alpha
    c = abs(beta.coords[e])
    rest = beta - alpha.scaled(c)
    if rest.is_zero:
        return alpha
    return _find_conforming(m, circs, rest)


def consistent_decompose(lat: FlowLattice, beta: FlowVector) -> list[FlowVector]:
    """Express a flow as a sum of simple flows, support- and sign-consistently.

    Deterministic: at each step the conforming flow is derived from the
    lexicographically least circuit inside the current support.
    """
    if lat.source is None:
        raise MembershipError("decomposition needs a lattice with a source matroid")
    m = lat.source
    if len(beta.coords) != m.size:
        raise DimensionError("flow length differs from ground size")
    for i, row in enumerate(m.rep.entries):
        lhs = sum(a * b for a, b in zip(row, beta.coords))
        if lhs != 0:
            raise MembershipError(
                f"not a flow: row {i} gives {lhs} != 0",
                equation=(i, row),
            )
    circs = circuits(m)
    parts: list[FlowVector] = []
    current = beta
    while not current.is_zero:
        alpha = _find_conforming(m, circs, current)
        parts.append(alpha)
        current = current - alpha
    return parts


def _coeff_box(gram: GramMatrix, bound: int) -> list[int]:
    """Per-coordinate enumeration limits from the inverse Gram diagonal.

    |y_i| <= isqrt(floor((G^-1)_ii * bound)); Gauss-Jordan on [G | I]
    ends at [d I | d G^-1], which gives the floor as
    (d (G^-1)_ii * bound) // d.
    """
    n = gram.order
    rows, cols, _, pivots = _gauss_jordan(
        [row + tuple(int(i == j) for j in range(n))
         for i, row in enumerate(gram.mat.entries)], n)
    if len(cols) < n:
        raise FormatError("Gram matrix is singular")
    d = pivots[-1] if pivots else 1
    return [isqrt(rows[i][n + i] * bound // d) for i in range(n)]


def enumerate_coefficients(gram: GramMatrix, bound: int):
    """All integer coefficient tuples y with y^T.G.y <= bound, lex order."""
    limits = _coeff_box(gram, bound)
    g = gram.mat.entries
    s = gram.order
    for y in itertools.product(*[range(-l, l + 1) for l in limits]):
        q = sum(g[i][j] * y[i] * y[j] for i in range(s) for j in range(s))
        if q <= bound:
            yield y, q


def is_simple_metric(lat: FlowLattice, alpha) -> SimpleMetricResult:
    """Metric simplicity: every two-part split has negative inner product.

    Enumerates candidate summands inside the Gram ellipsoid of the given
    element's norm; any split with nonnegative inner product is a
    witness (the first in lexicographic coefficient order is returned).
    """
    if isinstance(alpha, FlowVector):
        x = lat.coefficients(alpha)
    else:
        x = tuple(int(v) for v in alpha)
        if len(x) != lat.lattice_rank:
            raise DimensionError("coefficient length differs from lattice rank")
    if not any(x):
        raise FormatError("simple elements are nonzero")
    g = lat.gram.mat.entries
    s = lat.lattice_rank
    bound = sum(g[i][j] * x[i] * x[j] for i in range(s) for j in range(s))
    for y, qy in enumerate_coefficients(lat.gram, bound):
        if not any(y) or y == x:
            continue
        z = tuple(a - b for a, b in zip(x, y))
        inner = sum(g[i][j] * y[i] * z[j] for i in range(s) for j in range(s))
        if inner >= 0:
            return SimpleMetricResult(
                False, (lat.vector(y), lat.vector(z)), inner
            )
    return SimpleMetricResult(True)
