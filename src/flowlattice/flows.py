"""Lattices of integer flows and cuts.

Fundamental bases, Gram matrices, signed-circuit flows, consistent
decomposition into conforming simple flows, and the metric simplicity
test by bounded enumeration inside the Gram ellipsoid.  Definiteness,
lattice coordinates and the enumeration box come from the fraction-free
Gauss-Jordan elimination of `intmat`, so all arithmetic is over the
integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import DefinitenessError, DimensionError, FormatError, MembershipError
from .gram import GramMatrix
from .intmat import IntegerMatrix, _gauss_jordan, integer_kernel_basis
from .matroid import RegularMatroid, circuits, coordinatize, first_base


@dataclass(frozen=True)
class FlowVector:
    """Integer vector in the ambient edge space."""

    coords: tuple[int, ...]

    @staticmethod
    def of(xs) -> "FlowVector":
        return FlowVector(tuple(int(x) for x in xs))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.coords) if x)

    @property
    def norm2(self) -> int:
        return sum(x * x for x in self.coords)

    @property
    def mass(self) -> int:
        """Sum of absolute coordinate values."""
        return sum(abs(x) for x in self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def dot(self, other: "FlowVector") -> int:
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def __add__(self, other):
        return FlowVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return FlowVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FlowVector(tuple(-a for a in self.coords))

    def scaled(self, c: int) -> "FlowVector":
        return FlowVector(tuple(c * a for a in self.coords))

    def text(self) -> str:
        return " ".join(str(x) for x in self.coords)


def parse_flow_vector(text: str) -> FlowVector:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.replace(",", " ").split())
    try:
        return FlowVector.of(int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"non-integer token in vector text: {exc}") from exc


def gram_of(columns) -> GramMatrix:
    """Exact Gram matrix of independent columns; rejects dependent input."""
    if isinstance(columns, IntegerMatrix):
        b = columns
    else:
        b = IntegerMatrix.from_columns(columns)
    g = b.transpose() * b
    # Sylvester's criterion in one pass.  g is positive semidefinite, so a
    # zero pivot has only zeros below it: up to the first skipped column no
    # row is swapped, pivot k is the leading minor of order k + 1, and the
    # skipped column k marks a vanishing one.
    _, cols, _, pivots = _gauss_jordan(g.entries)
    for k in range(g.rows):
        minor = pivots[k] if k < len(cols) and cols[k] == k else 0
        if minor <= 0:
            raise DefinitenessError(k + 1, minor)
    return GramMatrix(g)


@dataclass(frozen=True)
class FlowLattice:
    """A full-column-rank basis matrix with its cached Gram matrix."""

    basis: IntegerMatrix
    gram: GramMatrix
    source: RegularMatroid | None = None

    @staticmethod
    def from_basis(basis: IntegerMatrix, source: RegularMatroid | None = None) -> "FlowLattice":
        lat = FlowLattice(basis, gram_of(basis), source)
        if source is not None:
            prod = source.rep * basis
            if any(x for row in prod.entries for x in row):
                raise MembershipError("basis columns are not flows of the source matroid")
        return lat

    @property
    def ambient(self) -> int:
        return self.basis.rows

    @property
    def lattice_rank(self) -> int:
        return self.basis.cols

    def vector(self, coefficients) -> FlowVector:
        """Ambient vector of an integer coefficient tuple."""
        col = IntegerMatrix.from_columns([list(coefficients)])
        return FlowVector.of((self.basis * col).column(0))

    def coefficients(self, v: FlowVector) -> tuple[int, ...]:
        """Solve basis . x = v over the rationals and demand integrality.

        Gauss-Jordan on [basis | v] ends at [d I; 0 | d x; rest]: v is in
        the rational span iff the rest is zero, and x is integral iff d
        divides every entry of d x.
        """
        if len(v.coords) != self.ambient:
            raise DimensionError("vector length differs from the ambient dimension")
        s = self.lattice_rank
        rows, cols, _, pivots = _gauss_jordan(
            [row + (b,) for row, b in zip(self.basis.entries, v.coords)], s)
        if len(cols) < s or any(row[s] for row in rows[s:]):
            raise MembershipError("vector lies outside the rational span of the basis")
        d = pivots[-1] if pivots else 1
        if any(row[s] % d for row in rows[:s]):
            raise MembershipError("vector is a rational but not integral combination")
        return tuple(row[s] // d for row in rows[:s])


def _unpermute_rows(mat: IntegerMatrix, perm) -> IntegerMatrix:
    """Row i of mat describes ambient position perm[i]; undo the permutation."""
    rows = [None] * mat.rows
    for i, p in enumerate(perm):
        rows[p] = list(mat.entries[i])
    return IntegerMatrix.from_rows(rows)


def fundamental_basis(m: RegularMatroid, base=None) -> FlowLattice:
    """Signed fundamental-circuit flows of a base, as basis columns.

    Column j is the flow through the j-th non-base element, supported on
    its fundamental circuit; the stacked form is [-L; I_s] before the
    ground order is restored.
    """
    if base is None:
        base = first_base(m)
    sf = coordinatize(m, base)
    s = m.corank
    u = (-sf.l_block).vstack(IntegerMatrix.identity(s))
    basis = _unpermute_rows(u, sf.perm)
    return FlowLattice.from_basis(basis, source=m)


def cut_basis(m: RegularMatroid, base=None) -> FlowLattice:
    """Rows of the coordinatized representation, as cut-lattice basis columns."""
    if base is None:
        base = first_base(m)
    sf = coordinatize(m, base)
    basis = _unpermute_rows(sf.matrix.transpose(), sf.perm)
    return FlowLattice.from_basis(basis, source=None)


def _canonical_sign(coords) -> tuple[int, ...]:
    for x in coords:
        if x:
            return tuple(coords) if x > 0 else tuple(-v for v in coords)
    return tuple(coords)


@lru_cache(maxsize=None)
def _circuit_flow(m: RegularMatroid, circuit: tuple[int, ...]) -> FlowVector:
    """The sign-canonical simple flow supported on the given circuit."""
    sub = m.rep.select_columns(circuit)
    k = integer_kernel_basis(sub)
    if k.cols != 1:
        raise MembershipError(f"subset {circuit} does not support a unique flow line")
    local = k.column(0)
    if any(abs(x) != 1 for x in local):
        raise AssertionError("circuit flow is not a unit vector pattern")
    coords = [0] * m.size
    for pos, e in enumerate(circuit):
        coords[e] = local[pos]
    return FlowVector(_canonical_sign(coords))


def simple_flows(m: RegularMatroid, bound: int | None = None) -> list[FlowVector]:
    """Both signed flows for every circuit, sorted by coordinates."""
    out = []
    for c in circuits(m, bound):
        alpha = _circuit_flow(m, c)
        out.append(alpha)
        out.append(-alpha)
    return sorted(out, key=lambda v: v.coords)


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


@dataclass(frozen=True)
class SimpleMetricResult:
    simple: bool
    witness: tuple[FlowVector, FlowVector] | None = None
    witness_inner: int | None = None

    def __bool__(self) -> bool:
        return self.simple


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
