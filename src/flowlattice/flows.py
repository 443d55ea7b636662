"""Lattices of integer flows and cuts.

Fundamental bases, Gram matrices, signed-circuit flows, consistent
decomposition into conforming simple flows (one loop over bitmask
supports), and the metric simplicity test by Fincke-Pohst enumeration of
the Gram ellipsoid.  Definiteness, lattice coordinates and the exact
LDL^T that bounds the enumeration come from the fraction-free
Gauss-Jordan elimination of `intmat`, so all arithmetic is over the
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

from .errors import (
    DefinitenessError,
    DimensionError,
    FlowLatticeError,
    FormatError,
    MembershipError,
)
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
    _, cols, order, pivots = _gauss_jordan(g.entries)
    _require_positive_minors(cols, order, pivots, g.rows)
    return GramMatrix(g)


def _require_positive_minors(cols, order, pivots, n: int) -> None:
    """Sylvester's criterion on the elimination of a symmetric n x n matrix.

    Up to the first vanishing leading minor no column is skipped and no
    row is swapped, so pivot k is the leading minor of order k + 1; a
    skipped column or a swap at step k marks a vanishing one.
    """
    for k in range(n):
        minor = pivots[k] if k < len(cols) and cols[k] == k and order[k] == k else 0
        if minor <= 0:
            raise DefinitenessError(k + 1, minor)


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


def _circuit_flow(m: RegularMatroid, circuit: tuple[int, ...]) -> FlowVector:
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


def simple_flows(m: RegularMatroid, bound: int | None = None) -> list[FlowVector]:
    """Both signed flows for every circuit, sorted by coordinates."""
    circuits(m, bound)  # the ground-size gate
    return sorted((v for pair in m._signed_pairs for v in pair), key=lambda v: v.coords)


def consistent_decompose(lat: FlowLattice, beta: FlowVector) -> list[FlowVector]:
    """Express a flow as a sum of simple flows, support- and sign-consistently.

    Deterministic: each part comes from a chain of steps on the rest of
    the flow.  A step takes the first circuit, in (size, lex) order, whose
    bitmask lies inside the support of the current vector, signs its flow
    alpha to agree with the vector at the element e of least |value|
    (least index on ties), and subtracts |value at e| * alpha.  The chain
    ends at the alpha that leaves zero; that alpha is the part, and the
    next part starts from the flow minus the parts so far.  The support
    shrinks at every step, so a chain has at most as many steps as the
    ground set has elements.  Within one call, supports already met map
    to their first circuit; each circuit's pair (alpha, -alpha) is built
    once per matroid and shared by every part that uses it.
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
    pairs = m._signed_pairs
    masks = [sum(1 << e for e in c) for c in circs]
    first: dict[int, int] = {}
    parts: list[FlowVector] = []
    current = beta.coords
    while any(current):
        rest = current
        while True:
            supp = sum(1 << e for e, x in enumerate(rest) if x)
            k = first.get(supp)
            if k is None:
                k = first[supp] = next(j for j, cm in enumerate(masks) if not cm & ~supp)
            pair = pairs[k]
            e = min(circs[k], key=lambda j: (abs(rest[j]), j))
            alpha = pair[pair[0].coords[e] * rest[e] < 0]
            c = abs(rest[e])
            rest = tuple(x - c * a for x, a in zip(rest, alpha.coords))
            if not any(rest):
                break
        parts.append(alpha)
        current = tuple(x - a for x, a in zip(current, alpha.coords))
    return parts


@dataclass(frozen=True)
class SimpleMetricResult:
    simple: bool
    witness: tuple[FlowVector, FlowVector] | None = None
    witness_inner: int | None = None

    def __bool__(self) -> bool:
        return self.simple


def enumerate_coefficients(gram: GramMatrix, bound: int):
    """All integer coefficient tuples y with y^T.G.y <= bound, lex order.

    Fincke-Pohst: a depth-first walk whose nodes all lie in projections
    of the ellipsoid, so the cost is its points and the nodes above them,
    not the bounding box.  With H the Gram matrix in reversed order
    (z_i = y_{s-1-i}, so y_1 is the outermost variable and the points
    come out in lex order) and u_k row k of its forward Bareiss form,
    H = sum_k u_k^T u_k / (p_k p_{k-1}), where p_k = u_k[k] is the
    leading minor of order k + 1 and p_{-1} = 1.  Scaled by the lcm N of
    the p_k p_{k-1}, the form is sum_k w_k L_k^2 with integer weights
    w_k = N / (p_k p_{k-1}) and L_k = p_k z_k + c_k, c_k depending on
    z_{k+1..} only.  Level k keeps exactly the z_k with
    w_k L_k^2 <= R, the budget left of N * bound.

    A negative bound yields nothing; a singular Gram matrix raises
    FormatError and a nonsingular one that is not positive definite
    raises DefinitenessError.
    """
    s = gram.order
    g = gram.mat.entries
    _, cols, order, pivots = _gauss_jordan(g)
    if len(cols) < s:
        raise FormatError("Gram matrix is singular")
    _require_positive_minors(cols, order, pivots, s)
    if bound < 0:
        return
    if not s:
        yield (), 0
        return
    h = [row[::-1] for row in g[::-1]]
    u = [_gauss_jordan(h, k)[0][k] for k in range(s)]
    p = [u[k][k] for k in range(s)]
    den = [a * b for a, b in zip(p, [1] + p)]
    n = lcm(*den)
    w = [n // d for d in den]
    top = n * bound
    z, c, hi = [0] * s, [0] * s, [0] * s
    budget = [0] * s + [top]
    k = s - 1
    while True:
        # open level k: the range of z_k under the budget left by z_{k+1..}
        row, pk = u[k], p[k]
        c[k] = ck = sum(row[j] * z[j] for j in range(k + 1, s))
        t = isqrt(budget[k + 1] // w[k])
        lo, hi[k] = -((t + ck) // pk), (t - ck) // pk
        if k:
            z[k] = lo - 1
        else:
            head, spent = tuple(z[:0:-1]), top - budget[1]
            for z0 in range(lo, hi[0] + 1):
                lk = pk * z0 + ck
                yield head + (z0,), (spent + w[0] * lk * lk) // n
            k = 1
        # step the innermost level that has values left, then descend
        while k < s and z[k] >= hi[k]:
            k += 1
        if k == s:
            return
        z[k] += 1
        lk = p[k] * z[k] + c[k]
        budget[k] = budget[k + 1] - w[k] * lk * lk
        k -= 1


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
    gx = [sum(a * b for a, b in zip(row, x)) for row in lat.gram.mat.entries]
    bound = sum(a * b for a, b in zip(x, gx))
    for y, qy in enumerate_coefficients(lat.gram, bound):
        if not any(y) or y == x:
            continue
        # <y, x - y> = y^T G x - y^T G y
        inner = sum(a * b for a, b in zip(y, gx)) - qy
        if inner >= 0:
            z = tuple(a - b for a, b in zip(x, y))
            return SimpleMetricResult(
                False, (lat.vector(y), lat.vector(z)), inner
            )
    return SimpleMetricResult(True)
