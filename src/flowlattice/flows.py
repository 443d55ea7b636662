"""Lattices of integer flows and cuts.

Fundamental and cut bases (off `matroid.coordinatize`), Gram matrices,
signed-circuit flows (read off the one free column of a Bareiss pass
over a circuit's columns), consistent
decomposition into conforming simple flows (one chain of eliminations
on bitmask supports per run of equal parts, and two passes over a
block of runs that repeats for all its repetitions), and the metric
simplicity test by Fincke-Pohst enumeration of the Gram ellipsoid.
That test walks only the half-ball of possible witnesses: y splits x
with <y, x - y> >= 0 iff Q(2y - x) <= Q(x), so it enumerates the points
t = 2y - x of the parity class of x in the norm ellipsoid of x, in the
lex order of y, and stops at the first one other than +-x.
Definiteness and the exact LDL^T that bounds the enumeration come
from one fraction-free Gauss-Jordan elimination per Gram matrix, which
`gram_of` runs as its check and hands to the `GramMatrix` it returns;
lattice coordinates and circuit flows come from the same core of
`intmat`, so all arithmetic is over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import DimensionError, FlowLatticeError, FormatError, MembershipError
from .gram import GramMatrix, _positive_definite
from .intmat import IntegerMatrix, _content_lines, _gauss_jordan, _integers
from .matroid import RegularMatroid, circuits, coordinatize


@dataclass(frozen=True)
class FlowVector:
    """Integer vector in the ambient edge space."""

    coords: tuple[int, ...]

    @staticmethod
    def of(xs) -> "FlowVector":
        return FlowVector(_integers(xs))

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
    tokens = [t for line in _content_lines(text) for t in line.replace(",", " ").split()]
    try:
        return FlowVector.of(int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"non-integer token in vector text: {exc}") from exc


def gram_of(columns) -> GramMatrix:
    """Exact Gram matrix of independent columns, its LDL^T built by the
    same one elimination that checks it; rejects dependent input."""
    if isinstance(columns, IntegerMatrix):
        b = columns
    else:
        b = IntegerMatrix.from_columns(columns)
    return _positive_definite(b.transpose() * b)


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
        rows, cols, _, pivots, _ = _gauss_jordan(
            [row + (b,) for row, b in zip(self.basis.entries, v.coords)], s)
        if len(cols) < s or any(row[s] for row in rows[s:]):
            raise MembershipError("vector lies outside the rational span of the basis")
        d = pivots[-1] if pivots else 1
        if any(row[s] % d for row in rows[:s]):
            raise MembershipError("vector is a rational but not integral combination")
        return tuple(row[s] // d for row in rows[:s])


def fundamental_basis(m: RegularMatroid, base=None) -> FlowLattice:
    """Signed fundamental-circuit flows of a base (default: the least), as
    basis columns.

    Column j is the flow through the j-th non-base element, supported on
    its fundamental circuit: row j of the standard form's flow rows
    [-L^T I_s], put in ground order.
    """
    sf = coordinatize(m, base)
    return FlowLattice.from_basis(sf.ground_columns(sf.flow_rows), source=m)


def cut_basis(m: RegularMatroid, base=None) -> FlowLattice:
    """Rows of the representation coordinatized at a base (default: the
    least), as cut-lattice basis columns."""
    sf = coordinatize(m, base)
    return FlowLattice.from_basis(sf.ground_columns(sf.matrix), source=None)


def _canonical_sign(coords) -> tuple[int, ...]:
    for x in coords:
        if x:
            return tuple(coords) if x > 0 else tuple(-v for v in coords)
    return tuple(coords)


def _circuit_flow(m: RegularMatroid, circuit: tuple[int, ...]) -> FlowVector:
    """The sign-canonical simple flow supported on the given circuit.

    A Bareiss pass over the circuit's columns, ending at d times their
    reduced row echelon form, leaves one free column f, so the kernel is
    spanned by d e_f - sum_k row_k[f] e_{c_k} (c_k the pivot columns);
    the pivots of a TU matrix are +-1, so that vector over d is the flow.
    """
    rows, cols, _, pivots, _ = _gauss_jordan(m.rep.select_columns(circuit).entries)
    free = [j for j in range(len(circuit)) if j not in cols]
    if len(free) != 1:
        raise MembershipError(f"subset {circuit} does not support a unique flow line")
    f, d = free[0], pivots[-1] if pivots else 1
    local = [d] * len(circuit)
    for c, row in zip(cols, rows):
        local[c] = -row[f]
    if any(abs(x) != abs(d) for x in local):
        raise FlowLatticeError("circuit flow is not a unit vector pattern")
    coords = [0] * m.size
    for e, x in zip(circuit, local):
        coords[e] = x // d
    return FlowVector(_canonical_sign(coords))


def simple_flows(m: RegularMatroid) -> list[FlowVector]:
    """Both signed flows for every circuit, sorted by coordinates."""
    circuits(m)  # the corank gate
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

    One chain serves a whole run of equal parts.  Write its steps as
    (C_i, e_i, c_i), rest_0 = v and rest_i = rest_{i-1} - c_i alpha_i,
    so that rest_{k-1} = c_k alpha.  The run length T is the least of
    c_k and of |rest_{i-1}[j]| - c_i + [j > e_i] over i < k and j in
    C_i & C_k.  For 0 <= t < T the chain from v - t alpha makes the
    same choices, each rest shifted by -t alpha, and ends at alpha: a
    step changes only values on its circuit, never flips a sign (c_i is
    the least |value| there) and zeroes e_i, so e_i is not in C_k and
    every rest agrees with alpha in sign on C_k; the shift lowers those
    |values| by t and keeps the others.  The bound keeps each e_i least
    under (|value|, index), and with it C_i, alpha_i and c_i, and keeps
    the values on C_k nonzero, and with them every support (a value on
    C_k that no earlier step touches is c_k); the last support is C_k,
    whose only circuit is C_k itself.  At t = T the chain first differs
    by zeroing an element of C_k, or ends a step early at alpha_{k-1},
    so the next chain starts a new run: there is one chain per run.

    One pass over a block of runs serves every repetition of it.  A
    run's signature is the start's positive-sign mask, (support, e_i)
    at each step, and T; its slacks, which stay >= 0, are
    c_i - 1 at each step, |rest_{i-1}[j]| - c_i - [j < e_i] for j in C_i,
    and b - T for each candidate b of T.  When the last p signatures
    repeat the p before them, the block has run from v_0 (s = 0) and from
    v_1 = v_0 - d (s = 1).  Fix its decisions (circuit, e_i, sign and T):
    then from v_s = v_0 - s d every value is affine in s, as c_i is the
    signed value at e_i and no sign flips.  A slack that is >= 0 on
    [0, S] keeps each sign, each argmin and each nonzero value (every
    element of a support is zeroed later, so it sits in a later step's
    circuit, where its slack gives |value| >= c >= 1); a value that is
    zero at s = 0 and s = 1 is zero for every s, so every support is
    kept; and T, a minimum of affine candidates, is concave, equal at
    s = 0 and s = 1 and >= T on [0, S], hence constant there.  So the
    block repeats exactly for s = 0, ..., S, where S is the least
    floor(sigma_0 / (sigma_0 - sigma_1)) over the slacks that fall from
    sigma_0 to sigma_1, and the flow goes on from v_0 - (S + 1) d.  Every
    part agrees in sign with the flow, so d != 0 lowers the mass, and a
    block whose slacks never fall cannot repeat forever.

    The argument holds for any two whole copies, so a run is matched with
    every earlier run of its signature, nearest first, while two copies
    still fit.  The first pair with S >= 2 jumps; S = 1 leaves the flow
    where the runs already took it, so the history is kept, and a block
    nested in a longer period does not hide that period.
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
    masks = m._sorted_circuit_masks
    first: dict[int, int] = {}

    def chain(current, supp):
        """The part, its run length T, the run's signature and its slacks."""
        rest, left, steps, picks, slacks = current[:], supp, [], [], []
        while left:
            k = first.get(left)
            if k is None:
                k = next((j for j, cm in enumerate(masks) if not cm & ~left), None)
                if k is None:
                    raise FlowLatticeError("broken invariant: no circuit inside a flow's support")
                first[left] = k
            circ, pair = circs[k], pairs[k]
            sizes = [abs(rest[j]) for j in circ]
            c = min(sizes)
            e = circ[sizes.index(c)]
            alpha = pair[pair[0].coords[e] * rest[e] < 0]
            a = alpha.coords
            steps.append((circ, e, c, sizes))
            picks.append((left, e))
            slacks.append(c - 1)
            slacks += [size - c - (j < e) for j, size in zip(circ, sizes)]
            for j in circ:
                rest[j] -= c * a[j]
                if not rest[j]:
                    left &= ~(1 << j)
            if rest[e]:
                raise FlowLatticeError("broken invariant: a chain step left its element nonzero")
        # T is read off the |rest_{i-1}[j]| that each step stored as its sizes
        run, last_mask = steps.pop()[2], masks[k]
        candidates = [run] + [size - c + (j > e) for ci, e, c, sizes in steps
                              for j, size in zip(ci, sizes) if last_mask >> j & 1]
        run = min(candidates)
        if run < 1:
            raise FlowLatticeError(f"broken invariant: run length {run} < 1")
        slacks += [b - run for b in candidates]
        positive = sum(1 << j for j, x in enumerate(current) if x > 0)
        return alpha, run, (positive, tuple(picks), run), slacks

    parts: list[FlowVector] = []
    current = list(beta.coords)
    supp = sum(1 << e for e, x in enumerate(current) if x)
    runs_of: dict[tuple, list] = {}  # signature -> indices of its runs in history
    history: list[tuple] = []        # (signature, slacks, start, parts before) per run
    while supp:
        alpha, run, sig, slacks = chain(current, supp)
        r = len(history)
        history.append((sig, slacks, current[:], len(parts)))
        parts += [alpha] * run
        a = alpha.coords
        for j, x in enumerate(a):
            if x:
                current[j] -= run * x
                if not current[j]:
                    supp &= ~(1 << j)
        earlier = runs_of.setdefault(sig, [])
        earlier.append(r)
        for i in reversed(earlier[:-1]):
            if 2 * i + 1 < r:
                break
            if any(history[i - q][0] != history[r - q][0] for q in range(1, r - i)):
                continue
            # runs i+1-p..i and i+1..r (p = r - i) are one block at s = 0 and s = 1
            lo, hi = history[2 * i + 1 - r:i + 1], history[i + 1:]
            falls = [x // (x - y) for h0, h1 in zip(lo, hi)
                     for x, y in zip(h0[1], h1[1]) if y < x]
            if not falls:
                raise FlowLatticeError("broken invariant: a repeating block lowers no slack")
            s = min(falls)
            if s > 1:
                parts += parts[hi[0][3]:] * (s - 1)
                current = [x0 - (s + 1) * (x0 - x1) for x0, x1 in zip(lo[0][2], hi[0][2])]
                supp = sum(1 << e for e, x in enumerate(current) if x)
                runs_of.clear()
                history.clear()
                break
    return parts


@dataclass(frozen=True)
class SimpleMetricResult:
    simple: bool
    witness: tuple[FlowVector, FlowVector] | None = None
    witness_inner: int | None = None

    def __bool__(self) -> bool:
        return self.simple


def enumerate_coefficients(gram: GramMatrix, norm: int, parity=None):
    """All integer coefficient tuples y with y^T.G.y <= norm, lex order.

    Fincke-Pohst: a depth-first walk whose nodes all lie in projections
    of the ellipsoid, so the cost is its points and the nodes above them,
    not the bounding box.  With H the Gram matrix in reversed order
    (z_i = y_{s-1-i}, so y_1 is the outermost variable and the points
    come out in lex order), the form scaled by N is sum_k w_k L_k^2 with
    integer weights w_k and L_k = p_k z_k + c_k, c_k depending on
    z_{k+1..} only (`GramMatrix._ldl`, built once per Gram matrix).
    Level k keeps exactly the z_k with w_k L_k^2 <= R, the budget left
    of N * norm.  Given a `parity` tuple, only the y with
    y_i = parity_i (mod 2) are walked: each level starts at its first
    value of that parity and steps by 2.

    A negative norm yields nothing; a singular Gram matrix raises
    FormatError and a nonsingular one that is not positive definite
    raises DefinitenessError.
    """
    s = gram.order
    u, p, w, n = gram._ldl
    if parity is not None and len(parity) != s:
        raise DimensionError("parity length differs from the Gram order")
    if norm < 0:
        return
    if not s:
        yield (), 0
        return
    step = 1 if parity is None else 2
    par = [0] * s if parity is None else [x % 2 for x in parity[::-1]]
    top = n * norm
    z, c, hi = [0] * s, [0] * s, [0] * s
    budget = [0] * s + [top]
    k = s - 1
    while True:
        # open level k: the range of z_k under the budget left by z_{k+1..}
        row, pk = u[k], p[k]
        c[k] = ck = sum(row[j] * z[j] for j in range(k + 1, s))
        t = isqrt(budget[k + 1] // w[k])
        lo, hi[k] = -((t + ck) // pk), (t - ck) // pk
        lo += (par[k] - lo) % step
        if k:
            z[k] = lo - step
        else:
            head, spent = tuple(z[:0:-1]), top - budget[1]
            for z0 in range(lo, hi[0] + 1, step):
                lk = pk * z0 + ck
                yield head + (z0,), (spent + w[0] * lk * lk) // n
            k = 1
        # step the innermost level that has values left, then descend
        while k < s and z[k] + step > hi[k]:
            k += 1
        if k == s:
            return
        z[k] += step
        lk = p[k] * z[k] + c[k]
        budget[k] = budget[k + 1] - w[k] * lk * lk
        k -= 1


def is_simple_metric(lat: FlowLattice, alpha) -> SimpleMetricResult:
    """Metric simplicity: every two-part split has negative inner product.

    A split x = y + (x - y) with y not 0 or x is a witness when
    <y, x - y> >= 0.  Since 4 <y, x - y> = Q(x) - Q(2y - x), the
    witnesses are the lattice points t = 2y - x with t = x (mod 2) and
    Q(t) <= Q(x), other than t = x and t = -x: the half-ball of centre
    x/2 and radius |x|/2, walked as the parity class of x in the norm
    ellipsoid of x.  The map y -> 2y - x keeps lex order, so the first
    such t gives the lexicographically least witness y, and its inner
    product is (Q(x) - Q(t)) / 4.
    """
    if isinstance(alpha, FlowVector):
        x = lat.coefficients(alpha)
    else:
        x = _integers(alpha)
        if len(x) != lat.lattice_rank:
            raise DimensionError("coefficient length differs from lattice rank")
    if not any(x):
        raise FormatError("simple elements are nonzero")
    g = lat.gram.mat.entries
    norm = sum(a * gij * b for a, row in zip(x, g) for gij, b in zip(row, x))
    neg = tuple(-a for a in x)
    for t, qt in enumerate_coefficients(lat.gram, norm, parity=x):
        if t != x and t != neg:
            y = tuple((a + b) // 2 for a, b in zip(x, t))
            z = tuple(a - b for a, b in zip(x, y))
            return SimpleMetricResult(False, (lat.vector(y), lat.vector(z)), (norm - qt) // 4)
    return SimpleMetricResult(True)
