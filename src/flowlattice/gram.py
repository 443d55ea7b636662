"""Taxonomy of symmetric integer matrices with positive diagonal.

The f and g tables on the positive complex, the nonnegativity/positivity
flags, the canonical {0,1} skeleton, and the decision of realizability
as U^T.U for a totally unimodular U: every sign of the one certificate
that can be TU is read off the matrix, and that matrix is checked once.
The decision works on the skeleton's distinct supports S with their
multiplicities g(S): each is signed once, the TU verdict reads each once,
and U^T U is summed as g(S) u_S^T u_S; only the result is expanded to
its g(S) copies of each row.
`tu_signing` signs any {0,1} matrix by Camion's construction, for the
`signing` verb.
Each `GramMatrix` also keeps the exact LDL^T that bounds the
Fincke-Pohst walks of `flows`: the pivot rows of one Bareiss pass over
the reversed matrix, whose pivots also decide positive definiteness.
It is built on first use, or by `flows.gram_of` in its check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import DefinitenessError, DimensionError, FlowLatticeError, FormatError
from .intmat import (
    IntegerMatrix,
    _content_lines,
    _gate,
    _gauss_jordan,
    _tu_verdict,
    parse_matrix,
)
from .network import _mask_elements


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix with positive diagonal entries."""

    mat: IntegerMatrix

    def __post_init__(self):
        if not self.mat.is_square:
            raise DimensionError("Gram matrix must be square")
        e = self.mat.entries
        for i in range(self.order):
            if e[i][i] <= 0:
                raise FormatError(f"diagonal entry a[{i}][{i}] = {e[i][i]} is not positive")
            for j in range(i):
                if e[i][j] != e[j][i]:
                    raise FormatError(f"asymmetry at ({i},{j})")

    @staticmethod
    def from_rows(rows) -> "GramMatrix":
        return GramMatrix(IntegerMatrix.from_rows(rows))

    @property
    def order(self) -> int:
        return self.mat.rows

    def entry(self, i: int, j: int) -> int:
        return self.mat.entries[i][j]

    def text(self) -> str:
        body = self.mat.text().split("\n", 1)[1]
        return f"gram {self.order}\n" + body

    @cached_property
    def _ldl(self) -> tuple:
        """`_factor` of the matrix, built once.  A singular matrix raises
        FormatError and a nonsingular one that is not positive definite
        raises DefinitenessError; an error is not stored, so it is raised
        again on every access."""
        factor = _factor(self.mat.entries)
        if factor is None:
            rank, error = _least_failing_minor(self.mat.entries)
            raise FormatError("Gram matrix is singular") if rank < self.order else error
        return factor


def _factor(g) -> tuple | None:
    """The exact LDL^T of the reversed symmetric matrix g, from one
    Bareiss pass; None if g is not positive definite.

    With H the matrix in reversed order and u_k the pivot row chosen at
    step k (row k of H's forward Bareiss form),
    H = sum_k u_k^T u_k / (p_k p_{k-1}), where p_k = u_k[k] is the
    leading minor of order k + 1 and p_{-1} = 1; N is the lcm of the
    p_k p_{k-1} and w_k = N / (p_k p_{k-1}), so N H = sum_k w_k u_k^T u_k
    over the integers.  By Sylvester's criterion on H, g is positive
    definite iff the pass pivots down the diagonal, with no skip or swap,
    on positive pivots only.
    """
    s = len(g)
    _, cols, order, p, u = _gauss_jordan([row[::-1] for row in g[::-1]])
    if len(cols) < s or order != cols or min(p, default=1) <= 0:
        return None
    den = [a * b for a, b in zip(p, [1] + p)]
    n = lcm(*den)
    return u, p, [n // d for d in den], n


def _least_failing_minor(g) -> tuple[int, DefinitenessError]:
    """The rank of a symmetric matrix g that is not positive definite, and
    the DefinitenessError of its least leading minor <= 0 (Sylvester's
    criterion), both from g's own Bareiss pass.

    Up to the first vanishing leading minor no column is skipped and no
    row is swapped, so pivot k is the leading minor of order k + 1; a
    skipped column or a swap at step k marks a vanishing one.
    """
    _, cols, order, pivots, _ = _gauss_jordan(g)
    for k in range(len(g)):
        minor = pivots[k] if k < len(cols) and cols[k] == k and order[k] == k else 0
        if minor <= 0:
            return len(cols), DefinitenessError(k + 1, minor)
    raise FlowLatticeError("broken invariant: a matrix that is not positive "
                           "definite has positive leading minors")


def _positive_definite(mat: IntegerMatrix) -> GramMatrix:
    """The GramMatrix of a positive definite mat with its factor built;
    any other mat, singular or not, raises `_least_failing_minor`'s error."""
    factor = _factor(mat.entries)
    if factor is None:
        raise _least_failing_minor(mat.entries)[1]
    a = GramMatrix(mat)
    vars(a)["_ldl"] = factor
    return a


def parse_gram(text: str) -> GramMatrix:
    """Gram file: line "gram s" then s rows of s integers."""
    lines = _content_lines(text)
    if not lines or lines[0].split()[0] != "gram":
        raise FormatError("gram file must start with 'gram s'")
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("gram header must be 'gram s'")
    try:
        s = int(head[1])
    except ValueError as exc:
        raise FormatError(f"non-integer order in gram header: {exc}") from exc
    mat = parse_matrix(f"{s} {s}\n" + "\n".join(lines[1:]))
    return GramMatrix(mat)


def f_table(a: GramMatrix) -> dict[int, int]:
    """f on the empty set and the positive complex P, the subsets with
    f > 0, as {mask: f(mask)} in ascending mask order: f(empty) = 0,
    f({i}) = a_ii, and a larger S has f(S) = 0 if it holds a zero a_ij or
    a negative triple (a_hi a_ij a_jh < 0), else the least |a_ij| over its
    pairs.

    P is closed under subsets and built one top element t at a time.
    S + t, with u the top of S, has every pair and every triple of S and of
    S - u + t, besides the pair {u, t} and the triples {j, u, t}.  So it is
    in P iff S and S - u + t are, a_ut != 0 and no j in S closes a negative
    triple with u and t; its least |a_ij| is the least of theirs and |a_ut|.
    """
    s = _gate("subset", "matrix order", a.order)
    e = a.mat.entries
    f = {0: 0}
    for t in range(s):
        bit, row = 1 << t, e[t]
        # closing[u]: the j < u whose triple with u and t is negative, as a mask
        closing = [sum(1 << j for j in range(u) if e[j][u] * row[u] * row[j] < 0)
                   for u in range(t)]
        members = list(f)[1:]
        f[bit] = row[t]
        # ascending, so S - u + t is in the table before S + t is tried
        for mask in members:
            u = mask.bit_length() - 1
            if not row[u] or closing[u] & mask:
                continue
            rest = mask ^ (1 << u)
            if not rest:
                f[mask | bit] = abs(row[u])
            elif rest | bit in f:
                f[mask | bit] = min(f[mask], f[rest | bit], abs(row[u]))
    return f


def g_table(a: GramMatrix) -> dict[int, int]:
    """Alternating superset sums of a's `f_table`, via the subset-lattice
    transform on its keys.  Every superset of a set outside P is outside
    P, so g vanishes there."""
    g = f_table(a)
    for i in range(a.order):
        bit = 1 << i
        for mask in g:
            if not mask & bit:
                g[mask] -= g.get(mask | bit, 0)
    return g


@dataclass(frozen=True)
class Classification:
    g_nonnegative: bool
    g_positive: bool
    witness: tuple[int, ...] | None = None  # subset violating the failed flag

    def __bool__(self) -> bool:
        return self.g_nonnegative

    def refusal(self) -> str:
        """The failed g-nonnegativity with its witness subset, 1-based."""
        return f"NOT-G-NONNEGATIVE {_subset_text(self.witness)}"


def _subset_text(subset) -> str:
    """A subset of 0-based indices, written 1-based: S={1,3}."""
    return "S={" + ",".join(str(i + 1) for i in subset) + "}"


def _classify_table(a: GramMatrix) -> tuple[Classification, dict]:
    """The classification together with the g table it was read from."""
    s = a.order
    g = g_table(a)
    for mask, v in g.items():
        if mask and v < 0:
            return Classification(False, False, tuple(_mask_elements(mask))), g
    for i in range(s):
        if g[1 << i] == 0:
            return Classification(True, False, (i,)), g
    # derived identity: the empty-set value balances the rest
    if sum(g.values()) or g[0] > -s:
        raise FlowLatticeError(f"g table of a g-positive matrix has g(empty) = {g[0]}")
    return Classification(True, True), g


def classify(a: GramMatrix) -> Classification:
    return _classify_table(a)[0]


def _skeleton(cls: Classification, g: dict[int, int]) -> list[tuple[tuple[int, ...], int]]:
    """The distinct rows of `build_x`, in its order, each with its
    multiplicity: every support S with g(S) > 0, once, as a {0,1} row
    with g(S)."""
    if not cls.g_nonnegative:
        raise FormatError(f"matrix is not g-nonnegative; witness {_subset_text(cls.witness)}")
    # the top singleton is in the table; g(empty) = -k is never positive
    s = max(g).bit_length()
    rows = [(tuple(mask >> i & 1 for i in range(s)), v) for mask, v in g.items() if v > 0]
    # larger supports first, then descending lexicographic order: the
    # singletons sort last, in ascending index order
    rows.sort(key=lambda rv: (sum(rv[0]), rv[0]), reverse=True)
    k = sum(v for _, v in rows)
    if k != -g[0]:
        raise FlowLatticeError(f"skeleton has {k} rows, g(empty) = {g[0]}")
    return rows


def _expand(rows, s: int) -> IntegerMatrix:
    """The matrix of width s that repeats each distinct row as many times
    as its multiplicity says.  A multiplicity past the index range is
    refused at once, with OverflowError, by the list product."""
    out = []
    for row, v in rows:
        out += [row] * v
    return IntegerMatrix(tuple(out), empty_cols=s)


def build_x(a: GramMatrix) -> IntegerMatrix:
    """The {0,1} row-multiset encoding the positive subset values: g(S)
    copies of the row of each support S.

    Rows sorted by descending support size then descending lexicographic
    order; for a positive classification the singleton rows are placed
    last, forming an identity block.
    """
    return _expand(_skeleton(*_classify_table(a)), a.order)


def _signing_skeleton(x: IntegerMatrix):
    """Spanning-forest position fixing for the signing.

    Positions on a spanning forest of the bipartite row-column graph may
    be fixed to +1: negating rows and columns moves any signing there, to
    exactly one matrix.  Row i is node i and column j node x.rows + j.
    Returns (forest_positions, free_positions), each in row-major order.
    """
    m = x.rows
    parent = list(range(m + x.cols))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    forest, free = [], []
    for i, row in enumerate(x.entries):
        for j, v in enumerate(row):
            if v:
                if v != 1:
                    raise FormatError("signing expects a {0,1} matrix")
                ru, rv = find(i), find(m + j)
                if ru == rv:
                    free.append((i, j))
                else:
                    parent[ru] = rv
                    forest.append((i, j))
    return forest, free


def _camion_signing(x: IntegerMatrix, forest, free) -> IntegerMatrix:
    """The one signing of x, up to row and column negation, that can be TU.

    Forest entries are +1.  Each free entry is signed so that a cycle it
    closes through signed entries, with no chord in x, sums to 0 mod 4: a
    TU matrix makes such a cycle singular (Camion 1965).  Each pass walks
    the waiting entries in row-major order and signs every one that closes
    a 4-cycle with three signed entries, since a 2x2 block has no room for
    a chord.  Signing only adds 4-cycles, so when a pass signs nothing, no
    order of passes could sign more.  Then the first waiting entry takes
    its shortest path through signed entries; while another waiting entry
    joins a row and a column of that path, it has a shorter path and takes
    over, so the cycle finally closed has no chord in x.  Each later pass
    re-tests only the waiting entries (k, l) that an entry (i, j) signed
    since the last pass can complete: k = i, l = j, or (k, j) and (i, l)
    signed; any other entry fails as it did.
    """
    m, n = x.rows, x.cols
    cand = [list(r) for r in x.entries]
    # bit j of rows[i] and bit i of cols[j]: entry (i, j) is signed
    rows, cols = [0] * m, [0] * n
    for i, j in forest:
        rows[i] |= 1 << j
        cols[j] |= 1 << i

    def sign(i, j, total):
        cand[i][j] = 1 if (total + 1) % 4 == 0 else -1
        rows[i] |= 1 << j
        cols[j] |= 1 << i

    waiting = tested = list(free)
    while waiting:
        # masks of the rows and columns of the entries signed since the last pass
        new_rows = new_cols = 0
        for i, j in tested:
            total = _four_cycle(cand, rows, cols, i, j)
            if total is not None:
                sign(i, j, total)
                new_rows |= 1 << i
                new_cols |= 1 << j
        if not new_rows:
            i, j = waiting[0]
            while True:
                prev = _bfs(rows, cols, i)
                path = [m + j]
                while path[-1] != i:
                    path.append(prev[path[-1]])
                on = set(path)
                chord = next(((k, l) for k, l in waiting
                              if k in on and m + l in on and (k, l) != (i, j)), None)
                if chord is None:
                    break
                i, j = chord
            sign(i, j, sum(cand[min(u, v)][max(u, v) - m] for u, v in zip(path, path[1:])))
            new_rows, new_cols = 1 << i, 1 << j
        waiting = [(k, l) for k, l in waiting if not rows[k] >> l & 1]
        # k or l is the line of a new entry, or (k, j) and (i, l) are signed for
        # a new row i and a new column j: all that a new entry can complete
        tested = [(k, l) for k, l in waiting if new_rows >> k & 1 or new_cols >> l & 1
                  or rows[k] & new_cols and cols[l] & new_rows]
    return IntegerMatrix(tuple(map(tuple, cand)), empty_cols=n)


def _four_cycle(cand, rows, cols, i, j):
    """The sum of the other entries of a signed 4-cycle through (i, j) of
    `_camion_signing`'s candidate, or None; rows and cols are its masks of
    signed entries."""
    for jj in _mask_elements(rows[i]):
        common = cols[j] & cols[jj]
        if common:
            ii = (common & -common).bit_length() - 1
            return cand[i][jj] + cand[ii][jj] + cand[ii][j]
    return None


def _bfs(rows, cols, source) -> dict:
    """node -> the node before it on a shortest path from row `source`
    through signed entries, breadth first; row i is node i and column j
    node len(rows) + j."""
    m = len(rows)
    prev, queue = {source: None}, [source]
    for u in queue:
        near = (m + j for j in _mask_elements(rows[u])) if u < m else \
            _mask_elements(cols[u - m])
        for v in near:
            if v not in prev:
                prev[v] = u
                queue.append(v)
    return prev


def tu_signing(x: IntegerMatrix) -> IntegerMatrix | None:
    """A totally unimodular matrix with entrywise absolute value x, if any."""
    cand = _camion_signing(x, *_signing_skeleton(x))
    return cand if _tu_verdict(cand.entries) else None


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    certificate: IntegerMatrix | None = None
    classification: Classification | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.feasible


def _certificate(supports, a: GramMatrix) -> list[tuple[tuple[int, ...], int]]:
    """The one matrix with support x and column Gram matrix a that can be
    TU, up to row negation, with the rows signed as `tu_signing(x)` would
    sign them once its columns were signed to match a; x is given by its
    distinct rows with their multiplicities (`_skeleton`), and so is the
    certificate, each support signed once.

    Each row of x is the support S of a subset with g(S) > 0, so f(S) > 0:
    every a_ij with i, j in S is nonzero and every triple in S is
    positive.  The rows of x through i and j number f({i, j}) = |a_ij|
    (Moebius inversion), so in any certificate the |a_ij| products
    u_ri u_rj, each +-1, sum to a_ij and each is sign(a_ij).  A certificate
    row is therefore +- the row that is +1 at the least element b of S
    and sign(a_bj) at every other j; negating rows keeps both TU-ness and
    the Gram matrix, so a is feasible iff that matrix is TU.  The g(S)
    copies of a support are signed alike, so each is signed once here.

    Row r is negated by f_b.  The f are the column signs of the signing
    that is +1 on `_signing_skeleton`'s forest: the least column of each
    component is +1, and along each forest entry (r, j) with j > b,
    f_j = f_b sign(a_bj).  Row-major, (r, j) is a forest entry iff j and b
    are not yet joined, so a repeated row holds no forest entry; each join
    relabels the component of the larger least column.
    """
    e, s = a.mat.entries, a.order
    comp, f = list(range(s)), [1] * s
    rows = []
    for support, v in supports:
        b = support.index(1)
        row = tuple(x if j == b or e[b][j] > 0 else -x for j, x in enumerate(support))
        for j in range(b + 1, s):
            if row[j] and comp[j] != comp[b]:
                keep, gone = sorted((comp[b], comp[j]))
                flip = f[b] * row[j] * f[j]
                for k in range(s):
                    if comp[k] == gone:
                        comp[k], f[k] = keep, f[k] * flip
        rows.append((b, row, v))
    return [(row if f[b] > 0 else tuple(-x for x in row), v) for b, row, v in rows]


def _column_gram(rows, s: int) -> tuple[tuple[int, ...], ...]:
    """U^T U for the matrix U of width s that repeats each distinct row u
    by its multiplicity v: the sum of v u^T u, over the nonzero entries of
    each u."""
    gram = [[0] * s for _ in range(s)]
    for row, v in rows:
        on = [(j, x) for j, x in enumerate(row) if x]
        for i, x in on:
            line, vx = gram[i], v * x
            for j, y in on:
                line[j] += vx * y
    return tuple(map(tuple, gram))


def is_g_feasible(a: GramMatrix) -> Feasibility:
    """The TU certificate whose column Gram matrix equals a, if any.

    Pipeline: classification gate, the skeleton's distinct supports with
    their multiplicities g(S) (`_skeleton`), the one certificate that can
    be TU read off a with each support signed once (`_certificate`), then
    the TU verdict of its distinct rows: repeated rows never change total
    unimodularity.  The Gram-back invariant U^T U = a is checked as the
    sum of g(S) u_S^T u_S over the signed supports u_S, and the
    certificate is expanded to its rows only for the result.
    """
    cls, g = _classify_table(a)
    if not cls.g_nonnegative:
        return Feasibility(False, None, cls, cls.refusal())
    cert = _certificate(_skeleton(cls, g), a)
    if not _tu_verdict(tuple(row for row, _ in cert)):
        return Feasibility(False, None, cls, "NO-MATCHING-SIGNING")
    if _column_gram(cert, a.order) != a.mat.entries:
        raise FlowLatticeError("signed certificate does not Gram back to the input")
    return Feasibility(True, _expand(cert, a.order), cls)
