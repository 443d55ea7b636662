"""Taxonomy of symmetric integer matrices with positive diagonal.

Support statistics of subset families, triple classification, the
derived set functions on the subset lattice, the nonnegativity/positivity
flags, the canonical {0,1} skeleton and its TU signing (built directly),
and the decision of realizability as U^T.U for a totally unimodular U.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import DimensionError, FlowLatticeError, FormatError
from .intmat import (
    IntegerMatrix,
    _content_lines,
    _gate,
    _tu_verdict,
    parse_matrix,
    sharp,
)


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


@dataclass(frozen=True)
class SupportFamily:
    """Subsets C_1..C_s of a ground set {0..ground_size-1}, as bitmasks."""

    ground_size: int
    members: tuple[int, ...]

    @staticmethod
    def from_sets(ground_size, sets) -> "SupportFamily":
        masks = []
        for s in sets:
            mask = 0
            for e in s:
                if not 0 <= e < ground_size:
                    raise DimensionError(f"element {e} outside ground set")
                mask |= 1 << e
            masks.append(mask)
        return SupportFamily(ground_size, tuple(masks))

    @property
    def count(self) -> int:
        return len(self.members)


def phi_gamma(family: SupportFamily, subset) -> tuple[int, int]:
    """Intersection size and exact-membership count for a subset of indices.

    The exact count is computed twice -- by the alternating sum over
    supersets and by direct counting -- and the two must agree.
    """
    idx = sorted(set(subset))
    s = family.count
    full = (1 << family.ground_size) - 1

    def phi_of(index_set):
        inter = full
        for i in index_set:
            inter &= family.members[i]
        return bin(inter).count("1")

    phi = phi_of(idx)
    rest = [i for i in range(s) if i not in set(idx)]
    gamma_alt = 0
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            gamma_alt += (-1) ** k * phi_of(idx + list(extra))
    # direct count: elements lying in exactly the C_i with i in the subset
    target = 0
    for i in idx:
        target |= 1 << i
    gamma_direct = 0
    for e in range(family.ground_size):
        membership = 0
        for i in range(s):
            if family.members[i] >> e & 1:
                membership |= 1 << i
        if membership == target:
            gamma_direct += 1
    if gamma_alt != gamma_direct:
        raise FlowLatticeError(
            f"inclusion/exclusion disagrees with direct count: {gamma_alt} != {gamma_direct}"
        )
    return phi, gamma_alt


class TripleSign(Enum):
    POSITIVE = 1
    NULL = 0
    NEGATIVE = -1


def triple_sign(a: GramMatrix, triple) -> TripleSign:
    h, i, j = triple
    if len({h, i, j}) != 3:
        raise DimensionError(f"triple {triple} has repeated indices")
    p = a.entry(h, i) * a.entry(i, j) * a.entry(j, h)
    if p > 0:
        return TripleSign.POSITIVE
    if p < 0:
        return TripleSign.NEGATIVE
    return TripleSign.NULL


def delta(a: GramMatrix) -> tuple[tuple[int, int, int], ...]:
    """All negative triples, ascending."""
    return tuple(
        t for t in itertools.combinations(range(a.order), 3)
        if triple_sign(a, t) is TripleSign.NEGATIVE
    )


def _mask_elements(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def f_value(a: GramMatrix, subset) -> int:
    """The case-split set function on index subsets."""
    idx = sorted(set(subset))
    if not idx:
        return 0
    if len(idx) == 1:
        return a.entry(idx[0], idx[0])
    for t in itertools.combinations(idx, 3):
        if triple_sign(a, t) is TripleSign.NEGATIVE:
            return 0
    return min(abs(a.entry(i, j)) for i, j in itertools.combinations(idx, 2))


def f_table(a: GramMatrix) -> list[int]:
    """`f_value` on every subset mask, each built from two smaller masks.

    A mask of three or more elements, t its top and b its bottom one, has
    every pair and every triple without t or without b, besides the pair
    {b, t} and the triples {b, j, t}.  So it has a negative triple iff
    mask - t or mask - b has one or some j in it closes one with b and t,
    and its least |a_ij| is the least of theirs and |a_bt|.
    """
    s = _gate("subset", "matrix order", a.order)
    e = a.mat.entries
    # closing[b][t]: the j whose triple with b and t is negative, as a mask
    closing = [[sum(1 << j for j in range(s) if e[b][j] * e[j][t] * e[t][b] < 0)
                for t in range(s)] for b in range(s)]
    f = [0] * (1 << s)
    negative = bytearray(1 << s)
    for mask in range(1, 1 << s):
        t = mask.bit_length() - 1
        b = (mask & -mask).bit_length() - 1
        if t == b:
            f[mask] = e[t][t]
            continue
        without_t, without_b = mask ^ (1 << t), mask ^ (1 << b)
        if without_t == 1 << b:
            f[mask] = abs(e[b][t])
        elif negative[without_t] or negative[without_b] or closing[b][t] & mask:
            negative[mask] = 1
        else:
            f[mask] = min(f[without_t], f[without_b], abs(e[b][t]))
    return f


def g_table(a: GramMatrix) -> list[int]:
    """Alternating superset sums of the f table, via the subset-lattice transform."""
    s = a.order
    g = f_table(a)
    for i in range(s):
        bit = 1 << i
        for mask in range(1 << s):
            if not mask & bit:
                g[mask] -= g[mask | bit]
    return g


def g_value(a: GramMatrix, subset) -> int:
    idx = set(subset)
    rest = [i for i in range(a.order) if i not in idx]
    total = 0
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            total += (-1) ** k * f_value(a, list(idx) + list(extra))
    return total


@dataclass(frozen=True)
class Classification:
    g_nonnegative: bool
    g_positive: bool
    witness: tuple[int, ...] | None = None  # subset violating the failed flag

    def __bool__(self) -> bool:
        return self.g_nonnegative


def _classify_table(a: GramMatrix) -> tuple[Classification, list[int]]:
    """The classification together with the g table it was read from."""
    s = a.order
    g = g_table(a)
    for mask in range(1, 1 << s):
        if g[mask] < 0:
            return Classification(False, False, tuple(_mask_elements(mask))), g
    for i in range(s):
        if g[1 << i] == 0:
            return Classification(True, False, (i,)), g
    # derived identity: the empty-set value balances the rest
    if g[0] != -sum(g[mask] for mask in range(1, 1 << s)) or g[0] > -s:
        raise FlowLatticeError(f"g table of a g-positive matrix has g(empty) = {g[0]}")
    return Classification(True, True), g


def classify(a: GramMatrix) -> Classification:
    return _classify_table(a)[0]


def _skeleton(cls: Classification, g: list[int]) -> IntegerMatrix:
    """`build_x` from a matrix's classification and g table."""
    if not cls.g_nonnegative:
        raise FormatError(f"matrix is not g-nonnegative; witness {cls.witness}")
    s = len(g).bit_length() - 1
    rows = []
    for mask in range(1, 1 << s):
        if g[mask] > 0:
            indicator = tuple(1 if mask >> i & 1 else 0 for i in range(s))
            rows.extend([indicator] * g[mask])
    singles = []
    if cls.g_positive:
        singles = sorted(
            [r for r in rows if sum(r) == 1],
            key=lambda r: r.index(1),
        )
        rows = [r for r in rows if sum(r) != 1]
    rows.sort(key=lambda r: (-sum(r), tuple(-x for x in r)))
    rows += singles
    x = IntegerMatrix(tuple(rows), empty_cols=s)
    if x.rows != -g[0]:
        raise FlowLatticeError(f"skeleton has {x.rows} rows, g(empty) = {g[0]}")
    return x


def build_x(a: GramMatrix) -> IntegerMatrix:
    """The {0,1} row-multiset encoding the positive subset values.

    Rows sorted by descending support size then descending lexicographic
    order; for a positive classification the singleton rows are placed
    last, forming an identity block.
    """
    return _skeleton(*_classify_table(a))


def _signing_skeleton(x: IntegerMatrix):
    """Spanning-forest position fixing for the signing.

    Positions on a spanning forest of the bipartite row-column graph may
    be fixed to +1: negating rows and columns moves any signing there, to
    exactly one matrix.  Returns (forest_positions, free_positions).
    """
    for row in x.entries:
        for v in row:
            if v not in (0, 1):
                raise FormatError("signing expects a {0,1} matrix")
    parent: dict = {}

    def find(u):
        while parent.setdefault(u, u) != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    forest, free = [], []
    for i in range(x.rows):
        for j in range(x.cols):
            if x.entries[i][j]:
                ru, rv = find(("r", i)), find(("c", j))
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
    TU matrix makes such a cycle singular (Camion 1965).  An entry that
    closes a 4-cycle with three signed entries is signed at once, since a
    2x2 block has no room for a chord; each signed entry wakes the waiting
    entries it lets close one.  When none is left, a waiting entry takes
    its shortest path through signed entries; while another waiting entry
    joins a row and a column of that path, it has a shorter path and takes
    over, so the cycle finally closed has no chord in x.
    """
    m, n = x.rows, x.cols
    cand = [list(r) for r in x.entries]
    # bit j of rows[i] and bit i of cols[j]: entry (i, j) is signed;
    # likewise waiting[i] and waiting_cols[j] for entries that close no 4-cycle yet
    rows, cols = [0] * m, [0] * n
    waiting, waiting_cols = [0] * m, [0] * n
    for i, j in forest:
        rows[i] |= 1 << j
        cols[j] |= 1 << i

    def four_cycle(i, j):
        """The sum of the other entries of a signed 4-cycle through (i, j), or None."""
        for jj in _mask_elements(rows[i]):
            common = cols[j] & cols[jj]
            if common:
                ii = (common & -common).bit_length() - 1
                return cand[i][jj] + cand[ii][jj] + cand[ii][j]
        return None

    def sign(i, j, total):
        cand[i][j] = 1 if (total + 1) % 4 == 0 else -1
        rows[i] |= 1 << j
        cols[j] |= 1 << i
        if not any(waiting):
            return
        # waiting entries closing a 4-cycle with (i, j): in its row, in its
        # column, or opposite it
        woken = [(i, l) for l in _mask_elements(waiting[i]) if cols[l] & cols[j]]
        woken += [(k, j) for k in _mask_elements(waiting_cols[j]) if rows[k] & rows[i]]
        woken += [(k, l) for k in _mask_elements(cols[j])
                  for l in _mask_elements(waiting[k] & rows[i])]
        for k, l in woken:
            if waiting[k] >> l & 1:
                waiting[k] ^= 1 << l
                waiting_cols[l] ^= 1 << k
                queue.append((k, l))

    queue = list(free)
    while True:
        for i, j in queue:
            total = four_cycle(i, j)
            if total is None:
                waiting[i] |= 1 << j
                waiting_cols[j] |= 1 << i
            else:
                sign(i, j, total)
        queue.clear()
        i = next((i for i in range(m) if waiting[i]), None)
        if i is None:
            return IntegerMatrix(tuple(map(tuple, cand)), empty_cols=n)
        j = (waiting[i] & -waiting[i]).bit_length() - 1
        while True:
            prev = _bfs(rows, cols, i)
            path = [m + j]
            while path[-1] != i:
                path.append(prev[path[-1]])
            on_rows = sum(1 << u for u in path if u < m)
            on_cols = sum(1 << (u - m) for u in path if u >= m)
            chord = next(((k, l) for k in _mask_elements(on_rows)
                          for l in _mask_elements(waiting[k] & on_cols) if (k, l) != (i, j)),
                         None)
            if chord is None:
                break
            i, j = chord
        waiting[i] ^= 1 << j
        waiting_cols[j] ^= 1 << i
        sign(i, j, sum(cand[min(u, v)][max(u, v) - m] for u, v in zip(path, path[1:])))


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
    return cand if _tu_verdict(cand) else None


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    certificate: IntegerMatrix | None = None
    classification: Classification | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.feasible


def _match_column_signs(g: IntegerMatrix, a: GramMatrix) -> list[int] | None:
    """Diagonal signs f with f_i f_j g_ij = a_ij, or None.

    Components of the nonzero off-diagonal graph get their least vertex
    fixed to +1, making the result canonical.
    """
    if sharp(g) != sharp(a.mat):
        return None
    s = a.order
    signs = [0] * s
    for root in range(s):
        if signs[root]:
            continue
        signs[root] = 1
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(s):
                if j == i or a.entry(i, j) == 0:
                    continue
                want = 1 if a.entry(i, j) * g.entries[i][j] > 0 else -1
                need = signs[i] * want
                if signs[j] == 0:
                    signs[j] = need
                    stack.append(j)
                elif signs[j] != need:
                    return None
    return signs


def is_g_feasible(a: GramMatrix) -> Feasibility:
    """The TU certificate whose column Gram matrix equals a, if any.

    Pipeline: classification gate, skeleton, its one TU signing up to row
    and column negation (`tu_signing`), then the column signs matching a.
    """
    cls, g = _classify_table(a)
    if not cls.g_nonnegative:
        return Feasibility(False, None, cls, f"NOT-G-NONNEGATIVE S={cls.witness}")
    u = tu_signing(_skeleton(cls, g))
    signs = None if u is None else _match_column_signs(u.transpose() * u, a)
    if signs is None:
        return Feasibility(False, None, cls, "NO-MATCHING-SIGNING")
    cert = IntegerMatrix(tuple(tuple(v * signs[j] for j, v in enumerate(row))
                               for row in u.entries), empty_cols=u.cols)
    if cert.transpose() * cert != a.mat:
        raise FlowLatticeError("signed certificate does not Gram back to the input")
    return Feasibility(True, cert, cls)
