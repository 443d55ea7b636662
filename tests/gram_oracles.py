"""The per-subset definitions and the dense tables that the gram tables
replaced.

`flowlattice.gram.f_table` builds f on the positive complex P only (the
subsets with f > 0, closed under subsets), each member from two smaller
ones, and `g_table` takes its alternating superset sums in one
subset-lattice transform over the same keys.  These are the definitions
they compute: f by its case split over pairs and negative triples, g by
the alternating sum over supersets, and the support statistics phi (the
intersection size) and gamma (the exact-membership count) of a family
of circuit supports, which f and g equal for a fundamental basis.
`dense_f_table` and `dense_g_table` are the earlier tables on all 2^s
masks; off P both are 0.  The tests compare the tables with them, entry
by entry.  `skeleton_by_two_sorts` is the earlier `build_x`, which moved
a g-positive matrix's singleton rows after the rest in a second sort;
the one sort of `build_x` already puts them there.

`feasibility_by_expanded_rows` is the earlier `is_g_feasible`, which
signed every one of the g(S) copies of each support S, gave the TU
verdict the whole certificate, and checked U^T U = a with a dense
transpose and product; the library signs each distinct support once,
decides on the distinct rows and sums g(S) u_S^T u_S.
"""

import itertools
from dataclasses import dataclass
from enum import Enum

from flowlattice.errors import DimensionError, FlowLatticeError
from flowlattice.gram import Classification, Feasibility, GramMatrix, _classify_table
from flowlattice.intmat import IntegerMatrix, _tu_verdict


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


def g_value(a: GramMatrix, subset) -> int:
    idx = set(subset)
    rest = [i for i in range(a.order) if i not in idx]
    total = 0
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            total += (-1) ** k * f_value(a, list(idx) + list(extra))
    return total


def dense_f_table(a: GramMatrix) -> list[int]:
    """f on every subset mask, each built from two smaller masks.

    A mask of three or more elements, t its top and b its bottom one, has
    every pair and every triple without t or without b, besides the pair
    {b, t} and the triples {b, j, t}.  So it has a negative triple iff
    mask - t or mask - b has one or some j in it closes one with b and t,
    and its least |a_ij| is the least of theirs and |a_bt|.
    """
    s = a.order
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


def dense_g_table(a: GramMatrix) -> list[int]:
    """Alternating superset sums of the dense f table on every mask, via
    the subset-lattice transform."""
    s = a.order
    g = dense_f_table(a)
    for i in range(s):
        bit = 1 << i
        for mask in range(1 << s):
            if not mask & bit:
                g[mask] -= g[mask | bit]
    return g


def skeleton_by_two_sorts(cls: Classification, g: dict[int, int]) -> IntegerMatrix:
    """`build_x` of a g-nonnegative matrix from its classification and g
    table, with the singleton rows of a g-positive matrix sorted by index
    and appended last."""
    s = max(g).bit_length()
    rows = []
    for mask, v in g.items():
        if v > 0:
            rows.extend([tuple(mask >> i & 1 for i in range(s))] * v)
    singles = []
    if cls.g_positive:
        singles = sorted(
            [r for r in rows if sum(r) == 1],
            key=lambda r: r.index(1),
        )
        rows = [r for r in rows if sum(r) != 1]
    rows.sort(key=lambda r: (-sum(r), tuple(-x for x in r)))
    return IntegerMatrix(tuple(rows + singles), empty_cols=s)


def _certificate_of_rows(x: IntegerMatrix, a: GramMatrix) -> IntegerMatrix:
    """The certificate with support x read off a, every row signed: +1 at
    its least element b and sign(a_bj) at every other j, then negated by
    the sign f_b of column b in the signing that is +1 on a spanning forest
    of x's entries, taken row-major."""
    e, s = a.mat.entries, a.order
    comp, f = list(range(s)), [1] * s
    rows = []
    for support in x.entries:
        b = support.index(1)
        row = tuple(v if j == b or e[b][j] > 0 else -v for j, v in enumerate(support))
        for j in range(b + 1, s):
            if row[j] and comp[j] != comp[b]:
                keep, gone = sorted((comp[b], comp[j]))
                flip = f[b] * row[j] * f[j]
                for k in range(s):
                    if comp[k] == gone:
                        comp[k], f[k] = keep, f[k] * flip
        rows.append((b, row))
    return IntegerMatrix(tuple(row if f[b] > 0 else tuple(-v for v in row) for b, row in rows),
                         empty_cols=s)


def feasibility_by_expanded_rows(a: GramMatrix) -> Feasibility:
    """`is_g_feasible` on the expanded skeleton: classification gate, the
    skeleton with g(S) rows for each support S, the certificate signed row
    by row, the TU verdict of all its rows, then the dense U^T U = a."""
    cls, g = _classify_table(a)
    if not cls.g_nonnegative:
        return Feasibility(False, None, cls, cls.refusal())
    x = skeleton_by_two_sorts(cls, g)
    if x.rows != -g[0]:
        raise FlowLatticeError(f"skeleton has {x.rows} rows, g(empty) = {g[0]}")
    cert = _certificate_of_rows(x, a)
    if not _tu_verdict(cert.entries):
        return Feasibility(False, None, cls, "NO-MATCHING-SIGNING")
    if cert.transpose() * cert != a.mat:
        raise FlowLatticeError("signed certificate does not Gram back to the input")
    return Feasibility(True, cert, cls)
