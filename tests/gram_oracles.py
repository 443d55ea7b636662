"""The per-subset definitions that the gram tables replaced.

`flowlattice.gram.f_table` builds the f value of every subset mask from
two smaller masks, and `g_table` takes its alternating superset sums in
one subset-lattice transform.  These are the definitions they compute:
f by its case split over pairs and negative triples, g by the
alternating sum over supersets, and the support statistics phi (the
intersection size) and gamma (the exact-membership count) of a family
of circuit supports, which f and g equal for a fundamental basis.  The
tests compare the tables with them, entry by entry.
"""

import itertools
from dataclasses import dataclass
from enum import Enum

from flowlattice.errors import DimensionError, FlowLatticeError
from flowlattice.gram import GramMatrix


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
