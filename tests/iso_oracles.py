"""The isometry routines that the bitmask versions replaced.

`flowlattice.matroid` builds the cycle space by doubling over its basis,
keeps circuits as int masks from enumeration to verdict, writes the
dual's [-L^T I_s] as one matrix and gives the dual the rows of its
[I_r L], read mod 2, as its cycle basis.  These are the earlier
routines: the Gray-code walk over the cycle space with a containment
scan by `any`, the search on `Counter` profiles and `frozenset` circuits
of index tuples, and the dual assembled by transpose, negation and
`hstack`, built without a cycle basis, so its own is row-reduced from
its representation.  With `contract_coloops` they give the flow, cut and
mixed isometry decisions; the tests compare both sides for exact
equality: circuits, verdicts, least maps and cores.
"""

from collections import Counter

from flowlattice.intmat import IntegerMatrix
from flowlattice.matroid import (
    IsomorphismResult,
    RegularMatroid,
    contract_coloops,
    coordinatize,
)


def gray_code_circuits(m) -> tuple[tuple[int, ...], ...]:
    """Minimal nonempty supports of the GF(2) cycle space, in (size, lex)
    order: every cycle-space vector is visited once by Gray-code XOR over
    the basis; in popcount order a vector is a circuit iff it contains no
    circuit found before it."""
    basis = m._cycle_basis
    vectors = [0] * (1 << len(basis))
    for i in range(1, len(vectors)):
        vectors[i] = vectors[i - 1] ^ basis[(i & -i).bit_length() - 1]
    vectors.sort(key=int.bit_count)
    found: list[int] = []
    for v in vectors[1:]:
        if not any(c & v == c for c in found):
            found.append(v)
    return tuple(sorted(
        (tuple(j for j in range(m.size) if v >> j & 1) for v in found),
        key=lambda c: (len(c), c),
    ))


def _element_profiles(m, circ) -> list[tuple]:
    per = [Counter() for _ in range(m.size)]
    for c in circ:
        for e in c:
            per[e][len(c)] += 1
    return [tuple(sorted(p.items())) for p in per]


def is_isomorphic(m, n) -> IsomorphismResult:
    """The lexicographically least ground bijection carrying circuits onto
    circuits, by backtracking on frozenset circuits; no bound is checked."""
    if m.size != n.size or m.rank != n.rank:
        return IsomorphismResult(False)
    cm = gray_code_circuits(m)
    cn = gray_code_circuits(n)
    if sorted(len(c) for c in cm) != sorted(len(c) for c in cn):
        return IsomorphismResult(False)
    pm = _element_profiles(m, cm)
    pn = _element_profiles(n, cn)
    if sorted(pm) != sorted(pn):
        return IsomorphismResult(False)

    n_circuit_set = {frozenset(c) for c in cn}
    by_max: dict[int, list[frozenset]] = {}
    for c in cm:
        by_max.setdefault(max(c), []).append(frozenset(c))

    size = m.size
    image = [-1] * size
    used = [False] * size

    def extend(k: int) -> bool:
        if k == size:
            return True
        for x in range(size):
            if used[x] or pn[x] != pm[k]:
                continue
            image[k] = x
            used[x] = True
            ok = all(
                frozenset(image[e] for e in c) in n_circuit_set
                for c in by_max.get(k, ())
            )
            if ok and extend(k + 1):
                return True
            used[x] = False
            image[k] = -1
        return False

    if not extend(0):
        return IsomorphismResult(False)
    mapping = tuple(image)
    label_map = tuple((m.ground[i], n.ground[x]) for i, x in enumerate(mapping))
    return IsomorphismResult(True, mapping, label_map)


def dual(m) -> RegularMatroid:
    """[-L^T I_s] off the standard form on the least base, by blocks."""
    sf = coordinatize(m)
    l_block = sf.matrix.select_columns(range(m.rank, m.size))
    rep = (-l_block.transpose()).hstack(IntegerMatrix.identity(m.corank))
    return RegularMatroid.from_rep(tuple(m.ground[j] for j in sf.perm), rep,
                                   validate=False)


def decide(mode: str, m, n):
    """(verdict, mapping, label_map, left core, right core) of the flow,
    cut or mixed isometry decision."""
    if mode == "cut":
        m, n = dual(m), dual(n)
    elif mode == "mixed":
        n = dual(n)
    mc, nc = contract_coloops(m), contract_coloops(n)
    iso = is_isomorphic(mc, nc)
    return iso.isomorphic, iso.mapping, iso.label_map, mc, nc
