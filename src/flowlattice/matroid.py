"""Regular matroids as TU representations.

Construction from directed multigraphs, base coordinatization, duality,
circuit enumeration, loops/co-loops and the minor with every co-loop
contracted, and isomorphism testing on circuit families.  Every standard
form [I_r L] is one elimination in `coordinatize`, on a given base or the
least one; the least base and the dual are read off it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError, NotABaseError
from .intmat import (
    IntegerMatrix,
    _content_lines,
    _gate,
    _gauss_jordan,
    determinant,
    is_totally_unimodular,
    parse_matrix,
    rank,
)


@dataclass(frozen=True)
class RegularMatroid:
    """Ground-set labels plus a full-row-rank TU representation matrix.

    `circuits`, `loops_and_coloops` and `_independent_row_subset` read
    the matroid off the representation mod 2.  That is exact only
    because the representation is TU: every square submatrix has
    determinant 0 or +-1, so a set of columns (or rows) is independent
    over the rationals iff it is independent over GF(2) (Camion 1965).
    `from_rep` checks TU unless `validate=False`; every internal
    `validate=False` construction is TU by construction (incidence
    matrices, column and row selections, `[-L^T I]` duals, and the U^T and
    `[I_r | -K]` of `reconstruct_matroid`: U is the TU-checked certificate,
    K a block of q = U B^-1 with B an invertible s-by-s block of U, so
    det B = +-1 and q is a pivot of U, hence TU).

    Each matroid computes its cycle-space basis, its circuits, its
    co-loop-contracted minor, its dual on the least base and its signed
    circuit flows at most once, on first use, and keeps them for its own
    lifetime; they take no part in equality, hashing or repr.
    """

    ground: tuple[str, ...]
    rep: IntegerMatrix

    def __post_init__(self):
        if self.rep.cols != len(self.ground):
            raise FormatError("representation column count must equal ground size")
        if len(set(self.ground)) != len(self.ground):
            raise FormatError("ground labels must be unique")

    @staticmethod
    def from_rep(ground, rep: IntegerMatrix, validate: bool = True) -> "RegularMatroid":
        m = RegularMatroid(tuple(ground), rep)
        if validate:
            if rank(rep) != rep.rows:
                raise FormatError("representation must have full row rank")
            check = is_totally_unimodular(rep)
            if not check:
                raise FormatError(
                    "representation is not totally unimodular; witness rows "
                    f"{check.witness_rows} cols {check.witness_cols} det {check.witness_det}"
                )
        return m

    @property
    def rank(self) -> int:
        return self.rep.rows

    @property
    def size(self) -> int:
        return len(self.ground)

    @property
    def corank(self) -> int:
        return self.size - self.rank

    def text(self) -> str:
        header = f"matroid {self.rank} {self.size}\n"
        labels = " ".join(self.ground) + "\n" if self.ground else "\n"
        return header + labels + self.rep.text()

    @cached_property
    def _cycle_basis(self) -> list[int]:
        """A basis of the GF(2) cycle space, as `_gf2_echelon` gives it."""
        return _gf2_echelon(self.rep)[1]

    @cached_property
    def _circuits(self) -> tuple[tuple[int, ...], ...]:
        """Minimal nonempty supports of the GF(2) cycle space.

        Every cycle-space vector is visited once by Gray-code XOR over the
        basis; in popcount order a vector is a circuit iff it contains no
        circuit found before it.
        """
        basis = self._cycle_basis
        vectors = [0] * (1 << len(basis))
        for i in range(1, len(vectors)):
            vectors[i] = vectors[i - 1] ^ basis[(i & -i).bit_length() - 1]
        vectors.sort(key=int.bit_count)
        found: list[int] = []
        for v in vectors[1:]:
            if not any(c & v == c for c in found):
                found.append(v)
        return tuple(sorted(
            (tuple(j for j in range(self.size) if v >> j & 1) for v in found),
            key=lambda c: (len(c), c),
        ))

    @cached_property
    def _core(self) -> "RegularMatroid | None":
        """The minor with every co-loop contracted; None when there is no
        co-loop (the minor is the matroid itself, and None keeps it out of
        a reference cycle with itself)."""
        _, coloops = loops_and_coloops(self)
        if not coloops:
            return None
        contracted = set(coloops)
        keep = [j for j in range(self.size) if j not in contracted]
        trimmed = self.rep.select_columns(keep)
        rep = trimmed.select_rows(_independent_row_subset(trimmed))
        return RegularMatroid.from_rep(
            tuple(self.ground[j] for j in keep), rep, validate=False
        )

    @cached_property
    def _dual(self) -> "RegularMatroid":
        """`dual(self)`: [-L^T I_s] off the standard form on the least base."""
        sf = coordinatize(self)
        rep = (-sf.l_block.transpose()).hstack(IntegerMatrix.identity(self.corank))
        return RegularMatroid.from_rep(tuple(self.ground[j] for j in sf.perm), rep,
                                       validate=False)

    @cached_property
    def _signed_pairs(self) -> tuple:
        """(alpha, -alpha) for each circuit, in circuit order, alpha its
        sign-canonical flow."""
        from .flows import _circuit_flow  # flows builds on this module

        return tuple((a, -a) for a in (_circuit_flow(self, c) for c in self._circuits))


def _gf2_echelon(rep: IntegerMatrix) -> tuple[list[int], list[int]]:
    """Row-reduce rep mod 2 by XOR on int bitmasks (bit j = column j).

    Returns the rows kept greedily in order (each is nonzero after
    reduction by the rows kept before it) and a cycle-space basis: one
    bitmask per non-pivot column c, holding c and the pivot columns
    whose reduced rows have a 1 in column c.
    """
    reduced: dict[int, int] = {}        # pivot column -> reduced row
    kept: list[int] = []
    for i, row in enumerate(rep.entries):
        v = sum(1 << j for j, x in enumerate(row) if x & 1)
        for c, p in reduced.items():
            if v >> c & 1:
                v ^= p
        if not v:
            continue
        c = (v & -v).bit_length() - 1
        for d, p in reduced.items():
            if p >> c & 1:
                reduced[d] = p ^ v
        reduced[c] = v
        kept.append(i)
    cycles = [
        (1 << c) | sum(1 << d for d, p in reduced.items() if p >> c & 1)
        for c in range(rep.cols) if c not in reduced
    ]
    return kept, cycles


def _independent_row_subset(m: IntegerMatrix) -> list[int]:
    """Greedy maximal set of linearly independent rows, in order."""
    return _gf2_echelon(m)[0]


def from_graph(edges, labels=None) -> RegularMatroid:
    """Graphic matroid of a directed multigraph via its signed incidence matrix.

    Edge e = (tail, head) gets +1 at the head vertex and -1 at the tail;
    self-loops give zero columns (matroid loops).  Redundant incidence
    rows are deleted to reach full row rank.
    """
    edges = list(edges)
    if not edges:
        raise FormatError("empty edge list")
    vertices = sorted({v for e in edges for v in e}, key=lambda v: (str(type(v)), v))
    vindex = {v: i for i, v in enumerate(vertices)}
    d = [[0] * len(edges) for _ in vertices]
    for j, (tail, head) in enumerate(edges):
        if tail == head:
            continue
        d[vindex[head]][j] = 1
        d[vindex[tail]][j] = -1
    full = IntegerMatrix(tuple(map(tuple, d)), empty_cols=len(edges))
    kept = _independent_row_subset(full)
    rep = full.select_rows(kept)
    if labels is None:
        labels = tuple(f"e{j + 1}" for j in range(len(edges)))
    return RegularMatroid.from_rep(labels, rep, validate=False)


def parse_graph(text: str) -> list[tuple]:
    """Edge list: lines "tail head" with integer vertex ids; '#' comments."""
    edges = []
    for line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"graph line needs two vertex ids: {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise FormatError(f"non-integer vertex id in {line!r}") from exc
    return edges


def parse_matroid(text: str) -> RegularMatroid:
    """Matroid file: "matroid r m", ground labels, then the matrix text."""
    lines = _content_lines(text)
    if not lines or lines[0].split()[0] != "matroid":
        raise FormatError("matroid file must start with 'matroid r m'")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError("matroid header must be 'matroid r m'")
    try:
        r, m = int(head[1]), int(head[2])
    except ValueError as exc:
        raise FormatError(f"non-integer field in matroid header: {exc}") from exc
    # with no ground elements the label line is blank, so it is not read
    if m and len(lines) < 2:
        raise FormatError("matroid file missing ground label line")
    labels = tuple(lines[1].split()) if m else ()
    if len(labels) != m:
        raise FormatError(f"expected {m} ground labels, got {len(labels)}")
    rep = parse_matrix("\n".join(lines[2 if m else 1:]))
    if rep.rows != r or rep.cols != m:
        raise FormatError("matrix shape disagrees with matroid header")
    return RegularMatroid.from_rep(labels, rep)


def subset_rank(m: RegularMatroid, subset) -> int:
    return rank(m.rep.select_columns(sorted(subset)))


def first_base(m: RegularMatroid) -> tuple[int, ...]:
    """The lexicographically least base."""
    return coordinatize(m).base


@dataclass(frozen=True)
class StandardForm:
    """[I_r L] together with the column permutation bringing the base first."""

    matrix: IntegerMatrix
    perm: tuple[int, ...]
    base: tuple[int, ...]

    @property
    def l_block(self) -> IntegerMatrix:
        r = self.matrix.rows
        return IntegerMatrix(tuple(row[r:] for row in self.matrix.entries),
                             empty_cols=self.matrix.cols - r)

    def ground_rows(self, mat: IntegerMatrix) -> IntegerMatrix:
        """mat, whose row i describes element perm[i], with its rows in ground order."""
        rows = [None] * mat.rows
        for i, p in enumerate(self.perm):
            rows[p] = mat.entries[i]
        return IntegerMatrix(tuple(rows), empty_cols=mat.cols)


def coordinatize(m: RegularMatroid, base=None) -> StandardForm:
    """Bring the representation to [I_r L] with the base columns first.

    One Gauss-Jordan pass ends at [d I_r | d L], d the last pivot; the base
    block is unimodular iff d = +-1.  A given base is put first and pivoted
    on; with none, the pass pivots in ground order, on the least base.
    """
    if base is None:
        rows, cols, _, pivots, _ = _gauss_jordan(m.rep.entries)
        if len(cols) < m.rank:
            raise NotABaseError((), "matroid has no base of the stated rank")
        base = tuple(cols)
        perm = take = base + tuple(sorted(set(range(m.size)).difference(base)))
    else:
        base = tuple(sorted(base))
        if len(base) != m.rank or len(set(base)) != len(base):
            raise NotABaseError(base, f"expected {m.rank} distinct elements")
        perm = base + tuple(sorted(set(range(m.size)).difference(base)))
        take = range(m.size)        # the pass runs with the base first
        rows, cols, _, pivots, _ = _gauss_jordan(m.rep.select_columns(perm).entries, m.rank)
        if len(cols) < m.rank:
            raise NotABaseError(base, "vanishing r-by-r determinant")
    d = pivots[-1] if pivots else 1
    if abs(d) != 1:
        det = determinant(m.rep.select_columns(base))
        raise NotABaseError(base, f"determinant {det} is not a unit")
    mat = IntegerMatrix(tuple(tuple(d * row[j] for j in take) for row in rows),
                        empty_cols=m.size)
    return StandardForm(mat, perm, base)


def dual(m: RegularMatroid) -> RegularMatroid:
    """Dual matroid represented by [-L^T I_s] on the lexicographically least
    base, ground labels permuted to match; m keeps it for its lifetime."""
    return m._dual


def circuits(m: RegularMatroid) -> tuple[tuple[int, ...], ...]:
    """All minimal dependent sets, as sorted index tuples, canonically ordered;
    the bound gates the corank, as 2^corank cycle-space vectors are visited."""
    _gate("circuit", "corank", m.corank)
    return m._circuits


def loops_and_coloops(m: RegularMatroid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Zero columns, and the columns that no cycle-space vector touches.

    A zero column meets no reduced row of `_gf2_echelon`, so its
    cycle-basis vector is its own bit alone.
    """
    loops = tuple(v.bit_length() - 1 for v in m._cycle_basis if v.bit_count() == 1)
    touched = 0
    for v in m._cycle_basis:
        touched |= v
    coloops = tuple(j for j in range(m.size) if not touched >> j & 1)
    return loops, coloops


def contract_coloops(m: RegularMatroid) -> RegularMatroid:
    """The minor with every co-loop contracted (no co-loops remain)."""
    return m._core or m


@dataclass(frozen=True)
class IsomorphismResult:
    isomorphic: bool
    mapping: tuple[int, ...] | None = None
    label_map: tuple[tuple[str, str], ...] | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def _element_profiles(m: RegularMatroid, circ) -> list[tuple]:
    per = [Counter() for _ in range(m.size)]
    for c in circ:
        for e in c:
            per[e][len(c)] += 1
    return [tuple(sorted(p.items())) for p in per]


def is_isomorphic(m: RegularMatroid, n: RegularMatroid) -> IsomorphismResult:
    """Search for a ground bijection carrying circuits onto circuits.

    Pruned by rank, circuit-size multiset, and per-element circuit
    profiles; returns the lexicographically least bijection found.
    """
    _gate("iso", "ground size", max(m.size, n.size))
    if m.size != n.size or m.rank != n.rank:
        return IsomorphismResult(False)
    cm = circuits(m)
    cn = circuits(n)
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
