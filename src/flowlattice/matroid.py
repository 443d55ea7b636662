"""Regular matroids as TU representations.

Construction from directed multigraphs, base coordinatization, duality,
circuit enumeration, loops/co-loops and the minor with every co-loop
contracted, and isomorphism testing on circuit families.  Every standard
form [I_r L] is one elimination (`_pivoted`), on a given base or the
least one; `coordinatize` builds the form from its rows, the least base
and the dual are read off the same rows without building it, and
`StandardForm`, the form and its column permutation (the base first),
is the only code that knows its layout.  A TU representation stays TU
under pivoting, so its elimination runs on sign masks with unit pivots;
the Bareiss pass runs only when an entry leaves {0, +-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import FormatError, NotABaseError
from .intmat import (
    IntegerMatrix,
    _content_lines,
    _gate,
    _gauss_jordan,
    _header,
    _mask_gauss_jordan,
    _signed_pivot,
    is_totally_unimodular,
    parse_matrix,
    rank,
)
from .network import _mask_elements


@dataclass(frozen=True)
class RegularMatroid:
    """Ground-set labels plus a full-row-rank TU representation matrix.

    `circuits`, `loops_and_coloops` and `_row_reduced` read the matroid
    off the representation mod 2.  That is exact only because the
    representation is TU: every square submatrix has determinant 0 or
    +-1, so a set of columns (or rows) is independent over the rationals
    iff it is independent over GF(2) (Camion 1965).  `from_rep` checks TU
    unless `validate=False`; every internal construction skips the check
    and is TU by construction (incidence matrices, column and row
    selections, duals (the flow rows [-L^T I_s] of a TU matrix's standard
    form), and the U^T and `[I_r | -K]` of
    `reconstruct_matroid`: U is the TU-checked certificate, K a block of
    q = U B^-1 with B an invertible s-by-s block of U, so det B = +-1 and
    q is a pivot of U, hence TU).

    Each matroid computes its cycle-space basis, its circuit masks, its
    circuits as index tuples, their masks in the same (size, lex) order,
    its co-loop-contracted minor, its dual on the least base and its
    signed circuit flows at most once, on first use, and keeps them for
    its own lifetime; they take no part in equality, hashing or repr.
    The isomorphism search reads the masks only; the tuples are made from
    them for `circuits` and the flows, and the decomposition reads the
    sorted masks.
    Graph matroids and co-loop-contracted minors are built by
    `_row_reduced` and start with the cycle basis of the echelon that
    chose their rows; duals start with the rows of their standard form
    [I_r L], read mod 2.
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
        """A basis of the GF(2) cycle space, as `_gf2_echelon` gives it
        unless the construction stored one.  Every basis here gives each
        vector a bit that no other vector has, so a loop is a basis vector
        of its own bit alone; the co-loops are the elements outside the
        basis's union."""
        return _gf2_echelon(self.rep)[1]

    @cached_property
    def _circuit_masks(self) -> list[int]:
        """Minimal nonempty supports of the GF(2) cycle space, as int masks
        in popcount order.

        The cycle space is built by doubling over the basis, each basis
        vector XORed onto every vector so far; in popcount order a vector
        is a circuit iff it contains no circuit found before it.
        """
        vectors = [0]
        for b in self._cycle_basis:
            vectors += [v ^ b for v in vectors]
        vectors.sort(key=int.bit_count)
        found: list[int] = []
        for v in vectors[1:]:
            for c in found:
                if c & v == c:
                    break
            else:
                found.append(v)
        return found

    @cached_property
    def _circuits(self) -> tuple[tuple[int, ...], ...]:
        """The circuit masks as sorted index tuples, in (size, lex) order."""
        return tuple(sorted((tuple(_mask_elements(v)) for v in self._circuit_masks),
                            key=lambda c: (len(c), c)))

    @cached_property
    def _sorted_circuit_masks(self) -> tuple[int, ...]:
        """The masks of `_circuits`, in the same (size, lex) order."""
        return tuple(sum(1 << e for e in c) for c in self._circuits)

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
        return _row_reduced([self.ground[j] for j in keep], self.rep.select_columns(keep))

    @cached_property
    def _dual(self) -> "RegularMatroid":
        """`dual(self)`: the flow rows [-L^T I_s] of the least base's form.

        The rows of [I_r L], read mod 2 with bit i for column i (element
        perm[i], the dual's i-th), span the kernel of the flow rows, so
        they are the dual's cycle basis: no echelon is needed.  Both are
        read in one sweep off the rows of the pass, without building
        [I_r L] itself."""
        perm, rows, at = _pivoted(self)
        rep, supports = StandardForm._flows_and_supports(rows, at, self.size)
        d = RegularMatroid(tuple([self.ground[j] for j in perm]), rep)
        vars(d)["_cycle_basis"] = supports
        return d

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


def _row_reduced(ground, full: IntegerMatrix) -> RegularMatroid:
    """The matroid of full's greedy independent rows, with the cycle basis
    of the one echelon that chose them: a dependent row reduces to 0 and
    leaves the echelon as it found it, so the basis is the kept rows' own."""
    kept, cycles = _gf2_echelon(full)
    m = RegularMatroid(tuple(ground), full.select_rows(kept))
    vars(m)["_cycle_basis"] = cycles
    return m


def _labels(n: int) -> tuple[str, ...]:
    """The default ground labels e1, ..., en."""
    return tuple(f"e{i + 1}" for i in range(n))


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
    if labels is None:
        labels = _labels(len(edges))
    return _row_reduced(labels, IntegerMatrix(tuple(map(tuple, d)), empty_cols=len(edges)))


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
    r, m = _header(lines, "matroid r m", "field")
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
    """The lexicographically least base, off the pass of its standard form."""
    return _pivoted(m)[0][:m.rank]


@dataclass(frozen=True)
class StandardForm:
    """[I_r L] together with the column permutation bringing the base first:
    the base is perm[:r].

    The only code that knows this layout: the fundamental flows
    [-L^T I_s], the dual's representation, and the ground-order bases of
    `flows` and `rebuild` are read off it here.
    """

    matrix: IntegerMatrix
    perm: tuple[int, ...]

    @property
    def flow_rows(self) -> IntegerMatrix:
        """[-L^T I_s], columns in perm order: row j is the flow of the
        fundamental circuit of element perm[r + j]."""
        return self._flows_and_supports(self.matrix.entries, None, self.matrix.cols)[0]

    @staticmethod
    def _flows_and_supports(rows, at, size: int) -> tuple[IntegerMatrix, list[int]]:
        """The flow rows [-L^T I_s] and the rows of [I_r L] read mod 2 (bit
        i for column i), in one sweep of L off the rows of [I_r L]: integer
        rows when `at` is None, else `_pivoted`'s sign masks, column i at
        bit at[i]."""
        r = len(rows)
        supports = [1 << i for i in range(r)]
        flows = []
        for j in range(r, size):
            col = []
            if at is None:
                for i, row in enumerate(rows):
                    col.append(-row[j])
                    if row[j] & 1:
                        supports[i] |= 1 << j
            else:
                b = 1 << at[j]
                for i, (p, q) in enumerate(rows):
                    if (p | q) & b:
                        col.append(-1 if p & b else 1)
                        supports[i] |= 1 << j
                    else:
                        col.append(0)
            flows.append(tuple(col) + (0,) * (j - r) + (1,) + (0,) * (size - 1 - j))
        return IntegerMatrix(tuple(flows), empty_cols=size), supports

    def ground_columns(self, mat: IntegerMatrix) -> IntegerMatrix:
        """The columns of mat, column i describing element perm[i], as rows
        in ground order."""
        by_element = dict(zip(self.perm, list(zip(*mat.entries)) or [()] * mat.cols))
        return IntegerMatrix(tuple(by_element[p] for p in range(mat.cols)), empty_cols=mat.rows)


def _pivoted(m: RegularMatroid, base=None):
    """The one elimination of a standard form: (perm, rows, at), the base
    perm[:rank] and the rest in ground order.

    A given base is put first and pivoted on; with none, the pass pivots
    in ground order, on the least base.  A TU representation stays TU
    under pivoting, so its pass runs on sign masks with unit pivots
    (`_mask_gauss_jordan`): `rows` are the (plus, minus) masks of the rows
    of [I_r L], column i of the form (element perm[i]) at bit at[i].  Only
    when an entry leaves {0, +-1} does the Bareiss pass run: it ends at
    [d I_r | d L], d the last pivot, and the base block is unimodular iff
    d = +-1; `rows` are then the integer rows of [I_r L] and `at` is None.
    Both passes choose the same pivots, the base's columns, and a mask
    pass that finishes has d = +-1, so the two give the same form.  A
    refusal signs d as `determinant` does.
    """
    if base is None:
        rows, width = m.rep.entries, None
    else:
        base = tuple(sorted(base))
        if len(base) != m.rank or len(set(base)) != len(base):
            raise NotABaseError(base, f"expected {m.rank} distinct elements")
        perm = base + tuple(sorted(set(range(m.size)).difference(base)))
        rows, width = m.rep.select_columns(perm).entries, m.rank
    unit = _mask_gauss_jordan(rows, width)
    if unit is None:
        rows, cols, order, pivots, _ = _gauss_jordan(rows, width)
    else:
        rows, cols = unit
    if len(cols) < m.rank:
        if base is None:
            raise NotABaseError((), "matroid has no base of the stated rank")
        raise NotABaseError(base, "vanishing r-by-r determinant")
    if base is None:
        base = tuple(cols)
        perm = at = base + tuple(sorted(set(range(m.size)).difference(base)))
    else:
        at = range(m.size)          # the pass ran with the base first
    if unit is not None:
        return perm, rows, at
    d = pivots[-1] if pivots else 1
    if abs(d) != 1:
        raise NotABaseError(base, f"determinant {_signed_pivot(order, d)} is not a unit")
    return perm, tuple(tuple(d * row[j] for j in at) for row in rows), None


def coordinatize(m: RegularMatroid, base=None) -> StandardForm:
    """The standard form [I_r L] on the given base, or on the least base
    with none: `_pivoted`'s pass and refusals, sign masks read as entries."""
    perm, rows, at = _pivoted(m, base)
    if at is not None:
        bits = [1 << j for j in at]
        rows = tuple([tuple([1 if p & b else -1 if q & b else 0 for b in bits])
                      for p, q in rows])
    return StandardForm(IntegerMatrix(rows, empty_cols=m.size), perm)


def dual(m: RegularMatroid) -> RegularMatroid:
    """Dual matroid represented by the flow rows [-L^T I_s] of the standard
    form on the lexicographically least base, ground labels permuted to
    match; m keeps it for its lifetime."""
    return m._dual


def circuits(m: RegularMatroid) -> tuple[tuple[int, ...], ...]:
    """All minimal dependent sets, as sorted index tuples, canonically ordered;
    the bound gates the corank, as 2^corank cycle-space vectors are visited.
    The matroid keeps its circuits as int masks; the tuples are made from
    them once, on the first call."""
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


def _element_profiles(m: RegularMatroid, masks) -> list[tuple[int, ...]]:
    """Per element, its circuits' sizes, ascending as `masks` come in popcount order."""
    per: list[list[int]] = [[] for _ in range(m.size)]
    for c in masks:
        k = c.bit_count()
        while c:
            low = c & -c
            per[low.bit_length() - 1].append(k)
            c ^= low
    return [tuple(p) for p in per]


def is_isomorphic(m: RegularMatroid, n: RegularMatroid) -> IsomorphismResult:
    """Search for a ground bijection carrying circuits onto circuits.

    Pruned by size, rank and sorted per-element profiles, each the sizes of
    an element's circuits in ascending order; they fix the circuit-size
    multiset (size L is in L profiles per circuit of size L).  Elements
    k = 0, 1, ... of m are mapped in turn, each to the unused elements of
    n with its profile in ascending order, so the first bijection found is
    the lexicographically least.  Circuits stay int masks from enumeration to
    verdict: the images are int bits, and each circuit of m whose largest
    element is k is checked, once k is mapped, as the mask of its image
    (its bits' images ORed) among n's circuit masks.  The corank is gated
    before either matroid enumerates; n's equals m's once sizes and ranks
    agree.
    """
    _gate("iso", "ground size", max(m.size, n.size))
    if m.size != n.size or m.rank != n.rank:
        return IsomorphismResult(False)
    _gate("circuit", "corank", m.corank)
    cm = m._circuit_masks
    cn = n._circuit_masks
    pm = _element_profiles(m, cm)
    pn = _element_profiles(n, cn)
    if sorted(pm) != sorted(pn):
        return IsomorphismResult(False)

    n_masks = set(cn)
    by_max: dict[int, list[int]] = {}
    for c in cm:
        by_max.setdefault(c.bit_length() - 1, []).append(c)
    same_profile: dict[tuple, list[int]] = {}
    for x, p in enumerate(pn):
        same_profile.setdefault(p, []).append(x)
    candidates = [same_profile[p] for p in pm]

    size = m.size
    bit = [0] * size                    # bit[k] = 1 << (image of k)
    # depth-first on an explicit stack of candidate iterators, one for each
    # element mapped so far and one for the element k being mapped; used
    # holds the images of 0..k-1
    stack = [iter(candidates[0])] if size else []
    used = 0
    while stack:
        k = len(stack) - 1
        for x in stack[k]:
            b = 1 << x
            if used & b:
                continue
            bit[k] = b
            for c in by_max.get(k, ()):
                image = 0
                while c:
                    low = c & -c
                    image |= bit[low.bit_length() - 1]
                    c ^= low
                if image not in n_masks:
                    break
            else:
                break
        else:
            # no candidate left: back up to k - 1, which goes on to its next
            stack.pop()
            if k:
                used ^= bit[k - 1]
            continue
        if k + 1 == size:
            break
        used |= b
        stack.append(iter(candidates[k + 1]))
    if len(stack) < size:
        return IsomorphismResult(False)
    mapping = tuple(b.bit_length() - 1 for b in bit)
    label_map = tuple((m.ground[i], n.ground[x]) for i, x in enumerate(mapping))
    return IsomorphismResult(True, mapping, label_map)
