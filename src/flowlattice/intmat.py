"""Exact integer matrix kernel.

Dense matrices of arbitrary-precision integers; one fraction-free
(Bareiss) Gauss-Jordan elimination that yields rank, determinant,
leading minors, exact solves, inverses and kernels, and the rows of a
forward elimination; the same pass on the sign masks of a {0, +-1}
matrix, with unit pivots, which a TU matrix finishes without leaving
{0, +-1} (`_mask_gauss_jordan`, the standard forms of `matroid`); total
and weak unimodularity tests; and `bounds`, the one place that sets the
bounds each exponential search checks.

Total unimodularity has one search for its witnesses: the
lexicographically least minor with |det| > 1 over a range of orders.
Order 1 is read off the entries (`_entry_witness`), order 2 off the
sign masks in polynomial time, and from order 3 the search looks for an
Eulerian submatrix whose entries sum to 2 mod 4 (Camion 1965;
`_mask_witness`).  With no witness of order 1 or 2, the verdict is
decided on the matrix reduced by unit and parallel lines, block by
block: a small block is searched outright, where that is cheaper than
realizing it, and a larger one is settled by a verified network or
co-network realization in polynomial time, searched only when it has
neither.  A "no" then searches the input from order 3 up.  Inside the
TU layer a matrix is its sign masks, read once per call by the one
reader of masks (`_sign_masks`, which refuses entries outside {0, +-1})
and shared by the order-2 scan, the verdict and the order-3 search:
each row and column is a (plus, minus) pair of int bitmasks over the
other side.  The reduction narrows a mask of live rows and one of live
columns, a block is a (row mask, column mask) pair, the realizer
(`network`) takes a block's columns as masks over its rows, and a
transpose is a swap of the two sides.

Weak unimodularity is decided by one elimination and the TU verdict of
its reduced rows; a "no" whose last pivot is not +-1 stops at the pivot
columns, the least base, signed by that same elimination, and only any
other "no" enumerates maximal minors for a witness.  The TU bound gates
the order of the Eulerian and maximal-minor searches only, never a
polynomial step.
"""

from __future__ import annotations

import itertools
import math
import operator
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from types import MappingProxyType

from .errors import BoundExceededError, DimensionError, FlowLatticeError, FormatError
from .network import _components, _mask_elements, network_scaling

# default of each bound kind, in the order of the CLI's --<kind>-bound flags
BOUND_DEFAULTS = MappingProxyType({"tu": 10, "circuit": 20, "iso": 12, "subset": 20})

# the bounds of the enclosing `bounds` scopes, kind -> value
call_bounds: ContextVar = ContextVar("call_bounds", default=MappingProxyType({}))


def bounds(**limits: int):
    """A scope binding bounds by kind for every call inside it, nested ones
    included: `with bounds(tu=12):`.  An inner scope keeps the outer one's
    other kinds; each restores on exit, by exception too.  An unknown kind
    or a value that is not a positive int raises ValueError on the call.
    With no kinds the scope binds nothing."""
    if not limits:
        return nullcontext()
    for kind, value in limits.items():
        if kind not in BOUND_DEFAULTS or type(value) is not int:
            raise ValueError(f"bound kinds are {', '.join(BOUND_DEFAULTS)}, with int "
                             f"values; got {kind}={value!r}")
        if value <= 0:
            raise ValueError("bounds must be positive")
    return _scope(limits)


@contextmanager
def _scope(limits: dict):
    token = call_bounds.set(MappingProxyType({**call_bounds.get(), **limits}))
    try:
        yield
    finally:
        call_bounds.reset(token)


def _bound(kind: str) -> int:
    """The bound of this kind in force: the innermost scope's value, else the
    default."""
    return call_bounds.get().get(kind, BOUND_DEFAULTS[kind])


def _gate(kind: str, what: str, size: int) -> int:
    """size, if within the bound of its kind (`_bound`); raises
    BoundExceededError past it."""
    b = _bound(kind)
    if size > b:
        raise BoundExceededError(what, size, b)
    return size


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable dense matrix of Python ints, row-major.

    Every shape is built the one way, `IntegerMatrix(rows, empty_cols=width)`:
    the width is read off the rows when there are any, and kept only when
    there are none.
    """

    entries: tuple[tuple[int, ...], ...]
    # column count of a zero-row matrix; reset to 0 when entries is nonempty,
    # so equality and hashing see entries and shape only
    empty_cols: int = 0

    def __post_init__(self):
        if self.entries and self.empty_cols:
            object.__setattr__(self, "empty_cols", 0)
        if len({len(r) for r in self.entries}) > 1:
            raise DimensionError("ragged rows")

    @staticmethod
    def from_rows(rows) -> "IntegerMatrix":
        return IntegerMatrix(tuple(map(_integers, rows)))

    @staticmethod
    def from_columns(cols, nrows: int = 0) -> "IntegerMatrix":
        """The matrix with these columns; nrows is its row count when there
        are no columns."""
        return IntegerMatrix(tuple(map(_integers, cols)), empty_cols=nrows).transpose()

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(((0,) * cols,) * rows, empty_cols=cols)

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
                             empty_cols=n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else self.empty_cols

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntegerMatrix":
        # with no rows, zip sees no columns: the transpose has cols empty rows
        return IntegerMatrix(tuple(zip(*self.entries)) or ((),) * self.cols, empty_cols=self.rows)

    def submatrix(self, row_idx, col_idx) -> "IntegerMatrix":
        col_idx = tuple(col_idx)
        return IntegerMatrix(
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx),
            empty_cols=len(col_idx),
        )

    def select_columns(self, col_idx) -> "IntegerMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def select_rows(self, row_idx) -> "IntegerMatrix":
        return self.submatrix(row_idx, range(self.cols))

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise DimensionError("hstack: row counts differ")
        return IntegerMatrix(tuple(a + b for a, b in zip(self.entries, other.entries)),
                             empty_cols=self.cols + other.cols)

    def vstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.cols:
            raise DimensionError("vstack: column counts differ")
        return IntegerMatrix(self.entries + other.entries, empty_cols=self.cols)

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # with no rows, zip sees no columns: other has cols empty columns
        ot = list(zip(*other.entries)) or [()] * other.cols
        return IntegerMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                  for row in self.entries),
            empty_cols=other.cols,
        )

    def __neg__(self) -> "IntegerMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(c * x for x in r) for r in self.entries),
                             empty_cols=self.cols)

    def text(self) -> str:
        """Render in the shared matrix text format."""
        lines = [f"{self.rows} {self.cols}"]
        lines += [" ".join(str(x) for x in r) for r in self.entries]
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.text().rstrip("\n")


def _integers(xs) -> tuple[int, ...]:
    """xs as a tuple of ints, each read by `operator.index`: a float, a
    string or anything else that is not an integer is refused, not
    truncated or parsed."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError as exc:
        raise FormatError(f"entries must be integers: {exc}") from exc


def _content_lines(text: str) -> list[str]:
    """The lines of text with each '#' comment cut off, stripped, blank ones dropped."""
    return [ln for ln in (line.split("#", 1)[0].strip() for line in text.splitlines()) if ln]


def _header(lines, form: str, noun: str) -> list[int]:
    """The int fields of the first of `_content_lines`, a header that reads
    `form` ("gram s", "matroid r m"): its first word, then one integer per
    field.  A refusal quotes form, and noun names a non-integer field."""
    word = form.split()[0]
    head = lines[0].split() if lines else []
    if head[:1] != [word]:
        raise FormatError(f"{word} file must start with '{form}'")
    if len(head) != len(form.split()):
        raise FormatError(f"{word} header must be '{form}'")
    try:
        return [int(t) for t in head[1:]]
    except ValueError as exc:
        raise FormatError(f"non-integer {noun} in {word} header: {exc}") from exc


def parse_matrix(text: str) -> IntegerMatrix:
    """Parse the shared matrix text format: "rows cols" then the entries.

    '#' begins a comment; entries may wrap across lines.  One pass cuts
    the comments and splits the tokens, and one `int` call reads each.
    """
    lines = text.splitlines()
    tokens = [t for line in lines for t in line.split("#", 1)[0].split()]
    if len(tokens) < 2:
        raise FormatError("matrix text needs a 'rows cols' header")
    try:
        rows, cols, *body = map(int, tokens)
    except ValueError as exc:
        raise FormatError(f"non-integer token in matrix text: {exc}") from exc
    # empty rows hold no entries, so only the line count bounds them (one
    # blank line each, as `text` writes them) before any is allocated
    if cols == 0 and rows > len(lines):
        raise FormatError(f"{rows} empty rows need one line each, got {len(lines)} lines")
    if rows < 0 or cols < 0 or len(body) != rows * cols:
        raise FormatError(
            f"expected {rows}x{cols} = {rows * cols} entries, got {len(body)}"
        )
    return IntegerMatrix(tuple(tuple(body[i * cols:(i + 1) * cols]) for i in range(rows)),
                         empty_cols=cols)


def _gauss_jordan(rows, width: int | None = None):
    """Fraction-free (Bareiss) Gauss-Jordan elimination over the integers.

    Pivots are sought in the first `width` columns (default: all), left
    to right, each on the first row at or below the pivots found so far
    that is nonzero there; that row is swapped up.  Every other row r
    becomes (p * r - r[c] * pivot row) // (previous pivot), an exact
    division (Bareiss 1968), so all entries stay integral.  A row with
    r[c] = 0 has nothing to subtract: it becomes p * r // (previous
    pivot), and is left as it is when the two pivots are equal.  Returns
    the reduced rows, the pivot columns, the original row index of each
    pivot, the pivot values, and each pivot row as it was when chosen:
    pivot k is the leading (k+1)-minor of the row-permuted matrix on the
    pivot columns.  With d the last pivot, the reduced rows are d times
    the reduced row echelon form, so [M | I] for an invertible M ends at
    [d I | d M^-1].  Chosen row k has met only the pivots before it, so
    it is row k of the forward Bareiss elimination; an update rebinds a
    row to a new list, so none is copied.
    """
    a = [list(r) for r in rows]
    order = list(range(len(a)))
    if width is None:
        width = len(a[0]) if a else 0
    cols: list[int] = []
    pivots: list[int] = []
    chosen: list[list[int]] = []
    prev = 1
    for c in range(width):
        k = len(cols)
        j = next((j for j in range(k, len(a)) if a[j][c]), None)
        if j is None:
            continue
        a[k], a[j] = a[j], a[k]
        order[k], order[j] = order[j], order[k]
        p, pk = a[k][c], a[k]
        for i in range(len(a)):
            if i != k:
                f = a[i][c]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pk)]
                elif p != prev:
                    a[i] = [p * x // prev for x in a[i]]
        cols.append(c)
        pivots.append(p)
        chosen.append(pk)
        prev = p
        if k + 1 == len(a):
            break
    return a, cols, order[:len(cols)], pivots, chosen


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant: the last Bareiss pivot, signed by the row swaps."""
    if not m.is_square:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    if m.rows == 0:
        return 1
    _, cols, order, pivots, _ = _gauss_jordan(m.entries)
    if len(cols) < m.rows:
        return 0
    return _signed_pivot(order, pivots[-1])


def _signed_pivot(order, pivot: int) -> int:
    """The determinant of a full-rank elimination's pivot block, rows in
    their input order: the last pivot, times the sign of the row order."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(order, 2)) * pivot


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals: the number of Bareiss pivots."""
    return len(_gauss_jordan(m.entries)[1])


def sharp(m: IntegerMatrix) -> IntegerMatrix:
    """Entrywise absolute value."""
    return IntegerMatrix(tuple(tuple(abs(x) for x in r) for r in m.entries),
                         empty_cols=m.cols)


@dataclass(frozen=True)
class UnimodularityCheck:
    """Decision with a mandatory witness on failure.

    witness_rows/witness_cols index a square submatrix whose determinant
    lies outside {-1, 0, +1}.
    """

    ok: bool
    witness_rows: tuple[int, ...] | None = None
    witness_cols: tuple[int, ...] | None = None
    witness_det: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def _entry_witness(rows):
    """The first entry outside {0, +-1}, row-major, as a witness of order
    1; None if there is none."""
    if set(itertools.chain.from_iterable(rows)) <= {-1, 0, 1}:
        return None
    return next(((i,), (j,)) for i, row in enumerate(rows) for j, x in enumerate(row)
                if abs(x) > 1)


def _mask_witness(signs, start: int, stop: int):
    """The (rows, cols) tuples of the lexicographically least minor with
    |det| > 1 over the orders max(start, 2)..stop (least order first) of
    the {0, +-1} matrix whose rows have the (plus, minus) masks `signs`:
    the row positions in `signs` and the column bits of the witness; None
    if there is none.  No order below start may hold one.

    A 2 x 2 minor with |det| = 2 has four nonzero entries with an odd
    number of -1s: on a row pair, one column where the signs agree and one
    where they differ.  Its least columns are the lowest of either class
    and the lowest of the other class.  Order 2 takes polynomial time and
    is not gated.

    From order 3, each order k is searched for an Eulerian k x k submatrix
    (an even number of nonzero entries in each of its rows and columns)
    whose entries sum to 2 mod 4, under the TU bound.  Camion (1965;
    Schrijver 1986, Thm 19.3): with every minor of order below k in
    {0, +-1}, these are exactly the k x k minors with |det| > 1: such a
    minor is minimally non-TU, so Eulerian with sum 2 mod 4, and an
    Eulerian submatrix with sum 2 mod 4 is not TU while its proper minors
    are.  A minimally non-TU submatrix is nonsingular, so each of its
    columns meets its rows an even, nonzero number of times: the eligible
    columns are the bits of the rows' union outside their XOR.  A row
    meets a column mask in the bit count of its support there, and the
    entry sum is the plus count less the minus count.
    """
    if start <= 2:
        for (i, (p, q)), (k, (r, s)) in itertools.combinations(enumerate(signs), 2):
            agree, differ = p & r | q & s, p & s | q & r
            if agree and differ:
                low = (agree | differ) & -(agree | differ)
                other = differ if low & agree else agree
                return (i, k), (low.bit_length() - 1, (other & -other).bit_length() - 1)
    for k in range(max(start, 3), stop + 1):
        _gate("tu", "Eulerian search order", k)
        for picked in itertools.combinations(range(len(signs)), k):
            sub = [signs[i] for i in picked]
            union = parity = 0
            for p, q in sub:
                union |= p | q
                parity ^= p | q
            eligible = [1 << j for j in _mask_elements(union & ~parity)]
            for cols in itertools.combinations(eligible, k):
                mask = sum(cols)
                if (not any(((p | q) & mask).bit_count() & 1 for p, q in sub)
                        and sum((p & mask).bit_count() - (q & mask).bit_count()
                                for p, q in sub) % 4 == 2):
                    return picked, tuple(c.bit_length() - 1 for c in cols)
    return None


def _sign_masks(rows) -> tuple[list, list] | None:
    """The (plus, minus) pairs of int bitmasks of the rows and of the
    columns of a {0, +-1} matrix, read in one pass: bit j of row i's plus
    (minus) mask, and bit i of column j's, is set where entry (i, j) is +1
    (-1); None at the first entry outside {0, +-1}.  The one read of
    entries into sign masks, for the TU layer and `_mask_gauss_jordan`."""
    row_signs = []
    plus_cols = [0] * (len(rows[0]) if rows else 0)
    minus_cols = plus_cols[:]
    for i, row in enumerate(rows):
        bit = 1 << i
        plus = minus = 0
        for j, x in enumerate(row):
            if x:
                if x == 1:
                    plus |= 1 << j
                    plus_cols[j] |= bit
                elif x == -1:
                    minus |= 1 << j
                    minus_cols[j] |= bit
                else:
                    return None
        row_signs.append((plus, minus))
    return row_signs, list(zip(plus_cols, minus_cols))


def _mask_gauss_jordan(rows, among: int | None = None):
    """Gauss-Jordan elimination with unit pivots on the (plus, minus) row
    masks (`_sign_masks`) of a {0, +-1} matrix; None if an entry is outside
    {0, +-1}, in any column, or a step would make a +-2.

    Pivots are chosen as `_gauss_jordan` chooses them, but among the
    columns in the mask `among` (default: every column): left to right,
    each on the first row at or below the pivots found so far that is
    nonzero there, swapped up; the pass stops once every row holds a
    pivot.  A pivot row is negated to make its pivot +1, and subtracted
    from every other row that is +1 in its column, added to every one
    that is -1.  Subtracting a row (p, q) from a row (a, b) makes a +-2
    exactly where a & q | b & p is set, and adding it where a & p | b & q
    is.  A TU matrix stays TU under pivoting (Schrijver 1986, Sec. 19.1),
    so it never makes one.  Returns the masks of the reduced row echelon
    form and the pivot columns.
    """
    read = _sign_masks(rows)
    if read is None:
        return None
    signs = read[0]
    if among is None:
        among = (1 << len(read[1])) - 1
    cols: list[int] = []
    for c in _mask_elements(among):
        k, bit = len(cols), 1 << c
        for j in range(k, len(signs)):
            p, q = signs[j]
            if (p | q) & bit:
                break
        else:
            continue
        if q & bit:
            p, q = q, p
        signs[j] = signs[k]
        signs[k] = p, q
        for i, (a, b) in enumerate(signs):
            if i == k:
                continue
            # subtract the pivot row where the entry is +1, add it where -1
            if a & bit:
                if a & q | b & p:
                    return None
                signs[i] = (a | q) & ~(p | b), (b | p) & ~(q | a)
            elif b & bit:
                if a & p | b & q:
                    return None
                signs[i] = (a | p) & ~(q | b), (b | q) & ~(p | a)
        cols.append(c)
        if k + 1 == len(signs):
            break
    return signs, cols


def _strip(lines, live: int, other: int) -> int:
    """The lines in the mask `live` that one pass keeps, each line a
    (plus, minus) pair read on the lines of the other side in `other`: a
    line is dropped when it has fewer than two nonzero entries there or
    equals +- an earlier kept line."""
    kept, seen = 0, set()
    for i, (p, q) in enumerate(lines):
        if live >> i & 1:
            p &= other
            q &= other
            support = p | q
            if support & (support - 1) and (p, q) not in seen:
                kept |= 1 << i
                seen.add((p, q))
                seen.add((q, p))
    return kept


def _tu_core(row_signs, col_signs) -> tuple[int, int]:
    """The masks of the rows and columns of a {0, +-1} matrix, given by
    their sign masks (`_sign_masks`), left after stripping to a fixpoint.

    Stripped are zero lines, lines with a single nonzero entry (+-1), and
    lines equal to +- an earlier line, rows then columns in each round; a
    round only narrows the masks of the live rows and columns.  The core
    is TU iff the matrix is.
    """
    live_rows, live_cols = (1 << len(row_signs)) - 1, (1 << len(col_signs)) - 1
    while True:
        kept_rows = _strip(row_signs, live_rows, live_cols)
        kept_cols = _strip(col_signs, live_cols, kept_rows)
        # a fixpoint: nothing was stripped
        if kept_rows == live_rows and kept_cols == live_cols:
            return live_rows, live_cols
        live_rows, live_cols = kept_rows, kept_cols


def _mask_blocks(col_signs, rows: int, cols: int) -> list[tuple[int, int]]:
    """The (row mask, column mask) of each connected block of the graph
    joining row i to column j wherever entry (i, j) != 0, on the rows and
    columns in the masks `rows` and `cols`, ordered by their least row;
    zero lines omitted.  The row masks merge the columns' supports."""
    supports = [(j, (p | q) & rows) for j, (p, q) in enumerate(col_signs) if cols >> j & 1]
    return [(block, sum(1 << j for j, s in supports if s & block))
            for block in _components(s for _, s in supports)]


# The most square submatrices, C(r + c, r), of an r x c core block that
# `_mask_verdict` searches without realizing it first.  On seeded TU
# network cores (best of five, Python 3.11, 2 vCPUs) the search of a 5 x 7
# block (C = 792) took 102 us against 116 us for realizing it, of a 6 x 6
# block (924) 93 us against 108 us, and of a 6 x 7 block (1716) 158 us
# against 123 us; at 4 x 6 and below it was 3-8 times faster.
_SEARCH_FIRST = 924


def _tu_verdict(rows) -> bool:
    """Whether the matrix with these rows is TU, without a witness: the
    `_mask_verdict` of its sign masks, if `_sign_masks` reads them."""
    signs = _sign_masks(rows)
    return signs is not None and _mask_verdict(*signs)


def _mask_verdict(row_signs, col_signs) -> bool:
    """Whether the {0, +-1} matrix with these row and column sign masks
    (`_sign_masks`) is TU, without a witness.

    The verdict is decided on the reduced core (`_tu_core`): a square
    submatrix through a unit row expands along it to +-(a smaller minor)
    or 0, one through two +-parallel rows is singular, and one through
    only the later row has the earlier row's |det|; likewise for columns.
    So the core is TU iff the matrix is.  A square submatrix of a
    block-diagonal matrix is singular or a product of minors of the
    blocks, so the core is TU iff each of its connected blocks is
    (`_mask_blocks`).

    A block of r rows and c columns is searched for a witness outright
    (`_mask_witness` on its rows' masks, from order 2) when that search is
    small: at most `_SEARCH_FIRST` square submatrices, C(r + c, r) of them
    (Vandermonde), and no order past the TU bound in force, so it is never
    refused.  Any other block is TU when it or its transpose, its rows'
    masks over its columns, rescales to a network matrix, and not TU when
    a tree realizes its support but the signs do not rescale
    (`network.network_scaling`); the rows are realized only when the
    columns settle nothing, and only a block with neither realization is
    searched, under the gate.  No determinant is computed.
    """
    tu = _bound("tu")
    for block, cols in _mask_blocks(col_signs, *_tu_core(row_signs, col_signs)):
        by_row = [(p & cols, q & cols) for i, (p, q) in enumerate(row_signs) if block >> i & 1]
        r, c = len(by_row), cols.bit_count()
        verdict = None
        if min(r, c) > tu or math.comb(r + c, r) > _SEARCH_FIRST:
            by_col = [(p & block, q & block) for j, (p, q) in enumerate(col_signs)
                      if cols >> j & 1]
            verdict = network_scaling(by_col, block)
            if verdict is None:
                verdict = network_scaling(by_row, cols)
        if verdict is None:
            verdict = _mask_witness(by_row, 2, min(r, c)) is None
        if not verdict:
            return False
    return True


def is_totally_unimodular(m: IntegerMatrix) -> UnimodularityCheck:
    """Every square submatrix has determinant in {-1, 0, +1}.

    A "no" names the lexicographically least (order, rows, cols) minor of
    the input with |det| > 1, with its Bareiss determinant.  Order 1 is
    read off the entries (`_entry_witness`); without a witness there, the
    sign masks are read once (`_sign_masks`) and serve the order-2 scan,
    the verdict (`_mask_verdict`) and, only after a "no", the search of
    the input for the least witness of order 3 and up.  Only these
    searches are gated, of a core block or of the input, on the order
    they reach.
    """
    rows = m.entries
    found = _entry_witness(rows)
    if found is None:
        row_signs, col_signs = _sign_masks(rows)
        # the window of orders 1 and 2, order 1 already clear: the row-pair scan
        found = _mask_witness(row_signs, 1, 2)
        if found is None and _mask_verdict(row_signs, col_signs):
            return UnimodularityCheck(True)
        found = found or _mask_witness(row_signs, 3, min(m.rows, m.cols))
    if not found:
        raise FlowLatticeError("broken invariant: the TU verdict is no, yet no "
                               "Eulerian submatrix has entry sum 2 mod 4")
    return UnimodularityCheck(False, *found, determinant(m.submatrix(*found)))


def is_weakly_unimodular(m: IntegerMatrix) -> UnimodularityCheck:
    """Every maximal square submatrix has determinant in {-1, 0, +1}.

    Let k = min(rows, cols).  One Bareiss elimination decides
    the verdict, of w = m, or of its transpose when m has more rows than
    columns, so that w has k rows.  Rank below k makes every maximal minor
    0.  Otherwise the reduced rows are d B^-1 w, B the pivot columns of w
    and d = +-det B the last pivot.  They hold d I_k, so they are TU only
    if d = +-1, and then their maximal minors are +- those of w; a matrix
    holding I_k is TU iff its maximal minors lie in {0, +-1}.  So m is WU
    iff the reduced rows are TU.

    A "no" names the lexicographically least maximal minor of m with
    |det| > 1.  The pivot columns of w are its lexicographically least
    base: each earlier k-subset holds a column in the span of those before
    it, so its minor is 0.  So when |d| > 1 they are the witness, the
    columns of m or, for a tall m, its rows.  The elimination skipped
    every other column, so it is that of B alone: det B is d signed by
    the inversions of its row order (`_signed_pivot`, as `determinant`
    signs it), and B^T, the witness of a tall m, has the same
    determinant.  Only when |d| = 1 are the maximal minors enumerated in
    lexicographic order, one determinant each; the TU bound gates the
    order k of that enumeration.
    """
    k = min(m.rows, m.cols)
    if k == 0:
        return UnimodularityCheck(True)
    w = m if m.rows <= m.cols else m.transpose()
    reduced, pivot_cols, order, pivots, _ = _gauss_jordan(w.entries)
    if len(pivot_cols) < k or _tu_verdict(reduced):
        return UnimodularityCheck(True)
    if abs(pivots[-1]) > 1:
        rows, cols = (range(k), pivot_cols) if w is m else (pivot_cols, range(k))
        return UnimodularityCheck(False, tuple(rows), tuple(cols),
                                  _signed_pivot(order, pivots[-1]))
    _gate("tu", "maximal-minor search order", k)
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            d = determinant(m.submatrix(rows, cols))
            if abs(d) > 1:
                return UnimodularityCheck(False, rows, cols, d)
    raise FlowLatticeError("broken invariant: the WU verdict is no, yet every "
                           "maximal minor is in {-1, 0, +1}")
