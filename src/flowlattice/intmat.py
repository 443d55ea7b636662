"""Exact integer matrix kernel.

Dense matrices of arbitrary-precision integers; one fraction-free
(Bareiss) Gauss-Jordan elimination that yields rank, determinant,
leading minors, exact solves and inverses, and is the only determinant
code of the package; saturated integer kernels; total and weak
unimodularity tests; and `bounds`, the one place that sets the bounds
each exponential search checks.  Total unimodularity is decided on the
matrix reduced by unit and parallel lines, block by block: a block is
settled by a verified network or co-network realization in polynomial
time, and only a block with neither is searched for an Eulerian
submatrix whose entries sum to 2 mod 4 (Camion 1965).  A "no" runs the
same search on the input, order by order, for the lexicographically
least witness.  Weak unimodularity is decided by one elimination and
the TU verdict of its reduced rows; only a "no" enumerates maximal
minors for a witness.  The TU bound gates the order of these searches.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from types import MappingProxyType

from .errors import BoundExceededError, DimensionError, FlowLatticeError, FormatError
from .network import network_scaling

# default of each bound kind, in the order of the CLI's --<kind>-bound flags
BOUND_DEFAULTS = MappingProxyType({"tu": 10, "circuit": 20, "iso": 12, "subset": 20})

# the bounds of the enclosing `bounds` scopes, kind -> value
call_bounds: ContextVar = ContextVar("call_bounds", default=MappingProxyType({}))


def bounds(**limits: int):
    """A scope binding bounds by kind for every call inside it, nested ones
    included: `with bounds(tu=12):`.  An inner scope keeps the outer one's
    other kinds; each restores on exit, by exception too.  An unknown kind
    or a value that is not a positive int raises ValueError on the call."""
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


def _gate(kind: str, what: str, size: int) -> int:
    """size, if within the bound of its kind (the innermost scope's value, else
    the default); raises BoundExceededError past it."""
    b = call_bounds.get().get(kind, BOUND_DEFAULTS[kind])
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
        return IntegerMatrix(tuple(tuple(int(x) for x in r) for r in rows))

    @staticmethod
    def from_columns(cols, nrows: int = 0) -> "IntegerMatrix":
        """The matrix with these columns; nrows is its row count when there
        are no columns."""
        return IntegerMatrix(tuple(tuple(int(x) for x in c) for c in cols),
                             empty_cols=nrows).transpose()

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(((0,) * cols,) * rows, empty_cols=cols)

    empty = zeros

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
        return IntegerMatrix(tuple(self.columns()), empty_cols=self.rows)

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
        ot = other.transpose().entries
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


def _content_lines(text: str) -> list[str]:
    """The lines of text with each '#' comment cut off, stripped, blank ones dropped."""
    return [ln for ln in (line.split("#", 1)[0].strip() for line in text.splitlines()) if ln]


def parse_matrix(text: str) -> IntegerMatrix:
    """Parse the shared matrix text format: "rows cols" then the entries.

    '#' begins a comment; entries may wrap across lines.
    """
    tokens = [t for line in _content_lines(text) for t in line.split()]
    if len(tokens) < 2:
        raise FormatError("matrix text needs a 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        body = tuple(int(t) for t in tokens[2:])
    except ValueError as exc:
        raise FormatError(f"non-integer token in matrix text: {exc}") from exc
    # empty rows hold no entries, so only the line count bounds them (one
    # blank line each, as `text` writes them) before any is allocated
    if cols == 0 and rows > len(text.splitlines()):
        raise FormatError(f"{rows} empty rows need one line each, "
                          f"got {len(text.splitlines())} lines")
    if rows < 0 or cols < 0 or len(body) != rows * cols:
        raise FormatError(
            f"expected {rows}x{cols} = {rows * cols} entries, got {len(body)}"
        )
    return IntegerMatrix(tuple(body[i * cols:(i + 1) * cols] for i in range(rows)),
                         empty_cols=cols)


def _gauss_jordan(rows, width: int | None = None):
    """Fraction-free (Bareiss) Gauss-Jordan elimination over the integers.

    Pivots are sought in the first `width` columns (default: all), left
    to right, each on the first row at or below the pivots found so far
    that is nonzero there; that row is swapped up.  Every other row r
    becomes (p * r - r[c] * pivot row) // (previous pivot), an exact
    division (Bareiss 1968), so all entries stay integral.  Returns the
    reduced rows, the pivot columns, the original row index of each
    pivot, and the pivot values: pivot k is the leading (k+1)-minor of
    the row-permuted matrix on the pivot columns.  With d the last
    pivot, the reduced rows are d times the reduced row echelon form, so
    [M | I] for an invertible M ends at [d I | d M^-1].
    """
    a = [list(r) for r in rows]
    order = list(range(len(a)))
    if width is None:
        width = len(a[0]) if a else 0
    cols: list[int] = []
    pivots: list[int] = []
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
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pk)]
        cols.append(c)
        pivots.append(p)
        prev = p
        if k + 1 == len(a):
            break
    return a, cols, order[:len(cols)], pivots


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant: the last Bareiss pivot, signed by the row swaps."""
    if not m.is_square:
        raise DimensionError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    if m.rows == 0:
        return 1
    _, cols, order, pivots = _gauss_jordan(m.entries)
    if len(cols) < m.rows:
        return 0
    inversions = sum(a > b for a, b in itertools.combinations(order, 2))
    return (-1) ** inversions * pivots[-1]


def rank(m: IntegerMatrix) -> int:
    """Rank over the rationals: the number of Bareiss pivots."""
    return len(_gauss_jordan(m.entries)[1])


def integer_kernel_basis(m: IntegerMatrix) -> IntegerMatrix:
    """Basis of ker(m) over the integers: columns span ker(m) ∩ Z^cols.

    Integer row reduction of [m^T | I] by unimodular operations; the
    identity block rows facing a zeroed m^T row form a saturated basis,
    so every integer kernel vector is an integer combination of the
    columns (not merely a finite-index sublattice).
    """
    n, r = m.cols, m.rows
    work = [list(col) + [int(i == j) for j in range(n)]
            for i, col in enumerate(m.columns())]
    # work is n rows of [m^T | I_n]
    pivot_row = 0
    for col in range(r):
        while True:
            live = [i for i in range(pivot_row, n) if work[i][col] != 0]
            if not live:
                break
            best = min(live, key=lambda i: abs(work[i][col]))
            work[pivot_row], work[best] = work[best], work[pivot_row]
            done = True
            p = work[pivot_row][col]
            for i in range(pivot_row + 1, n):
                if work[i][col] != 0:
                    q = work[i][col] // p
                    work[i] = [x - q * y for x, y in zip(work[i], work[pivot_row])]
                    if work[i][col] != 0:
                        done = False
            if done:
                pivot_row += 1
                break
    kernel_rows = [row[r:] for row in work[pivot_row:]]
    return IntegerMatrix.from_columns(kernel_rows, nrows=n)


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


def _eulerian_witness(m: IntegerMatrix, k: int) -> tuple[tuple, tuple] | None:
    """The lexicographically least (rows, cols) of a k x k submatrix of the
    {0, +-1} matrix m that is Eulerian (an even number of nonzero entries in
    each of its rows and columns) and whose entries sum to 2 mod 4; None if
    there is none.

    Camion (1965; Schrijver 1986, Thm 19.3): m is TU iff no order has one.
    When every minor of order below k lies in {0, +-1}, these are exactly
    the k x k minors with |det| > 1: such a minor is minimally non-TU, so
    Eulerian with sum 2 mod 4, and an Eulerian submatrix with sum 2 mod 4
    is not TU while its proper minors are.  A minimally non-TU submatrix
    is nonsingular, so each of its columns meets its rows an even, nonzero
    number of times; only those columns are tried.  The TU bound gates k.
    """
    _gate("tu", "Eulerian search order", k)
    for rows in itertools.combinations(range(m.rows), k):
        sub = [m.entries[i] for i in rows]
        counts = [sum(1 for r in sub if r[j]) for j in range(m.cols)]
        eligible = [j for j, n in enumerate(counts) if n and n % 2 == 0]
        for cols in itertools.combinations(eligible, k):
            if (all(sum(1 for j in cols if r[j]) % 2 == 0 for r in sub)
                    and sum(r[j] for r in sub for j in cols) % 4 == 2):
                return rows, cols
    return None


def _strip_lines(lines: list) -> list:
    """Drop zero lines, unit lines, and lines equal to +- an earlier one."""
    kept, seen = [], set()
    for line in lines:
        if sum(map(abs, line)) <= 1 or line in seen:
            continue
        kept.append(line)
        seen.add(line)
        seen.add(tuple(-x for x in line))
    return kept


def _tu_core(m: IntegerMatrix) -> IntegerMatrix | None:
    """The {0, +-1} matrix left after stripping rows and columns to a fixpoint.

    Stripped are zero lines, lines with a single nonzero entry (+-1), and
    lines equal to +- an earlier line.  None if some entry lies outside
    {0, +-1}.  The core is TU iff m is.
    """
    if any(x not in (-1, 0, 1) for row in m.entries for x in row):
        return None
    rows = list(m.entries)
    while True:
        cols = _strip_lines(list(zip(*_strip_lines(rows))))
        stripped = list(zip(*cols))
        # a fixpoint: nothing was stripped, so the rows come back unchanged
        if stripped == rows:
            return IntegerMatrix(tuple(rows), empty_cols=len(cols))
        rows = stripped


def _blocks(m: IntegerMatrix) -> list[tuple[list[int], list[int]]]:
    """Row and column indices of the connected components of the graph
    joining row i to column j wherever m[i][j] != 0; zero lines omitted."""
    blocks, seen = [], set()
    for start in range(m.rows):
        if start in seen or not any(m.entries[start]):
            continue
        rows, cols = [start], []
        seen.add(start)
        for i in rows:
            for j, x in enumerate(m.entries[i]):
                if x and j not in cols:
                    cols.append(j)
                    for k in range(m.rows):
                        if m.entries[k][j] and k not in seen:
                            seen.add(k)
                            rows.append(k)
        blocks.append((sorted(rows), sorted(cols)))
    return blocks


def _block_is_tu(b: IntegerMatrix) -> bool:
    """A connected {0, +-1} matrix is TU: by a verified network realization
    of it or of its transpose, else by Camion's test (`_eulerian_witness`)."""
    for rows in (b.entries, tuple(zip(*b.entries))):
        verdict = network_scaling(rows)
        if verdict is not None:
            return verdict
    return not any(_eulerian_witness(b, k) for k in range(2, min(b.rows, b.cols) + 1))


def _tu_verdict(m: IntegerMatrix) -> bool:
    """Whether m is TU, without a witness.

    The verdict is decided on the reduced core (`_tu_core`): a square
    submatrix through a unit row expands along it to +-(a smaller minor)
    or 0, one through two +-parallel rows is singular, and one through
    only the later row has the earlier row's |det|; likewise for columns.
    So the core is TU iff m is.  A square submatrix of a block-diagonal
    matrix is singular or a product of minors of the blocks, so the core
    is TU iff each of its connected blocks is (`_blocks`).  A block is TU
    when it or its transpose rescales to a network matrix, and not TU
    when a tree realizes its support but the signs do not rescale
    (`network.network_scaling`, checked entry by entry); only a block
    with neither realization is searched for an Eulerian submatrix with
    entry sum 2 mod 4 (Camion), and computes no determinant.
    """
    core = _tu_core(m)
    return core is not None and all(_block_is_tu(core.submatrix(rows, cols))
                                    for rows, cols in _blocks(core))


def is_totally_unimodular(m: IntegerMatrix) -> UnimodularityCheck:
    """Every square submatrix has determinant in {-1, 0, +1}.

    The verdict is `_tu_verdict`.  When it is no, the witness is the
    lexicographically least (order, rows, cols) minor of the input with
    |det| > 1: an entry outside {0, +-1}, else the least `_eulerian_witness`
    of the lowest order that has one, with its Bareiss determinant.  Only
    those searches, of a core block or of the input, are gated.
    """
    if _tu_verdict(m):
        return UnimodularityCheck(True)
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if abs(x) > 1:
                return UnimodularityCheck(False, (i,), (j,), x)
    for k in range(2, min(m.rows, m.cols) + 1):
        found = _eulerian_witness(m, k)
        if found:
            return UnimodularityCheck(False, *found, determinant(m.submatrix(*found)))
    raise FlowLatticeError("broken invariant: the TU verdict is no, yet no "
                           "Eulerian submatrix has entry sum 2 mod 4")


def is_weakly_unimodular(m: IntegerMatrix) -> UnimodularityCheck:
    """Every maximal square submatrix has determinant in {-1, 0, +1}.

    Let k = min(rows, cols).  One Bareiss elimination decides
    the verdict, of w = m, or of its transpose when m has more rows than
    columns, so that w has k rows.  Rank below k makes every maximal minor
    0.  Otherwise the reduced rows are d B^-1 w, B the pivot columns of w
    and d = +-det B the last pivot.  They hold d I_k, so they are TU only
    if d = +-1, and then their maximal minors are +- those of w; a matrix
    holding I_k is TU iff its maximal minors lie in {0, +-1}.  So m is WU
    iff the reduced rows are TU.  Only a "no" enumerates the maximal
    minors of m in lexicographic order, one Bareiss determinant each, for
    the least witness; the TU bound gates its order k.
    """
    k = min(m.rows, m.cols)
    if k == 0:
        return UnimodularityCheck(True)
    w = m if m.rows <= m.cols else m.transpose()
    reduced, pivot_cols, _, _ = _gauss_jordan(w.entries)
    if len(pivot_cols) < k or _tu_verdict(IntegerMatrix(tuple(map(tuple, reduced)))):
        return UnimodularityCheck(True)
    _gate("tu", "maximal-minor search order", k)
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            d = determinant(m.submatrix(rows, cols))
            if abs(d) > 1:
                return UnimodularityCheck(False, rows, cols, d)
    raise FlowLatticeError("broken invariant: the WU verdict is no, yet every "
                           "maximal minor is in {-1, 0, +1}")
