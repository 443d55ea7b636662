"""Exact integer matrix kernel.

Dense matrices of arbitrary-precision integers; one fraction-free
(Bareiss) Gauss-Jordan elimination that yields rank, determinant,
leading minors, exact solves and inverses; saturated integer kernels;
total and weak unimodularity tests; and the size bounds that gate every
enumeration of the package.  Total unimodularity is decided on the
matrix reduced by unit and parallel lines, block by block: a block is
settled by a verified network or co-network realization in polynomial
time, and only a block with neither is decided by enumerating its
minors.  A "no" enumerates the input for the lexicographically least
witness.
"""

from __future__ import annotations

import itertools
import os
from contextvars import ContextVar
from dataclasses import dataclass
from types import MappingProxyType

from .errors import BoundExceededError, DimensionError, FormatError
from .network import network_scaling

# default of each bound kind, in the order of the CLI's --<kind>-bound flags
BOUND_DEFAULTS = MappingProxyType({"tu": 10, "circuit": 20, "iso": 12, "subset": 20})

# the bound flags of the current `cli.run` call, kind -> value
call_bounds: ContextVar = ContextVar("call_bounds", default=MappingProxyType({}))


def _bound(kind: str, override: int | None = None) -> int:
    """The bound of a kind: the override, else the current call's flag,
    else FLOWLAT_<KIND>_BOUND (read only here, when it is consulted),
    else the default."""
    if override is not None:
        return override
    flag = call_bounds.get().get(kind)
    if flag is not None:
        return flag
    name = f"FLOWLAT_{kind.upper()}_BOUND"
    raw = os.environ.get(name)
    if raw is None:
        return BOUND_DEFAULTS[kind]
    try:
        value = int(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise FormatError(f"{name} must be a positive integer, got {raw!r}")


def _gate(kind: str, what: str, size: int, override: int | None = None) -> int:
    """size, if within the bound of its kind; raises BoundExceededError past it."""
    b = _bound(kind, override)
    if size > b:
        raise BoundExceededError(what, size, b)
    return size


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable dense matrix of Python ints, row-major."""

    entries: tuple[tuple[int, ...], ...]
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None
    # column count of a zero-row matrix; reset to 0 when entries is nonempty,
    # so equality and hashing see entries, labels and shape only
    empty_cols: int = 0

    def __post_init__(self):
        if self.entries and self.empty_cols:
            object.__setattr__(self, "empty_cols", 0)
        widths = {len(r) for r in self.entries}
        if len(widths) > 1:
            raise DimensionError("ragged rows")
        if self.row_labels is not None:
            if len(self.row_labels) != self.rows or len(set(self.row_labels)) != self.rows:
                raise DimensionError("row labels must be unique and match row count")
        if self.col_labels is not None:
            if len(self.col_labels) != self.cols or len(set(self.col_labels)) != self.cols:
                raise DimensionError("column labels must be unique and match column count")

    @staticmethod
    def from_rows(rows, row_labels=None, col_labels=None) -> "IntegerMatrix":
        return IntegerMatrix(
            tuple(tuple(int(x) for x in r) for r in rows),
            None if row_labels is None else tuple(row_labels),
            None if col_labels is None else tuple(col_labels),
        )

    @staticmethod
    def from_columns(cols, nrows: int | None = None) -> "IntegerMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if not cols:
            return IntegerMatrix.from_rows([()] * (nrows or 0))
        if not cols[0]:
            return IntegerMatrix((), empty_cols=len(cols))
        return IntegerMatrix.from_rows(zip(*cols))

    @staticmethod
    def empty(rows: int, cols: int) -> "IntegerMatrix":
        if rows == 0:
            return IntegerMatrix((), empty_cols=cols)
        return IntegerMatrix.from_rows([()] * rows) if cols == 0 else \
            IntegerMatrix.zeros(rows, cols)

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix.from_rows([[0] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else self.empty_cols

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "IntegerMatrix":
        if not self.entries:
            return IntegerMatrix.from_rows([()] * self.empty_cols)
        if self.cols == 0:
            return IntegerMatrix((), empty_cols=self.rows)
        return IntegerMatrix.from_rows(zip(*self.entries))

    def submatrix(self, row_idx, col_idx) -> "IntegerMatrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        if not row_idx:
            return IntegerMatrix((), empty_cols=len(col_idx))
        return IntegerMatrix.from_rows(
            [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    def select_columns(self, col_idx) -> "IntegerMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def select_rows(self, row_idx) -> "IntegerMatrix":
        return self.submatrix(row_idx, range(self.cols))

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise DimensionError("hstack: row counts differ")
        if not self.entries:
            return IntegerMatrix((), empty_cols=self.cols + other.cols)
        return IntegerMatrix.from_rows(
            [a + b for a, b in zip(self.entries, other.entries)]
        )

    def vstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.cols:
            raise DimensionError("vstack: column counts differ")
        return IntegerMatrix.from_rows(self.entries + other.entries)

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if not self.entries:
            return IntegerMatrix((), empty_cols=other.cols)
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        return IntegerMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        )

    def __neg__(self) -> "IntegerMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntegerMatrix":
        if not self.entries:
            return IntegerMatrix((), empty_cols=self.empty_cols)
        return IntegerMatrix.from_rows([[c * x for x in r] for r in self.entries])

    def text(self) -> str:
        """Render in the shared matrix text format."""
        lines = [f"{self.rows} {self.cols}"]
        lines += [" ".join(str(x) for x in r) for r in self.entries]
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.text().rstrip("\n")


def parse_matrix(text: str) -> IntegerMatrix:
    """Parse the shared matrix text format: "rows cols" then the entries.

    '#' begins a comment line; entries may wrap across lines.
    """
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 2:
        raise FormatError("matrix text needs a 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        body = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise FormatError(f"non-integer token in matrix text: {exc}") from exc
    if rows < 0 or cols < 0 or len(body) != rows * cols:
        raise FormatError(
            f"expected {rows}x{cols} = {rows * cols} entries, got {len(body)}"
        )
    if rows == 0:
        return IntegerMatrix((), empty_cols=cols)
    return IntegerMatrix.from_rows(
        [body[i * cols:(i + 1) * cols] for i in range(rows)]
    )


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
    work = [list(col) + [1 if i == j else 0 for j in range(n)]
            for i, col in enumerate(zip(*m.entries))] if m.entries else \
           [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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
    if not m.entries:
        return IntegerMatrix((), empty_cols=m.empty_cols)
    return IntegerMatrix.from_rows([[abs(x) for x in r] for r in m.entries])


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


def _minor_det(m: IntegerMatrix, rows: tuple, cols: tuple, memo: dict) -> int:
    key = (rows, cols)
    got = memo.get(key)
    if got is not None:
        return got
    if len(rows) == 1:
        d = m.entries[rows[0]][cols[0]]
    else:
        d = 0
        rest = rows[1:]
        sign = 1
        for j, c in enumerate(cols):
            a = m.entries[rows[0]][c]
            if a:
                d += sign * a * _minor_det(m, rest, cols[:j] + cols[j + 1:], memo)
            sign = -sign
    memo[key] = d
    return d


def _check_minors(m: IntegerMatrix, orders) -> UnimodularityCheck:
    """Minors of the given orders, ascending; fails on the lexicographically
    least (order, rows, cols) one with |det| > 1."""
    memo: dict = {}
    for k in orders:
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                d = _minor_det(m, rows, cols, memo)
                if abs(d) > 1:
                    return UnimodularityCheck(False, rows, cols, d)
    return UnimodularityCheck(True)


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
        shape = (len(rows), len(rows[0]) if rows else 0)
        cols = _strip_lines(list(zip(*_strip_lines(rows))))
        rows = list(zip(*cols))
        if (len(rows), len(cols)) == shape:
            return IntegerMatrix(tuple(rows))


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
    of it or of its transpose, else by enumerating its minors."""
    for rows in (b.entries, tuple(zip(*b.entries))):
        verdict = network_scaling(rows)
        if verdict is not None:
            return verdict
    return bool(_check_minors(b, range(1, min(b.rows, b.cols) + 1)))


def is_totally_unimodular(m: IntegerMatrix, bound: int | None = None) -> UnimodularityCheck:
    """Every square submatrix has determinant in {-1, 0, +1}.

    The bound gates the input's min(rows, cols).  The verdict is decided
    on the reduced core (`_tu_core`): a square submatrix through a unit
    row expands along it to +-(a smaller minor) or 0, one through two
    +-parallel rows is singular, and one through only the later row has
    the earlier row's |det|; likewise for columns.  So the core is TU iff
    the input is.  A square submatrix of a block-diagonal matrix is
    singular or a product of minors of the blocks, so the core is TU iff
    each of its connected blocks is (`_blocks`).  A block is TU when it
    or its transpose rescales to a network matrix, and not TU when a
    tree realizes its support but the signs do not rescale
    (`network.network_scaling`, checked entry by entry); only a block
    with neither realization has its minors enumerated.  When the core
    is not TU (or has an entry outside {0, +-1}), the input itself is
    enumerated ascending by submatrix order, so the witness is the
    lexicographically least one.
    """
    order_cap = _gate("tu", "min(rows, cols)", min(m.rows, m.cols), bound)
    core = _tu_core(m)
    if core is not None and all(_block_is_tu(core.submatrix(rows, cols))
                                for rows, cols in _blocks(core)):
        return UnimodularityCheck(True)
    return _check_minors(m, range(1, order_cap + 1))


def is_weakly_unimodular(m: IntegerMatrix, bound: int | None = None) -> UnimodularityCheck:
    """Every maximal square submatrix has determinant in {-1, 0, +1}."""
    k = _gate("tu", "min(rows, cols)", min(m.rows, m.cols), bound)
    if k == 0:
        return UnimodularityCheck(True)
    return _check_minors(m, (k,))
