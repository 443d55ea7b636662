"""Total and weak unimodularity by enumerating every minor of the input.

`flowlattice.intmat.is_totally_unimodular` decides the verdict on the
matrix left after stripping zero, unit and +-parallel rows and columns,
and names its witness by Camion's Eulerian test; `is_weakly_unimodular`
decides by one elimination.  These are the earlier routines, which
expand every minor by cofactors with a memo; the tests compare the two
for exact equality, witnesses included.  `eulerian_witness` is Camion's
test on tuples of entries, before the library read it off sign bitmasks;
`least_witness` is it from order 3, with orders 1 and 2 by brute force,
the one search the library runs for every witness.  `blocks` is the
breadth-first search for connected blocks that the library replaced by a
merge of column masks.  `tu_core` is the earlier core, which strips rows
and columns on tuples of entries and transposes the matrix by `zip` twice
a round, where the library narrows (plus, minus) masks;
`tu_verdict_by_tuples` decides the verdict on its blocks by
`block_is_tu`.  That is the block decision the library replaced by one on
sign masks: `network_scaling` reads a block as rows of entries, realizes
the transpose of a `zip`, and checks every entry of the rescaled network
matrix; its search from order 2 is `least_witness`, and its realizer
`network_oracles._realize`, the one the library's was rewritten from.
`tu_check_by_tuples` is `is_totally_unimodular` on that path.
"""

import itertools

from flowlattice.intmat import IntegerMatrix, UnimodularityCheck, _gate
from flowlattice.network import _mask_elements
from network_oracles import _odd_vertices, _realize


def eulerian_witness(m, k: int) -> tuple[tuple, tuple] | None:
    """The lexicographically least (rows, cols) of a k x k Eulerian
    submatrix of the {0, +-1} matrix m whose entries sum to 2 mod 4, among
    the columns that meet its rows an even, nonzero number of times; None
    if there is none.  The TU bound gates k."""
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


def least_witness(m, start: int, stop: int) -> tuple[tuple, tuple] | None:
    """The lexicographically least (rows, cols) of a minor of m with
    |det| > 1 over the orders start..stop: every minor of order 1 or 2,
    then `eulerian_witness`, which holds when no order below start has
    one."""
    for k in range(start, stop + 1):
        if k > 2:
            found = eulerian_witness(m, k)
            if found:
                return found
            continue
        memo: dict = {}
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                if abs(_minor_det(m, rows, cols, memo)) > 1:
                    return rows, cols
    return None


def blocks(m) -> list[tuple[list[int], list[int]]]:
    """Row and column indices of the connected components of the graph
    joining row i to column j wherever m[i][j] != 0; zero lines omitted."""
    found, seen = [], set()
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
        found.append((sorted(rows), sorted(cols)))
    return found


def strip_lines(lines: list) -> list:
    """Drop zero lines, unit lines, and lines equal to +- an earlier one."""
    kept, seen = [], set()
    for line in lines:
        if sum(map(abs, line)) <= 1 or line in seen:
            continue
        kept.append(line)
        seen.add(line)
        seen.add(tuple(-x for x in line))
    return kept


def tu_core(rows) -> list | None:
    """The rows of the {0, +-1} matrix left after stripping rows and
    columns to a fixpoint, by `strip_lines`; None if some entry lies
    outside {0, +-1}."""
    if any(x not in (-1, 0, 1) for row in rows for x in row):
        return None
    rows = list(map(tuple, rows))
    while True:
        stripped = list(zip(*strip_lines(list(zip(*strip_lines(rows))))))
        # a fixpoint: nothing was stripped, so the rows come back unchanged
        if stripped == rows:
            return rows
        rows = stripped


def tree_paths(tree, nrows: int, supports):
    """For each support (a mask over the rows), its path in the tree as
    {row: +-1}, +1 where the path runs from parent to child; None if `tree`
    is not a tree on the rows 0..nrows-1 or some support is not the edge
    set of a path."""
    if sorted(tree) != list(range(nrows)):
        return None
    adj: dict = {}
    for r, (u, v) in tree.items():
        adj.setdefault(u, []).append((v, r))
        adj.setdefault(v, []).append((u, r))
    root = next(iter(adj), None)
    parent, depth = {root: None}, {root: 0}
    queue = [root]
    for u in queue:
        for v, r in adj.get(u, ()):
            if v not in parent:
                parent[v], depth[v] = (u, r), depth[u] + 1
                queue.append(v)
    # n edges joining n + 1 vertices into one component form a tree
    if len(adj) != nrows + 1 or len(parent) != len(adj):
        return None
    paths = []
    for support in supports:
        path, on = {}, 0
        odd = _odd_vertices(tree[r] for r in _mask_elements(support))
        if len(odd) == 2:
            a, b = odd
            while a != b:
                if depth[a] >= depth[b]:
                    a, r = parent[a]
                    path[r] = -1
                else:
                    b, r = parent[b]
                    path[r] = 1
                on |= 1 << r
        if on != support:
            return None
        paths.append(path)
    return paths


def network_scaling(rows) -> bool | None:
    """A connected {0, +-1} matrix, as rows of entries, against the
    network matrices: True if it is D_r N D_c for the network matrix N of
    a tree realizing its support, False if such a tree exists but the
    signs do not rescale, None if no tree realizes its support."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    supports = [sum(1 << i for i, x in enumerate(col) if x) for col in zip(*rows)]
    tree = _realize(list(range(nrows)), supports, itertools.count())
    paths = None if tree is None else tree_paths(tree, nrows, supports)
    if paths is None:
        return None
    # D_r and D_c read along a spanning forest of the nonzero entries
    dr, dc = [0] * nrows, [0] * ncols
    for start in range(nrows):
        if dr[start]:
            continue
        dr[start] = 1
        queue = [start]
        for i in queue:
            for j in range(ncols):
                if rows[i][j] and not dc[j]:
                    dc[j] = rows[i][j] * dr[i] * paths[j][i]
                    for k in paths[j]:
                        if not dr[k]:
                            dr[k] = rows[k][j] * paths[j][k] * dc[j]
                            queue.append(k)
    return all(rows[i][j] == dr[i] * paths[j].get(i, 0) * dc[j]
               for i in range(nrows) for j in range(ncols))


def block_is_tu(block) -> bool:
    """A connected {0, +-1} matrix is TU: by a verified network realization
    of it or of its transpose, else by `least_witness` from order 2."""
    for rows in (block, tuple(zip(*block))):
        verdict = network_scaling(rows)
        if verdict is not None:
            return verdict
    m = IntegerMatrix(tuple(block))
    return least_witness(m, 2, min(m.rows, m.cols)) is None


def tu_verdict_by_tuples(rows) -> bool:
    """The TU verdict on the blocks (`blocks`) of `tu_core`."""
    core = tu_core(rows)
    if core is None:
        return False
    m = IntegerMatrix(tuple(core))
    return all(block_is_tu([tuple(core[i][j] for j in cols) for i in picked])
               for picked, cols in blocks(m))


def tu_check_by_tuples(m) -> UnimodularityCheck:
    """`is_totally_unimodular` on tuples: orders 1 and 2 by `least_witness`,
    the verdict by `tu_verdict_by_tuples`, and the witness of a "no" past
    order 2 by `least_witness` from order 3, signed by cofactors."""
    top = min(m.rows, m.cols)
    found = least_witness(m, 1, min(2, top))
    if found is None and tu_verdict_by_tuples(m.entries):
        return UnimodularityCheck(True)
    found = found or least_witness(m, 3, top)
    return UnimodularityCheck(False, *found, _minor_det(m, *found, {}))


def _minor_det(m, rows: tuple, cols: tuple, memo: dict) -> int:
    """Determinant of m[rows, cols] by expansion along its first row."""
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


def _order_cap(m) -> int:
    """min(rows, cols), gated by the TU bound of the enclosing `bounds` scope."""
    return _gate("tu", "min(rows, cols)", min(m.rows, m.cols))


def _check_minors(m, orders) -> UnimodularityCheck:
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


def tu_by_enumeration(m) -> UnimodularityCheck:
    """Every order, ascending; the first witness is lexicographically least."""
    return _check_minors(m, range(1, _order_cap(m) + 1))


def wu_by_enumeration(m) -> UnimodularityCheck:
    """The maximal order only; the first witness is lexicographically least."""
    k = _order_cap(m)
    return _check_minors(m, (k,) if k else ())
