"""Network matrices: graph realization of a support, checked column by column.

A network matrix N has a directed tree whose edges index its rows and,
for each column, a path in that tree: N[e][c] is +1 where the path of c
runs along e, -1 where it runs against e, and 0 where it misses e.
Network matrices are totally unimodular, and so are their transposes and
every matrix made from one by negating rows and columns (Tutte 1960;
Schrijver 1986, section 19.3).

`network_scaling` finds a tree whose paths carry the support of a
matrix, if one exists (the graph-realization problem), and then checks
the matrix against the network matrix of that tree independently of
how the tree was found.  A faulty realizer can therefore cost time,
never a wrong verdict.

Like the GF(2) echelon of `matroid`, the realizer works on int bitmasks
and takes a matrix as `intmat`'s TU layer holds it: each column a
(plus, minus) pair of masks over a mask of rows, so a transpose is the
same call with the sides swapped.  `_components` merges masks into
connected components, for the bridges of the realizer and the blocks of
the TU verdict.  The realizer's vertices are the nonnegative ints it
draws, read as bits: a vertex set is a mask, a trace's end an XOR.  A
row r0 with one bridge is passed over once the components are counted;
a one-row bridge is hung as the star a recursion would return; and the
bridge order is two tables, `below` and `above`, built once per split.
The tree check maps any hashable vertex labels to dense indices once.
"""

from __future__ import annotations

import itertools


def _mask_elements(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _realize(rows, cols, fresh):
    """A tree whose edges are `rows`, in which every support in `cols` (a
    mask over the rows) is the edge set of a path: row -> (vertex, vertex),
    or None if none exists.

    The rows and columns must form a connected bipartite graph.  Vertices
    are drawn from the iterator `fresh`, and every vertex of the tree is
    one of its items; `_glue` reads them as bit positions, so they must be
    nonnegative ints, as `itertools.count()` gives.  When every support
    has at most two rows, a star realizes them all.  Otherwise a row r0 is
    chosen whose removal leaves at least two bridges: the components of
    the remaining rows joined by the supports that miss r0.  Such a row
    exists in any realization (an inner edge of a path of three or more
    edges), and each bridge lies on one side of r0.  A bridge i is
    realized recursively together with r0, which then hangs off the
    bridge at one vertex a_i, with the traces c ∩ R_i of the supports
    through r0 as paths from a_i.  Two bridges sharing a support
    through r0 can lie on one side of r0 only if one hangs at the end
    of a single trace of the other; the bridges that cannot are put on
    opposite sides by a 2-colouring (Tutte 1960, "An algorithm for
    determining whether a given binary matroid is graphic").  Each
    bridge then hangs at the end of that trace in the lowest bridge
    above it on its side, or else at r0's end on its side.
    """
    cols = list(dict.fromkeys(c for c in cols if c))
    if all(c.bit_count() <= 2 for c in cols):
        centre = next(fresh)
        return {r: (centre, next(fresh)) for r in rows}
    mask = sum(1 << r for r in rows)
    for r0 in rows:
        parts = _bridges(rows, mask, cols, r0)
        if parts:
            return _glue(r0, parts, cols, fresh)
    return None


def _components(supports) -> list[int]:
    """The connected components of the nonzero masks `supports`, two
    joined where they share a bit: each component the union of its masks,
    ordered by lowest bit."""
    joined: list[int] = []      # disjoint masks, each a union of supports
    for c in supports:
        if c:
            rest = []
            for p in joined:
                if p & c:
                    c |= p
                else:
                    rest.append(p)
            rest.append(c)
            joined = rest
    return sorted(joined, key=lambda p: p & -p)


def _bridges(rows, mask: int, cols, r0) -> dict | None:
    """Rows other than r0 (`mask` holds `rows`), grouped by the supports
    that miss r0: each group's mask -> its rows; None if there is one."""
    joined = _components(c for c in cols if not c >> r0 & 1)
    # a row that no such support holds is a bridge of its own (the
    # components are disjoint, so their sum is their union)
    loose = mask & ~(1 << r0 | sum(joined))
    if len(joined) + loose.bit_count() < 2:
        return None
    owner = {r: p for p in joined for r in _mask_elements(p)}
    parts: dict = {}
    for r in rows:
        if r != r0:
            parts.setdefault(owner.get(r, 1 << r), []).append(r)
    return parts


def _glue(r0, parts, cols, fresh):
    """`_realize` for a row r0 with the bridges `parts` from `_bridges`."""
    bit = 1 << r0
    through = [c for c in cols if c & bit]
    # per bridge: its tree, the vertex where r0 meets it, the mask of the
    # supports through r0 that cross it, and per distinct trace (mask of
    # those supports, vertex where the trace ends)
    trees, tops, keys, ends = [], [], [], []
    for rows, part in parts.items():
        trace: dict = {}
        for k, c in enumerate(through):
            if c & rows:
                trace[c & rows] = trace.get(c & rows, 0) | 1 << k
        if len(part) == 1:
            # `_realize` of the row and r0 is a star: the same three draws
            top, leaf, _ = next(fresh), next(fresh), next(fresh)
            tree = {part[0]: (top, leaf)}
            end = [(k, leaf) for k in trace.values()]
        else:
            own = [c for c in cols if not c & ~rows]
            tree = _realize(part + [r0], own + [p | bit for p in trace], fresh)
            if tree is None:
                return None
            # each row's ends as bits: a trace's odd vertices are an XOR
            pair, touched = {}, 0
            for r in part:
                u, v = tree[r]
                pair[r] = 1 << u ^ 1 << v
                touched |= 1 << u | 1 << v
            top = [v for v in tree[r0] if touched >> v & 1]
            if len(top) != 1:
                return None
            top, end = top[0], []
            for p, k in trace.items():
                odd = 0
                for r in _mask_elements(p):
                    odd ^= pair[r]
                odd &= ~(1 << top)
                if odd.bit_count() != 1:
                    return None
                end.append((k, odd.bit_length() - 1))
        trees.append(tree)
        tops.append(top)
        keys.append(sum(trace.values()))
        ends.append(end)

    parts, n = list(parts.values()), len(parts)
    # below[j] >> i & 1: every support through bridge j crosses bridge i on
    # one trace, so j may hang at that trace's end
    below = [0] * n
    for j, key in enumerate(keys):
        if key:
            for i in range(n):
                if i != j and any(not key & ~k for k, _ in ends[i]):
                    below[j] |= 1 << i
    # above[j] >> i & 1: bridge i may carry bridge j; of two bridges each
    # below the other, the earlier one carries
    above = below[:]
    for i in range(n):
        for j in _mask_elements(below[i] & (1 << i) - 1):
            above[j] &= ~(1 << i)
    side = [None] * n
    for start in range(n):
        if side[start] is not None:
            continue
        side[start], stack = 0, [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or not keys[i] & keys[j] or below[i] >> j & 1 \
                        or below[j] >> i & 1:
                    continue
                if side[j] is None:
                    side[j] = 1 - side[i]
                    stack.append(j)
                elif side[j] == side[i]:
                    return None
    link = (next(fresh), next(fresh))
    tree = {r0: link}
    for j in range(n):
        ups = [i for i in range(n) if above[j] >> i & 1 and side[i] == side[j]]
        lowest = [p for p in ups if not any(above[q] >> p & 1 for q in ups)]
        if not ups:
            hang = link[side[j]]
        elif len(lowest) == 1:
            p = lowest[0]
            hang = next(v for k, v in ends[p] if k & keys[j])
        else:
            return None
        top = tops[j]
        for r in parts[j]:
            u, v = trees[j][r]
            tree[r] = (hang if u == top else u, hang if v == top else v)
    return tree


def _tree_paths(tree, rows: int, supports):
    """For each support (a mask over the rows), the mask of the edges that
    its path in the tree runs along from parent to child; None if the
    edges of `tree` are not exactly the rows in the mask `rows`, if they
    do not form a tree, or if some support is not the edge set of a path.
    Vertices may be any hashable labels; the first one seen is the root."""
    if sum(1 << r for r in tree) != rows:
        return None
    index: dict = {}
    edges = [(r, index.setdefault(u, len(index)), index.setdefault(v, len(index)))
             for r, (u, v) in tree.items()]
    n = len(index)
    # n edges joining n + 1 vertices into one component form a tree
    if n != rows.bit_count() + 1:
        return None
    adj: list = [[] for _ in range(n)]
    pair = {}                   # each row's two ends as bits
    for r, a, b in edges:
        adj[a].append((b, r))
        adj[b].append((a, r))
        pair[r] = 1 << a ^ 1 << b
    up: list = [None] * n       # (parent, row to it) of each vertex but the root
    depth = [0] + [-1] * (n - 1)
    queue = [0]
    for u in queue:
        for v, r in adj[u]:
            if depth[v] < 0:
                up[v], depth[v] = (u, r), depth[u] + 1
                queue.append(v)
    if len(queue) != n:
        return None
    paths = []
    for support in supports:
        forward = on = odd = 0
        for r in _mask_elements(support):
            odd ^= pair[r]
        if odd.bit_count() == 2:
            low = odd & -odd
            a, b = low.bit_length() - 1, (odd ^ low).bit_length() - 1
            while a != b:
                if depth[a] >= depth[b]:
                    a, r = up[a]
                else:
                    b, r = up[b]
                    forward |= 1 << r
                on |= 1 << r
        if on != support:
            return None
        paths.append(forward)
    return paths


def network_scaling(cols, rows: int) -> bool | None:
    """Decide a connected {0, +-1} matrix against the network matrices.

    The matrix is given by its columns, each a (plus, minus) pair of int
    bitmasks over the rows in the mask `rows`; its transpose is the same
    call on its rows' masks over its columns.  True: the matrix is
    D_r N D_c for a network matrix N and +-1 diagonal matrices D_r, D_c,
    so it is totally unimodular.  False: a tree realizes its support, so
    N is a TU signing of that support, but the matrix is no rescaling of
    N; a {0,1} matrix has at most one TU signing up to negating rows and
    columns (Camion 1965), so the matrix is not TU.  None: no tree
    realizes its support; nothing is decided.
    """
    supports = [p | q for p, q in cols]
    tree = _realize(list(_mask_elements(rows)), supports, itertools.count())
    forward = None if tree is None else _tree_paths(tree, rows, supports)
    if forward is None:
        return None
    # D_r and D_c read column by column: D_r is -1 on the rows in neg, D_c
    # is -1 where flip is -1 (every bit set), and the plus mask of a column
    # of D_r N D_c is (forward ^ neg ^ flip) & support
    neg = seen = 0
    pending = list(zip(supports, forward, (p for p, _ in cols)))
    while pending:
        # a column meeting the rows already read, else one opening a component
        for k, (support, _, _) in enumerate(pending):
            if support & seen:
                break
        else:
            k = 0
        support, f, plus = pending.pop(k)
        ref = support & seen or support
        flip = -1 if (f ^ neg ^ plus) & ref & -ref else 0
        if (f ^ neg ^ flip ^ plus) & support & seen:
            return False
        neg |= (f ^ flip ^ plus) & support & ~seen
        seen |= support
    return True
