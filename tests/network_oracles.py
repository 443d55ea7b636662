"""Graph realization as it stood before the bridge order became a table.

`flowlattice.network` realizes a support by Tutte's bridge recursion and
checks the tree and its signs on its own.  These are the earlier
routines it was rewritten from: every one-row bridge realized by a
recursive call, the bridge order read through closures that rebuild sets
of trace keys, the ends of traces read off `_odd_vertices` sets, and the
tree check keyed by vertex labels.  The library must give the same tree,
vertex for vertex, from the same `fresh` iterator, and the same
`network_scaling` verdict; tests/test_network.py compares the two, and
`tu_oracles` builds its row-based block decision on `_realize` and
`_odd_vertices` here.
"""

import itertools

from flowlattice.network import _components, _mask_elements


def _realize(rows, cols, fresh):
    """A tree whose edges are `rows`, in which every support in `cols` (a
    mask over the rows) is the edge set of a path: row -> (vertex, vertex),
    or None if none exists.

    The rows and columns must form a connected bipartite graph.  Vertices
    are drawn from the iterator `fresh`.  When every support has at most
    two rows, a star realizes them all.  Otherwise a row r0 is chosen
    whose removal leaves at least two bridges: the components of the
    remaining rows joined by the supports that miss r0.  Such a row
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
    for r0 in rows:
        parts = _bridges(rows, cols, r0)
        if len(parts) > 1:
            return _glue(r0, parts, cols, fresh)
    return None


def _bridges(rows, cols, r0) -> list[list]:
    """Rows other than r0, grouped by the supports that miss r0."""
    joined = _components(c for c in cols if not c >> r0 & 1)
    # each row keyed by the mask that holds it; a row in none is its own
    parts: dict = {}
    for r in rows:
        if r != r0:
            bit = 1 << r
            parts.setdefault(next((p for p in joined if p & bit), bit), []).append(r)
    return list(parts.values())


def _glue(r0, parts, cols, fresh):
    """`_realize` for a row r0 with at least two bridges."""
    bit = 1 << r0
    through = [c for c in cols if c & bit]
    trees, traces, tops, ends = [], [], [], []
    for part in parts:
        rows = sum(1 << r for r in part)
        trace = {k: c & rows for k, c in enumerate(through) if c & rows}
        own = [c for c in cols if not c & ~rows]
        tree = _realize(part + [r0], own + [p | bit for p in trace.values()], fresh)
        if tree is None:
            return None
        top = [v for v in tree[r0] if any(v in tree[r] for r in part)]
        if len(top) != 1:
            return None
        end = {}
        for p in set(trace.values()):
            odd = _odd_vertices(tree[r] for r in _mask_elements(p)) - {top[0]}
            if len(odd) != 1:
                return None
            end[p] = odd.pop()
        trees.append(tree)
        traces.append(trace)
        tops.append(top[0])
        ends.append(end)

    def below(j, i):
        """Every support through bridge j crosses bridge i on one trace."""
        return traces[j].keys() <= traces[i].keys() and \
            len({traces[i][k] for k in traces[j]}) == 1

    def above(i, j):
        return below(j, i) and not (below(i, j) and j < i)

    n = len(parts)
    side = [None] * n
    for start in range(n):
        if side[start] is not None:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j == i or not traces[i].keys() & traces[j].keys() \
                        or below(i, j) or below(j, i):
                    continue
                if side[j] is None:
                    side[j] = 1 - side[i]
                    stack.append(j)
                elif side[j] == side[i]:
                    return None
    link = (next(fresh), next(fresh))
    tree = {r0: link}
    for j in range(n):
        ups = [i for i in range(n) if i != j and side[i] == side[j] and above(i, j)]
        lowest = [p for p in ups if not any(above(p, q) for q in ups if q != p)]
        if not ups:
            hang = link[side[j]]
        elif len(lowest) == 1:
            p = lowest[0]
            hang = ends[p][traces[p][next(iter(traces[j]))]]
        else:
            return None
        for r in parts[j]:
            tree[r] = tuple(hang if v == tops[j] else v for v in trees[j][r])
    return tree


def _odd_vertices(edges) -> set:
    """The vertices of odd degree in a collection of edges."""
    odd: set = set()
    for edge in edges:
        odd ^= set(edge)
    return odd


def _tree_paths(tree, rows: int, supports):
    """For each support (a mask over the rows), the mask of the edges that
    its path in the tree runs along from parent to child; None if the
    edges of `tree` are not exactly the rows in the mask `rows`, if they
    do not form a tree, or if some support is not the edge set of a path."""
    if sum(1 << r for r in tree) != rows:
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
    if len(adj) != rows.bit_count() + 1 or len(parent) != len(adj):
        return None
    paths = []
    for support in supports:
        forward = on = 0
        odd = _odd_vertices(tree[r] for r in _mask_elements(support))
        if len(odd) == 2:
            a, b = odd
            while a != b:
                if depth[a] >= depth[b]:
                    a, r = parent[a]
                else:
                    b, r = parent[b]
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
        k = next((k for k, (support, _, _) in enumerate(pending) if support & seen), 0)
        support, f, plus = pending.pop(k)
        ref = support & seen or support
        flip = -1 if (f ^ neg ^ plus) & ref & -ref else 0
        if (f ^ neg ^ flip ^ plus) & support & seen:
            return False
        neg |= (f ^ flip ^ plus) & support & ~seen
        seen |= support
    return True
