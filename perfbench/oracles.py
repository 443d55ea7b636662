"""Reference mathematics for checking flowlattice outputs.

Nothing here imports flowlattice: every check recomputes its answer
from the graph or matrix a generator built, with code of its own, so an
error in the library cannot hide behind the same error in its checker.
Matrices are tuples of row tuples of ints; edge sets are bitmasks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def det_cofactor(rows) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * a * det_cofactor(minor)
    return total


def det_exact(rows) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return int(det)


def matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in a)


def transpose(a):
    return tuple(zip(*a))


def is_tu_by_minors(rows) -> bool:
    """Every square submatrix has determinant in {-1, 0, 1} (memoised Laplace)."""
    memo: dict = {}

    def minor(rs, cs):
        key = (rs, cs)
        if key not in memo:
            if len(rs) == 1:
                memo[key] = rows[rs[0]][cs[0]]
            else:
                memo[key] = sum(
                    (-1) ** j * rows[rs[0]][c] * minor(rs[1:], cs[:j] + cs[j + 1:])
                    for j, c in enumerate(cs) if rows[rs[0]][c]
                )
        return memo[key]

    nr, nc = len(rows), len(rows[0]) if rows else 0
    return all(
        abs(minor(rs, cs)) <= 1
        for k in range(1, min(nr, nc) + 1)
        for rs in itertools.combinations(range(nr), k)
        for cs in itertools.combinations(range(nc), k)
    )


def is_wu_by_minors(rows) -> bool:
    """Every maximal square submatrix has determinant in {-1, 0, 1}."""
    k = min(len(rows), len(rows[0]))
    return all(abs(det_exact([[rows[i][j] for j in cs] for i in rs])) <= 1
               for rs in itertools.combinations(range(len(rows)), k)
               for cs in itertools.combinations(range(len(rows[0])), k))


# --- graphs: edges are (tail, head) pairs over vertices 0..n-1 -------------

def vertex_count(edges) -> int:
    return 1 + max(v for e in edges for v in e)


def spanning_tree(edges, n) -> list[int]:
    """Edge indices of the first spanning forest in edge order (union-find)."""
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    tree = []
    for j, (t, h) in enumerate(edges):
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
            tree.append(j)
    return tree


def is_spanning_tree(edges, n, subset) -> bool:
    return len(subset) == n - 1 and \
        len(spanning_tree([edges[j] for j in subset], n)) == n - 1


def tree_path_flow(edges, tree, t, h) -> dict[int, int]:
    """Signed tree edges on the path from h to t: +1 when traversed forwards."""
    adj: dict[int, list] = {}
    for j in tree:
        a, b = edges[j]
        adj.setdefault(a, []).append((b, j, 1))
        adj.setdefault(b, []).append((a, j, -1))
    back = {h: None}
    stack = [h]
    while stack:
        u = stack.pop()
        for v, j, s in adj.get(u, ()):
            if v not in back:
                back[v] = (u, j, s)
                stack.append(v)
    out = {}
    v = t
    while back[v] is not None:
        u, j, s = back[v]
        out[j] = s
        v = u
    return out


def fundamental_flows(edges, tree) -> list[tuple[int, ...]]:
    """Signed fundamental-cycle flows, one per non-tree edge in edge order,
    each +1 on its own non-tree edge."""
    in_tree = set(tree)
    out = []
    for e, (t, h) in enumerate(edges):
        if e in in_tree:
            continue
        v = [0] * len(edges)
        v[e] = 1
        for j, s in tree_path_flow(edges, tree, t, h).items():
            v[j] = s
        out.append(tuple(v))
    return out


def gram(vectors):
    return tuple(tuple(sum(a * b for a, b in zip(u, v)) for v in vectors)
                 for u in vectors)


def minimal_masks(span_generators) -> frozenset[int]:
    """Minimal nonzero members of the GF(2) span of the given bitmasks.

    For a binary (so every regular) matroid these are the circuits when
    the generators span its cycle space, and the cocircuits when they
    span its cut space.
    """
    span = {0}
    for g in span_generators:
        span |= {x ^ g for x in span}
    members = sorted((x for x in span if x), key=lambda x: bin(x).count("1"))
    kept: list[int] = []
    for x in members:
        if not any(k & x == k for k in kept):
            kept.append(x)
    return frozenset(kept)


def support_mask(vector) -> int:
    return sum(1 << i for i, x in enumerate(vector) if x)


def cycle_masks(edges) -> frozenset[int]:
    """Edge sets of the cycles of a loopless multigraph."""
    n = vertex_count(edges)
    return minimal_masks(support_mask(f) for f in
                         fundamental_flows(edges, spanning_tree(edges, n)))


def bond_masks(edges) -> frozenset[int]:
    """Edge sets of the bonds (minimal edge cuts) of a loopless multigraph."""
    n = vertex_count(edges)
    stars = [sum(1 << j for j, e in enumerate(edges) if v in e and e[0] != e[1])
             for v in range(n)]
    return minimal_masks(stars)


def signed_cycle_flows(edges) -> frozenset[tuple[int, ...]]:
    """Both signed flows of every cycle: +-1 along a traversal, 0 off it."""
    out = set()
    for mask in cycle_masks(edges):
        sub = [j for j in range(len(edges)) if mask >> j & 1]
        # walk the cycle from the tail of its first edge
        first = sub[0]
        t, h = edges[first]
        v = [0] * len(edges)
        v[first] = 1
        used = {first}
        at = h
        while at != t:
            j = next(j for j in sub if j not in used and at in edges[j])
            used.add(j)
            a, b = edges[j]
            v[j], at = (1, b) if a == at else (-1, a)
        out.add(tuple(v))
        out.add(tuple(-x for x in v))
    return frozenset(out)


def spanning_tree_count(edges) -> int:
    """Kirchhoff: any cofactor of the Laplacian of a loopless multigraph."""
    n = vertex_count(edges)
    lap = [[0] * n for _ in range(n)]
    for t, h in edges:
        lap[t][t] += 1
        lap[h][h] += 1
        lap[t][h] -= 1
        lap[h][t] -= 1
    return det_exact([r[1:] for r in lap[1:]])


def map_masks(masks, perm) -> frozenset[int]:
    """Image of element bitmasks under the element map i -> perm[i]."""
    return frozenset(sum(1 << perm[i] for i in range(len(perm)) if m >> i & 1)
                     for m in masks)


def families_isomorphic(a: frozenset[int], b: frozenset[int], size: int) -> bool:
    """Is there a bijection of 0..size-1 carrying family a onto family b?

    Backtracking over elements in order, pruned by each element's
    multiset of member sizes and by every member whose largest element
    has just been placed.
    """
    if len(a) != len(b):
        return False

    def profile(fam):
        per = [[] for _ in range(size)]
        for m in fam:
            for i in range(size):
                if m >> i & 1:
                    per[i].append(bin(m).count("1"))
        return [tuple(sorted(p)) for p in per]

    pa, pb = profile(a), profile(b)
    if sorted(pa) != sorted(pb):
        return False
    closing = [[] for _ in range(size)]
    for m in a:
        closing[m.bit_length() - 1].append(m)
    image = [0] * size
    used = [False] * size

    def extend(k):
        if k == size:
            return True
        for x in range(size):
            if used[x] or pb[x] != pa[k]:
                continue
            image[k] = x
            used[x] = True
            if all(sum(1 << image[i] for i in range(k + 1) if m >> i & 1) in b
                   for m in closing[k]) and extend(k + 1):
                return True
            used[x] = False
        return False

    return extend(0)
