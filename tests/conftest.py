import itertools
import random

import networkx as nx
import pytest

from flowlattice.intmat import IntegerMatrix
from flowlattice.matroid import RegularMatroid, from_graph

TRIANGLE = [(1, 2), (2, 3), (3, 1)]
K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
BOWTIE = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)]
TWO_TRIANGLES = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
PATH2 = [(1, 2), (2, 3)]


def det_cofactor(rows):
    """Independent determinant oracle: Laplace expansion along row 0."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def u1n(n_plus_1):
    """Rank-1 uniform matroid on n+1 elements (all-ones single row)."""
    return RegularMatroid.from_rep(
        tuple(f"e{i + 1}" for i in range(n_plus_1)),
        IntegerMatrix.from_rows([[1] * n_plus_1]),
    )


def graph_cycles(edges):
    """Edge sets of simple cycles of a multigraph, by brute force.

    A nonempty edge subset is a cycle iff every touched vertex has
    degree exactly 2 and the subset is connected (loops count twice).
    """
    cycles = []
    m = len(edges)
    for r in range(1, m + 1):
        for combo in itertools.combinations(range(m), r):
            deg = {}
            for i in combo:
                t, h = edges[i]
                deg[t] = deg.get(t, 0) + 1
                deg[h] = deg.get(h, 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            g = nx.MultiGraph()
            for i in combo:
                g.add_edge(*edges[i])
            if nx.is_connected(g):
                cycles.append(frozenset(combo))
    return set(cycles)


def _to_nx(edges):
    g = nx.MultiGraph()
    g.add_nodes_from({v for e in edges for v in e})
    g.add_edges_from(edges)
    return g


def _invariant(edges):
    g = _to_nx(edges)
    degs = tuple(sorted(d for _, d in g.degree()))
    loops = sum(1 for t, h in edges if t == h)
    mult = tuple(sorted(
        len(g[u][v]) for u, v in {tuple(sorted((a, b))) for a, b, _ in g.edges}
    ))
    return (g.number_of_nodes(), len(edges), degs, loops, mult)


def connected_multigraphs(max_edges):
    """All connected multigraphs (loops allowed) with <= max_edges edges,
    one representative per isomorphism class, as edge lists."""
    levels = {1: [[(0, 0)], [(0, 1)]]}
    for m in range(2, max_edges + 1):
        seen = {}
        for edges in levels[m - 1]:
            vertices = sorted({v for e in edges for v in e})
            candidates = [
                (u, v) for u, v in itertools.combinations_with_replacement(vertices, 2)
            ] + [(u, max(vertices) + 1) for u in vertices]
            for extra in candidates:
                new = edges + [extra]
                key = _invariant(new)
                bucket = seen.setdefault(key, [])
                gnew = _to_nx(new)
                if not any(nx.is_isomorphic(gnew, _to_nx(old)) for old in bucket):
                    bucket.append(new)
        levels[m] = [e for bucket in seen.values() for e in bucket]
    return [e for m in range(1, max_edges + 1) for e in levels[m]]


def bridgeless_graphs(max_nodes):
    """Connected simple graphs without cut-edges and with at least one
    edge, up to isomorphism, as edge lists."""
    out = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == 0 or g.number_of_nodes() > max_nodes:
            continue
        if g.number_of_edges() == 0 or not nx.is_connected(g):
            continue
        if nx.has_bridges(g):
            continue
        out.append([(u + 1, v + 1) for u, v in g.edges()])
    return out


def random_graph(rng, n, s):
    """A random spanning tree on n vertices and s random extra edges: a
    connected multigraph whose cycle matroid has corank s."""
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(s)]
    rng.shuffle(edges)
    return edges


@pytest.fixture
def rng():
    return random.Random(20240824)


@pytest.fixture
def triangle():
    return from_graph(TRIANGLE)


@pytest.fixture
def k4():
    return from_graph(K4)
