"""The four seeded workloads: input generators, timed calls and oracles.

A workload is four functions, and optionally a fifth:

* ``generate(seed)`` builds the inputs as plain tuples, from the seed
  alone and without flowlattice, so the same seed gives byte-identical
  inputs (see `digest`);
* ``prepare(specs, lib, workdir)`` turns them into library objects
  (untimed set-up; only ``flows`` warms caches here);
* ``run(item, lib)`` is one timed item;
* ``check(spec, output)`` is the oracle: None when the output is right,
  otherwise the reason it is wrong.  Oracles use `oracles` only;
* ``shape(spec)`` names the problem an item poses, the same for every
  relabelling the seed makes of it, where a pass holds several
  relabellings of each problem.  Without it every item is a problem.

``lib`` is a namespace of the flowlattice modules, looked up on every
call so the tracer's rebinding sees the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

import oracles as orc


@dataclass(frozen=True)
class Workload:
    generate: Callable
    prepare: Callable
    run: Callable
    check: Callable
    shape: Callable | None = None


def digest(specs) -> str:
    return hashlib.sha256(repr(specs).encode()).hexdigest()[:16]


def scramble_map(rng, edges, n, keep=frozenset()):
    """Relabel vertices, flip orientations and shuffle the edge order;
    the edges in `keep` stay in their relative order and orientation.

    Returns the new edges, and for each old edge j its new position and
    +-1 (-1 when flipped), so flows carry over as v'[pos[j]] = sign[j] v[j].
    """
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [1 if j in keep else rng.choice((1, -1)) for j in range(len(edges))]
    pos = list(range(len(edges)))
    rng.shuffle(pos)
    kept = sorted(keep)
    for j, slot in zip(kept, sorted(pos[j] for j in kept)):
        pos[j] = slot
    out = [None] * len(edges)
    for j, (t, h) in enumerate(edges):
        out[pos[j]] = (perm[t], perm[h]) if sign[j] == 1 else (perm[h], perm[t])
    return tuple(out), pos, sign


def scramble(rng, edges, n):
    return scramble_map(rng, edges, n)[0]


def scramble_matrix(rng, x, negate):
    """Permute rows and columns, and with `negate` flip the signs of some."""
    rows, cols = list(range(len(x))), list(range(len(x[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rs = [rng.choice((1, -1)) if negate else 1 for _ in rows]
    cs = [rng.choice((1, -1)) if negate else 1 for _ in cols]
    return tuple(tuple(rs[i] * cs[j] * x[rows[i]][cols[j]] for j in range(len(cols)))
                 for i in range(len(rows)))


def _connected(edges, n):
    return len(orc.spanning_tree(edges, n)) == n - 1


# --- reconstruct -------------------------------------------------------------

def bridgeless_shapes(max_nodes=5):
    """Connected simple bridgeless graphs on <= max_nodes vertices, one per
    isomorphism class, in a fixed order."""
    shapes = set()
    for n in range(3, max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        for mask in range(1, 1 << len(pairs)):
            es = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if len({v for e in es for v in e}) < n or not _connected(es, n):
                continue
            if any(not _connected(es[:j] + es[j + 1:], n) for j in range(len(es))):
                continue
            shapes.add(min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in es))
                           for p in perms))
    return sorted(shapes, key=lambda es: (len(es), es))


def gen_reconstruct(seed):
    """Every base of every bridgeless graph on <= 5 vertices (418 items)."""
    rng = random.Random(seed)
    specs = []
    for shape in bridgeless_shapes(5):
        n = orc.vertex_count(shape)
        edges = scramble(rng, shape, n)
        for tree in itertools.combinations(range(len(edges)), n - 1):
            if orc.is_spanning_tree(edges, n, tree):
                g = orc.gram(orc.fundamental_flows(edges, tree))
                specs.append((edges, tree, g))
    rng.shuffle(specs)
    return specs


def prep_reconstruct(specs, lib, workdir):
    return [lib.gram.GramMatrix(lib.intmat.IntegerMatrix.from_rows(g))
            for _, _, g in specs]


def run_reconstruct(item, lib):
    return lib.rebuild.reconstruct_matroid(item)


def check_reconstruct(spec, out):
    edges, _, g = spec
    if not out:
        return "reported infeasible"
    cert = out.report.certificate.entries
    if orc.matmul(orc.transpose(cert), cert) != g:
        return "certificate Gram differs from the input"
    rep = out.report.matroid.rep.entries
    r = len(rep)
    size = len(edges)
    if any(rep[i][:r] != tuple(int(i == j) for j in range(r)) for i in range(r)):
        return "matroid representation is not in standard form"
    # [I_r L]: the flows [-L; I_s] span the cycle space
    gens = [(1 << (r + j)) | sum(1 << i for i in range(r) if rep[i][r + j])
            for j in range(size - r)]
    if not orc.families_isomorphic(orc.cycle_masks(edges), orc.minimal_masks(gens), size):
        return "rebuilt matroid is not isomorphic to the graph's"
    return None


# --- isometry ----------------------------------------------------------------

ISOMETRY_SLOTS = [(9, 5), (10, 6), (11, 6), (12, 7)]  # (edges, vertices); iso bound is 12
ISOMETRY_MODES = ("flow", "cut", "mixed")
ISOMETRY_SCRAMBLES = 2   # relabellings of each pair per pass


def random_multigraph(rng, m, n):
    """Loopless bridgeless multigraph: a Hamiltonian cycle plus chords."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    while len(edges) < m:
        t, h = rng.sample(range(n), 2)
        edges.append((t, h))
    return tuple(edges)


def rewire(rng, edges, n):
    """Move one chord to other endpoints, changing the spanning-tree count."""
    want = orc.spanning_tree_count(edges)
    while True:
        j = rng.randrange(n, len(edges))
        new = list(edges)
        new[j] = tuple(rng.sample(range(n), 2))
        if orc.spanning_tree_count(new) != want:
            return tuple(new)


def cocycle_rep(rng, edges, n):
    """A representation of the dual (bond) matroid of a graph: its
    fundamental cycles as rows, columns permuted and some negated.

    Returns (rows, column_edge) with column p carrying edge column_edge[p].
    """
    cyc = orc.fundamental_flows(edges, orc.spanning_tree(edges, n))
    column_edge = list(range(len(edges)))
    rng.shuffle(column_edge)
    signs = [rng.choice((1, -1)) for _ in edges]
    rows = tuple(tuple(signs[p] * c[column_edge[p]] for p in range(len(edges)))
                 for c in cyc)
    return rows, tuple(column_edge)


def isometry_shapes():
    """One pair of graphs per (mode, slot), isometric and non-isometric
    pairs alternating, so each mode and each size gets both.

    Drawn from a fixed seed: the cost of a decision depends on the
    graphs' shape, so fixing the shapes keeps the work per pass
    comparable across benchmark seeds.
    """
    rng = random.Random("isometry-shapes")
    shapes = []
    for i, mode in enumerate(ISOMETRY_MODES):
        for j, (m, n) in enumerate(ISOMETRY_SLOTS):
            positive = (i + j) % 2 == 0
            left = random_multigraph(rng, m, n)
            shapes.append((mode, positive, n, left, left if positive else rewire(rng, left, n)))
    return shapes


def gen_isometry(seed):
    """The fixed pairs, each ISOMETRY_SCRAMBLES times with both graphs
    relabelled, reoriented and reordered by the seed."""
    rng = random.Random(seed)
    specs = []
    for mode, positive, n, left, right in isometry_shapes() * ISOMETRY_SCRAMBLES:
        left = scramble(rng, left, n)
        right_graph = scramble(rng, right, n)
        if mode == "mixed":
            rows, column_edge = cocycle_rep(rng, right_graph, n)
            right = ("rep", rows, column_edge)
        else:
            right = ("graph", right_graph)
        specs.append((mode, positive, left, right_graph, right))
    rng.shuffle(specs)
    return specs


def isometry_shape(spec):
    mode, _, left, _, _ = spec
    return mode, len(left)          # one pair per mode and size


def _labels(k, prefix="e"):
    return tuple(f"{prefix}{j + 1}" for j in range(k))


def prep_isometry(specs, lib, workdir):
    items = []
    for mode, _, left, _, right in specs:
        m = lib.matroid.from_graph(left)
        if right[0] == "graph":
            n = lib.matroid.from_graph(right[1])
        else:
            rows = right[1]
            n = lib.matroid.RegularMatroid.from_rep(
                _labels(len(rows[0]), "f"), lib.intmat.IntegerMatrix.from_rows(rows),
                validate=False)
        items.append((mode, m, n))
    return items


def run_isometry(item, lib):
    mode, m, n = item
    decide = {"flow": lib.rebuild.flow_lattices_isometric,
              "cut": lib.rebuild.cut_lattices_isometric,
              "mixed": lib.rebuild.mixed_isometric}[mode]
    return decide(m, n)


def check_isometry(spec, out):
    mode, positive, left, right_graph, right = spec
    if bool(out) != positive:
        return f"{mode} verdict {bool(out)}, expected {positive}"
    if not positive:
        if orc.spanning_tree_count(left) == orc.spanning_tree_count(right_graph):
            return "negative pair has equal base counts"
        return None
    size = len(left)
    if mode == "flow":
        lc, rc = orc.cycle_masks(left), orc.cycle_masks(right_graph)
    elif mode == "cut":
        lc, rc = orc.bond_masks(left), orc.bond_masks(right_graph)
    else:
        # the right core is the dual of the cocycle representation: the
        # cycle matroid of right_graph, with edge j sitting in column p
        lc = orc.cycle_masks(left)
        column_of = {e: p for p, e in enumerate(right[2])}
        rc = orc.map_masks(orc.cycle_masks(right_graph),
                           [column_of[j] for j in range(size)])
    right_labels = _labels(size, "f" if mode == "mixed" else "e")
    label_map = dict(out.witness.label_map or ())
    index = {lab: j for j, lab in enumerate(right_labels)}
    try:
        perm = [index[label_map[lab]] for lab in _labels(size)]
    except KeyError:
        return "label map does not cover both ground sets"
    if sorted(perm) != list(range(size)):
        return "label map is not a bijection"
    if orc.map_masks(lc, perm) != rc:
        return "label map does not carry circuits onto circuits"
    return None


# --- flows -------------------------------------------------------------------

def _cycle(k):
    return [(i, (i + 1) % k) for i in range(k)]


FLOW_GRAPHS = {
    "K4": list(itertools.combinations(range(4), 2)),
    "K33": [(a, b) for a in range(3) for b in range(3, 6)],
    "prism": _cycle(3) + [(a + 3, b + 3) for a, b in _cycle(3)] + [(i, i + 3) for i in range(3)],
    "W5": _cycle(5) + [(i, 5) for i in range(5)],
    "K5": list(itertools.combinations(range(5), 2)),
}
FLOW_QUERIES = 12          # is_simple_metric calls per lattice
FLOW_DECOMPOSITIONS = 24   # consistent_decompose calls per lattice
FLOW_COEFF = 200
FLOW_BOX_CAP = 150_000     # query boxes above this many points are redrawn


def _fraction_inverse_diag(g):
    n = len(g)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(g)]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n + i] for i in range(n)]


def query_box(g, x):
    """Points in the coefficient box is_simple_metric scans for vector x."""
    norm = sum(g[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))
    size = 1
    for d in _fraction_inverse_diag(g):
        cap = d * norm
        size *= 2 * isqrt(cap.numerator // cap.denominator) + 1
    return size


def flow_shapes():
    """Per lattice: {-1,0,1} simplicity queries and +-200 decompositions,
    drawn from a fixed seed as flows of the unscrambled graph (the query
    cost depends on the vector, so fixing them keeps passes comparable)."""
    rng = random.Random("flow-shapes")
    shapes = []
    for name, edges in FLOW_GRAPHS.items():
        tree = orc.spanning_tree(edges, orc.vertex_count(edges))
        basis = orc.fundamental_flows(edges, tree)
        g = orc.gram(basis)

        def flow(y):
            return tuple(sum(c * b[i] for c, b in zip(y, basis)) for i in range(len(edges)))

        queries = []
        while len(queries) < FLOW_QUERIES:
            y = tuple(rng.choice((-1, 0, 1)) for _ in basis)
            if any(y) and query_box(g, y) <= FLOW_BOX_CAP:
                queries.append(flow(y))
        decompositions = [flow(tuple(rng.randint(-FLOW_COEFF, FLOW_COEFF) for _ in basis))
                          for _ in range(FLOW_DECOMPOSITIONS)]
        shapes.append((name, edges, tree, queries, decompositions))
    return shapes


def gen_flows(seed):
    """The fixed lattices and vectors, carried through a seeded scramble.

    Each lattice is the fundamental lattice of the image of the same
    spanning tree; a query is the coefficient vector of its flow in
    that basis, which is the flow's values on the non-tree edges.  The
    scramble keeps the non-tree edges' order and orientation, so the
    Gram matrix, and with it each query's scan, is the same for every
    seed: a non-simple query stops at a witness whose place in the scan
    would otherwise move with the seed.
    """
    rng = random.Random(seed)
    specs = []
    for name, shape, shape_tree, queries, decompositions in flow_shapes():
        non_tree = set(range(len(shape))) - set(shape_tree)
        edges, pos, sign = scramble_map(rng, shape, orc.vertex_count(shape), non_tree)
        tree = tuple(sorted(pos[j] for j in shape_tree))
        basis = orc.transpose(orc.fundamental_flows(edges, tree))

        def carry(v):
            out = [0] * len(v)
            for j, x in enumerate(v):
                out[pos[j]] = sign[j] * x
            return out

        for v in queries:
            w = carry(v)
            x = tuple(w[e] for e in range(len(w)) if e not in tree)
            specs.append(("simple", name, edges, tree, basis, x))
        specs += [("decompose", name, edges, tree, basis, tuple(carry(v)))
                  for v in decompositions]
    rng.shuffle(specs)
    return specs


def prep_flows(specs, lib, workdir):
    lattices = {}
    items = []
    for kind, name, edges, tree, basis, x in specs:
        if name not in lattices:
            m = lib.matroid.from_graph(edges)
            lat = lib.flows.fundamental_basis(m, tree)
            if lat.basis.entries != basis:
                raise RuntimeError(f"{name}: library basis differs from the generated one")
            lib.flows.simple_flows(m)      # warms the circuit and circuit-flow caches
            lattices[name] = lat
        lat = lattices[name]
        if kind == "decompose":
            x = lib.flows.FlowVector.of(x)
        items.append((kind, lat, x))
    return items


def run_flows(item, lib):
    kind, lat, x = item
    if kind == "simple":
        return lib.flows.is_simple_metric(lat, x)
    return lib.flows.consistent_decompose(lat, x)


def check_flows(spec, out):
    kind, _, edges, _, basis, x = spec
    signed = orc.signed_cycle_flows(edges)
    vec = tuple(sum(b * c for b, c in zip(row, x)) for row in basis) if kind == "simple" else x
    if kind == "simple":
        if bool(out) != (vec in signed):
            return f"simple={bool(out)} but signed-circuit membership is {vec in signed}"
        if not out:
            b, c = (w.coords for w in out.witness)
            if tuple(p + q for p, q in zip(b, c)) != vec or not any(b) or not any(c):
                return "witness does not split the vector into nonzero parts"
            if sum(p * q for p, q in zip(b, c)) != out.witness_inner or out.witness_inner < 0:
                return "witness inner product is wrong or negative"
        return None
    parts = [p.coords for p in out]
    if any(p not in signed for p in parts):
        return "a part is not a signed circuit flow"
    if any(a and a * b <= 0 for p in parts for a, b in zip(p, vec)):
        return "a part does not conform to the flow"
    if tuple(map(sum, zip(*parts))) != vec:
        return "parts do not sum to the flow"
    if sum(abs(a) for p in parts for a in p) != sum(abs(b) for b in vec):
        return "part masses do not add up to the flow's mass"
    return None


# --- certify -----------------------------------------------------------------

FANO = ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
CERTIFY_GRAPH_REPS = [(6, 10), (7, 12), (8, 14)]      # (vertices, edges)
CERTIFY_PLANTED = [(6, 8), (7, 10)]                   # det +-2 somewhere
CERTIFY_FANO_FREE = [9, 11, 13]                       # free entries of 6x6 {0,1}
CERTIFY_SHARP = [(7, 12), (8, 14)]                    # sharp of a network matrix
CERTIFY_ROUNDS = 3
CERTIFY_SCRAMBLES = 4   # permutations of each matrix per pass


def incidence_rep(edges, n):
    """Signed incidence matrix without its last row: TU, full row rank."""
    return tuple(tuple(1 if h == v else -1 if t == v else 0 for t, h in edges)
                 for v in range(n - 1))


def random_graph(rng, n, m):
    """Connected simple graph: a random spanning tree plus random edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    rest = [p for p in itertools.combinations(range(n), 2)
            if p not in edges]
    edges += rng.sample(rest, m - len(edges))
    return scramble(rng, edges, n)


def free_entries(x):
    """Entries of a {0,1} matrix off a spanning forest of its bipartite graph."""
    r, c = len(x), len(x[0])
    ones = [(i, j) for i in range(r) for j in range(c) if x[i][j]]
    forest = orc.spanning_tree([(i, r + j) for i, j in ones], r + c)
    return len(ones) - len(forest)


def fano_planted(rng, free):
    """A 6x6 {0,1} matrix holding the Fano block and `free` free entries."""
    while True:
        x = [[0] * 6 for _ in range(6)]
        rows, cols = rng.sample(range(6), 3), rng.sample(range(6), 4)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                x[i][j] = FANO[a][b]
        cells = [(i, j) for i in range(6) for j in range(6)
                 if not (i in rows and j in cols)]
        for i, j in rng.sample(cells, free + 2):  # 9 + free + 2 ones, 11 on the forest
            x[i][j] = 1
        x = tuple(map(tuple, x))
        if free_entries(x) == free and all(any(r) for r in x) and all(any(c) for c in zip(*x)):
            return x


def planted_minor(rng, r, c):
    """Random {0,+-1} matrix carrying [[1,1],[1,-1]] (det -2) somewhere."""
    x = [[rng.choice((0, 0, 1, -1)) for _ in range(c)] for _ in range(r)]
    (i, k), (j, l) = rng.sample(range(r), 2), rng.sample(range(c), 2)
    x[i][j], x[i][l], x[k][j], x[k][l] = 1, 1, 1, -1
    return tuple(map(tuple, x))


def network_matrix(rng, n, m):
    edges = random_graph(rng, n, m)
    tree = orc.spanning_tree(edges, n)
    flows = orc.fundamental_flows(edges, tree)
    return tuple(tuple(f[t] for f in flows) for t in tree)


def certify_shapes():
    """The matrices before scrambling, drawn from a fixed seed so every
    benchmark seed does comparable work."""
    rng = random.Random("certify-shapes")
    shapes = []
    for _ in range(CERTIFY_ROUNDS):
        shapes += [("tu-check", "graph", incidence_rep(random_graph(rng, n, m), n))
                   for n, m in CERTIFY_GRAPH_REPS]
        shapes += [("tu-check", "planted", planted_minor(rng, r, c)) for r, c in CERTIFY_PLANTED]
        shapes += [("signing", "fano", fano_planted(rng, f)) for f in CERTIFY_FANO_FREE]
        shapes += [("signing", "sharp", tuple(tuple(abs(v) for v in r)
                                             for r in network_matrix(rng, n, m)))
                   for n, m in CERTIFY_SHARP]
    return shapes


def gen_certify(seed):
    """Each matrix CERTIFY_SCRAMBLES times, rows and columns permuted by
    the seed; signed inputs also negated.

    Neither changes total unimodularity, a minor's |det|, or whether a
    {0,1} matrix has a TU signing.
    """
    rng = random.Random(seed)
    specs = [(verb, kind, scramble_matrix(rng, x, negate=verb == "tu-check"))
             for verb, kind, x in certify_shapes() for _ in range(CERTIFY_SCRAMBLES)]
    rng.shuffle(specs)
    return specs


def certify_shape(spec):
    """Verb, kind and the sorted row and column sums of |x|: unchanged by
    permuting and negating, and distinct for the fixed matrices."""
    verb, kind, x = spec
    return (verb, kind, tuple(sorted(sum(map(abs, r)) for r in x)),
            tuple(sorted(sum(map(abs, c)) for c in zip(*x))))


def matrix_text(x):
    return f"{len(x)} {len(x[0])}\n" + "".join(" ".join(map(str, r)) + "\n" for r in x)


def prep_certify(specs, lib, workdir):
    items = []
    for i, (verb, _, x) in enumerate(specs):
        path = workdir / f"item{i}.mat"
        path.write_text(matrix_text(x))
        items.append((verb, str(path)))
    return items


def run_certify(item, lib):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.run(list(item))
    return code, buf.getvalue()


_WITNESS = re.compile(r"witness rows=\[([\d, ]*)\] cols=\[([\d, ]*)\] det=(-?\d+)")


def _check_unimodularity_line(line, x, tag, maximal):
    """A 'TU yes' / 'TU no  witness ...' line: recompute any witness."""
    if line == f"{tag} yes":
        return None
    m = _WITNESS.search(line)
    if not line.startswith(f"{tag} no") or m is None:
        return f"unparsable {tag} line {line!r}"
    rows = [int(t) for t in m.group(1).split(",")]
    cols = [int(t) for t in m.group(2).split(",")]
    det = orc.det_cofactor([[x[i][j] for j in cols] for i in rows])
    if det != int(m.group(3)) or abs(det) <= 1:
        return f"{tag} witness determinant is {det}, reported {m.group(3)}"
    if maximal and len(rows) != min(len(x), len(x[0])):
        return f"{tag} witness is not a maximal minor"
    return None


def check_certify(spec, out):
    verb, kind, x = spec
    code, text = out
    lines = text.splitlines()
    if verb == "tu-check":
        want_tu = kind == "graph"
        if code != (0 if want_tu else 1) or len(lines) != 2:
            return f"tu-check exit {code} with {len(lines)} lines"
        if (lines[0] == "TU yes") != want_tu:
            return f"TU verdict {lines[0]!r} on a {kind} matrix"
        for line, tag, maximal in ((lines[0], "TU", False), (lines[1], "WU", True)):
            err = _check_unimodularity_line(line, x, tag, maximal)
            if err:
                return err
        if (lines[1] == "WU yes") != (want_tu or orc.is_wu_by_minors(x)):
            return f"WU verdict {lines[1]!r} is wrong"
        return None
    if kind == "fano":
        return None if (code, lines) == (1, ["NO-TU-SIGNING"]) else "Fano block was signed"
    if code != 0 or not lines or lines[0] != "TU-SIGNING":
        return f"signable matrix got exit {code}"
    r, c = map(int, lines[1].split())
    u = tuple(tuple(int(t) for t in line.split()) for line in lines[2:])
    if (r, c) != (len(x), len(x[0])) or len(u) != r:
        return "signing has the wrong shape"
    if tuple(tuple(abs(v) for v in row) for row in u) != x:
        return "signing's absolute value differs from the input"
    if not orc.is_tu_by_minors(u):
        return "signing is not totally unimodular"
    return None


WORKLOADS = {
    "reconstruct": Workload(gen_reconstruct, prep_reconstruct, run_reconstruct, check_reconstruct),
    "isometry": Workload(gen_isometry, prep_isometry, run_isometry, check_isometry,
                         isometry_shape),
    "flows": Workload(gen_flows, prep_flows, run_flows, check_flows),
    "certify": Workload(gen_certify, prep_certify, run_certify, check_certify,
                        certify_shape),
}
