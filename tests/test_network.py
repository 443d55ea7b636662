"""Total unimodularity through verified network realizations.

`is_totally_unimodular` settles each connected block of the reduced core
by a network or co-network realization (`flowlattice.network`), checked
column by column on sign masks, and searches only blocks with neither.
These tests compare it with the enumeration in `tu_oracles` on seeded
network matrices, their transposes and one-sign perturbations, and on
block-diagonal mixes with R10 and with a Fano-planted block; they show
that network matrices never reach the search, that R10 does, and that a
realizer returning wrong trees changes no verdict or witness.  They also
compare the verdict on masks with the row-based block decision it
replaced (`tu_oracles.tu_check_by_tuples`), and the realizer with the
code it was rewritten from (`network_oracles`): the same trees, vertex
for vertex, and the same verdicts.
"""

import itertools
import random

import pytest

import network_oracles
import tu_oracles as oracle
from flowlattice import intmat, network
from flowlattice.intmat import IntegerMatrix, _sign_masks, bounds, is_totally_unimodular

from test_intmat import _planted, _sign_matrix

# the reduced representation of R10: TU, but neither it nor its transpose
# has a tree realizing its support (R10 is neither graphic nor cographic)
R10 = (
    (-1, 1, 0, 0, 1),
    (1, -1, 1, 0, 0),
    (0, 1, -1, 1, 0),
    (0, 0, 1, -1, 1),
    (1, 0, 0, 1, -1),
)
# a network matrix whose realization hangs one bridge below two others on
# the same side of the row split first, so only the lower one may carry it
NESTED = (
    (-1, -1, 1, 1, -1),
    (0, 0, 0, 1, -1),
    (0, -1, 0, 1, -1),
    (0, 1, -1, -1, 1),
    (-1, 0, 0, 1, -1),
    (0, 1, 0, 0, 1),
)
# a 6x6 {0,1} matrix holding the Fano block [[1,1,0,1],[1,0,1,1],[0,1,1,1]]
FANO_PLANTED = (
    (0, 1, 1, 1, 1, 1),
    (0, 1, 1, 0, 1, 1),
    (1, 1, 0, 1, 0, 1),
    (1, 1, 0, 0, 1, 1),
    (0, 1, 1, 1, 1, 1),
    (1, 0, 1, 0, 0, 0),
)


def network_matrix(rng, vertices, edges):
    """The network matrix of a random connected multigraph (loops allowed)
    and a random spanning tree: rows are tree edges, columns the other
    edges, entry +-1 where the column's tree path runs along or against
    the tree edge."""
    ends = [(v, rng.randrange(v)) for v in range(1, vertices)]
    ends += [(rng.randrange(vertices), rng.randrange(vertices))
             for _ in range(edges - len(ends))]
    rng.shuffle(ends)
    ends = [e if rng.random() < 0.5 else e[::-1] for e in ends]
    order = rng.sample(range(len(ends)), len(ends))
    comp = list(range(vertices))

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    tree = []
    for k in order:
        a, b = (find(v) for v in ends[k])
        if a != b:
            comp[a] = b
            tree.append(k)
    adj = {v: [] for v in range(vertices)}
    for k in tree:
        tail, head = ends[k]
        adj[tail].append((head, k, 1))
        adj[head].append((tail, k, -1))

    def path(source, target):
        prev = {source: None}
        queue = [source]
        for u in queue:
            for v, k, d in adj[u]:
                if v not in prev:
                    prev[v] = (u, k, d)
                    queue.append(v)
        out = {}
        while target != source:
            target, k, d = prev[target]
            out[k] = d
        return out

    cols = [path(*ends[k]) for k in range(len(ends)) if k not in tree]
    return IntegerMatrix.from_rows([[c.get(k, 0) for c in cols] for k in tree])


def random_network(rng, max_rows, max_cols):
    """A network matrix with a nonzero entry."""
    while True:
        vertices = rng.randint(2, max_rows + 1)
        m = network_matrix(rng, vertices, vertices - 1 + rng.randint(1, max_cols))
        if any(any(r) for r in m.entries):
            return m


def flip_one(rng, m):
    """m with one nonzero entry negated."""
    rows = [list(r) for r in m.entries]
    i, j = rng.choice([(i, j) for i in range(m.rows) for j in range(m.cols) if rows[i][j]])
    rows[i][j] = -rows[i][j]
    return IntegerMatrix.from_rows(rows)


def block_mix(rng, a, b):
    """diag(a, b) with rows and columns shuffled, so the blocks interleave."""
    rows = [list(r) + [0] * b.cols for r in a.entries]
    rows += [[0] * a.cols + list(r) for r in b.entries]
    rows = rng.sample(rows, len(rows))
    perm = rng.sample(range(a.cols + b.cols), a.cols + b.cols)
    return IntegerMatrix.from_rows([[r[j] for j in perm] for r in rows])


def scaling(rows, transpose=False):
    """`network.network_scaling` of the matrix with these rows, or of its
    transpose: the columns' sign masks over every row, or the rows' over
    every column."""
    row_signs, col_signs = _sign_masks(rows)
    if transpose:
        return network.network_scaling(row_signs, (1 << len(col_signs)) - 1)
    return network.network_scaling(col_signs, (1 << len(row_signs)) - 1)


def oracle_cases(rng):
    """Seeded network matrices up to 7x11, their transposes, and each of
    those with one sign flipped."""
    for _ in range(300):
        m = random_network(rng, 7, 11)
        for x in (m, m.transpose()):
            yield x
            yield flip_one(rng, x)


@pytest.fixture
def no_minors(monkeypatch):
    mask_witness = intmat._mask_witness

    def refuse(signs, start, stop):
        if start >= 2:
            raise AssertionError("the Eulerian fallback was searched")
        return mask_witness(signs, start, stop)

    monkeypatch.setattr(intmat, "_mask_witness", refuse)


def spy_searches(monkeypatch) -> list:
    """Records (row sign masks, start) of each `_mask_witness` call from
    order 2 up: a block's fallback, or the input's search for a witness."""
    searched = []
    mask_witness = intmat._mask_witness

    def spy(signs, start, stop):
        if start >= 2:
            searched.append((list(signs), start))
        return mask_witness(signs, start, stop)

    monkeypatch.setattr(intmat, "_mask_witness", spy)
    return searched


class TestAgainstEnumeration:
    def test_network_matrices_transposes_and_flips(self, rng):
        verdicts = []
        with bounds(tu=12):
            for x in oracle_cases(rng):
                got = is_totally_unimodular(x)
                assert got == oracle.tu_by_enumeration(x)
                verdicts.append(got.ok)
        assert verdicts.count(False) > 100 and verdicts.count(True) > 600

    def test_block_mixes_with_r10_and_fano(self, rng):
        verdicts = []
        with bounds(tu=12):
            for other in (R10, FANO_PLANTED):
                for _ in range(6):
                    a = random_network(rng, 3, 4)
                    for x in (a, flip_one(rng, a)):
                        m = block_mix(rng, x, IntegerMatrix.from_rows(other))
                        got = is_totally_unimodular(m)
                        assert got == oracle.tu_by_enumeration(m)
                        verdicts.append(got.ok)
        assert True in verdicts and False in verdicts


class TestCompleteness:
    """Network matrices and their transposes never reach the enumeration."""

    def test_random_network_matrices(self, rng, no_minors):
        # no search runs, so no TU bound is reached, however low
        with bounds(tu=1):
            for _ in range(200):
                m = random_network(rng, 12, 16)
                assert is_totally_unimodular(m)
                assert is_totally_unimodular(m.transpose())

    def test_realizer_finds_every_network_block(self, rng):
        """Each block of a network matrix's core is realized as it stands,
        so the verdict never leans on realizing the transpose instead."""
        assert scaling(NESTED) is True
        assert oracle.tu_by_enumeration(IntegerMatrix.from_rows(NESTED))
        for _ in range(200):
            m = random_network(rng, 12, 16)
            row_signs, col_signs = _sign_masks(m.entries)
            core = intmat._tu_core(row_signs, col_signs)
            for rows, cols in intmat._mask_blocks(col_signs, *core):
                by_col = [(p & rows, q & rows) for j, (p, q) in enumerate(col_signs)
                          if cols >> j & 1]
                by_row = [(p & cols, q & cols) for i, (p, q) in enumerate(row_signs)
                          if rows >> i & 1]
                assert network.network_scaling(by_col, rows) is True
                assert network.network_scaling(by_row, cols) is not False

    def test_ten_by_eighteen(self, no_minors):
        rng = random.Random(10)
        while True:
            m = network_matrix(rng, 11, 28)
            if (m.rows, m.cols) == (10, 18):
                break
        assert is_totally_unimodular(m)

    def test_r10_reaches_the_enumeration(self, monkeypatch):
        searched = spy_searches(monkeypatch)
        m = IntegerMatrix.from_rows(R10)
        assert scaling(R10) is None
        assert scaling(R10, transpose=True) is None
        assert is_totally_unimodular(m)
        # R10 alone, in one search of its sign masks from order 2
        assert searched == [(_sign_masks(R10)[0], 2)]


    def test_signs_that_do_not_scale_go_straight_to_the_input(self, rng, monkeypatch):
        """A realized support with signs that do not rescale is no TU
        block (Camion), so only the input is searched, for its witness;
        order 2 is read by the row-pair scan, so the search starts at 3."""
        searched = spy_searches(monkeypatch)
        refuted = 0
        for _ in range(100):
            m = flip_one(rng, random_network(rng, 7, 10))
            searched.clear()
            got = is_totally_unimodular(m)
            refuted += not got
            # one search of the input alone, from order 3, for a witness past 2
            assert searched == ([] if got or len(got.witness_rows) == 2
                                else [(_sign_masks(m.entries)[0], 3)])
            assert got == oracle.tu_by_enumeration(m)
        assert refuted > 25


class TestAgainstRowPath:
    """The verdict on sign masks against the row-based block decision it
    replaced (`tu_oracles.tu_check_by_tuples`): the same verdict, witness
    and determinant from `is_totally_unimodular`, and the same verdict
    from `_tu_verdict`."""

    @staticmethod
    def check(rows) -> bool:
        m = IntegerMatrix.from_rows(rows)
        got = is_totally_unimodular(m)
        assert got == oracle.tu_check_by_tuples(m)
        assert intmat._tu_verdict(m.entries) is oracle.tu_verdict_by_tuples(m.entries) is got.ok
        return got.ok

    def test_planted_sign_matrices(self):
        rnd = random.Random(83)
        planted = dict.fromkeys(("zero", "unit", "duplicate", "negated"), 0)
        verdicts = [0, 0]
        with bounds(tu=12):
            for _ in range(20000):
                drawn = _sign_matrix(rnd, twos=False)
                rows, kinds = _planted(rnd, [list(r) for r in drawn.entries])
                verdicts[self.check(rows)] += 1
                for kind in kinds:
                    planted[kind] += 1
        assert min(planted.values()) > 10000 and min(verdicts) > 4000

    def test_network_matrices_transposes_and_flips(self, rng):
        verdicts = [0, 0]
        with bounds(tu=12):
            for _ in range(1000):
                m = random_network(rng, 12, 16)
                for x in (m, m.transpose()):
                    for y in (x, flip_one(rng, x)):
                        verdicts[self.check(y.entries)] += 1
        assert min(verdicts) >= 500


def spread(rows, at, height):
    """The rows placed at the row indices `at` of a height-row matrix, the
    other rows zero."""
    zero = (0,) * len(rows[0])
    placed = dict(zip(at, rows))
    return tuple(placed.get(i, zero) for i in range(height))


def sign_block(rng, height, width):
    """A seeded {0, +-1} matrix, about half of its entries zero."""
    return tuple(tuple(rng.choice((0, 0, 1, -1)) for _ in range(width))
                 for _ in range(height))


class TestAgainstOldRealizer:
    """`_realize` and `network_scaling` against `network_oracles`, the
    code they were rewritten from, on every connected block (zero lines
    dropped, nothing stripped) of seeded matrices, read both ways."""

    def test_same_trees_and_verdicts(self, rng):
        matrices = [R10, NESTED, FANO_PLANTED]
        for _ in range(150):
            m = random_network(rng, 12, 16)
            for x in (m, m.transpose()):
                matrices += [x.entries, flip_one(rng, x).entries]
        matrices += [sign_block(rng, rng.randint(2, 8), rng.randint(2, 8))
                     for _ in range(400)]
        verdicts = []
        for rows in matrices:
            row_signs, col_signs = _sign_masks(rows)
            everything = ((1 << len(row_signs)) - 1, (1 << len(col_signs)) - 1)
            for block_rows, block_cols in intmat._mask_blocks(col_signs, *everything):
                for signs, at, over in ((col_signs, block_cols, block_rows),
                                        (row_signs, block_rows, block_cols)):
                    cols = [(p & over, q & over) for j, (p, q) in enumerate(signs)
                            if at >> j & 1]
                    supports = [p | q for p, q in cols]
                    lines = list(network._mask_elements(over))
                    tree = network._realize(lines, supports, itertools.count())
                    assert tree == network_oracles._realize(lines, supports, itertools.count())
                    got = network.network_scaling(cols, over)
                    assert got is network_oracles.network_scaling(cols, over)
                    verdicts.append(got)
        assert verdicts.count(True) >= 200 and verdicts.count(None) >= 200
        assert verdicts.count(False) >= 50


class TestMaskContract:
    """`network_scaling` reads a block on the rows of a mask, whatever
    their indices; `_tree_paths` holds a tree to exactly those rows."""

    def test_block_on_scattered_rows(self, rng):
        """A block on rows {1, 4, 6, ...} of a zero-padded matrix gets the
        compact block's verdict, and so does its transpose on scattered
        columns: True, False and None among them."""
        verdicts = set()
        flipped = flip_one(rng, IntegerMatrix.from_rows(NESTED)).entries
        blocks = [NESTED, R10, FANO_PLANTED, flipped]
        blocks += [random_network(rng, 6, 8).entries for _ in range(20)]
        for rows in blocks:
            height = 3 * len(rows)
            at = sorted(rng.sample(range(height), len(rows)))
            col_signs = _sign_masks(spread(rows, at, height))[1]
            want = scaling(rows)
            assert network.network_scaling(col_signs, sum(1 << i for i in at)) is want
            cols = tuple(zip(*rows))
            width = 3 * len(cols)
            at = sorted(rng.sample(range(width), len(cols)))
            row_signs = _sign_masks(tuple(zip(*spread(cols, at, width))))[0]
            assert network.network_scaling(row_signs, sum(1 << j for j in at)) is \
                scaling(rows, transpose=True)
            verdicts.add(want)
        assert verdicts == {True, False, None}

    def test_tree_paths_hold_the_row_mask(self):
        """A path on the edges 1, 4 and 6 carries the supports along it
        only against the mask of exactly those rows."""
        tree = {1: (0, 1), 4: (1, 2), 6: (2, 3)}
        rows = 1 << 1 | 1 << 4 | 1 << 6
        supports = [1 << 1 | 1 << 4, 1 << 4 | 1 << 6, rows]
        assert network._tree_paths(tree, rows, supports) is not None
        for other in (rows | 1, rows ^ 1 << 4, 0b111, (1 << 3) - 1 << 1):
            assert network._tree_paths(tree, other, supports) is None

    def test_tree_paths_read_any_vertex_labels(self, rng):
        """`_realize` draws nonnegative ints, but `_tree_paths` checks any
        tree: relabelled with strings or with negative ints, a tree gets
        the forward masks, or None, that it gets on its int labels."""
        results = []
        for _ in range(100):
            m = random_network(rng, 8, 10)
            rows = (1 << m.rows) - 1
            supports = [p | q for p, q in _sign_masks(m.entries)[1]]
            tree = network._realize(list(range(m.rows)), supports, itertools.count())
            # a wrong tree: the same edges with two of their ends swapped
            wrong = dict(tree)
            if m.rows > 1:
                wrong[0], wrong[1] = (tree[0][0], tree[1][1]), (tree[1][0], tree[0][1])
            for t in (tree, wrong):
                want = network._tree_paths(t, rows, supports)
                for label in (lambda v: f"v{v}", lambda v: -v - 1):
                    relabelled = {r: (label(u), label(v)) for r, (u, v) in t.items()}
                    assert network._tree_paths(relabelled, rows, supports) == want
                results.append(want is None)
        assert True in results and False in results


class TestSoundness:
    """Verdicts and witnesses do not depend on the realizer being right."""

    @pytest.mark.parametrize("shape", ["path", "star", "cycle", "forest"])
    def test_wrong_trees(self, rng, monkeypatch, shape):
        def wrong(rows, cols, fresh):
            rows = list(rows)
            if shape == "path":
                return {r: (k, k + 1) for k, r in enumerate(rows)}
            if shape == "star":
                return {r: (-1, k) for k, r in enumerate(rows)}
            if shape == "cycle":
                return {r: (k, (k + 1) % len(rows)) for k, r in enumerate(rows)}
            return {r: (2 * k, 2 * k + 1) for k, r in enumerate(rows)}

        monkeypatch.setattr(network, "_realize", wrong)
        cases = [x for x, _ in zip(oracle_cases(rng), range(120))]
        cases += [IntegerMatrix.from_rows(R10), IntegerMatrix.from_rows(FANO_PLANTED)]
        with bounds(tu=12):
            for x in cases:
                assert is_totally_unimodular(x) == oracle.tu_by_enumeration(x)
