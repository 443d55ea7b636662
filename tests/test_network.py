"""Total unimodularity through verified network realizations.

`is_totally_unimodular` settles each connected block of the reduced core
by a network or co-network realization (`flowlattice.network`), checked
entry by entry, and enumerates only blocks with neither.  These tests
compare it with the enumeration in `tu_oracles` on seeded network
matrices, their transposes and one-sign perturbations, and on
block-diagonal mixes with R10 and with a Fano-planted block; they show
that network matrices never reach the enumeration, that R10 does, and
that a realizer returning wrong trees changes no verdict or witness.
"""

import random

import pytest

import tu_oracles as oracle
from flowlattice import intmat, network
from flowlattice.intmat import IntegerMatrix, bounds, is_totally_unimodular

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
    least_witness = intmat._least_witness

    def refuse(rows, start=1, stop=None):
        if start >= 2:
            raise AssertionError("the Eulerian fallback was searched")
        return least_witness(rows, start, stop)

    monkeypatch.setattr(intmat, "_least_witness", refuse)


def spy_searches(monkeypatch) -> list:
    """Records (rows, start) of each `_least_witness` call from order 2 up."""
    searched = []
    least_witness = intmat._least_witness

    def spy(rows, start=1, stop=None):
        if start >= 2:
            searched.append((tuple(map(tuple, rows)), start))
        return least_witness(rows, start, stop)

    monkeypatch.setattr(intmat, "_least_witness", spy)
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
        assert network.network_scaling(NESTED) is True
        assert oracle.tu_by_enumeration(IntegerMatrix.from_rows(NESTED))
        for _ in range(200):
            m = random_network(rng, 12, 16)
            for block in intmat._blocks(intmat._tu_core(m.entries)):
                assert network.network_scaling(block) is True
                assert network.network_scaling(tuple(zip(*block))) is not False

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
        assert network.network_scaling(R10) is None
        assert network.network_scaling(m.transpose().entries) is None
        assert is_totally_unimodular(m)
        # R10 alone, in one search from order 2
        assert searched == [(R10, 2)]


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
                                else [(m.entries, 3)])
            assert got == oracle.tu_by_enumeration(m)
        assert refuted > 25


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
