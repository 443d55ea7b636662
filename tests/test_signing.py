"""Camion's signing against the 2^k signing search it replaced.

`tu_signing` and `is_g_feasible` are compared for exact equality, values
and errors alike, with the enumerating routines in `signing_oracles`, on
seeded random {0,1} matrices (some holding the Fano block), on the
entrywise absolute values of network matrices, and on the criterion-07
reconstruction sweep with perturbed Gram matrices.
"""

import pytest

import signing_oracles as oracle
from flowlattice import gram
from flowlattice.errors import BoundExceededError
from flowlattice.flows import fundamental_basis
from flowlattice.gram import GramMatrix, _signing_skeleton, build_x, is_g_feasible, tu_signing
from flowlattice.intmat import IntegerMatrix, bounds, sharp
from flowlattice.matroid import bases, from_graph

from conftest import bridgeless_graphs

FANO = ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
# a 6x6 matrix holding FANO in rows 0, 2, 3 and columns 3, 4, 0, 1, with 13
# free entries, two of whose signings pass every 2x2 test
FANO_PLANTED = (
    (0, 1, 1, 1, 1, 1),
    (0, 1, 1, 0, 1, 1),
    (1, 1, 0, 1, 0, 1),
    (1, 1, 0, 0, 1, 1),
    (0, 1, 1, 1, 1, 1),
    (1, 0, 1, 0, 0, 0),
)
# g-nonnegative, yet no signing of its skeleton is TU: 9 free entries
INFEASIBLE_GRAM = (
    (4, 1, 1, 2, 0, -1),
    (1, 6, -2, -1, 2, 0),
    (1, -2, 6, 2, 0, 1),
    (2, -1, 2, 6, 2, 0),
    (0, 2, 0, 2, 6, -1),
    (-1, 0, 1, 0, -1, 6),
)
MAX_FREE = 12  # the oracle tries up to 2^MAX_FREE signings


def outcome(fn, *args):
    """The value, or the type and message of the error raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - errors are compared too
        return type(exc), str(exc)


def free_count(x):
    return len(_signing_skeleton(x)[1])


def plant_fano(rng, x):
    rows, cols = rng.sample(range(len(x)), 3), rng.sample(range(len(x[0])), 4)
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            x[i][j] = FANO[a][b]


def random_01(rng):
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    p = rng.random()
    x = [[1 if rng.random() < p else 0 for _ in range(c)] for _ in range(r)]
    if r >= 3 and c >= 4 and rng.random() < 0.3:
        plant_fano(rng, x)
    return IntegerMatrix.from_rows(x)


def network_matrix(rng, max_vertices=6, max_extra=6):
    """|L| for the fundamental circuits L of a random connected multigraph."""
    nv = rng.randint(2, max_vertices)
    edges = [(v, rng.randint(1, v - 1)) for v in range(2, nv + 1)]
    edges += [(rng.randint(1, nv), rng.randint(1, nv)) for _ in range(rng.randint(1, max_extra))]
    rng.shuffle(edges)
    return sharp(fundamental_basis(from_graph(edges)).basis)


def perturbed(rng, a):
    """a with one symmetric off-diagonal pair or one diagonal entry moved."""
    s = a.order
    rows = [list(r) for r in a.mat.entries]
    i, j = rng.randrange(s), rng.randrange(s)
    step = rng.choice((-1, 1))
    if i == j:
        rows[i][i] = max(1, rows[i][i] + step)
    elif rng.random() < 0.5:
        rows[i][j] = rows[j][i] = -rows[i][j]
    else:
        rows[i][j] += step
        rows[j][i] = rows[i][j]
    return GramMatrix.from_rows(rows)


def sweep_grams():
    for edges in bridgeless_graphs(5):
        m = from_graph(edges)
        for base in bases(m):
            yield fundamental_basis(m, base).gram


class TestTuSigningAgainstEnumeration:
    def test_random_01_matrices(self, rng):
        found = refuted = 0
        while found + refuted < 2000:
            x = random_01(rng)
            if free_count(x) > MAX_FREE:
                continue
            got = outcome(tu_signing, x)
            assert got == outcome(oracle.tu_signing, x)
            found += got is not None
            refuted += got is None
        assert refuted > 50

    def test_fano_planted(self, rng):
        for free in range(4, MAX_FREE + 1):
            for _ in range(5):
                while True:
                    x = [[0] * 6 for _ in range(6)]
                    # random ones, then the Fano block over them
                    for i, j in rng.sample([(i, j) for i in range(6) for j in range(6)],
                                           free + 11):
                        x[i][j] = 1
                    plant_fano(rng, x)
                    x = IntegerMatrix.from_rows(x)
                    if free_count(x) == free:
                        break
                assert tu_signing(x) is None
                assert oracle.tu_signing(x) is None

    def test_network_matrices(self, rng):
        done = 0
        while done < 300:
            x = network_matrix(rng)
            if free_count(x) > MAX_FREE:
                continue
            got = tu_signing(x)
            assert got is not None and got == oracle.tu_signing(x)
            done += 1

    def test_large_network_matrices(self, rng):
        """Past the oracle's reach: a TU signing of x that is +1 on the forest."""
        for _ in range(40):
            x = network_matrix(rng, 10, 16)
            forest, _ = _signing_skeleton(x)
            got = tu_signing(x)
            assert got is not None and sharp(got) == x
            assert all(got.entries[i][j] == 1 for i, j in forest)

    def test_bound_errors(self, rng):
        """Under a TU bound the answer is the unbounded oracle's, or a refusal
        of the Eulerian search; at min(rows, cols) nothing is refused."""
        refused = 0
        for _ in range(300):
            x = random_01(rng)
            if free_count(x) > MAX_FREE:
                continue
            want = outcome(oracle.tu_signing, x)
            cap = min(x.rows, x.cols)
            for bound in range(1, cap + 1):
                with bounds(tu=bound):
                    got = outcome(tu_signing, x)
                if got != want:
                    assert bound < cap and got == (
                        BoundExceededError, "instance too large for exact enumeration: "
                        f"Eulerian search order = {bound + 1} > {bound}")
                    refused += 1
        assert refused > 10

    def test_non_binary_empty_and_oversized_inputs(self):
        ones = [[1] * 40 for _ in range(40)]
        for x in (IntegerMatrix.from_rows([[1, 2], [0, 1]]), IntegerMatrix.empty(0, 3),
                  IntegerMatrix.empty(3, 0), IntegerMatrix.from_rows([[1, -1]]),
                  IntegerMatrix.from_rows(ones), IntegerMatrix.from_rows(ones[:-1] + [[2] * 40])):
            assert outcome(tu_signing, x) == outcome(oracle.tu_signing, x)

    def test_construction_is_not_gated(self, monkeypatch):
        """The construction and a realized verdict run at any size; only a
        block that no tree realizes is searched, under the TU bound."""
        with bounds(tu=1):
            for x in (IntegerMatrix.from_rows([[1] * 40 for _ in range(40)]),
                      IntegerMatrix.from_rows([[1, 1, 1], [1, 1, 1]])):
                assert tu_signing(x) == x
            with pytest.raises(BoundExceededError):
                tu_signing(IntegerMatrix.from_rows(FANO))


class TestFeasibilityAgainstEnumeration:
    def test_reconstruction_sweep_and_perturbations(self, rng):
        total = feasible = 0
        for a in sweep_grams():
            for b in (a, perturbed(rng, a)):
                got = outcome(is_g_feasible, b)
                assert got == outcome(oracle.is_g_feasible, b)
                feasible += bool(got)
            total += 1
        assert total == 418 and 418 < feasible < 2 * 418

    def test_random_grams(self, rng):
        infeasible = 0
        for _ in range(4000):
            s = rng.randint(1, 6)
            rows = [[0] * s for _ in range(s)]
            for i in range(s):
                rows[i][i] = rng.randint(1, 6)
                for j in range(i):
                    rows[i][j] = rows[j][i] = rng.randint(-2, 2)
            a = GramMatrix.from_rows(rows)
            if gram.classify(a) and free_count(build_x(a)) > MAX_FREE:
                continue
            got = outcome(is_g_feasible, a)
            assert got == outcome(oracle.is_g_feasible, a)
            infeasible += got.reason == "NO-MATCHING-SIGNING"
        assert infeasible > 5

    def test_tu_bound_from_scope(self):
        a = GramMatrix.from_rows(INFEASIBLE_GRAM)
        for bound in (2, 6, 10):
            with bounds(tu=bound):
                assert outcome(is_g_feasible, a) == outcome(oracle.is_g_feasible, a)

    def test_empty_gram(self):
        a = GramMatrix(IntegerMatrix.empty(0, 0))
        assert is_g_feasible(a) == oracle.is_g_feasible(a)


def test_column_signs_refuse_a_different_absolute_gram():
    u = IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert gram._match_column_signs(u.transpose() * u, GramMatrix.from_rows([[2, -1], [-1, 2]]))
    assert gram._match_column_signs(u.transpose() * u, GramMatrix.from_rows([[2, 2], [2, 2]])) is None
    assert gram._match_column_signs(u.transpose() * u, GramMatrix.from_rows([[2, 0], [0, 2]])) is None


class TestOneSigningPath:
    """The Camion signing is checked once; nothing is enumerated."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"tu": 0, "match": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        match = counted("match", gram._match_column_signs)
        for mod, verdict in ((gram, "_tu_verdict"), (oracle, "is_totally_unimodular")):
            monkeypatch.setattr(mod, verdict, counted("tu", getattr(mod, verdict)))
            monkeypatch.setattr(mod, "_match_column_signs", match)
        return calls

    def test_fano_planted_checked_once(self, counts):
        x = IntegerMatrix.from_rows(FANO_PLANTED)
        assert free_count(x) == 13
        assert tu_signing(x) is None
        assert counts["tu"] == 1

    def test_feasibility_checked_once(self, counts):
        a = GramMatrix.from_rows(INFEASIBLE_GRAM)
        assert free_count(build_x(a)) == 9
        res = is_g_feasible(a)
        assert not res and res.reason == "NO-MATCHING-SIGNING"
        assert counts["tu"] == 1 and counts["match"] <= 1

    def test_counts_see_the_enumeration(self, counts):
        """The oracle, counted the same way, tries more than one signing."""
        assert oracle.tu_signing(IntegerMatrix.from_rows(FANO_PLANTED)) is None
        assert counts["tu"] == 2
        assert not oracle.is_g_feasible(GramMatrix.from_rows(INFEASIBLE_GRAM))
        assert counts["match"] == 2 ** 9

    def test_fano_planted_enumerates_no_witness(self, monkeypatch):
        """The verdict on a non-TU candidate stops at its core block: the
        whole candidate is never enumerated for a witness."""
        from flowlattice import intmat

        seen = []
        eulerian_witness = intmat._eulerian_witness

        def spy(m, k):
            seen.append(m)
            return eulerian_witness(m, k)

        monkeypatch.setattr(intmat, "_eulerian_witness", spy)
        x = IntegerMatrix.from_rows(FANO_PLANTED)
        assert tu_signing(x) is None
        assert all((m.rows, m.cols) != (x.rows, x.cols) for m in seen)

    def test_feasibility_goes_through_tu_signing(self, monkeypatch, k4):
        seen = []

        def spy(x):
            seen.append(x)
            return tu_signing(x)

        monkeypatch.setattr(gram, "tu_signing", spy)
        lat = fundamental_basis(k4)
        assert is_g_feasible(lat.gram)
        assert seen == [build_x(lat.gram)]


class TestWideAllOnes:
    """Every free entry of an all-ones matrix closes a 4-cycle with the
    forest, so the signing runs no breadth-first search."""

    @pytest.mark.parametrize("shape", [(10, 200), (200, 10)])
    def test_no_search(self, monkeypatch, shape):
        searches = []
        bfs = gram._bfs

        def counted(*args):
            searches.append(args)
            return bfs(*args)

        monkeypatch.setattr(gram, "_bfs", counted)
        rows, cols = shape
        x = IntegerMatrix.from_rows([[1] * cols for _ in range(rows)])
        forest, free = _signing_skeleton(x)
        assert len(free) == 1791
        u = gram._camion_signing(x, forest, free)
        assert searches == [] and sharp(u) == x
        assert tu_signing(x) == u

    def test_searches_where_no_four_cycle_closes(self, monkeypatch):
        """A 6-cycle has no 4-cycle: its one free entry is signed by a search."""
        searches = []
        bfs = gram._bfs

        def counted(*args):
            searches.append(args)
            return bfs(*args)

        monkeypatch.setattr(gram, "_bfs", counted)
        x = IntegerMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert tu_signing(x) == oracle.tu_signing(x)
        assert len(searches) == 1
