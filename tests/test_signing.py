"""Camion's signing, and the certificate read off a Gram matrix, against
the 2^k signing search they replaced.

`tu_signing` and `is_g_feasible` are compared for exact equality, values
and errors alike, with the enumerating routines in `signing_oracles`, on
seeded random {0,1} matrices (some holding the Fano block), on the
entrywise absolute values of network matrices, and on the criterion-07
reconstruction sweep with perturbed Gram matrices.
"""

import random

import pytest

import signing_oracles as oracle
from flowlattice import gram
from flowlattice.errors import BoundExceededError
from flowlattice.flows import fundamental_basis
from flowlattice.gram import GramMatrix, _signing_skeleton, build_x, is_g_feasible, tu_signing
from flowlattice.intmat import IntegerMatrix, bounds, sharp
from flowlattice.matroid import dual, from_graph

from conftest import bridgeless_graphs
from elimination_oracles import bases
from test_matroid import r10
import test_network

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


def random_gram(rng):
    """A symmetric matrix of order 1-6, diagonal in 1..6, off it in -2..2."""
    s = rng.randint(1, 6)
    rows = [[0] * s for _ in range(s)]
    for i in range(s):
        rows[i][i] = rng.randint(1, 6)
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    return GramMatrix.from_rows(rows)


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
        of the Eulerian search, which starts at order 3; at min(rows, cols)
        nothing is refused."""
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
                        f"Eulerian search order = {max(bound + 1, 3)} > {bound}")
                    refused += 1
        assert refused > 10

    def test_non_binary_empty_and_oversized_inputs(self):
        ones = [[1] * 40 for _ in range(40)]
        for x in (IntegerMatrix.from_rows([[1, 2], [0, 1]]), IntegerMatrix.zeros(0, 3),
                  IntegerMatrix.zeros(3, 0), IntegerMatrix.from_rows([[1, -1]]),
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
            a = random_gram(rng)
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
        a = GramMatrix(IntegerMatrix.zeros(0, 0))
        assert is_g_feasible(a) == oracle.is_g_feasible(a)


class TestR10Feasibility:
    """R10 and its dual: no tree realizes either Gram matrix's certificate,
    so its TU verdict runs the Eulerian search to order 5."""

    R10_CERTIFICATE = (
        (1, -1, 1, 0, 0), (1, -1, 0, 0, -1), (1, 0, 0, 1, -1), (0, -1, 1, -1, 0),
        (0, 0, 1, -1, 1), (1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0), (0, 0, 0, 0, -1),
    )
    DUAL_CERTIFICATE = (
        (1, 1, 0, -1, 0), (1, 0, -1, -1, 0), (1, 0, -1, 0, 1), (0, 1, 1, 0, -1),
        (0, 1, 0, -1, -1), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, -1, 0, 0),
        (0, 0, 0, -1, 0), (0, 0, 0, 0, 1),
    )

    @pytest.fixture(params=["r10", "dual"])
    def case(self, request):
        m = r10() if request.param == "r10" else dual(r10())
        cert = self.R10_CERTIFICATE if request.param == "r10" else self.DUAL_CERTIFICATE
        return fundamental_basis(m).gram, cert

    def test_feasible_with_its_certificate(self, case):
        a, cert = case
        res = is_g_feasible(a)
        assert res and res.certificate == IntegerMatrix.from_rows(cert)
        assert res.certificate.transpose() * res.certificate == a.mat

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_refused_under_a_tu_bound(self, case, k):
        a, _ = case
        with bounds(tu=k), pytest.raises(BoundExceededError) as exc:
            is_g_feasible(a)
        assert str(exc.value) == ("instance too large for exact enumeration: "
                                  f"Eulerian search order = {k + 1} > {k}")


def test_column_signs_refuse_a_different_absolute_gram():
    u = IntegerMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    g = u.transpose() * u
    assert oracle._match_column_signs(g, GramMatrix.from_rows([[2, -1], [-1, 2]]))
    assert oracle._match_column_signs(g, GramMatrix.from_rows([[2, 2], [2, 2]])) is None
    assert oracle._match_column_signs(g, GramMatrix.from_rows([[2, 0], [0, 2]])) is None


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

        for mod, verdict in ((gram, "_tu_verdict"), (oracle, "is_totally_unimodular")):
            monkeypatch.setattr(mod, verdict, counted("tu", getattr(mod, verdict)))
        monkeypatch.setattr(oracle, "_match_column_signs",
                            counted("match", oracle._match_column_signs))
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
        assert counts["tu"] == 1

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
        mask_witness = intmat._mask_witness

        def spy(signs, start, stop):
            # the rows searched, and the columns they meet
            met = 0
            for p, q in signs:
                met |= p | q
            seen.append((len(signs), met.bit_count()))
            return mask_witness(signs, start, stop)

        monkeypatch.setattr(intmat, "_mask_witness", spy)
        x = IntegerMatrix.from_rows(FANO_PLANTED)
        assert tu_signing(x) is None
        assert seen and (x.rows, x.cols) not in seen

    @pytest.mark.parametrize("rows", [None, INFEASIBLE_GRAM], ids=["k4", "infeasible"])
    def test_feasibility_reads_its_certificate_off_the_gram(self, monkeypatch, k4, rows):
        """One TU verdict, of the certificate's distinct rows: their
        absolute values are the distinct rows of `build_x(a)`, in order.
        No signing is built."""
        seen = []
        verdict = gram._tu_verdict

        def spy(m):
            seen.append(m)
            return verdict(m)

        def refuse(*args):
            raise AssertionError("a signing was built")

        monkeypatch.setattr(gram, "_tu_verdict", spy)
        for name in ("tu_signing", "_camion_signing", "_bfs"):
            monkeypatch.setattr(gram, name, refuse)
        a = fundamental_basis(k4).gram if rows is None else GramMatrix.from_rows(rows)
        res = is_g_feasible(a)
        distinct = IntegerMatrix(tuple(dict.fromkeys(build_x(a).entries)), empty_cols=a.order)
        assert len(seen) == 1 and sharp(IntegerMatrix(seen[0])) == distinct
        assert res.certificate == (IntegerMatrix(seen[0]) if rows is None else None)


class TestConformalRows:
    """Every certificate row is signed by a: u_ri u_rj = sign(a_ij) for all
    i, j in its support."""

    @staticmethod
    def check(a):
        res = is_g_feasible(a)
        if not res:
            return False
        for row in res.certificate.entries:
            support = [j for j, v in enumerate(row) if v]
            for i in support:
                for j in support:
                    assert row[i] * row[j] == (1 if a.entry(i, j) > 0 else -1)
        return True

    def test_reconstruction_sweep(self):
        assert all(self.check(a) for a in sweep_grams())

    def test_random_feasible_grams(self, rng):
        """Fundamental Gram matrices of random multigraphs and their duals,
        with random column signs, and random small matrices that happen to
        be feasible."""
        for _ in range(300):
            nv = rng.randint(2, 8)
            edges = [(v, rng.randint(1, v - 1)) for v in range(2, nv + 1)]
            edges += [(rng.randint(1, nv), rng.randint(1, nv)) for _ in range(rng.randint(1, 10))]
            m = from_graph(edges)
            e = fundamental_basis(rng.choice((m, dual(m)))).gram.mat.entries
            f = [rng.choice((1, -1)) for _ in e]
            if e:
                assert self.check(GramMatrix.from_rows(
                    [[f[i] * f[j] * v for j, v in enumerate(row)] for i, row in enumerate(e)]))
        feasible = 0
        for _ in range(3000):
            feasible += self.check(random_gram(rng))
        assert feasible > 100


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


class TestChordTakeover:
    """A waiting entry that joins a row and a column of another's shortest
    path takes over, and the cycle finally closed has no chord."""

    # row 4's first waiting entry has a path that another waiting entry of
    # row 4 cuts short; that entry takes over after a second search
    CHORDED = (
        (1, 0, 0, 0, 1, 1, 0, 1),
        (0, 1, 1, 0, 0, 1, 1, 1),
        (1, 0, 0, 0, 0, 1, 0, 1),
        (0, 0, 0, 1, 1, 0, 0, 0),
        (0, 1, 0, 1, 1, 0, 0, 0),
    )

    def test_chord_takes_over(self, monkeypatch):
        sources = []
        bfs = gram._bfs

        def spy(rows, cols, source):
            sources.append(source)
            return bfs(rows, cols, source)

        monkeypatch.setattr(gram, "_bfs", spy)
        x = IntegerMatrix.from_rows(self.CHORDED)
        got = tu_signing(x)
        assert sources == [4, 4]
        assert got is not None and got == oracle.tu_signing(x)

    def test_random_01_up_to_9x9(self, rng):
        """Seeded {0,1} matrices of every shape up to 9x9, each with at most
        MAX_FREE free entries, against the 2^k oracle."""
        done = refuted = 0
        while done < 400:
            # a forest has at most r + c - 1 entries: aim just past it
            r, c = rng.randint(1, 9), rng.randint(1, 9)
            p = (r + c - 1 + rng.randint(1, MAX_FREE)) / (r * c)
            x = IntegerMatrix.from_rows(
                [[int(rng.random() < p) for _ in range(c)] for _ in range(r)])
            if free_count(x) > MAX_FREE:
                continue
            got = outcome(tu_signing, x)
            assert got == outcome(oracle.tu_signing, x)
            refuted += got is None
            done += 1
        assert refuted > 20


class TestPermutedBands:
    """Row i of a band matrix of width w is 1 in columns i, ..., i + w - 1:
    an interval matrix, so TU and its own signing.  Its bipartite graph has
    no chordless cycle longer than 4, so under any row and column
    permutation every free entry is signed by a pass, with no search."""

    @pytest.mark.parametrize("rows", [2, 9, 60, 200])
    def test_signed_by_passes(self, monkeypatch, rng, rows):
        searches = []
        bfs = gram._bfs

        def counted(*args):
            searches.append(args)
            return bfs(*args)

        monkeypatch.setattr(gram, "_bfs", counted)
        for width in (2, 3, 4):
            cols = rows + width - 1
            rperm, cperm = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
            x = IntegerMatrix.from_rows(
                [[int(i <= j < i + width) for j in cperm] for i in rperm])
            assert free_count(x) == (rows - 1) * (width - 2)
            assert tu_signing(x) == x
        assert searches == []


class TestRetests:
    """A pass re-tests only the waiting entries that an entry signed since
    the last pass can complete; each other entry would fail again."""

    def test_sharp_network_matrix(self, monkeypatch):
        """The sharp 30x80 network matrix of seed 3 takes 11 searches.
        Re-testing every waiting entry on each pass would take 838 4-cycle
        tests; the entries that a new one can complete take 421."""
        tests, searches = [], []
        four_cycle, bfs = gram._four_cycle, gram._bfs

        def counted_test(*args):
            tests.append(args[3:])
            return four_cycle(*args)

        def counted_search(*args):
            searches.append(args[2])
            return bfs(*args)

        monkeypatch.setattr(gram, "_four_cycle", counted_test)
        monkeypatch.setattr(gram, "_bfs", counted_search)
        x = sharp(test_network.network_matrix(random.Random(3), 31, 110))
        assert (x.rows, x.cols, free_count(x)) == (30, 80, 240)
        u = tu_signing(x)
        assert u is not None and sharp(u) == x
        assert (len(searches), len(tests)) == (11, 421)
