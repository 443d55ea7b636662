import itertools
import random

import pytest

import flowlattice.matroid as matroid_module
from flowlattice.errors import BoundExceededError, FormatError, NotABaseError
from flowlattice.intmat import IntegerMatrix, bounds, determinant, is_totally_unimodular, rank
from flowlattice.matroid import (
    RegularMatroid,
    _gf2_echelon,
    circuits,
    contract_coloops,
    coordinatize,
    dual,
    first_base,
    from_graph,
    is_isomorphic,
    loops_and_coloops,
    parse_graph,
    parse_matroid,
    subset_rank,
)

from conftest import (
    BOWTIE,
    K4,
    PATH2,
    TRIANGLE,
    TWO_TRIANGLES,
    connected_multigraphs,
    graph_cycles,
    u1n,
)
from elimination_oracles import bases
import iso_oracles
from rank_oracles import (
    circuits_by_rank,
    coloops_by_rank,
    incidence_rep_by_rank,
    independent_rows_by_rank,
    loops_by_zero_columns,
)

K5 = list(itertools.combinations(range(5), 2))
K33 = [(a, b) for a in range(3) for b in range(3, 6)]
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)
# R10: regular, but neither graphic nor cographic
R10_A = [
    [-1, 1, 0, 0, 1],
    [1, -1, 1, 0, 0],
    [0, 1, -1, 1, 0],
    [0, 0, 1, -1, 1],
    [1, 0, 0, 1, -1],
]


def r10():
    rows = [[int(i == j) for j in range(5)] + R10_A[i] for i in range(5)]
    return RegularMatroid.from_rep(
        tuple(f"e{i + 1}" for i in range(10)), IntegerMatrix.from_rows(rows)
    )


def random_multigraph(rng):
    """Up to 9 edges over up to 5 vertices, with a self-loop, a parallel
    edge and a pendant (bridge) edge each added with probability 1/2."""
    nv = rng.randint(1, 5)
    edges = [(rng.randint(1, nv), rng.randint(1, nv))
             for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        v = rng.randint(1, nv)
        edges.append((v, v))
    if rng.random() < 0.5:
        t, h = rng.choice(edges)
        edges.append((h, t))
    if rng.random() < 0.5:
        edges.append((rng.randint(1, nv), nv + 1))
    rng.shuffle(edges)
    return edges


class TestConstruction:
    def test_triangle_shape(self, triangle):
        assert (triangle.rank, triangle.size, triangle.corank) == (2, 3, 1)

    def test_k4_shape(self, k4):
        assert (k4.rank, k4.size) == (3, 6)

    def test_rep_is_tu(self, k4):
        assert is_totally_unimodular(k4.rep)

    def test_self_loop_is_zero_column(self):
        m = from_graph([(1, 2), (2, 2), (2, 3)])
        assert all(x == 0 for x in m.rep.column(1))

    def test_from_rep_rejects_non_tu(self):
        with pytest.raises(FormatError):
            RegularMatroid.from_rep(("a", "b"), IntegerMatrix.from_rows([[1, 2]]))

    def test_from_rep_rejects_row_deficient(self):
        with pytest.raises(FormatError):
            RegularMatroid.from_rep(
                ("a", "b"), IntegerMatrix.from_rows([[1, 1], [1, 1]])
            )

    def test_parse_graph_round_trip(self):
        text = "# triangle\n1 2\n2 3\n3 1\n"
        assert parse_graph(text) == TRIANGLE

    def test_parse_matroid_round_trip(self, k4):
        again = parse_matroid(k4.text())
        assert again.ground == k4.ground and again.rep == k4.rep

    @pytest.mark.parametrize("m", [from_graph([(1, 1)]),
                                   RegularMatroid.from_rep((), IntegerMatrix.zeros(0, 0))],
                             ids=["loop", "empty"])
    def test_parse_matroid_round_trip_without_rows(self, m):
        """The empty matroid's label line is blank; it is not read as labels."""
        assert parse_matroid(m.text()) == m


class TestRankAndBases:
    def test_subset_rank_matches_forest_size(self, k4):
        # rank of an edge subset of a graph = edges of a spanning forest
        import networkx as nx

        for size in range(len(K4) + 1):
            for combo in itertools.combinations(range(len(K4)), size):
                g = nx.MultiGraph()
                g.add_nodes_from({v for e in K4 for v in e})
                for i in combo:
                    g.add_edge(*K4[i])
                forest = g.number_of_nodes() - nx.number_connected_components(g)
                assert subset_rank(k4, combo) == forest

    def test_k4_base_count_is_tree_count(self, k4):
        # Cayley: 4^{4-2} = 16 spanning trees
        assert sum(1 for _ in bases(k4)) == 16

    def test_first_base_lex_least(self, k4):
        assert first_base(k4) == (0, 1, 2)

    def test_coordinatize_identity_block(self, k4):
        for base in list(bases(k4))[:5]:
            sf = coordinatize(k4, base)
            r = k4.rank
            assert sf.matrix.select_columns(range(r)) == IntegerMatrix.identity(r)
            assert is_totally_unimodular(sf.matrix)

    def test_coordinatize_rejects_dependent(self, triangle):
        with pytest.raises(NotABaseError):
            coordinatize(triangle, (0, 1, 2))
        with pytest.raises(NotABaseError):
            coordinatize(from_graph(PATH2 + [(1, 2)]), (0, 2))


class TestCircuits:
    @pytest.mark.parametrize("edges", [TRIANGLE, K4, BOWTIE, PATH2,
                                       [(1, 2), (1, 2), (2, 3), (2, 3)],
                                       [(1, 1), (1, 2), (2, 2)]])
    def test_against_cycle_oracle(self, edges):
        m = from_graph(edges)
        got = {frozenset(c) for c in circuits(m)}
        assert got == graph_cycles(edges)

    def test_small_multigraph_sweep(self):
        for edges in connected_multigraphs(4):
            m = from_graph(edges)
            assert {frozenset(c) for c in circuits(m)} == graph_cycles(edges)

    def test_uniform_rank_one(self):
        m = u1n(4)
        assert circuits(m) == tuple(itertools.combinations(range(4), 2))

    def test_bound(self):
        """The bound gates the corank (3 for U(1, 4)), not the ground size."""
        m = u1n(4)
        with bounds(circuit=3):
            assert len(circuits(m)) == 6
        with bounds(circuit=2), pytest.raises(BoundExceededError) as exc:
            circuits(m)
        assert (exc.value.what, exc.value.size, exc.value.bound) == ("corank", 3, 2)


class TestAgainstRankOracles:
    """Exact equality (values and order) with the per-subset rank routines."""

    @staticmethod
    def check(m):
        assert circuits(m) == circuits_by_rank(m)
        assert loops_and_coloops(m) == (loops_by_zero_columns(m), coloops_by_rank(m))

    def test_random_multigraphs_and_duals(self, rng):
        """Also the core, whose rows are kept by rank from the columns
        outside the co-loops; a graph matroid and its core hold the cycle
        basis of the echelon that built them from the start, and the dual
        holds the rows of the standard form [I_r L] it was read off.  A
        copy of the dual takes its basis from the echelon instead; both
        bases give the same circuits, loops and co-loops."""
        looped = pendant = 0
        for _ in range(200):
            edges = random_multigraph(rng)
            m = from_graph(edges)
            assert m.rep == incidence_rep_by_rank(edges)
            assert vars(m)["_cycle_basis"] == _gf2_echelon(m.rep)[1]
            self.check(m)
            d = dual(m)
            self.check(d)
            copy = RegularMatroid(d.ground, d.rep)
            assert circuits(d) == circuits(copy)
            assert loops_and_coloops(d) == loops_and_coloops(copy)
            assert iso_oracles.gray_code_circuits(d) == iso_oracles.gray_code_circuits(copy)
            perm = coordinatize(m).perm
            coloops = coloops_by_rank(m)
            assert sorted(perm[i] for i in loops_and_coloops(d)[0]) == sorted(coloops)
            keep = [j for j in range(m.size) if j not in coloops]
            trimmed = m.rep.select_columns(keep)
            core = contract_coloops(m)
            assert core.ground == tuple(m.ground[j] for j in keep)
            assert core.rep == trimmed.select_rows(independent_rows_by_rank(trimmed))
            assert vars(core)["_cycle_basis"] == _gf2_echelon(core.rep)[1]
            self.check(core)
            looped += any(t == h for t, h in edges)
            pendant += bool(coloops)
        assert looped > 50 and pendant > 50

    def test_r10_and_dual(self):
        m = r10()
        self.check(m)
        self.check(dual(m))
        assert len(circuits(m)) == 30

    @pytest.mark.parametrize("m", [
        u1n(5),
        RegularMatroid.from_rep(("a", "b", "c"), IntegerMatrix((), empty_cols=3)),
        from_graph([(1, 2), (2, 3), (2, 4), (4, 5)]),
    ], ids=["u1n", "all-loops", "forest"])
    def test_degenerate(self, m):
        self.check(m)
        self.check(dual(m))


class TestNoPerSubsetRank:
    """Circuits, co-loops and row selection never rank a column or row subset."""

    @pytest.mark.parametrize("edges", [K5, K33, PETERSEN],
                             ids=["K5", "K33", "Petersen"])
    def test_succeeds_without_rank(self, edges, monkeypatch):
        def boom(*args):
            raise AssertionError("per-subset rank called")

        monkeypatch.setattr(matroid_module, "rank", boom)
        monkeypatch.setattr(matroid_module, "subset_rank", boom)
        # a new matroid starts with empty caches, so no earlier test's result can answer
        graph = edges + [(0, 99)]
        m = from_graph(graph, labels=[f"guard{j}" for j in range(len(graph))])
        assert circuits(m)
        assert loops_and_coloops(m) == ((), (len(edges),))
        assert contract_coloops(m).size == len(edges)

    def test_petersen_against_cycle_oracle(self):
        got = circuits(from_graph(PETERSEN))
        assert {frozenset(c) for c in got} == graph_cycles(PETERSEN)
        assert len(got) == 57


class TestIntegerInverse:
    def test_inverts_unimodular(self, rng):
        for _ in range(50):
            n = rng.randint(2, 6)
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2)
                c = rng.choice([-1, 1])
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            rng.shuffle(rows)
            z = IntegerMatrix.from_rows(rows)
            # coordinatizing [z | I] at the base z brings it to [I | z^-1]
            m = RegularMatroid.from_rep(
                [f"e{j}" for j in range(2 * n)],
                z.hstack(IntegerMatrix.identity(n)), validate=False)
            inverse = coordinatize(m, range(n)).matrix.select_columns(range(n, 2 * n))
            assert inverse * z == IntegerMatrix.identity(n)

    @pytest.mark.parametrize("rows", [[[1, 1], [-1, 1]], [[1, 2], [2, 4]]])
    def test_rejects_non_unit(self, rows):
        from elimination_oracles import _integer_inverse

        z = IntegerMatrix.from_rows(rows)
        with pytest.raises(NotABaseError, match=f"determinant {determinant(z)} "):
            _integer_inverse(z)


class TestMinors:
    def test_loops_and_coloops(self):
        # e2 is a self-loop, e4 is a cut-edge
        m = from_graph([(1, 2), (2, 2), (2, 1), (2, 3)])
        loops, coloops = loops_and_coloops(m)
        assert loops == (1,) and coloops == (3,)

    def test_contract_coloops_removes_all(self):
        m = from_graph(BOWTIE + [(5, 6)])
        core = contract_coloops(m)
        assert loops_and_coloops(core)[1] == ()
        assert core.size == 6 and core.rank == 4

    def test_contract_preserves_circuits(self):
        m = from_graph(BOWTIE + [(5, 6)])
        core = contract_coloops(m)
        relabel = {lab: i for i, lab in enumerate(core.ground)}
        expect = {
            frozenset(relabel[m.ground[e]] for e in c) for c in circuits(m)
        }
        assert {frozenset(c) for c in circuits(core)} == expect

    def test_tree_contracts_to_empty(self):
        m = from_graph(PATH2)
        core = contract_coloops(m)
        assert core.size == 0 and core.rank == 0


class TestDual:
    def test_rank_complement(self, k4):
        d = dual(k4)
        assert d.rank == k4.corank and d.size == k4.size

    def test_double_dual_isomorphic(self):
        for edges in (TRIANGLE, K4, BOWTIE):
            m = from_graph(edges)
            assert is_isomorphic(m, dual(dual(m)))

    def test_dual_bases_are_complements(self, k4):
        d = dual(k4)
        perm = {lab: j for j, lab in enumerate(d.ground)}
        got = set()
        for b in bases(d):
            labels = {d.ground[j] for j in b}
            got.add(frozenset(
                i for i in range(k4.size) if k4.ground[i] not in labels
            ))
        assert got == {frozenset(b) for b in bases(k4)}

    def test_forest_dual_is_all_loops(self):
        d = dual(from_graph(PATH2))
        assert (d.rank, d.size) == (0, 2)
        assert loops_and_coloops(d) == ((0, 1), ())

    def test_triangle_dual_is_triple_edge(self, triangle):
        d = dual(triangle)
        # U_{1,3}: every pair of elements is a circuit
        assert circuits(d) == ((0, 1), (0, 2), (1, 2))


class TestIsomorphism:
    def test_identity(self, k4):
        res = is_isomorphic(k4, k4)
        assert res and res.mapping == tuple(range(6))

    def test_relabelled_graph(self):
        m = from_graph(K4)
        shuffled = [K4[i] for i in (3, 0, 5, 1, 4, 2)]
        n = from_graph(shuffled)
        res = is_isomorphic(m, n)
        assert res
        cm = {frozenset(c) for c in circuits(m)}
        for c in circuits(m):
            assert frozenset(res.mapping[e] for e in c) in {
                frozenset(c2) for c2 in circuits(n)
            }

    def test_two_isomorphic_but_graph_distinct(self):
        assert is_isomorphic(from_graph(BOWTIE), from_graph(TWO_TRIANGLES))

    def test_distinguishes_cycle_lengths(self):
        c4 = from_graph([(1, 2), (2, 3), (3, 4), (4, 1)])
        tri_pendant = from_graph(TRIANGLE + [(3, 4)])
        assert not is_isomorphic(c4, tri_pendant)

    def test_size_mismatch(self, triangle, k4):
        assert not is_isomorphic(triangle, k4)

    def test_bound(self, k4):
        with pytest.raises(BoundExceededError):
            with bounds(iso=5):
                is_isomorphic(k4, k4)

    def test_random_column_permutations(self, rng):
        m = from_graph(BOWTIE)
        for _ in range(10):
            perm = list(range(m.size))
            rng.shuffle(perm)
            n = RegularMatroid.from_rep(
                tuple(m.ground[j] for j in perm),
                m.rep.select_columns(perm),
                validate=False,
            )
            res = is_isomorphic(m, n)
            assert res
