import random

import pytest

from flowlattice.errors import FlowLatticeError
from flowlattice.flows import fundamental_basis
from flowlattice.gram import GramMatrix, classify, is_g_feasible
from flowlattice.intmat import IntegerMatrix, bounds, determinant, is_totally_unimodular, rank
from flowlattice.matroid import (
    _gf2_echelon,
    circuits,
    contract_coloops,
    dual,
    from_graph,
    is_isomorphic,
    loops_and_coloops,
)
from flowlattice.rebuild import (
    cut_lattices_isometric,
    flow_lattices_isometric,
    mixed_isometric,
    reconstruct_matroid,
    to_g_positive_basis,
)

from conftest import BOWTIE, K4, PATH2, TRIANGLE, TWO_TRIANGLES, bridgeless_graphs, random_graph
from elimination_oracles import bases
import iso_oracles
from lattice_oracles import isometry, short_vectors
from rank_oracles import first_unimodular_square_by_det
from tu_oracles import tu_by_enumeration


class TestGPositiveBasis:
    def test_identity_block_appears(self, k4):
        lat = fundamental_basis(k4)
        cert = is_g_feasible(lat.gram).certificate
        q, gq = to_g_positive_basis(cert)
        assert classify(gq).g_positive
        units = {
            tuple(1 if c == j else 0 for c in range(q.cols))
            for j in range(q.cols)
        }
        assert units <= {tuple(r) for r in q.entries}

    def test_same_lattice(self, k4):
        # q = cert . F with F unimodular, so the column lattices agree
        lat = fundamental_basis(k4)
        cert = is_g_feasible(lat.gram).certificate
        q, _ = to_g_positive_basis(cert)
        from flowlattice.flows import FlowLattice, FlowVector

        span = FlowLattice.from_basis(cert)
        for j in range(q.cols):
            coeffs = span.coefficients(FlowVector.of(q.column(j)))
            assert all(isinstance(c, int) for c in coeffs)

    def test_positivity_gate_reads_no_g_table(self, k4, monkeypatch):
        import flowlattice.gram as gram_mod

        lat = fundamental_basis(k4)
        cert = is_g_feasible(lat.gram).certificate

        def refuse(*args, **kwargs):
            raise AssertionError("g table built for the transformed basis")

        monkeypatch.setattr(gram_mod, "_classify_table", refuse)
        q, gq = to_g_positive_basis(cert)
        assert gq.mat == q.transpose() * q

    def test_g_positive_on_the_sweep(self):
        for edges in bridgeless_graphs(5):
            m = from_graph(edges)
            for base in bases(m):
                a = fundamental_basis(m, base).gram
                _, gq = to_g_positive_basis(is_g_feasible(a).certificate)
                assert classify(gq).g_positive

    def test_non_unimodular_block_rejected(self):
        # B = [2]: q = U B^-1 would not span the certificate's lattice
        with pytest.raises(FlowLatticeError, match="positivity gate"):
            to_g_positive_basis(IntegerMatrix.from_rows([[2]]))

    def test_deficient_column_rank_rejected(self):
        # the certificate of gram 2 / 1 1 / 1 1 has two equal columns
        cert = is_g_feasible(GramMatrix.from_rows([[1, 1], [1, 1]])).certificate
        assert cert == IntegerMatrix.from_rows([[1, 1]])
        for u in (cert, IntegerMatrix.from_rows([[1, 0], [2, 0]])):
            with pytest.raises(FlowLatticeError, match="^certificate has deficient column rank$"):
                to_g_positive_basis(u)


class TestReconstruct:
    def test_single_four(self):
        out = reconstruct_matroid(GramMatrix.from_rows([[4]]))
        assert out
        m = out.report.matroid
        assert (m.rank, m.size) == (3, 4)
        assert circuits(m) == ((0, 1, 2, 3),)
        assert out.report.matroid.rep.rows == 3

    def test_triangle_gram(self):
        out = reconstruct_matroid(GramMatrix.from_rows([[3]]))
        assert out
        assert is_isomorphic(out.report.matroid, from_graph(TRIANGLE))

    def test_k4_round_trip(self, k4):
        lat = fundamental_basis(k4)
        out = reconstruct_matroid(lat.gram)
        assert out
        assert is_isomorphic(out.report.matroid, k4)
        assert is_totally_unimodular(out.report.certificate)
        assert (
            out.report.certificate.transpose() * out.report.certificate
            == lat.gram.mat
        )

    def test_core_recovered_despite_coloops(self):
        # a pendant edge changes the matroid but not its flow lattice
        m = from_graph(BOWTIE)
        mm = from_graph(BOWTIE + [(5, 6)])
        g1 = fundamental_basis(m).gram
        g2 = fundamental_basis(mm).gram
        assert g1.mat == g2.mat
        out = reconstruct_matroid(g2)
        assert out
        assert is_isomorphic(out.report.matroid, m)

    def test_every_triangle_base(self):
        m = from_graph(TRIANGLE + [(1, 3)])
        for base in bases(m):
            out = reconstruct_matroid(fundamental_basis(m, base).gram)
            assert out
            assert is_isomorphic(out.report.matroid, m)

    def test_infeasible_input(self):
        a = GramMatrix.from_rows(
            [[3, 1, 1, 2], [1, 3, 1, 2], [1, 1, 3, 2], [2, 2, 2, 5]]
        )
        out = reconstruct_matroid(a)
        assert not out
        assert out.reason == "NO-MATCHING-SIGNING"
        assert out.report is None

    def test_reconstructed_has_no_coloops(self, k4):
        out = reconstruct_matroid(fundamental_basis(k4).gram)
        loops, coloops = loops_and_coloops(out.report.matroid)
        assert loops == () and coloops == ()


class TestReconstructionSweep:
    """The criterion-07 sweep: every base of every bridgeless graph on <= 5 nodes."""

    def test_standard_forms_and_unimodular_blocks(self):
        total = 0
        for edges in bridgeless_graphs(5):
            m = from_graph(edges)
            for base in bases(m):
                rep = reconstruct_matroid(fundamental_basis(m, base).gram).report
                cert, form = rep.certificate, rep.matroid.rep
                assert tuple(_gf2_echelon(cert)[0]) == \
                    first_unimodular_square_by_det(cert)
                assert tu_by_enumeration(form)
                assert rank(form) == form.rows
                total += 1
        assert total == 418

    def test_reconstructed_matroid_is_not_revalidated(self, monkeypatch, k4):
        import flowlattice.matroid as matroid_mod

        def refuse(*args, **kwargs):
            raise AssertionError("from_rep re-checked a TU-by-construction form")

        monkeypatch.setattr(matroid_mod, "is_totally_unimodular", refuse)
        out = reconstruct_matroid(fundamental_basis(k4).gram)
        assert is_isomorphic(out.report.matroid, k4)


class TestReconstructionAtScale:
    """Coranks 11-20, past any TU bound's reach and up to the default subset
    bound: the certificate's order is the corank, but its realization is
    polynomial and never searched."""

    @pytest.mark.parametrize("s", range(11, 21))
    def test_fundamental_grams(self, s):
        rng = random.Random(s)
        for n in (6, 8):
            m = from_graph(random_graph(rng, n, s))
            a = fundamental_basis(m).gram
            out = reconstruct_matroid(a)
            cert = out.report.certificate
            assert cert.cols == s and cert.transpose() * cert == a.mat
            core = contract_coloops(m)
            with bounds(iso=core.size, circuit=s):
                assert is_isomorphic(out.report.matroid, core)


class TestBasisContract:
    """`reconstruct_matroid` answers for the basis it is given, not for the
    lattice: a rebased Gram matrix of K4's flow lattice is refused."""

    A = [[3, 1, -1], [1, 3, 1], [-1, 1, 3]]     # K4's fundamental Gram matrix
    P = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    B = [[3, 4, -1], [4, 8, 0], [-1, 0, 3]]

    def test_rebased_k4_is_refused(self):
        a, p, b = (IntegerMatrix.from_rows(x) for x in (self.A, self.P, self.B))
        assert determinant(p) == 1 and p.transpose() * a * p == b
        assert fundamental_basis(from_graph(K4)).gram.mat == a
        assert reconstruct_matroid(GramMatrix(a))
        out = reconstruct_matroid(GramMatrix(b))
        assert not out and out.reason == "NOT-G-NONNEGATIVE S={1}"
        x = IntegerMatrix.from_rows(isometry(self.A, self.B))
        assert x.transpose() * b * x == a


class TestLatticeOracles:
    @pytest.mark.parametrize("gram,minimal", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 6),                      # Z^3
        ([[2, -1], [-1, 2]], 6),                                      # A2
        ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 24),   # D4
    ])
    def test_kissing_numbers(self, gram, minimal):
        norm = min(gram[i][i] for i in range(len(gram)))
        assert len(short_vectors(gram, norm)) == minimal

    def test_isometry_refusals(self):
        assert isometry([[2, 1], [1, 2]], [[2, 0], [0, 2]]) is None     # det 3 vs 4
        assert isometry([[1, 0], [0, 4]], [[2, 0], [0, 2]]) is None     # no vector of norm 1
        assert isometry([], []) == ()


class TestIsometryDecisions:
    def test_flow_positive(self):
        res = flow_lattices_isometric(
            from_graph(BOWTIE), from_graph(TWO_TRIANGLES)
        )
        assert res
        assert res.witness.mapping is not None

    def test_flow_negative(self):
        c4 = from_graph([(1, 2), (2, 3), (3, 4), (4, 1)])
        res = flow_lattices_isometric(from_graph(TRIANGLE), c4)
        assert not res

    def test_pendant_edge_invisible(self):
        m = from_graph(TRIANGLE)
        n = from_graph(TRIANGLE + [(3, 4)])
        res = flow_lattices_isometric(m, n)
        assert res
        assert res.right_core.size == 3

    def test_trees_all_isometric(self):
        # both flow lattices are zero
        res = flow_lattices_isometric(from_graph(PATH2), from_graph([(1, 2)]))
        assert res

    def test_cut_mode_sees_coloops(self):
        m = from_graph(TRIANGLE)
        n = from_graph(TRIANGLE + [(3, 4)])
        assert not cut_lattices_isometric(m, n)
        assert cut_lattices_isometric(n, n)

    def test_cut_mode_ignores_loops(self):
        m = from_graph(TRIANGLE)
        n = from_graph(TRIANGLE + [(2, 2)])
        assert cut_lattices_isometric(m, n)
        assert not flow_lattices_isometric(m, n)

    def test_mixed_k4_self_dual(self, k4):
        # the flow and cut lattices of K4 are isometric
        assert mixed_isometric(k4, k4)

    def test_mixed_triangle_not(self, triangle):
        # flow lattice has rank 1, cut lattice rank 2
        assert not mixed_isometric(triangle, triangle)

    def test_mixed_via_explicit_dual(self, k4):
        d = dual(k4)
        assert mixed_isometric(k4, d).isometric == bool(
            flow_lattices_isometric(k4, dual(d))
        )


class TestIsometryAgainstOracles:
    """Circuits by doubling over the cycle basis, the search on int masks
    and the dual written as one matrix, against the Gray-code walk, the
    frozenset search and the dual by blocks they replaced."""

    DECISIONS = {"flow": flow_lattices_isometric, "cut": cut_lattices_isometric,
                 "mixed": mixed_isometric}
    K4_RELABELLED = [K4[i] for i in (3, 0, 5, 1, 4, 2)]

    @staticmethod
    def random_pair(rng):
        """A multigraph on up to 7 vertices and 13 edges, and a copy with
        its vertices relabelled, its edges reordered and reoriented, and in
        40% of the pairs one edge rewired."""
        nv = rng.randint(1, 7)
        edges = [(rng.randint(1, nv), rng.randint(1, nv)) for _ in range(rng.randint(1, 13))]
        names = rng.sample(range(1, nv + 1), nv)
        other = [(names[t - 1], names[h - 1]) if rng.random() < 0.5
                 else (names[h - 1], names[t - 1]) for t, h in edges]
        rng.shuffle(other)
        if rng.random() < 0.4:
            other[rng.randrange(len(other))] = (rng.randint(1, nv), rng.randint(1, nv))
        return edges, other

    def test_random_multigraph_pairs(self, rng):
        seen = {True: 0, False: 0}
        moved = 0
        with bounds(iso=14):
            for _ in range(1500):
                edges, other = self.random_pair(rng)
                m, n = from_graph(edges), from_graph(other)
                for mode, decide in self.DECISIONS.items():
                    got = decide(m, n)
                    want = iso_oracles.decide(mode, m, n)
                    assert (got.isometric, got.witness.mapping, got.witness.label_map,
                            got.left_core, got.right_core) == want
                    for core in want[3:]:
                        assert circuits(core) == iso_oracles.gray_code_circuits(core)
                    seen[got.isometric] += 1
                    mapping = got.witness.mapping
                    moved += got.isometric and mapping != tuple(sorted(mapping))
        assert seen[True] > 2000 and seen[False] > 1800 and moved > 900

    @pytest.mark.parametrize("mode,mapping", [("flow", (0, 1, 4, 3, 2, 5)),
                                              ("cut", (0, 1, 4, 3, 2, 5)),
                                              ("mixed", (0, 1, 3, 4, 2, 5))])
    def test_k4_least_maps(self, k4, mode, mapping):
        n = from_graph(self.K4_RELABELLED)
        got = self.DECISIONS[mode](k4, n)
        assert got.witness.mapping == mapping
        assert got.witness.mapping == iso_oracles.decide(mode, k4, n)[1]


class TestIdentityRowsFromPivots:
    """`reconstruct_matroid` takes the I_s rows of q from the elimination's
    pivot columns, where it used to search q for each unit vector."""

    @staticmethod
    def standard_form_by_search(certificate):
        q, _ = to_g_positive_basis(certificate)
        s = q.cols
        ident = [q.entries.index(u) for u in IntegerMatrix.identity(s).entries]
        other = [i for i in range(q.rows) if i not in ident]
        l_block = -q.select_rows(other)
        r = len(other)
        return IntegerMatrix.identity(r).hstack(l_block) if r else \
            IntegerMatrix((), empty_cols=s)

    def test_standard_form_on_the_sweep(self):
        total = 0
        for edges in bridgeless_graphs(5):
            m = from_graph(edges)
            for base in bases(m):
                out = reconstruct_matroid(fundamental_basis(m, base).gram)
                rep = out.report
                assert rep.matroid.rep == self.standard_form_by_search(rep.certificate)
                total += 1
        assert total == 418

    def test_no_gram_matrix_of_q_is_built(self, k4, monkeypatch):
        import flowlattice.rebuild as rebuild_mod

        def refuse(*args, **kwargs):
            raise AssertionError("Gram matrix of q built")

        monkeypatch.setattr(rebuild_mod, "GramMatrix", refuse)
        assert reconstruct_matroid(fundamental_basis(k4).gram)


class TestDualKeptOnTheMatroid:
    GRAPHS = (
        [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1), (1, 1), (2, 4)],
        [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1), (2, 2), (1, 3)],
    )

    def test_repeated_cut_isometry_echelons_each_matroid_once(self, monkeypatch):
        import flowlattice.matroid as matroid_mod

        m, n = (from_graph(g) for g in self.GRAPHS)
        seen = []
        echelon = matroid_mod._gf2_echelon

        def spy(rep):
            seen.append(rep)
            return echelon(rep)

        monkeypatch.setattr(matroid_mod, "_gf2_echelon", spy)
        first = cut_lattices_isometric(m, n)
        calls = len(seen)
        for _ in range(2):
            assert cut_lattices_isometric(m, n) == first
        assert len(seen) == calls > 0
        assert len({id(rep) for rep in seen}) == calls
        assert dual(m) is dual(m) and dual(n) is dual(n)

    def test_matroids_are_freed(self):
        import gc
        import weakref

        m, n = (from_graph(g) for g in self.GRAPHS)
        cut_lattices_isometric(m, n)
        mixed_isometric(m, n)
        refs = [weakref.ref(x) for x in (m, n, dual(m), dual(n))]
        del m, n
        gc.collect()
        assert all(r() is None for r in refs)
