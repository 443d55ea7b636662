import random

import pytest

from flowlattice.errors import FlowLatticeError
from flowlattice.flows import fundamental_basis
from flowlattice.gram import GramMatrix, classify, is_g_feasible
from flowlattice.intmat import IntegerMatrix, bounds, is_totally_unimodular, rank
from flowlattice.matroid import (
    _independent_row_subset,
    bases,
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

from conftest import BOWTIE, K4, PATH2, TRIANGLE, TWO_TRIANGLES, bridgeless_graphs
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


class TestReconstruct:
    def test_single_four(self):
        out = reconstruct_matroid(GramMatrix.from_rows([[4]]))
        assert out
        m = out.report.matroid
        assert (m.rank, m.size) == (3, 4)
        assert circuits(m) == ((0, 1, 2, 3),)
        assert out.report.standard_form.rows == 3

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
                cert, form = rep.certificate, rep.standard_form
                assert tuple(_independent_row_subset(cert)) == \
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
    """Coranks 11-16, past any TU bound's reach: the certificate's order is
    the corank, but its realization is polynomial and never searched."""

    @staticmethod
    def random_graph(rng, n, s):
        """A random spanning tree on n vertices and s random extra edges."""
        edges = [(v, rng.randrange(v)) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(s)]
        rng.shuffle(edges)
        return edges

    @pytest.mark.parametrize("s", range(11, 17))
    def test_fundamental_grams(self, s):
        rng = random.Random(s)
        for n in (6, 8):
            m = from_graph(self.random_graph(rng, n, s))
            a = fundamental_basis(m).gram
            out = reconstruct_matroid(a)
            cert = out.report.certificate
            assert cert.cols == s and cert.transpose() * cert == a.mat
            core = contract_coloops(m)
            with bounds(iso=core.size, circuit=s):
                assert is_isomorphic(out.report.matroid, core)


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
                assert rep.standard_form == self.standard_form_by_search(rep.certificate)
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

    def test_dual_on_a_given_base_is_not_kept(self, k4):
        base = next(bases(k4))
        assert dual(k4, base) == dual(k4) and dual(k4, base) is not dual(k4, base)

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
