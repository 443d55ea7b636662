"""Bounds are bound by `bounds` scopes only: the CLI's flags bind one
`cli.run` call without touching the environment, and a library scope
reaches the checks nested in the calls it encloses.  Each matroid, and
each Gram matrix, owns the values it computes about itself."""

import gc
import itertools
import os
import weakref

import pytest

from flowlattice import cli, flows, gram, intmat, matroid
from flowlattice.errors import BoundExceededError, DefinitenessError, FormatError
from flowlattice.flows import (
    FlowLattice,
    FlowVector,
    consistent_decompose,
    enumerate_coefficients,
    fundamental_basis,
    is_simple_metric,
    simple_flows,
)
from flowlattice.gram import GramMatrix, f_table
from flowlattice.intmat import IntegerMatrix, bounds, is_totally_unimodular
from flowlattice.matroid import circuits, contract_coloops, from_graph, loops_and_coloops
from flowlattice.rebuild import (
    cut_lattices_isometric,
    flow_lattices_isometric,
    mixed_isometric,
    reconstruct_matroid,
)

from conftest import BOWTIE, K4
import iso_oracles

TU_TEXT = "2 2\n1 0\n1 1\n"
DET2 = IntegerMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
K33 = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]  # corank 4


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestBoundFlags:
    def test_environment_unchanged_while_the_verb_runs(self, tmp_path, capsys, monkeypatch):
        before = dict(os.environ)
        seen = []

        def snapshot(args):
            seen.append(dict(os.environ))
            return 0

        monkeypatch.setattr(cli, "cmd_tu_check", snapshot)
        f = write(tmp_path, "m.mat", TU_TEXT)
        assert cli.run(["--tu-bound", "3", "--subset-bound", "4", "tu-check", f]) == 0
        assert seen == [before]
        assert dict(os.environ) == before

    def test_flags_live_in_the_call_only(self, tmp_path, monkeypatch):
        seen = []

        def record(args):
            seen.append(dict(intmat.call_bounds.get()))
            return 0

        monkeypatch.setattr(cli, "cmd_tu_check", record)
        f = write(tmp_path, "m.mat", TU_TEXT)
        assert cli.run(["--tu-bound", "3", "--iso-bound", "7", "tu-check", f]) == 0
        assert cli.run(["tu-check", f]) == 0
        assert seen == [{"tu": 3, "iso": 7}, {}]
        assert dict(intmat.call_bounds.get()) == {}

    def test_precedence(self, tmp_path, monkeypatch):
        """A `bounds` scope inside the call beats the call's flag, which
        beats the default; the FLOWLAT_* variables are never read."""
        seen = []

        def record(args):
            with bounds(tu=3):
                seen.append(is_totally_unimodular(DET2).witness_det)
            with pytest.raises(BoundExceededError):
                is_totally_unimodular(DET2)
            return 0

        monkeypatch.setattr(cli, "cmd_tu_check", record)
        monkeypatch.setenv("FLOWLAT_TU_BOUND", "2")
        f = write(tmp_path, "m.mat", TU_TEXT)
        assert cli.run(["--tu-bound", "2", "tu-check", f]) == 0
        assert seen == [2]
        assert not is_totally_unimodular(DET2)

    @pytest.mark.parametrize("env,argv", [
        ("FLOWLAT_ISO_BOUND", ["tu-check"]),
        ("FLOWLAT_TU_BOUND", ["--tu-bound", "3", "tu-check"]),
    ], ids=["unconsulted", "overridden"])
    def test_environment_read_only_when_consulted(self, tmp_path, capsys, monkeypatch, env, argv):
        monkeypatch.setenv(env, "x")
        f = write(tmp_path, "m.mat", TU_TEXT)
        assert cli.run(argv + [f]) == 0
        assert capsys.readouterr().out == "TU yes\nWU yes\n"


class TestBoundsScope:
    @pytest.mark.parametrize("limits", [{"depth": 3}, {"tu": 0}, {"tu": -3}, {"iso": 2.5},
                                        {"circuit": "4"}, {"subset": True}, {"tu": None}])
    def test_rejects_bad_limits(self, limits):
        with pytest.raises(ValueError):
            bounds(**limits)
        assert dict(intmat.call_bounds.get()) == {}

    def test_nested_scopes_merge_and_restore(self):
        with bounds(tu=3, iso=7):
            with bounds(tu=5, circuit=4):
                assert dict(intmat.call_bounds.get()) == {"tu": 5, "iso": 7, "circuit": 4}
            assert dict(intmat.call_bounds.get()) == {"tu": 3, "iso": 7}
        assert dict(intmat.call_bounds.get()) == {}

    def test_restored_after_an_exception(self):
        a = fundamental_basis(from_graph(K4)).gram
        with pytest.raises(BoundExceededError) as exc:
            with bounds(tu=4):
                with bounds(subset=2):
                    f_table(a)
        assert (exc.value.what, exc.value.size, exc.value.bound) == ("matrix order", 3, 2)
        assert dict(intmat.call_bounds.get()) == {}
        # the empty set, three singletons and three pairs: K4's triple is negative
        assert len(f_table(a)) == 7

    def test_reaches_nested_checks(self):
        """The circuit gate inside `is_isomorphic` and the subset gate inside
        `is_g_feasible` see the scope of the outer call."""
        m = from_graph(K33)
        assert flow_lattices_isometric(m, m)
        with bounds(circuit=3):
            with pytest.raises(BoundExceededError) as exc:
                flow_lattices_isometric(m, m)
        assert (exc.value.what, exc.value.size) == ("corank", 4)
        a = fundamental_basis(m).gram
        assert reconstruct_matroid(a)
        with bounds(subset=3):
            with pytest.raises(BoundExceededError) as exc:
                reconstruct_matroid(a)
        assert (exc.value.what, exc.value.size) == ("matrix order", 4)


class TestMatroidCaches:
    def test_dropped_matroid_is_freed(self):
        # a pendant edge gives a co-loop, so the core is a new matroid
        m = from_graph(BOWTIE + [(5, 6)])
        core = contract_coloops(m)
        assert core is not m
        lat = fundamental_basis(m)
        circuits(m)
        circuits(core)
        simple_flows(m)
        consistent_decompose(lat, lat.vector((2, -1)))
        refs = [weakref.ref(m), weakref.ref(core)]
        del m, core, lat
        gc.collect()
        assert [r() for r in refs] == [None, None]

    @staticmethod
    def count_echelons(monkeypatch):
        calls = []
        echelon = matroid._gf2_echelon
        monkeypatch.setattr(matroid, "_gf2_echelon", lambda rep: calls.append(rep) or echelon(rep))
        return calls

    def test_circuits_computed_once(self, monkeypatch):
        # from_rep, unlike from_graph, leaves the cycle basis to first use
        k4 = from_graph(K4)
        m = matroid.RegularMatroid.from_rep(k4.ground, k4.rep, validate=False)
        calls = self.count_echelons(monkeypatch)
        assert circuits(m) is circuits(m)
        assert len(calls) == 1

    def test_graph_and_core_keep_the_echelon_that_built_them(self, monkeypatch):
        calls = self.count_echelons(monkeypatch)
        m = from_graph(BOWTIE + [(5, 6)])
        assert len(calls) == 1
        loops_and_coloops(m)
        circuits(m)
        assert len(calls) == 1
        core = contract_coloops(m)
        assert len(calls) == 2
        circuits(core)
        assert len(calls) == 2

    def test_pendant_pair_flow_decision_echelons_each_core_once(self, monkeypatch):
        m = from_graph([(1, 2), (2, 3), (3, 1), (3, 4), (4, 1), (4, 5)])
        n = from_graph([(1, 2), (2, 3), (3, 1), (1, 4), (4, 2), (2, 5)])
        calls = self.count_echelons(monkeypatch)
        assert flow_lattices_isometric(m, n)
        assert len(calls) == 2

    @pytest.mark.parametrize("decide", [flow_lattices_isometric, cut_lattices_isometric,
                                        mixed_isometric], ids=["flow", "cut", "mixed"])
    def test_k4_pair_decisions_echelon_nothing(self, monkeypatch, decide):
        """Graph matroids keep the echelon that built them and duals the rows
        of their standard form, so no decision row-reduces; the search reads
        circuit masks, so no core holds circuit tuples until `circuits`."""
        m = from_graph(K4)
        n = from_graph([K4[i] for i in (3, 0, 5, 1, 4, 2)])
        calls = self.count_echelons(monkeypatch)
        got = decide(m, n)
        assert got.isometric and calls == []
        for core in (got.left_core, got.right_core):
            assert "_circuits" not in vars(core)
            assert circuits(core) == iso_oracles.gray_code_circuits(core)

    def test_isomorphism_gates_before_enumerating(self):
        m, n = from_graph(K33), from_graph([(b, a) for a, b in reversed(K33)])
        with bounds(circuit=3), pytest.raises(BoundExceededError) as exc:
            matroid.is_isomorphic(m, n)
        assert (exc.value.what, exc.value.size, exc.value.bound) == ("corank", 4, 3)
        assert "_circuit_masks" not in vars(m) and "_circuit_masks" not in vars(n)
        assert matroid.is_isomorphic(m, n)

    def test_gate_before_the_cache(self, monkeypatch):
        k4 = from_graph(K4)
        m = matroid.RegularMatroid.from_rep(k4.ground, k4.rep, validate=False)
        calls = self.count_echelons(monkeypatch)
        with bounds(circuit=2):
            with pytest.raises(BoundExceededError):
                circuits(m)
            assert calls == []
            assert "_circuit_masks" not in vars(m) and "_circuits" not in vars(m)
        circuits(m)
        with bounds(circuit=2), pytest.raises(BoundExceededError):
            circuits(m)

    def test_core_is_stored(self):
        m = from_graph(BOWTIE + [(5, 6)])
        assert contract_coloops(m) is contract_coloops(m)
        plain = from_graph(BOWTIE)
        assert contract_coloops(plain) is plain

    def test_signed_pairs_shared_across_calls(self):
        m = from_graph(K4)
        lat = fundamental_basis(m)
        flows = simple_flows(m)
        beta = lat.vector((1, 2, 3))
        ids = {id(v) for v in flows}
        assert all(id(p) in ids for p in consistent_decompose(lat, beta))
        assert [id(v) for v in simple_flows(m)] == [id(v) for v in flows]

    def test_circuit_masks_shared_across_calls(self):
        """Two decompositions read the one tuple of (size, lex) circuit
        masks that the matroid keeps; neither builds its own."""

        class Reads(tuple):
            count = 0

            def __iter__(self):
                self.count += 1
                return super().__iter__()

            def __getitem__(self, k):
                self.count += 1
                return super().__getitem__(k)

        m = from_graph(K4)
        lat = fundamental_basis(m)
        beta = lat.vector((1, 2, 3))
        spy = vars(m)["_sorted_circuit_masks"] = Reads(m._sorted_circuit_masks)
        seen = []
        for _ in range(2):
            parts = consistent_decompose(lat, beta)
            seen.append(spy.count)
        assert 0 < seen[0] < seen[1]
        assert vars(m)["_sorted_circuit_masks"] is spy
        assert sum(parts, FlowVector((0,) * m.size)) == beta

    def test_caches_outside_equality_hash_and_repr(self):
        m, fresh = from_graph(K4), from_graph(K4)
        circuits(m)
        contract_coloops(m)
        simple_flows(m)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)


class TestGramFactor:
    QUERIES = [y for y in itertools.product((-1, 0, 1), repeat=3) if any(y)][:12]

    @staticmethod
    def count(monkeypatch, module):
        calls = []
        eliminate = module._gauss_jordan
        monkeypatch.setattr(module, "_gauss_jordan",
                            lambda *args: calls.append(args) or eliminate(*args))
        return calls

    def test_built_once_per_gram_matrix(self, monkeypatch):
        g = GramMatrix(fundamental_basis(from_graph(K4)).gram.mat)
        lat = FlowLattice(IntegerMatrix.identity(3), g)
        calls = self.count(monkeypatch, gram)
        for y in self.QUERIES:
            is_simple_metric(lat, y)
        # one pass both checks the matrix and builds its factor
        assert len(self.QUERIES) == 12 and len(calls) == 1

    def test_one_elimination_over_a_lifetime(self, monkeypatch):
        """`fundamental_basis` and 12 walks eliminate the Gram matrix once,
        in `gram`: `gram_of` hands the factor of its check to the matrix."""
        in_gram, in_flows = self.count(monkeypatch, gram), self.count(monkeypatch, flows)
        lat = fundamental_basis(from_graph(K4))
        for y in self.QUERIES:
            is_simple_metric(lat, y)
        assert len(in_gram) == 1 and len(in_flows) == 0

    def test_outside_equality_hash_and_repr(self):
        g = fundamental_basis(from_graph(K4)).gram
        list(enumerate_coefficients(g, 4))
        fresh = GramMatrix(g.mat)
        assert "_ldl" in g.__dict__ and "_ldl" not in fresh.__dict__
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)

    @pytest.mark.parametrize("rows,error", [
        ([[1, 1], [1, 1]], FormatError),
        ([[1, 2], [2, 1]], DefinitenessError),
    ])
    def test_errors_raised_on_every_call(self, rows, error):
        g = GramMatrix.from_rows(rows)
        for parity in (None, (1, 0), None):
            with pytest.raises(error):
                list(enumerate_coefficients(g, 3, parity=parity))
        assert "_ldl" not in g.__dict__
