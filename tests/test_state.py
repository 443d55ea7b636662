"""Bound flags bind one `cli.run` call without touching the environment,
and each matroid owns the values it computes about itself."""

import gc
import os
import weakref

import pytest

from flowlattice import cli, intmat, matroid
from flowlattice.errors import BoundExceededError
from flowlattice.flows import consistent_decompose, fundamental_basis, simple_flows
from flowlattice.intmat import IntegerMatrix, is_totally_unimodular
from flowlattice.matroid import circuits, contract_coloops, from_graph

from conftest import BOWTIE, K4

TU_TEXT = "2 2\n1 0\n1 1\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestBoundFlags:
    def test_environment_unchanged_while_the_verb_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FLOWLAT_TU_BOUND", "5")
        monkeypatch.delenv("FLOWLAT_SUBSET_BOUND", raising=False)
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
        """An explicit bound beats the call's flag, which beats FLOWLAT_*."""
        seen = []
        m = IntegerMatrix.identity(3)

        def record(args):
            seen.append(bool(is_totally_unimodular(m, 3)))
            with pytest.raises(BoundExceededError):
                is_totally_unimodular(m)
            return 0

        monkeypatch.setattr(cli, "cmd_tu_check", record)
        monkeypatch.setenv("FLOWLAT_TU_BOUND", "5")
        f = write(tmp_path, "m.mat", TU_TEXT)
        assert cli.run(["--tu-bound", "2", "tu-check", f]) == 0
        assert seen == [True]
        assert is_totally_unimodular(m)
        monkeypatch.setenv("FLOWLAT_TU_BOUND", "2")
        with pytest.raises(BoundExceededError):
            is_totally_unimodular(m)

    @pytest.mark.parametrize("env,argv", [
        ("FLOWLAT_ISO_BOUND", ["tu-check"]),
        ("FLOWLAT_TU_BOUND", ["--tu-bound", "3", "tu-check"]),
    ], ids=["unconsulted", "overridden"])
    def test_environment_read_only_when_consulted(self, tmp_path, capsys, monkeypatch, env, argv):
        monkeypatch.setenv(env, "x")
        f = write(tmp_path, "m.mat", TU_TEXT)
        assert cli.run(argv + [f]) == 0
        assert capsys.readouterr().out == "TU yes\nWU yes\n"


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

    def test_circuits_computed_once(self, monkeypatch):
        m = from_graph(K4)
        calls = []
        echelon = matroid._gf2_echelon

        def counted(rep):
            calls.append(rep)
            return echelon(rep)

        monkeypatch.setattr(matroid, "_gf2_echelon", counted)
        assert circuits(m) is circuits(m)
        assert len(calls) == 1

    def test_gate_before_the_cache(self, monkeypatch):
        m = from_graph(K4)
        calls = []
        echelon = matroid._gf2_echelon
        monkeypatch.setattr(matroid, "_gf2_echelon", lambda rep: calls.append(rep) or echelon(rep))
        with pytest.raises(BoundExceededError):
            circuits(m, bound=5)
        assert calls == []
        circuits(m)
        with pytest.raises(BoundExceededError):
            circuits(m, bound=5)

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

    def test_caches_outside_equality_hash_and_repr(self):
        m, fresh = from_graph(K4), from_graph(K4)
        circuits(m)
        contract_coloops(m)
        simple_flows(m)
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
