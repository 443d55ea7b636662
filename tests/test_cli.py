import itertools
import os
import random
from pathlib import Path

import pytest

from flowlattice import cli, intmat, matroid, rebuild
from flowlattice.cli import run
from flowlattice.errors import FormatError

from conftest import BOWTIE, K4, TRIANGLE, TWO_TRIANGLES

A_POS_TEXT = "gram 4\n3 1 1 2\n1 3 1 2\n1 1 3 2\n2 2 2 5\n"
K4_GRAM_TEXT = "gram 3\n3 1 -1\n1 3 1\n-1 1 3\n"
K4_RECONSTRUCT_OUT = """\
VERDICT G-FEASIBLE
GRAM
gram 3
3 1 -1
1 3 1
-1 1 3
X
6 3
1 1 0
1 0 1
0 1 1
1 0 0
0 1 0
0 0 1
CERTIFICATE
6 3
1 1 0
1 0 -1
0 1 1
1 0 0
0 1 0
0 0 -1
STANDARD-FORM
3 6
1 0 0 -1 1 0
0 1 0 -1 0 1
0 0 1 0 -1 1
MATROID
matroid 3 6
e1 e2 e3 e4 e5 e6
3 6
1 0 0 -1 1 0
0 1 0 -1 0 1
0 0 1 0 -1 1
"""


def graph_file(tmp_path, name, edges):
    p = tmp_path / name
    p.write_text("".join(f"{t} {h}\n" for t, h in edges))
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestTuCheck:
    def test_tu_matrix(self, tmp_path, capsys):
        f = write(tmp_path, "m.mat", "2 2\n1 0\n1 1\n")
        assert run(["tu-check", f]) == 0
        out = capsys.readouterr().out
        assert "TU yes" in out and "WU yes" in out

    def test_non_tu_matrix(self, tmp_path, capsys):
        f = write(tmp_path, "m.mat", "2 2\n1 1\n-1 1\n")
        assert run(["tu-check", f]) == 1
        out = capsys.readouterr().out
        assert "TU no" in out and "det=2" in out

    def test_missing_file(self, capsys):
        assert run(["tu-check", "/nonexistent"]) == 2
        assert "ERROR BAD-INPUT" in capsys.readouterr().out

    def test_tu_implies_wu_without_enumeration(self, tmp_path, capsys, monkeypatch):
        import flowlattice.intmat as intmat_mod

        def refuse(*args, **kwargs):
            raise AssertionError("weak unimodularity enumerated on a TU input")

        monkeypatch.setattr(intmat_mod, "is_weakly_unimodular", refuse)
        f = write(tmp_path, "m.mat", "2 3\n1 0 1\n0 1 1\n")
        assert run(["tu-check", f]) == 0
        assert capsys.readouterr().out == "TU yes\nWU yes\n"


class TestLoadMatroid:
    """`load_matroid` reads the header of a matroid file past comment and
    blank lines, and loads a graph file as its graph, as it did when every
    file's comments were cut twice."""

    LEADS = ["", "\n", "# a comment\n", "  \t\n# matroid 3 6\n\n", "# x\r\n\r\n   # y\n"]
    MATROID = "matroid 2 3  # header\na b c\n2 3\n1 0 1\n0 1 1\n"

    @staticmethod
    def sniffed(text):
        """The loader as it stood: the first word of `_content_lines`."""
        lines = intmat._content_lines(text)
        if lines and lines[0].split()[0] == "matroid":
            return matroid.parse_matroid(text)
        return matroid.from_graph(matroid.parse_graph(text))

    @pytest.mark.parametrize("lead", LEADS)
    def test_header_after_comments_and_blank_lines(self, tmp_path, lead):
        graph = "".join(f"{t} {h}  # edge\n" for t, h in K4)
        for name, body, ground in (("m.matroid", self.MATROID, ("a", "b", "c")),
                                   ("g.graph", graph, tuple(f"e{i}" for i in range(1, 7)))):
            text = lead + body
            got = cli.load_matroid(write(tmp_path, name, text))
            assert got == self.sniffed(text)
            assert got.ground == ground

    def test_a_word_before_the_header_makes_a_graph_file(self, tmp_path):
        """Only the first line with a word is sniffed: a matroid header
        after an edge is read as a bad graph line, as before."""
        f = write(tmp_path, "m.matroid", "1 2\n" + self.MATROID)
        with pytest.raises(FormatError, match="graph line needs two vertex ids"):
            cli.load_matroid(f)


class TestCircuitsAndColoops:
    def test_triangle(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["circuits", f]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "circuits 1"
        assert "{e1,e2,e3}" in out

    def test_coloops(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE + [(3, 4)])
        assert run(["coloops", f]) == 0
        out = capsys.readouterr().out
        assert "coloops {e4}" in out

    def test_bound_flag(self, tmp_path, capsys):
        """The circuit bound gates the corank (3 for K4), not the ground size."""
        f = graph_file(tmp_path, "k.graph", K4)
        assert run(["--circuit-bound", "3", "circuits", f]) == 0
        assert capsys.readouterr().out.startswith("circuits 7\n")
        assert run(["--circuit-bound", "2", "circuits", f]) == 2
        assert capsys.readouterr().out == ("ERROR BOUND-EXCEEDED: instance too large for "
                                           "exact enumeration: corank = 3 > 2\n")


class TestFlowsAndCuts:
    def test_flows_output_parses(self, tmp_path, capsys):
        from flowlattice.gram import parse_gram
        from flowlattice.intmat import parse_matrix

        f = graph_file(tmp_path, "k.graph", K4)
        assert run(["--porcelain", "flows", f]) == 0
        out = capsys.readouterr().out
        head, gram_part = out.split("gram", 1)
        basis = parse_matrix(head)
        gram = parse_gram("gram" + gram_part)
        assert basis.rows == 6 and basis.cols == 3
        assert (basis.transpose() * basis) == gram.mat

    def test_explicit_base(self, tmp_path, capsys):
        f = graph_file(tmp_path, "k.graph", K4)
        assert run(["--porcelain", "flows", f, "--base", "1,2,5"]) == 0
        capsys.readouterr()

    def test_bad_base(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["flows", f, "--base", "1,2,3"]) == 2
        assert "ERROR NOT-A-BASE" in capsys.readouterr().out

    def test_cuts(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["--porcelain", "cuts", f]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3 2\n")


class TestDecomposeAndSimple:
    def test_decompose(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["decompose", f, "2 2 2"]) == 0
        out = capsys.readouterr().out
        assert out.count("1 1 1") == 2
        assert "sum OK" in out

    def test_decompose_zero_flow(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["decompose", f, "0 0 0"]) == 0
        assert capsys.readouterr().out == "sum OK\n"

    def test_decompose_sum_mismatch(self, tmp_path, capsys, monkeypatch):
        import flowlattice.flows as flows_mod

        decompose = flows_mod.consistent_decompose
        monkeypatch.setattr(flows_mod, "consistent_decompose",
                            lambda lat, beta: decompose(lat, beta)[1:])
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["decompose", f, "2 2 2"]) == 1
        assert capsys.readouterr().out == "1 1 1\nsum MISMATCH\n"

    def test_decompose_rejects_non_flow(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["decompose", f, "1 0 0"]) == 2
        assert "ERROR NOT-IN-LATTICE" in capsys.readouterr().out

    def test_decompose_rejects_non_integer_vector(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["decompose", f, "a b c"]) == 2
        assert "ERROR BAD-INPUT" in capsys.readouterr().out

    def test_simple_rejects_zero_vector(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["simple", f, "0 0 0"]) == 2
        assert "ERROR BAD-INPUT" in capsys.readouterr().out

    def test_simple_yes(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["simple", f, "1 1 1"]) == 0
        assert "SIMPLE" in capsys.readouterr().out

    def test_simple_no(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["simple", f, "2 2 2"]) == 1
        out = capsys.readouterr().out
        assert "NOT-SIMPLE" in out and "inner 3" in out

    def test_simple_no_at_large_coefficients(self, tmp_path, capsys):
        """A K5 flow with coefficients up to +-40, once beyond reach."""
        f = graph_file(tmp_path, "k5.graph", list(itertools.combinations(range(1, 6), 2)))
        flow = [79, -63, -2, -14, 18, 34, 27, -36, -9, -4]
        assert run(["simple", f, " ".join(map(str, flow))]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "NOT-SIMPLE"
        beta, gamma = ([int(t) for t in line.split()[2:]] for line in lines[1:3])
        assert [b + c for b, c in zip(beta, gamma)] == flow and any(beta) and any(gamma)
        inner = sum(b * c for b, c in zip(beta, gamma))
        assert lines[3] == f"inner {inner}" and inner >= 0

    def test_vector_from_file(self, tmp_path, capsys):
        f = graph_file(tmp_path, "t.graph", TRIANGLE)
        v = write(tmp_path, "v.vec", "1 1 1\n")
        assert run(["simple", f, v]) == 0
        capsys.readouterr()


class TestGramCommands:
    def test_gtest_positive(self, tmp_path, capsys):
        f = write(tmp_path, "a.gram", A_POS_TEXT)
        assert run(["gtest", f]) == 0
        out = capsys.readouterr().out
        assert "G-POSITIVE" in out
        assert "g{1,2,3,4} = 1" in out
        assert "k = 8" in out

    def test_gtest_walks_the_positive_complex_once(self, capsys, monkeypatch):
        """`gtest` prints f and g read from one f table."""
        from flowlattice import gram

        calls = []
        f_table = gram.f_table

        def counted(a):
            calls.append(a)
            return f_table(a)

        monkeypatch.setattr(gram, "f_table", counted)
        k4 = Path(__file__).parent / "golden" / "inputs" / "k4.gram"
        assert run(["gtest", str(k4)]) == 0
        assert "G-POSITIVE" in capsys.readouterr().out
        assert len(calls) == 1

    def test_gtest_negative(self, tmp_path, capsys):
        f = write(tmp_path, "b.gram", "gram 3\n1 1 0\n1 1 1\n0 1 1\n")
        assert run(["gtest", f]) == 1
        assert "NOT-G-NONNEGATIVE S={" in capsys.readouterr().out

    def test_reconstruct_names_the_gtest_witness(self, tmp_path, capsys):
        f = write(tmp_path, "b.gram", "gram 3\n1 1 0\n1 1 1\n0 1 1\n")
        assert run(["gtest", f]) == 1
        assert capsys.readouterr().out == "NOT-G-NONNEGATIVE S={2}\n"
        assert run(["reconstruct", f]) == 1
        assert capsys.readouterr().out == "VERDICT NOT-G-FEASIBLE NOT-G-NONNEGATIVE S={2}\n"

    def test_xmatrix_then_signing(self, tmp_path, capsys):
        f = write(tmp_path, "a.gram", A_POS_TEXT)
        assert run(["xmatrix", f]) == 0
        xtext = capsys.readouterr().out
        assert xtext.startswith("8 4\n")
        xf = write(tmp_path, "a.x", xtext)
        assert run(["signing", xf]) == 1
        assert "NO-TU-SIGNING" in capsys.readouterr().out

    def test_signing_rejects_non_binary(self, tmp_path, capsys):
        f = write(tmp_path, "x.mat", "2 2\n1 2\n0 1\n")
        assert run(["signing", f]) == 2
        assert capsys.readouterr().out == "ERROR BAD-INPUT: signing expects a {0,1} matrix\n"

    def test_signing_found(self, tmp_path, capsys):
        f = write(tmp_path, "x.mat", "4 4\n1 0 0 1\n1 1 0 0\n0 1 1 0\n0 0 1 1\n")
        assert run(["signing", f]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "TU-SIGNING"

    def test_reconstruct_feasible(self, tmp_path, capsys):
        f = write(tmp_path, "g.gram", "gram 1\n4\n")
        assert run(["reconstruct", f]) == 0
        out = capsys.readouterr().out
        assert "VERDICT G-FEASIBLE" in out
        assert "MATROID" in out and "matroid 3 4" in out

    def test_reconstruct_prints_skeleton_from_certificate(self, tmp_path, capsys,
                                                          monkeypatch):
        import flowlattice.gram as gram_mod

        def refuse(*args, **kwargs):
            raise AssertionError("build_x recomputed the g table")

        monkeypatch.setattr(gram_mod, "build_x", refuse)
        f = write(tmp_path, "k4.gram", K4_GRAM_TEXT)
        assert run(["reconstruct", f]) == 0
        assert capsys.readouterr().out == K4_RECONSTRUCT_OUT

    def test_reconstruct_infeasible(self, tmp_path, capsys):
        f = write(tmp_path, "a.gram", A_POS_TEXT)
        assert run(["reconstruct", f]) == 1
        assert "NOT-G-FEASIBLE NO-MATCHING-SIGNING" in capsys.readouterr().out


class TestIsometric:
    def test_flow_positive(self, tmp_path, capsys):
        f1 = graph_file(tmp_path, "b.graph", BOWTIE)
        f2 = graph_file(tmp_path, "t.graph", TWO_TRIANGLES)
        assert run(["isometric", f1, f2, "--mode", "flow"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "ISOMETRIC"
        assert "->" in out

    def test_pendant_witness_identity(self, tmp_path, capsys):
        f1 = graph_file(tmp_path, "t.graph", TRIANGLE)
        f2 = graph_file(tmp_path, "p.graph", TRIANGLE + [(3, 4)])
        assert run(["isometric", f1, f2]) == 0
        out = capsys.readouterr().out
        for i in (1, 2, 3):
            assert f"e{i} -> e{i}" in out

    def test_negative(self, tmp_path, capsys):
        f1 = graph_file(tmp_path, "t.graph", TRIANGLE)
        f2 = graph_file(tmp_path, "c.graph", [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert run(["isometric", f1, f2]) == 1
        assert "NOT-ISOMETRIC" in capsys.readouterr().out

    def test_matroid_file_input(self, tmp_path, capsys):
        from flowlattice.matroid import from_graph

        m = from_graph(TRIANGLE)
        f1 = write(tmp_path, "t.matroid", m.text())
        f2 = graph_file(tmp_path, "t.graph", TRIANGLE)
        assert run(["isometric", f1, f2]) == 0
        capsys.readouterr()


class TestLongCycle:
    """A 1,000-cycle against a copy with its vertices relabelled, its edges
    reordered and some reversed.  The isomorphism search maps one element
    per level, so it goes 1,000 levels deep; run by recursion, that once
    ended in RecursionError and exit 1, the "not isometric" status."""

    N = 1000

    def pair(self):
        rng = random.Random(1000)
        cycle = [(i, (i + 1) % self.N) for i in range(self.N)]
        label = rng.sample(range(self.N), self.N)
        copy = [(label[h], label[t]) if rng.random() < 0.5 else (label[t], label[h])
                for t, h in rng.sample(cycle, self.N)]
        return cycle, copy

    def test_library(self):
        cycle, copy = self.pair()
        with intmat.bounds(iso=self.N):
            res = rebuild.flow_lattices_isometric(matroid.from_graph(cycle),
                                                  matroid.from_graph(copy))
        assert res
        # one circuit holds every element: the least map is the identity
        assert res.witness.mapping == tuple(range(self.N))

    def test_isometric_verb(self, tmp_path, capsys):
        f1, f2 = (graph_file(tmp_path, f"{name}.graph", edges)
                  for name, edges in zip(("cycle", "copy"), self.pair()))
        assert run(["--iso-bound", str(self.N), "isometric", f1, f2]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ISOMETRIC" and out[-1] == f"e{self.N} -> e{self.N}"


class TestParser:
    def test_built_once_and_verbs_resolved_per_call(self, tmp_path, capsys, monkeypatch):
        import flowlattice.cli as cli_mod

        f = write(tmp_path, "m.mat", "2 2\n1 0\n1 1\n")
        assert run(["tu-check", f]) == 0
        assert capsys.readouterr().out == "TU yes\nWU yes\n"

        def refuse(*args, **kwargs):
            raise AssertionError("parser rebuilt")

        seen = []

        def patched(args):
            seen.append(args.file)
            return 1

        monkeypatch.setattr(cli_mod, "build_parser", refuse)
        monkeypatch.setattr(cli_mod, "cmd_tu_check", patched)
        assert run(["tu-check", f]) == 1
        assert seen == [f]
        assert capsys.readouterr().out == ""


class TestErrors:
    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_malformed_gram(self, tmp_path, capsys):
        f = write(tmp_path, "bad.gram", "gram 2\n1 2\n3 1\n")
        assert run(["gtest", f]) == 2
        assert "ERROR BAD-INPUT" in capsys.readouterr().out

    def test_non_integer_gram_header(self, tmp_path, capsys):
        f = write(tmp_path, "bad.gram", "gram x\n3\n")
        assert run(["gtest", f]) == 2
        assert "ERROR BAD-INPUT" in capsys.readouterr().out

    def test_zero_width_header_past_the_text(self, tmp_path, capsys):
        f = write(tmp_path, "wide.mat", "100000000 0\n")
        assert run(["tu-check", f]) == 2
        assert "ERROR BAD-INPUT" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["tu-check"], ["signing"], ["circuits"], ["gtest"],
                                      ["decompose", "GRAPH"]])
    def test_file_not_utf8(self, tmp_path, capsys, argv):
        """Undecodable bytes, in the input or in a vector file, end in
        BAD-INPUT, not a traceback."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"2 2\n1 0\n0 \xff\xfe\n")
        graph = graph_file(tmp_path, "k4.graph", K4)
        args = [graph if a == "GRAPH" else a for a in argv]
        assert run(args + [str(bad)]) == 2
        assert capsys.readouterr().out == (f"ERROR BAD-INPUT: {bad} is not UTF-8 text: "
                                           f"invalid start byte at byte 10\n")

    def test_file_unreadable(self, tmp_path, capsys, monkeypatch):
        """An OSError on reading a regular file ends in BAD-INPUT, with
        its reason; a path that is not a regular file keeps its message."""
        import flowlattice.cli as cli

        f = write(tmp_path, "m.mat", "1 1\n1\n")

        def refuse(path, mode="r"):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        assert run(["tu-check", f]) == 2
        assert capsys.readouterr().out == f"ERROR BAD-INPUT: cannot read {f}: Permission denied\n"
        assert run(["tu-check", str(tmp_path)]) == 2
        assert capsys.readouterr().out == f"ERROR BAD-INPUT: no such file: {tmp_path}\n"

    def test_non_integer_matroid_header(self, tmp_path, capsys):
        f = write(tmp_path, "bad.matroid", "matroid a b\ne1 e2\n1 2\n1 1\n")
        assert run(["circuits", f]) == 2
        assert "ERROR BAD-INPUT" in capsys.readouterr().out

    def test_bad_bound_value(self, tmp_path, capsys):
        f = write(tmp_path, "a.gram", A_POS_TEXT)
        assert run(["--tu-bound", "0", "gtest", f]) == 2
        assert "ERROR BAD-BOUND" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("flag", ["--tu-bound", "--circuit-bound", "--iso-bound",
                                      "--subset-bound"])
    def test_bad_bound_line(self, tmp_path, capsys, flag, value):
        f = write(tmp_path, "a.gram", A_POS_TEXT)
        assert run([flag, value, "gtest", f]) == 2
        assert capsys.readouterr().out == "ERROR BAD-BOUND: bounds must be positive\n"

    @pytest.mark.parametrize("value", ["x", "2.5", "0", "-3", ""])
    @pytest.mark.parametrize("env,verb,text", [
        ("FLOWLAT_TU_BOUND", "tu-check", "2 2\n1 0\n1 1\n"),
        ("FLOWLAT_CIRCUIT_BOUND", "circuits", "1 2\n2 3\n3 1\n"),
        ("FLOWLAT_SUBSET_BOUND", "gtest", A_POS_TEXT),
    ], ids=["tu", "circuit", "subset"])
    def test_bad_env_bound(self, tmp_path, capsys, monkeypatch, env, verb, text, value):
        """No FLOWLAT_* variable is read: a bad one changes nothing."""
        f = write(tmp_path, "input", text)
        assert run([verb, f]) == 0
        clean = capsys.readouterr().out
        monkeypatch.setenv(env, value)
        assert run([verb, f]) == 0
        assert capsys.readouterr().out == clean

    def test_bound_flag_binds_one_call(self, tmp_path, capsys):
        # the det-2 3-cycle: its witness search reaches order 3
        f = write(tmp_path, "m.mat", "3 3\n1 1 0\n0 1 1\n1 0 1\n")
        assert run(["--tu-bound", "2", "tu-check", f]) == 2
        assert capsys.readouterr().out == ("ERROR BOUND-EXCEEDED: instance too large for "
                                           "exact enumeration: Eulerian search order = 3 > 2\n")
        assert run(["tu-check", f]) == 1
        assert capsys.readouterr().out.startswith("TU no  witness rows=[0, 1, 2]")

    def test_bound_flag_restores_the_environment(self, tmp_path, capsys):
        before = dict(os.environ)
        f = write(tmp_path, "a.gram", A_POS_TEXT)
        assert run(["--tu-bound", "1", "--subset-bound", "3", "gtest", f]) == 2
        assert dict(os.environ) == before
        assert run(["--tu-bound", "1", "--subset-bound", "0", "gtest", f]) == 2
        assert "ERROR BAD-BOUND" in capsys.readouterr().out.splitlines()[-1]
        assert dict(os.environ) == before

    def test_tu_bound_gates_only_the_search(self, tmp_path, capsys):
        """Signing and reconstruction build and realize without a bound; only
        a block that no tree realizes (the Fano matrix) is searched."""
        for text, verb in ((K4_GRAM_TEXT, "reconstruct"),
                           ("3 3\n1 1 0\n0 1 1\n1 0 1\n", "signing")):
            f = write(tmp_path, "input", text)
            status = run([verb, f])
            out = capsys.readouterr().out
            assert run(["--tu-bound", "1", verb, f]) == status == 0
            assert capsys.readouterr().out == out
        f = write(tmp_path, "input", "3 4\n1 1 0 1\n1 0 1 1\n0 1 1 1\n")
        assert run(["--tu-bound", "2", "signing", f]) == 2
        assert capsys.readouterr().out == ("ERROR BOUND-EXCEEDED: instance too large for "
                                           "exact enumeration: Eulerian search order = 3 > 2\n")
        assert run(["signing", f]) == 1

    def test_deterministic_output(self, tmp_path, capsys):
        f = graph_file(tmp_path, "k.graph", K4)
        run(["--porcelain", "flows", f])
        first = capsys.readouterr().out
        run(["--porcelain", "flows", f])
        assert capsys.readouterr().out == first
