"""End-to-end acceptance suite.

Each test prints a single [PASS]/[FAIL] line for its criterion; run with
`pytest -s tests/test_acceptance.py` to see them all.
"""

import itertools
import random
from contextlib import contextmanager

import networkx as nx
import pytest

from flowlattice.cli import run
from flowlattice.flows import (
    FlowVector,
    consistent_decompose,
    cut_basis,
    enumerate_coefficients,
    fundamental_basis,
    gram_of,
    is_simple_metric,
    simple_flows,
)
from flowlattice.gram import GramMatrix, build_x, classify, is_g_feasible, tu_signing
from flowlattice.intmat import (
    IntegerMatrix,
    determinant,
    is_totally_unimodular,
    is_weakly_unimodular,
    sharp,
)
from flowlattice.matroid import (
    circuits,
    contract_coloops,
    coordinatize,
    from_graph,
    is_isomorphic,
)
from flowlattice.rebuild import (
    cut_lattices_isometric,
    flow_lattices_isometric,
    mixed_isometric,
    reconstruct_matroid,
)

from conftest import (
    BOWTIE,
    K4,
    TRIANGLE,
    TWO_TRIANGLES,
    bridgeless_graphs,
    connected_multigraphs,
    u1n,
)
from elimination_oracles import bases
from lattice_oracles import determinant as lattice_determinant
from lattice_oracles import isometry as lattice_isometry

A_POS = [[3, 1, 1, 2], [1, 3, 1, 2], [1, 1, 3, 2], [2, 2, 2, 5]]
A_NN = [[2, 1, 0, -1], [1, 2, 1, 0], [0, 1, 2, 1], [-1, 0, 1, 2]]


@contextmanager
def criterion(n, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {title}")
        raise
    print(f"[PASS] criterion {n}: {title}")


def gram_text(rows):
    s = len(rows)
    return f"gram {s}\n" + "\n".join(" ".join(str(v) for v in r) for r in rows) + "\n"


def test_criterion_01_positive_but_infeasible_golden(tmp_path, capsys):
    with criterion(1, "g-positive 4x4 study matrix: taxonomy, skeleton, refutations"):
        a = GramMatrix.from_rows(A_POS)
        assert classify(a).g_positive
        x = build_x(a)
        expected = [
            [1, 1, 1, 1],
            [1, 0, 0, 1],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
        assert [list(r) for r in x.entries] == expected
        assert tu_signing(x) is None
        assert not is_g_feasible(a)

        gf = tmp_path / "a.gram"
        gf.write_text(gram_text(A_POS))
        assert run(["gtest", str(gf)]) == 0
        assert "G-POSITIVE" in capsys.readouterr().out
        assert run(["xmatrix", str(gf)]) == 0
        got = capsys.readouterr().out
        assert got.splitlines()[1:] == [
            " ".join(str(v) for v in r) for r in expected
        ]
        xf = tmp_path / "a.x"
        xf.write_text(got)
        assert run(["signing", str(xf)]) == 1
        capsys.readouterr()
        assert run(["reconstruct", str(gf)]) == 1
        assert "NOT-G-FEASIBLE" in capsys.readouterr().out


def test_criterion_02_nonnegative_signable_but_infeasible(tmp_path, capsys):
    with criterion(2, "g-nonnegative study matrix: X is TU yet no Gram-matching signing"):
        a = GramMatrix.from_rows(A_NN)
        cls = classify(a)
        assert cls.g_nonnegative and not cls.g_positive
        x = build_x(a)
        expected_rows = sorted(
            [(1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
        )
        assert sorted(x.entries) == expected_rows
        assert is_totally_unimodular(x)
        assert x.transpose() * x == sharp(a.mat)
        res = is_g_feasible(a)
        assert not res and res.reason == "NO-MATCHING-SIGNING"

        gf = tmp_path / "a.gram"
        gf.write_text(gram_text(A_NN))
        assert run(["gtest", str(gf)]) == 0
        assert "G-NONNEGATIVE" in capsys.readouterr().out
        assert run(["xmatrix", str(gf)]) == 0
        xf = tmp_path / "a.x"
        xf.write_text(capsys.readouterr().out)
        assert run(["tu-check", str(xf)]) == 0
        capsys.readouterr()


def test_criterion_03_rank_one_feasible(tmp_path, capsys):
    with criterion(3, "[4] is g-feasible; reconstruct gives the 4-element circuit; [2] fails WU"):
        a = GramMatrix.from_rows([[4]])
        res = is_g_feasible(a)
        assert res
        assert tuple(res.certificate.columns()) == ((1, 1, 1, 1),)
        out = reconstruct_matroid(a)
        assert out
        m = out.report.matroid
        assert (m.rank, m.size) == (3, 4)
        assert circuits(m) == ((0, 1, 2, 3),)
        assert not is_weakly_unimodular(IntegerMatrix.from_rows([[2]]))

        gf = tmp_path / "g.gram"
        gf.write_text("gram 1\n4\n")
        assert run(["reconstruct", str(gf)]) == 0
        assert "matroid 3 4" in capsys.readouterr().out


def test_criterion_04_k4_cubical_sublattice(k4):
    with criterion(4, "K4 four-cycle flows have Gram 4I; a triangle flow is metrically simple"):
        flows = {frozenset(f.support): f for f in simple_flows(k4) if f.coords[min(f.support)] > 0}
        four_cycles = [f for supp, f in sorted(flows.items(), key=lambda kv: sorted(kv[0])) if len(supp) == 4]
        assert len(four_cycles) == 3
        g = gram_of([f.coords for f in four_cycles])
        assert g.mat == IntegerMatrix.identity(3).scale(4)
        lat = fundamental_basis(k4)
        triangle_flow = next(f for s, f in flows.items() if len(s) == 3)
        assert is_simple_metric(lat, triangle_flow)


def test_criterion_05_uniform_rank_one_root_lattice():
    with criterion(5, "fundamental bases of the rank-1 uniform matroids give the A_n root form"):
        for n in range(2, 6):
            lat = fundamental_basis(u1n(n + 1))
            e = lat.gram.mat.entries
            # every diagonal is 2; off-diagonal is +-1 exactly when the
            # two circuit supports overlap (they all share one element)
            for i in range(n):
                assert e[i][i] == 2
                for j in range(n):
                    if i != j:
                        assert abs(e[i][j]) == 1
            # consecutive differences form the classical tridiagonal basis
            cols = [FlowVector.of(lat.basis.column(j)) for j in range(n)]
            diffs = [cols[0]] + [cols[j] - cols[j - 1] for j in range(1, n)]
            t = gram_of([d.coords for d in diffs]).mat.entries
            for i in range(n):
                for j in range(n):
                    want = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
                    assert t[i][j] == want
            # same lattice: the change of basis is unimodular
            change = IntegerMatrix.from_rows(
                [[1 if i == j else (-1 if i == j + 1 else 0) for j in range(n)]
                 for i in range(n)]
            )
            assert abs(determinant(change)) == 1


def test_criterion_06_exhaustive_isometry_vs_core_isomorphism():
    with criterion(6, "flow-lattice isometry matches core isomorphism on all <=6-edge multigraph pairs"):
        graphs = connected_multigraphs(6)
        ms = [from_graph(e) for e in graphs]
        cores = [contract_coloops(m) for m in ms]
        for c in cores:
            circuits(c)
        mismatches = 0
        agreements = 0
        for a, b in itertools.combinations(range(len(ms)), 2):
            d1 = bool(flow_lattices_isometric(ms[a], ms[b]))
            d2 = bool(is_isomorphic(cores[a], cores[b]))
            if d1 != d2:
                mismatches += 1
            if d1:
                agreements += 1
                # semantic spot check: isometric pairs have equal Gram
                # determinants (= base counts of the cores)
                ga = fundamental_basis(cores[a]).gram if cores[a].corank else None
                gb = fundamental_basis(cores[b]).gram if cores[b].corank else None
                da = determinant(ga.mat) if ga else 1
                db = determinant(gb.mat) if gb else 1
                assert da == db
        assert mismatches == 0
        assert agreements > 0


def test_criterion_07_round_trip_reconstruction():
    with criterion(7, "reconstruct(Gram) recovers M(G) for every base of every small bridgeless graph"):
        failures = 0
        total = 0
        for edges in bridgeless_graphs(5):
            m = from_graph(edges)
            for base in bases(m):
                total += 1
                out = reconstruct_matroid(fundamental_basis(m, base).gram)
                if not (out and is_isomorphic(out.report.matroid, m)):
                    failures += 1
        assert total == 418
        assert failures == 0


def test_criterion_08_support_statistics_and_skeleton():
    with criterion(8, "f equals the support intersections, g the exact counts; U-sharp rows match X"):
        from gram_oracles import SupportFamily, f_value, g_value, phi_gamma

        for edges in bridgeless_graphs(5):
            m = from_graph(edges)
            lat = fundamental_basis(m)
            u = lat.basis
            s = lat.lattice_rank
            fam = SupportFamily.from_sets(
                m.size, [set(FlowVector.of(u.column(j)).support) for j in range(s)]
            )
            a = lat.gram
            for size in range(1, s + 1):
                for sub in itertools.combinations(range(s), size):
                    phi, gamma = phi_gamma(fam, sub)
                    assert f_value(a, sub) == phi
                    assert g_value(a, sub) == gamma
            x = build_x(a)
            u_sharp_rows = sorted(
                tuple(r) for r in sharp(u).entries if any(r)
            )
            assert sorted(tuple(r) for r in x.entries) == u_sharp_rows


def test_criterion_09_decomposition_properties():
    with criterion(9, "1000 random flows per matroid decompose conformingly with additive mass"):
        rnd = random.Random(99)
        for edges in (TRIANGLE, K4, BOWTIE):
            m = from_graph(edges)
            lat = fundamental_basis(m)
            simple = {f.coords for f in simple_flows(m)}
            for _ in range(1000):
                coeffs = [rnd.randint(-5, 5) for _ in range(lat.lattice_rank)]
                beta = lat.vector(coeffs)
                if beta.is_zero:
                    continue
                parts = consistent_decompose(lat, beta)
                total = FlowVector.of([0] * m.size)
                for alpha in parts:
                    # (i) each part is a simple flow
                    assert alpha.coords in simple
                    # (ii) support containment and sign agreement
                    for x, b in zip(alpha.coords, beta.coords):
                        assert x == 0 or x * b > 0
                    total = total + alpha
                # (iii) the parts sum back, with no cancellation
                assert total == beta
                assert sum(p.mass for p in parts) == beta.mass


def test_criterion_10_metric_vs_circuit_simplicity():
    with criterion(10, "metric simplicity = signed-circuit membership for all short vectors"):
        pool = [
            TRIANGLE,
            [(1, 2), (2, 3), (3, 4), (4, 1)],
            [(1, 2), (2, 3), (3, 1), (1, 3)],
            K4,
            BOWTIE,
            K4 + [(1, 2)],
        ]
        checked = 0
        for edges in pool:
            m = from_graph(edges)
            assert m.size <= 7
            lat = fundamental_basis(m)
            signed = {f.coords for f in simple_flows(m)}
            for y, _ in enumerate_coefficients(lat.gram, 12):
                if not any(y):
                    continue
                v = lat.vector(y)
                assert bool(is_simple_metric(lat, y)) == (v.coords in signed)
                checked += 1
        assert checked > 100


def test_criterion_11_wu_bases_of_isometric_lattices_are_tu():
    with criterion(11, "500 random rebased certificates keep the Gram and stay TU"):
        from flowlattice.flows import FlowLattice

        rnd = random.Random(4242)
        pool = [e for e in connected_multigraphs(6) if from_graph(e).corank >= 1]
        done = 0
        while done < 500:
            edges = rnd.choice(pool)
            m = from_graph(edges)
            all_bases = list(bases(m))
            b0, b1 = rnd.choice(all_bases), rnd.choice(all_bases)
            sf = coordinatize(m, b0)
            l_block = sf.matrix.select_columns(range(m.rank, m.size))
            u = (-l_block).vstack(IntegerMatrix.identity(m.corank))
            lat0 = fundamental_basis(m, b0)
            assert u.transpose() * u == lat0.gram.mat  # stacked form, contains I_s

            # an ambient signed permutation gives an isometric lattice
            perm = list(range(m.size))
            rnd.shuffle(perm)
            signs = [rnd.choice((1, -1)) for _ in range(m.size)]
            v_basis = fundamental_basis(m, b1).basis
            sp_rows = [
                [signs[i] if perm[i] == j else 0 for j in range(m.size)]
                for i in range(m.size)
            ]
            sp = IntegerMatrix.from_rows(sp_rows)
            v = sp * v_basis
            q = sp * lat0.basis

            # q lies in the lattice spanned by v; the change of basis is unimodular
            span = FlowLattice.from_basis(v)
            f_cols = [span.coefficients(FlowVector.of(q.column(j)))
                      for j in range(q.cols)]
            f = IntegerMatrix.from_columns(f_cols)
            assert abs(determinant(f)) == 1
            assert v * f == q

            assert q.transpose() * q == u.transpose() * u
            assert is_weakly_unimodular(q)
            assert is_totally_unimodular(q)
            done += 1


def test_criterion_12_two_isomorphism_demo(tmp_path, capsys):
    with criterion(12, "bowtie and two disjoint triangles: different graphs, isometric flow lattices"):
        g1 = nx.Graph(BOWTIE)
        g2 = nx.Graph(TWO_TRIANGLES)
        assert not nx.is_isomorphic(g1, g2)
        f1 = tmp_path / "bowtie.graph"
        f1.write_text("".join(f"{t} {h}\n" for t, h in BOWTIE))
        f2 = tmp_path / "twotri.graph"
        f2.write_text("".join(f"{t} {h}\n" for t, h in TWO_TRIANGLES))
        assert run(["isometric", str(f1), str(f2), "--mode", "flow"]) == 0
        assert "ISOMETRIC" in capsys.readouterr().out


def test_criterion_13_isometry_decisions_match_a_lattice_isometry():
    with criterion(13, "flow, cut and mixed decisions agree with a lattice-side isometry search"):
        def lattices(basis, ms):
            """Gram matrices, with the rank and determinant that the oracle compares first."""
            grams = [basis(m).gram.mat.entries for m in ms]
            return [(g, (len(g), lattice_determinant(g))) for g in grams]

        def agree(decided, left, right) -> bool:
            (a, key_a), (b, key_b) = left, right
            # lattices of unequal rank or determinant are not isometric
            x = lattice_isometry(a, b) if key_a == key_b else None
            if x is not None:
                n = len(a)
                assert all(sum(x[p][i] * b[p][q] * x[q][j] for p in range(n) for q in range(n))
                           == a[i][j] for i in range(n) for j in range(n))
            assert bool(decided) == (x is not None)
            return x is not None

        ms = [from_graph(e) for e in connected_multigraphs(6)]
        flow = lattices(fundamental_basis, ms)
        pairs = list(itertools.combinations(range(len(ms)), 2))
        assert len(pairs) == 110215
        assert sum(agree(flow_lattices_isometric(ms[i], ms[j]), flow[i], flow[j])
                   for i, j in pairs) == 4464

        small = [m for m in ms if m.size <= 5]
        flow = lattices(fundamental_basis, small)
        cut = lattices(cut_basis, small)
        pairs = list(itertools.combinations(range(len(small)), 2))
        assert len(pairs) == 10011
        assert sum(agree(cut_lattices_isometric(small[i], small[j]), cut[i], cut[j])
                   for i, j in pairs) == 508
        assert sum(agree(mixed_isometric(small[i], small[j]), flow[i], cut[j])
                   for i, j in itertools.product(range(len(small)), repeat=2)) == 1074
