import itertools

import pytest

from flowlattice.errors import DefinitenessError, MembershipError
from flowlattice.flows import (
    FlowVector,
    consistent_decompose,
    cut_basis,
    enumerate_coefficients,
    fundamental_basis,
    gram_of,
    is_simple_metric,
    parse_flow_vector,
    simple_flows,
)
from flowlattice.gram import GramMatrix
from flowlattice.intmat import IntegerMatrix, determinant
from flowlattice.matroid import circuits, dual, from_graph

from conftest import BOWTIE, K4, TRIANGLE, u1n
from elimination_oracles import bases


class TestGramOf:
    def test_orthogonal_columns(self):
        g = gram_of([(1, 1, 0, 0), (0, 0, 1, -1)])
        assert g.mat == IntegerMatrix.from_rows([[2, 0], [0, 2]])

    def test_rejects_dependent(self):
        with pytest.raises(DefinitenessError):
            gram_of([(1, 0), (1, 0)])


class TestFundamentalBasis:
    def test_columns_are_kernel_vectors(self, k4):
        lat = fundamental_basis(k4)
        prod = k4.rep * lat.basis
        assert all(x == 0 for row in prod.entries for x in row)

    def test_every_base_spans_same_lattice(self, k4):
        ref = fundamental_basis(k4)
        for base in bases(k4):
            lat = fundamental_basis(k4, base)
            # mutual integral membership means equal lattices
            for j in range(lat.lattice_rank):
                ref.coefficients(FlowVector.of(lat.basis.column(j)))
                lat.coefficients(FlowVector.of(ref.basis.column(j)))

    def test_gram_determinant_counts_bases(self):
        # det of the flow lattice Gram = number of bases of the matroid
        for edges in (TRIANGLE, K4, BOWTIE):
            m = from_graph(edges)
            lat = fundamental_basis(m)
            assert determinant(lat.gram.mat) == sum(1 for _ in bases(m))

    def test_triangle_gram(self, triangle):
        lat = fundamental_basis(triangle)
        assert lat.gram.mat == IntegerMatrix.from_rows([[3]])

    def test_uniform_gram_is_identity_plus_ones(self):
        for n in range(2, 6):
            lat = fundamental_basis(u1n(n + 1))
            e = lat.gram.mat.entries
            assert all(
                e[i][j] == (2 if i == j else 1)
                for i in range(n) for j in range(n)
            )

    def test_coefficients_round_trip(self, k4):
        lat = fundamental_basis(k4)
        for coeffs in itertools.product((-2, 0, 1), repeat=lat.lattice_rank):
            v = lat.vector(coeffs)
            assert lat.coefficients(v) == coeffs

    def test_coefficients_rejects_outsiders(self, k4):
        lat = fundamental_basis(k4)
        with pytest.raises(MembershipError):
            lat.coefficients(FlowVector.of((1, 0, 0, 0, 0, 0)))


class TestCutBasis:
    def test_cuts_orthogonal_to_flows(self, k4):
        f = fundamental_basis(k4)
        c = cut_basis(k4)
        prod = c.basis.transpose() * f.basis
        assert all(x == 0 for row in prod.entries for x in row)

    def test_cut_lattice_of_dual_equals_flow_gram(self):
        # Gamma(M*) and Lambda(M) coincide up to the dual's column order
        for edges in (TRIANGLE, K4):
            m = from_graph(edges)
            d = dual(m)
            f = fundamental_basis(m)
            c = cut_basis(d)
            perm = [d.ground.index(lab) for lab in m.ground]
            realigned = c.basis.select_rows(perm)
            assert gram_of(realigned).mat == f.gram.mat

    def test_triangle_cut_gram(self, triangle):
        g = cut_basis(triangle).gram.mat
        assert g == IntegerMatrix.from_rows([[2, 1], [1, 2]])


class TestSimpleFlows:
    def test_triangle(self, triangle):
        flows = simple_flows(triangle)
        assert len(flows) == 2
        assert flows[0] == -flows[1]
        assert set(flows[0].coords) <= {-1, 0, 1}

    def test_k4_counts_and_supports(self, k4):
        flows = simple_flows(k4)
        assert len(flows) == 14
        supports = {frozenset(f.support) for f in flows}
        assert supports == {frozenset(c) for c in circuits(k4)}

    def test_entries_unit(self, k4):
        for f in simple_flows(k4):
            assert all(abs(x) <= 1 for x in f.coords)

    def test_flows_lie_in_lattice(self, k4):
        lat = fundamental_basis(k4)
        for f in simple_flows(k4):
            lat.coefficients(f)


def conforming(alpha: FlowVector, beta: FlowVector) -> bool:
    return all(
        a == 0 or (b != 0 and a * b > 0)
        for a, b in zip(alpha.coords, beta.coords)
    )


class TestDecompose:
    def test_doubled_triangle_flow(self, triangle):
        lat = fundamental_basis(triangle)
        alpha = simple_flows(triangle)[1]
        parts = consistent_decompose(lat, alpha.scaled(2))
        assert parts == [alpha, alpha]

    def test_rejects_non_flow(self, triangle):
        lat = fundamental_basis(triangle)
        with pytest.raises(MembershipError) as exc:
            consistent_decompose(lat, FlowVector.of((1, 0, 0)))
        assert exc.value.equation is not None

    def test_random_flows_conform(self, k4, rng):
        lat = fundamental_basis(k4)
        for _ in range(200):
            coeffs = [rng.randint(-4, 4) for _ in range(lat.lattice_rank)]
            beta = lat.vector(coeffs)
            if beta.is_zero:
                continue
            parts = consistent_decompose(lat, beta)
            simple = {f.coords for f in simple_flows(k4)}
            total = FlowVector.of([0] * k4.size)
            for p in parts:
                assert p.coords in simple
                assert conforming(p, beta)
                total = total + p
            assert total == beta
            assert sum(p.mass for p in parts) == beta.mass

    def test_zero_flow(self, triangle):
        lat = fundamental_basis(triangle)
        assert consistent_decompose(lat, FlowVector.of((0, 0, 0))) == []


class TestEnumerateCoefficients:
    def test_identity_gram_ball(self):
        g = GramMatrix(IntegerMatrix.identity(2))
        pts = {y for y, q in enumerate_coefficients(g, 2)}
        assert pts == {
            (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
        }

    def test_values_exact(self, k4):
        lat = fundamental_basis(k4)
        for y, q in enumerate_coefficients(lat.gram, 10):
            assert lat.vector(y).norm2 == q

    def test_complete_against_brute_force(self, k4):
        lat = fundamental_basis(k4)
        bound = 12
        got = {y for y, _ in enumerate_coefficients(lat.gram, bound)}
        brute = {
            y for y in itertools.product(range(-4, 5), repeat=3)
            if lat.vector(y).norm2 <= bound
        }
        assert got == brute


class TestSimpleMetric:
    def test_simple_flows_are_metric_simple(self, k4):
        lat = fundamental_basis(k4)
        for f in simple_flows(k4):
            assert is_simple_metric(lat, f)

    def test_doubled_flow_is_not(self, triangle):
        lat = fundamental_basis(triangle)
        alpha = simple_flows(triangle)[1]
        res = is_simple_metric(lat, alpha.scaled(2))
        assert not res
        b, c = res.witness
        assert b + c == alpha.scaled(2)
        assert res.witness_inner >= 0

    def test_witness_inner_value(self, triangle):
        lat = fundamental_basis(triangle)
        res = is_simple_metric(lat, (2,))
        assert res.witness_inner == 3  # split 2a = a + a, <a,a> = 3

    def test_sum_of_disjoint_circuits_is_not_simple(self):
        m = from_graph(BOWTIE)
        lat = fundamental_basis(m)
        flows = simple_flows(m)
        by_supp = {frozenset(f.support): f for f in flows if f.coords[0] >= 0}
        tri1 = by_supp[frozenset({0, 1, 2})]
        tri2 = by_supp[frozenset({3, 4, 5})]
        assert not is_simple_metric(lat, tri1 + tri2)

    def test_zero_rejected(self, triangle):
        lat = fundamental_basis(triangle)
        with pytest.raises(ValueError):
            is_simple_metric(lat, (0,))

    def test_accepts_coefficient_form(self, k4):
        lat = fundamental_basis(k4)
        v = lat.vector((1, 0, 0))
        assert bool(is_simple_metric(lat, (1, 0, 0))) == bool(is_simple_metric(lat, v))


class TestVectorParsing:
    def test_round_trip(self):
        v = FlowVector.of((1, -2, 0, 3))
        assert parse_flow_vector(v.text()) == v

    def test_commas_and_comments(self):
        assert parse_flow_vector("# flow\n1, -1,\n0\n") == FlowVector.of((1, -1, 0))
