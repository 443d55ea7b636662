"""The ellipsoid walk and the bitmask decomposition against the routines they replaced.

`enumerate_coefficients`, `is_simple_metric` and `consistent_decompose`
are compared for exact equality -- the full (y, q) list in order, the
witnesses, the part lists, and errors alike -- with the box scan and
the recursive conforming-flow search in `flows_oracles`, on seeded
positive definite Gram matrices, on the flow lattices of K4, K3,3, the
prism, the wheel W5, K5 and the Petersen graph, and on random
multigraphs with loops and parallel edges.

The box scan costs the number of points in its box, which grows with
the bound; where a drawn input's box holds more than `BOX_CAP` points
the bound is halved (Gram tests) or the query redrawn (sampled
simplicity queries), so the oracle stays cheap enough to run.
"""

import itertools
import random

import pytest

import flows_oracles as oracle
from flowlattice.errors import DefinitenessError, FlowLatticeError, FormatError
from flowlattice.flows import (
    FlowVector,
    consistent_decompose,
    cut_basis,
    enumerate_coefficients,
    fundamental_basis,
    is_simple_metric,
    simple_flows,
)
from flowlattice.gram import GramMatrix
from flowlattice.intmat import IntegerMatrix, rank
from flowlattice.matroid import RegularMatroid, from_graph

BOX_CAP = 20_000


def _cycle(k):
    return [(i, (i + 1) % k) for i in range(k)]


LATTICES = {
    "K4": list(itertools.combinations(range(4), 2)),
    "K33": [(a, b) for a in range(3) for b in range(3, 6)],
    "prism": _cycle(3) + [(a + 3, b + 3) for a, b in _cycle(3)] + [(i, i + 3) for i in range(3)],
    "W5": _cycle(5) + [(i, 5) for i in range(5)],
    "K5": list(itertools.combinations(range(5), 2)),
    "Petersen": (_cycle(5) + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
}


def outcome(fn, *args):
    """The value, or the type and message of the error raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - errors are compared too
        return type(exc), str(exc)


def box_points(gram, bound):
    size = 1
    for limit in oracle._coeff_box(gram, bound):
        size *= 2 * limit + 1
    return size


def same_enumeration(gram, bound):
    while bound and box_points(gram, bound) > BOX_CAP:
        bound //= 2
    got = list(enumerate_coefficients(gram, bound))
    assert got == list(oracle.enumerate_coefficients(gram, bound))
    return got


def random_multigraph(rng, max_edges=8):
    """Up to max_edges edges over up to 5 vertices, often with a loop and
    a parallel edge."""
    nv = rng.randint(1, 5)
    edges = [(rng.randint(1, nv), rng.randint(1, nv))
             for _ in range(rng.randint(1, max_edges))]
    if rng.random() < 0.5:
        v = rng.randint(1, nv)
        edges.append((v, v))
    if rng.random() < 0.5:
        t, h = rng.choice(edges)
        edges.append((h, t))
    return edges


def result(res):
    witness = None if res.witness is None else tuple(w.coords for w in res.witness)
    return res.simple, witness, res.witness_inner


@pytest.fixture(scope="module")
def lattices():
    return {name: fundamental_basis(from_graph(edges)) for name, edges in LATTICES.items()}


class TestEnumerateCoefficients:
    def test_random_grams(self):
        rng = random.Random(61)
        done = 0
        while done < 350:
            s = rng.randint(1, 6)
            b = IntegerMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(s)] for _ in range(s + rng.randint(0, 2))])
            if rank(b) < s:
                continue
            same_enumeration(GramMatrix(b.transpose() * b), rng.randint(0, 60))
            done += 1

    def test_multigraph_grams(self):
        rng = random.Random(67)
        done = 0
        while done < 150:
            lat = fundamental_basis(from_graph(random_multigraph(rng, max_edges=10)))
            if not 1 <= lat.lattice_rank <= 6:
                continue
            same_enumeration(lat.gram, rng.randint(0, 60))
            done += 1

    def test_lattice_grams(self, lattices):
        for lat in lattices.values():
            for bound in (0, 1, 3, 4, 7, 12, 20):
                got = same_enumeration(lat.gram, bound)
                assert all(lat.vector(y).norm2 == q for y, q in got)

    def test_points_not_box(self):
        """Guard: the cost follows the ellipsoid, not its box.

        G = I + 10^6 C^T C, with C the differences inside {1,2,3} and
        inside {4,5,6}, pins every point to (a,a,a,b,b,b) with
        3a^2 + 3b^2 <= 3000: 3,149 points in a box of 6.25 * 10^10.
        """
        c = [(1, -1, 0, 0, 0, 0), (0, 1, -1, 0, 0, 0),
             (0, 0, 0, 1, -1, 0), (0, 0, 0, 0, 1, -1)]
        g = GramMatrix.from_rows(
            [[int(i == j) + 10 ** 6 * sum(r[i] * r[j] for r in c) for j in range(6)]
             for i in range(6)])
        assert box_points(g, 3000) == 62_523_502_209
        expected = sorted(((a,) * 3 + (b,) * 3, 3 * a * a + 3 * b * b)
                          for a in range(-31, 32) for b in range(-31, 32)
                          if a * a + b * b <= 1000)
        assert len(expected) == 3149
        assert list(enumerate_coefficients(g, 3000)) == expected


class TestEnumerationInput:
    def test_negative_bound_yields_nothing(self, lattices):
        for g in (lattices["K4"].gram, GramMatrix.from_rows([[1]]),
                  GramMatrix(IntegerMatrix.empty(0, 0))):
            assert list(enumerate_coefficients(g, -1)) == []

    def test_order_zero(self):
        g = GramMatrix(IntegerMatrix.empty(0, 0))
        for bound in (0, 5):
            assert list(enumerate_coefficients(g, bound)) == [((), 0)]
            assert list(oracle.enumerate_coefficients(g, bound)) == [((), 0)]

    @pytest.mark.parametrize("bound", [-1, 3])
    def test_singular(self, bound):
        for rows in ([[1, 1], [1, 1]], [[2, 1, 3], [1, 2, 3], [3, 3, 6]]):
            with pytest.raises(FormatError, match="Gram matrix is singular"):
                list(enumerate_coefficients(GramMatrix.from_rows(rows), bound))

    @pytest.mark.parametrize("rows,order,minor", [
        ([[1, 2], [2, 1]], 2, -3),
        ([[2, 3, 0], [3, 2, 1], [0, 1, 5]], 2, -5),
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], 2, 0),       # swap at step 2
        ([[1, 0, 2], [0, 1, 0], [2, 0, 1]], 3, -3),
    ])
    @pytest.mark.parametrize("bound", [-1, 7])
    def test_not_positive_definite(self, rows, order, minor, bound):
        with pytest.raises(DefinitenessError) as exc:
            list(enumerate_coefficients(GramMatrix.from_rows(rows), bound))
        assert isinstance(exc.value, ValueError)
        assert (exc.value.order, exc.value.minor) == (order, minor)


class TestSimpleMetric:
    @pytest.mark.parametrize("name", ["K4", "K33", "prism"])
    def test_every_small_vector(self, lattices, name):
        lat = lattices[name]
        for y in itertools.product(range(-2, 3), repeat=lat.lattice_rank):
            if any(y):
                assert result(is_simple_metric(lat, y)) == \
                    result(oracle.is_simple_metric(lat, y))

    def test_w5_unit_vectors(self, lattices):
        lat = lattices["W5"]
        for y in itertools.product(range(-1, 2), repeat=5):
            if any(y):
                assert result(is_simple_metric(lat, y)) == \
                    result(oracle.is_simple_metric(lat, y))

    @pytest.mark.parametrize("name", ["W5", "K5", "Petersen"])
    def test_sampled_vectors(self, lattices, name):
        lat = lattices[name]
        rng = random.Random(name)
        g = lat.gram.mat.entries
        done = 0
        while done < 25:
            y = tuple(rng.randint(-2, 2) for _ in range(lat.lattice_rank))
            norm = sum(g[i][j] * y[i] * y[j] for i in range(len(y)) for j in range(len(y)))
            if not any(y) or box_points(lat.gram, norm) > BOX_CAP:
                continue
            assert result(is_simple_metric(lat, y)) == result(oracle.is_simple_metric(lat, y))
            # the flow form of the same query
            v = lat.vector(y)
            assert result(is_simple_metric(lat, v)) == result(oracle.is_simple_metric(lat, v))
            done += 1

    def test_errors(self, lattices):
        lat = lattices["K4"]
        for bad in ((0, 0, 0), (1, 0), (1, 0, 0, 0), FlowVector.of((1, 0, 0, 0, 0, 0)),
                    FlowVector.of((1, 1))):
            assert outcome(is_simple_metric, lat, bad) == \
                outcome(oracle.is_simple_metric, lat, bad)


class TestDecompose:
    def test_lattice_flows(self, lattices):
        rng = random.Random(71)
        for lat in lattices.values():
            for _ in range(12):
                beta = lat.vector([rng.randint(-60, 60) for _ in range(lat.lattice_rank)])
                assert consistent_decompose(lat, beta) == oracle.consistent_decompose(lat, beta)

    def test_multigraph_flows(self):
        rng = random.Random(73)
        for _ in range(200):
            m = from_graph(random_multigraph(rng))
            lat = fundamental_basis(m)
            s = lat.lattice_rank
            for _ in range(2):
                beta = lat.vector([rng.randint(-60, 60) for _ in range(s)]) if s else \
                    FlowVector.of([0] * m.size)
                assert consistent_decompose(lat, beta) == oracle.consistent_decompose(lat, beta)

    def test_zero_flow(self, lattices):
        for lat in lattices.values():
            zero = FlowVector.of([0] * lat.ambient)
            assert consistent_decompose(lat, zero) == []

    def test_parts_share_one_object_per_signed_circuit(self, lattices):
        lat = lattices["K5"]
        parts = consistent_decompose(lat, lat.vector((60, -45, 30, -15, 50, 7)))
        distinct = {p.coords for p in parts}
        assert len(parts) > len(distinct)
        assert len({id(p) for p in parts}) == len(distinct)

    def test_errors(self, lattices):
        k4 = from_graph(LATTICES["K4"])
        lat = lattices["K4"]
        for where, bad in ((lat, FlowVector.of((1, 0, 0, 0, 0, 0))),
                           (lat, FlowVector.of((1, -1, 0))),
                           (lat, FlowVector.of((1, 0, 0, 0, 0, 0, 0))),
                           (cut_basis(k4), FlowVector.of((0,) * 6))):
            got = outcome(consistent_decompose, where, bad)
            assert got == outcome(oracle.consistent_decompose, where, bad)
            assert isinstance(got, tuple) and issubclass(got[0], FlowLatticeError)


class TestInvariants:
    def test_non_unimodular_loop_column(self):
        m = RegularMatroid.from_rep(("a", "b"), IntegerMatrix.from_rows([[1, 2]]),
                                    validate=False)
        with pytest.raises(FlowLatticeError):
            simple_flows(m)

    def test_circuit_flow_not_unit(self):
        m = RegularMatroid.from_rep(("a", "b"), IntegerMatrix.from_rows([[1, 3]]),
                                    validate=False)
        with pytest.raises(FlowLatticeError, match="unit vector pattern"):
            simple_flows(m)
