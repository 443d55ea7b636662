"""The ellipsoid walk and the periodic decomposition against the routines they replaced.

`enumerate_coefficients`, `is_simple_metric` and `consistent_decompose`
are compared for exact equality -- the full (y, q) list in order, the
witnesses, the part lists, and errors alike -- with the box scan, the
recursive conforming-flow search, `decompose_by_chains` (one chain of
eliminations per part) and `decompose_by_runs` (one chain per run of
equal parts) in `flows_oracles`, on seeded positive
definite Gram matrices, on the flow lattices of K4, K3,3, the prism,
the wheel W5, K5 and the Petersen graph, on those of their duals and
of R10 and its dual, and on random multigraphs with loops and parallel
edges.  Decompositions are checked at the benchmark's scale (+-200
coefficients) and beyond: the scale tests count chain steps instead of
timing them.

The box scan costs the number of points in its box, which grows with
the bound; where a drawn input's box holds more than `BOX_CAP` points
the bound is halved (Gram tests) or the query redrawn (sampled
simplicity queries), so the oracle stays cheap enough to run.  The
recursive search costs about 0.1 s per +-200 flow on K5, so it is run
up to +-60 only.
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
from flowlattice.matroid import RegularMatroid, dual, from_graph
from test_matroid import r10

BOX_CAP = 20_000
RECURSIVE_CAP = 60    # largest coefficient given to the recursive decomposition


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


def same_decomposition(lat, beta, recursive=True):
    """consistent_decompose against decompose_by_chains and
    decompose_by_runs -- the same part objects in the same order, or the
    same error -- and, when asked, against the recursive search."""
    got = outcome(consistent_decompose, lat, beta)
    for oracle_loop in (oracle.decompose_by_chains, oracle.decompose_by_runs):
        want = outcome(oracle_loop, lat, beta)
        assert got == want
        if isinstance(got, list):
            assert all(p is q for p, q in zip(got, want))
    if recursive:
        assert got == outcome(oracle.consistent_decompose, lat, beta)
    return got


def runs(parts):
    """The number of runs of one repeated part object."""
    return sum(1 for i, p in enumerate(parts) if not i or p is not parts[i - 1])


def result(res):
    witness = None if res.witness is None else tuple(w.coords for w in res.witness)
    return res.simple, witness, res.witness_inner


@pytest.fixture(scope="module")
def lattices():
    return {name: fundamental_basis(from_graph(edges)) for name, edges in LATTICES.items()}


@pytest.fixture(scope="module")
def decompose_lattices(lattices):
    """The graphic lattices, the (cographic) lattices of their duals, and
    the lattices of R10 and its dual; a name with * is a dual's."""
    out = dict(lattices)
    for name, lat in lattices.items():
        out[name + "*"] = fundamental_basis(dual(lat.source))
    out["R10"] = fundamental_basis(r10())
    out["R10*"] = fundamental_basis(dual(out["R10"].source))
    return out


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
                same_decomposition(lat, beta)

    def test_multigraph_flows(self):
        rng = random.Random(73)
        for _ in range(200):
            m = from_graph(random_multigraph(rng))
            lat = fundamental_basis(m)
            s = lat.lattice_rank
            for _ in range(2):
                beta = lat.vector([rng.randint(-60, 60) for _ in range(s)]) if s else \
                    FlowVector.of([0] * m.size)
                same_decomposition(lat, beta)

    @pytest.mark.parametrize("coeff", [1, 3, 60, 200])
    def test_workload_scale(self, decompose_lattices, coeff):
        """Every lattice, graphic, cographic and R10, at the benchmark's
        +-200 and below; a vector one off a flow must fail alike."""
        rng = random.Random(coeff)
        for lat in decompose_lattices.values():
            for _ in range(4):
                beta = lat.vector([rng.randint(-coeff, coeff) for _ in range(lat.lattice_rank)])
                same_decomposition(lat, beta, coeff <= RECURSIVE_CAP)
            off = FlowVector.of([1] + [0] * (lat.ambient - 1))
            got = same_decomposition(lat, beta + off, coeff <= RECURSIVE_CAP)
            assert isinstance(got, tuple) and issubclass(got[0], FlowLatticeError)

    @pytest.mark.parametrize("coeff", [1, 3, 60, 200])
    def test_multigraph_workload_scale(self, coeff):
        rng = random.Random(f"multigraph {coeff}")
        for _ in range(60):
            lat = fundamental_basis(from_graph(random_multigraph(rng, max_edges=10)))
            beta = lat.vector([rng.randint(-coeff, coeff) for _ in range(lat.lattice_rank)])
            same_decomposition(lat, beta, coeff <= RECURSIVE_CAP)

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
            assert got == outcome(oracle.decompose_by_chains, where, bad)
            assert isinstance(got, tuple) and issubclass(got[0], FlowLatticeError)


class CountingPairs(tuple):
    """A matroid's (alpha, -alpha) pairs that count their item reads: the
    decomposition reads one pair per chain step."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def counted_decompose(lat, beta, decompose=consistent_decompose):
    """The parts of beta and the number of chain steps taken."""
    m = lat.source
    spy = m.__dict__["_signed_pairs"] = CountingPairs(m._signed_pairs)
    return decompose(lat, beta), spy.reads


class TestDecomposeAtScale:
    """Flows far past the benchmark's, checked by exact output and by a
    count of chain steps, never by a clock: the work follows the runs of
    equal parts, not the parts, and a block of runs that repeats costs
    two passes, not one per repetition."""

    # coefficients of a W5 flow whose 234 parts come in 5 runs
    W5_COEFFS = (-27, -195, 12, 96, -39)

    def test_multiple_of_one_circuit(self):
        lat = fundamental_basis(from_graph(LATTICES["K5"]))
        alpha = simple_flows(lat.source)[7]
        parts, steps = counted_decompose(lat, alpha.scaled(10 ** 5))
        assert parts == [alpha] * 10 ** 5
        assert all(p is alpha for p in parts)
        assert steps == 1

    def test_w5_scaled_by_100(self):
        lat = fundamental_basis(from_graph(LATTICES["W5"]))
        beta = lat.vector(self.W5_COEFFS)
        parts, steps = counted_decompose(lat, beta)
        big, big_steps = counted_decompose(lat, beta.scaled(100))
        assert (len(parts), runs(parts)) == (234, 5)
        assert (len(big), runs(big)) == (23_400, 5)
        assert big_steps == steps <= lat.source.size * runs(parts)
        same_decomposition(lat, beta.scaled(100), recursive=False)

    def test_one_chain_per_run(self):
        """Consecutive chains end at different parts, so there is one chain
        per run of the output, of at most one step per ground element."""
        rng = random.Random(79)
        for m in (from_graph(LATTICES["K4"]), from_graph(LATTICES["W5"]),
                  from_graph(LATTICES["K5"]), dual(from_graph(LATTICES["K5"])), r10()):
            lat = fundamental_basis(m)
            for _ in range(4):
                beta = lat.vector([rng.randint(-200, 200) for _ in range(lat.lattice_rank)])
                parts, steps = counted_decompose(lat, beta)
                assert steps <= lat.source.size * runs(parts) < lat.source.size * len(parts)


    def test_alternating_parts_scaled_by_100(self):
        """Flows whose parts alternate, with at least ten runs per distinct
        part: scaled by 100, each takes at most 50 chain steps more (at
        most 45 on these flows; the run-length loop takes about 100 times
        as many), and never more steps than the run-length loop."""
        rng = random.Random(83)
        for name in ("K5", "K33", "W5"):
            lat = fundamental_basis(from_graph(LATTICES[name]))
            done = 0
            while done < 4:
                beta = lat.vector([rng.randint(-200, 200) for _ in range(lat.lattice_rank)])
                parts, steps = counted_decompose(lat, beta)
                if runs(parts) < 10 * len({id(p) for p in parts}):
                    continue
                big, big_steps = counted_decompose(lat, beta.scaled(100))
                assert big_steps <= steps + 50
                for flow, got, taken in ((beta, parts, steps), (beta.scaled(100), big, big_steps)):
                    want, by_runs = counted_decompose(lat, flow, oracle.decompose_by_runs)
                    assert got == want and all(p is q for p, q in zip(got, want))
                    assert taken <= by_runs
                done += 1


class TestInvariants:
    def test_missing_circuit(self):
        """A support that holds no circuit is a broken invariant, not a
        StopIteration."""
        m = from_graph(LATTICES["K4"])
        lat = fundamental_basis(m)
        beta = m._signed_pairs[0][0]
        m.__dict__["_circuits"] = m._circuits[1:]
        m.__dict__["_signed_pairs"] = m._signed_pairs[1:]
        with pytest.raises(FlowLatticeError, match="broken invariant: no circuit"):
            consistent_decompose(lat, beta)

    def test_step_that_does_not_zero_its_element(self):
        m = from_graph(LATTICES["K4"])
        lat = fundamental_basis(m)
        beta = m._signed_pairs[0][0]
        bad = FlowVector.of((2, -1, 0, 1, 0, 0))
        m.__dict__["_signed_pairs"] = ((bad, -bad),) + m._signed_pairs[1:]
        with pytest.raises(FlowLatticeError, match="broken invariant: a chain step"):
            consistent_decompose(lat, beta)

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
