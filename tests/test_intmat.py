import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlattice.errors import BoundExceededError, DimensionError
from flowlattice.intmat import (
    IntegerMatrix,
    _tu_core,
    determinant,
    integer_kernel_basis,
    is_totally_unimodular,
    is_weakly_unimodular,
    parse_matrix,
    rank,
    sharp,
)

from conftest import det_cofactor
from tu_oracles import tu_by_enumeration


def M(rows):
    return IntegerMatrix.from_rows(rows)


class TestDeterminant:
    def test_all_ones_minus_identity(self):
        # det(J_t - I_t) = +-(t-1)
        j3 = M([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert determinant(j3) == 2

    def test_identity(self):
        assert determinant(IntegerMatrix.identity(4)) == 1

    def test_two_by_two(self):
        assert determinant(M([[2, 1], [1, 1]])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(M([[1, 2, 3]]))

    def test_against_cofactor_oracle_randomized(self):
        rnd = random.Random(7)
        for _ in range(300):
            n = rnd.randint(1, 5)
            rows = [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            assert determinant(M(rows)) == det_cofactor(rows)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n, max_size=n)))
    def test_against_cofactor_oracle_hypothesis(self, rows):
        assert determinant(M(rows)) == det_cofactor(rows)


class TestRank:
    def test_all_ones_row(self):
        assert rank(M([[1, 1, 1]])) == 1

    def test_zero(self):
        assert rank(IntegerMatrix.zeros(3, 3)) == 0

    def test_k4_incidence(self):
        from flowlattice.matroid import from_graph
        from conftest import K4

        # signed incidence rows sum to zero per component
        m = from_graph(K4)
        assert m.rank == 3


def brute_kernel_vectors(m, coord_bound):
    """All integer kernel vectors with coordinates in [-b, b]."""
    n = m.cols
    out = []
    for v in itertools.product(range(-coord_bound, coord_bound + 1), repeat=n):
        col = IntegerMatrix.from_columns([v], nrows=n)
        prod = m * col
        if all(x == 0 for x in prod.column(0)):
            out.append(v)
    return out


def in_integer_span(columns, v):
    from elimination_oracles import _solve_exact

    if not columns:
        return all(x == 0 for x in v)
    b = IntegerMatrix.from_columns(columns)
    x = _solve_exact(b, v)
    return x is not None and all(f.denominator == 1 for f in x)


class TestIntegerKernel:
    def test_sum_zero_plane(self):
        k = integer_kernel_basis(M([[1, 1, 1]]))
        assert k.cols == 2
        for v in brute_kernel_vectors(M([[1, 1, 1]]), 3):
            assert in_integer_span(k.columns(), v)

    def test_injective(self):
        k = integer_kernel_basis(IntegerMatrix.identity(3))
        assert (k.rows, k.cols) == (3, 0)

    def test_identity_plus_column(self):
        k = integer_kernel_basis(M([[1, 0, 1], [0, 1, 1]]))
        assert k.cols == 1
        col = k.column(0)
        assert col in ((-1, -1, 1), (1, 1, -1))

    def test_saturated_and_primitive_random(self):
        import math

        rnd = random.Random(11)
        for _ in range(60):
            r, c = rnd.randint(1, 3), rnd.randint(1, 5)
            m = M([[rnd.randint(-2, 2) for _ in range(c)] for _ in range(r)])
            k = integer_kernel_basis(m)
            prod = m * k
            assert all(x == 0 for row in prod.entries for x in row)
            for j in range(k.cols):
                assert math.gcd(*k.column(j)) == 1
            for v in brute_kernel_vectors(m, 3):
                assert in_integer_span(k.columns(), v)


class TestUnimodularity:
    def test_incidence_matrices_are_tu(self):
        from flowlattice.matroid import from_graph
        from conftest import BOWTIE, K4, TRIANGLE

        for edges in (TRIANGLE, K4, BOWTIE):
            assert is_totally_unimodular(from_graph(edges).rep)

    def test_tu_false_with_witness(self):
        res = is_totally_unimodular(M([[1, 1], [-1, 1]]))
        assert not res
        assert res.witness_rows == (0, 1) and res.witness_cols == (0, 1)
        assert res.witness_det == 2

    def test_single_entry_two(self):
        res = is_totally_unimodular(M([[2]]))
        assert not res and res.witness_det == 2

    def test_wu_but_not_tu(self):
        m = M([[2, 1], [1, 1]])
        assert is_weakly_unimodular(m)
        assert not is_totally_unimodular(m)

    def test_wu_single_two(self):
        assert not is_weakly_unimodular(M([[2]]))

    def test_tu_implies_wu_random(self):
        rnd = random.Random(3)
        for _ in range(200):
            r, c = rnd.randint(1, 4), rnd.randint(1, 4)
            m = M([[rnd.choice((-1, 0, 1)) for _ in range(c)] for _ in range(r)])
            if is_totally_unimodular(m):
                assert is_weakly_unimodular(m)

    def test_wu_with_identity_is_tu(self):
        # stack I_s on random blocks, filter by WU, conclude TU
        rnd = random.Random(5)
        hits = 0
        while hits < 50:
            s, extra = rnd.randint(1, 3), rnd.randint(1, 3)
            block = [[rnd.choice((-1, 0, 1)) for _ in range(s)] for _ in range(extra)]
            m = IntegerMatrix.from_rows(block).vstack(IntegerMatrix.identity(s))
            if is_weakly_unimodular(m):
                hits += 1
                assert is_totally_unimodular(m)

    def test_bound_error(self):
        big = IntegerMatrix.identity(11)
        with pytest.raises(BoundExceededError):
            is_totally_unimodular(big)
        assert is_totally_unimodular(big, bound=11)


def _plant_rows(rnd, rows, width, count):
    """Insert count zero, unit, parallel or negated-parallel rows at random places."""
    for _ in range(count if width else 0):
        kind = rnd.choice(("zero", "unit", "parallel", "negated"))
        new = [0] * width
        if kind == "unit":
            new[rnd.randrange(width)] = rnd.choice((1, -1))
        elif kind != "zero" and rows:
            src = rnd.choice(rows)
            new = list(src) if kind == "parallel" else [-x for x in src]
        rows.insert(rnd.randint(0, len(rows)), new)
    return rows


def _planted_matrix(rnd, base_rows):
    rows = _plant_rows(rnd, [list(r) for r in base_rows], len(base_rows[0]), rnd.randint(0, 3))
    cols = _plant_rows(rnd, [list(c) for c in zip(*rows)], len(rows), rnd.randint(0, 3))
    return M(list(zip(*cols)))


def _signed_interval_rows(rnd, r, c):
    """Consecutive-ones rows with random row and column signs: TU."""
    col_signs = [rnd.choice((1, -1)) for _ in range(c)]
    rows = []
    for _ in range(r):
        lo = rnd.randrange(c)
        hi = rnd.randint(lo, c - 1)
        sign = rnd.choice((1, -1))
        rows.append([sign * col_signs[j] if lo <= j <= hi else 0 for j in range(c)])
    return rows


def _assert_same_check(m, **kw):
    got, want = is_totally_unimodular(m, **kw), tu_by_enumeration(m, **kw)
    assert (got.ok, got.witness_rows, got.witness_cols, got.witness_det) == \
        (want.ok, want.witness_rows, want.witness_cols, want.witness_det)
    return got.ok


class TestTotallyUnimodularCore:
    """The core-reduced decision against full enumeration of the input."""

    def test_planted_lines_on_tu_and_random_bases(self):
        rnd = random.Random(31)
        verdicts = []
        for trial in range(1000):
            r, c = rnd.randint(1, 4), rnd.randint(1, 4)
            if trial % 2:
                base = _signed_interval_rows(rnd, r, c)
            else:
                base = [[rnd.choice((-1, 0, 1)) for _ in range(c)] for _ in range(r)]
            verdicts.append(_assert_same_check(_planted_matrix(rnd, base)))
        assert 0 < sum(verdicts) < len(verdicts)

    def test_entries_outside_unit_range(self):
        rnd = random.Random(37)
        for _ in range(150):
            r, c = rnd.randint(1, 4), rnd.randint(1, 4)
            base = [[rnd.randint(-2, 2) for _ in range(c)] for _ in range(r)]
            _assert_same_check(_planted_matrix(rnd, base))
        assert not _assert_same_check(M([[1, 0, 0], [1, 1, 0], [0, 0, 3]]))

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 4), (4, 0)):
            assert _assert_same_check(IntegerMatrix.empty(rows, cols))

    def test_bound_gates_the_input_not_the_core(self):
        # the core of I_4 and of [K; K; I_2] is small; the gate still reads the input
        stacked = M([[1, 1], [1, 1], [-1, -1], [1, 0], [0, 1]])
        for m, b in ((IntegerMatrix.identity(4), 3), (stacked, 1)):
            for check in (is_totally_unimodular, tu_by_enumeration):
                with pytest.raises(BoundExceededError) as exc:
                    check(m, bound=b)
                assert (exc.value.what, exc.value.size, exc.value.bound) == \
                    ("min(rows, cols)", min(m.rows, m.cols), b)
            assert _assert_same_check(m, bound=b + 1)

    @pytest.mark.parametrize("name", ["K4", "K5", "K33", "Petersen"])
    def test_core_of_stacked_certificate_within_k(self, name):
        import networkx as nx

        from flowlattice.matroid import coordinatize, first_base, from_graph

        graphs = {
            "K4": nx.complete_graph(4), "K5": nx.complete_graph(5),
            "K33": nx.complete_bipartite_graph(3, 3), "Petersen": nx.petersen_graph(),
        }
        m = from_graph(list(graphs[name].edges()))
        k = -coordinatize(m, first_base(m)).l_block
        stacked = k.vstack(k).vstack(-k).vstack(IntegerMatrix.identity(k.cols))
        core = _tu_core(stacked)
        assert core.rows <= k.rows and core.cols <= k.cols


class TestEquality:
    def test_column_count_of_nonempty_matrix_ignored(self):
        a = IntegerMatrix(((1, 0), (0, 1)), empty_cols=7)
        b = IntegerMatrix.from_rows([[1, 0], [0, 1]])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert IntegerMatrix(((), ()), empty_cols=4) == IntegerMatrix.from_rows([(), ()])

    def test_shape_and_labels_still_count(self):
        assert IntegerMatrix.empty(0, 3) != IntegerMatrix.empty(0, 5)
        assert IntegerMatrix.empty(0, 3) == IntegerMatrix((), empty_cols=3)
        assert IntegerMatrix.empty(0, 0) != IntegerMatrix.empty(2, 0)
        rows = [[1, 2], [3, 4]]
        assert IntegerMatrix.from_rows(rows, col_labels=("a", "b")) != \
            IntegerMatrix.from_rows(rows)
        assert IntegerMatrix.from_rows(rows) != IntegerMatrix.from_rows([[1, 2], [3, 5]])


class TestSharp:
    def test_basic(self):
        assert sharp(M([[-1, 0], [1, -1]])) == M([[1, 0], [1, 1]])

    def test_sign_invariance(self):
        m = M([[-1, 2], [0, -3]])
        assert sharp(m) == sharp(-m)

    def test_nonnegative_fixed_point(self):
        x = M([[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
        assert sharp(x) == x


class TestTextFormat:
    def test_round_trip(self):
        m = M([[1, -2, 3], [0, 5, -6]])
        assert parse_matrix(m.text()) == m

    def test_comments_ignored(self):
        assert parse_matrix("# c\n2 2\n1 0 # trailing\n0 1") == IntegerMatrix.identity(2)

    def test_bad_count(self):
        from flowlattice.errors import FormatError

        with pytest.raises(FormatError):
            parse_matrix("2 2\n1 0 0 1 1")
