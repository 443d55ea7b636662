import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlattice import intmat
from flowlattice.errors import BoundExceededError, DimensionError, FlowLatticeError, FormatError
from flowlattice.intmat import (
    IntegerMatrix,
    _mask_blocks,
    _sign_masks,
    _tu_core,
    bounds,
    determinant,
    is_totally_unimodular,
    is_weakly_unimodular,
    parse_matrix,
    rank,
    sharp,
)
from flowlattice.network import _mask_elements

from conftest import K4, det_cofactor
from elimination_oracles import integer_kernel_basis
from tu_oracles import (blocks, eulerian_witness, least_witness, tu_by_enumeration,
                        tu_core, tu_verdict_by_tuples, wu_by_enumeration)


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
        # the odd 11-cycle: its one minor with |det| > 1 is itself
        cycle = M([[int(j in (i, (i + 1) % 11)) for j in range(11)] for i in range(11)])
        with pytest.raises(BoundExceededError) as exc:
            is_totally_unimodular(cycle)
        assert (exc.value.what, exc.value.size, exc.value.bound) == \
            ("Eulerian search order", 11, 10)
        with bounds(tu=11):
            assert is_totally_unimodular(cycle).witness_det == 2


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


def _assert_same_check(m):
    """TU and WU of m equal the enumeration oracles' (ok, rows, cols, det);
    returns the TU verdict."""
    got = [check(m) for check in (is_totally_unimodular, is_weakly_unimodular)]
    assert got == [oracle(m) for oracle in (tu_by_enumeration, wu_by_enumeration)]
    return got[0].ok


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
            assert _assert_same_check(IntegerMatrix.zeros(rows, cols))

    def test_bound_gates_the_search_not_the_input(self):
        """Stripping and realization run at any size; only an Eulerian or
        maximal-minor search is gated, on the order it reaches."""
        det2 = M([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        padded = det2.hstack(IntegerMatrix.identity(3)).vstack(M([[1, 1, 0, 0, 0, 0]] * 2))
        wu_det2 = wu_by_enumeration(det2)
        with bounds(tu=1):
            assert is_totally_unimodular(IntegerMatrix.identity(40))
            assert is_weakly_unimodular(M([[1, 1], [1, 1], [-1, -1], [1, 0], [0, 1]]))
        with bounds(tu=2):
            with pytest.raises(BoundExceededError) as exc:
                is_totally_unimodular(det2)
            assert (exc.value.what, exc.value.size, exc.value.bound) == \
                ("Eulerian search order", 3, 2)
            # a last pivot |d| > 1 names the least base with one determinant
            assert is_weakly_unimodular(det2) == wu_det2 and not wu_det2
            with pytest.raises(BoundExceededError):
                is_totally_unimodular(padded)
        # a "no" with |d| = 1 still enumerates the maximal minors
        with bounds(tu=1), pytest.raises(BoundExceededError) as exc:
            is_weakly_unimodular(M([[1, 0, 1, 1], [0, 1, 1, -1]]))
        assert (exc.value.what, exc.value.size, exc.value.bound) == \
            ("maximal-minor search order", 2, 1)
        assert _assert_same_check(padded) is False

    @pytest.mark.parametrize("name", ["K4", "K5", "K33", "Petersen"])
    def test_core_of_stacked_certificate_within_k(self, name):
        import networkx as nx

        from flowlattice.matroid import coordinatize, first_base, from_graph

        graphs = {
            "K4": nx.complete_graph(4), "K5": nx.complete_graph(5),
            "K33": nx.complete_bipartite_graph(3, 3), "Petersen": nx.petersen_graph(),
        }
        m = from_graph(list(graphs[name].edges()))
        k = -coordinatize(m, first_base(m)).matrix.select_columns(range(m.rank, m.size))
        stacked = k.vstack(k).vstack(-k).vstack(IntegerMatrix.identity(k.cols))
        rows, cols = _tu_core(*_sign_masks(stacked.entries))
        assert rows.bit_count() <= k.rows and cols.bit_count() <= k.cols


def _sign_matrix(rnd, twos=True):
    """A seeded matrix up to 8 x 8, 1 x n and n x 1 included, with entries
    in {0, 1} or {0, +-1}, and a rare 2 in one matrix of four; each row and
    column is zeroed with probability 1/8.  With twos=False, entries are
    in {0, +-1}."""
    r, c = rnd.choice(((1, rnd.randint(1, 7)), (rnd.randint(1, 7), 1),
                       (rnd.randint(2, 8), rnd.randint(2, 8))))
    zero_rows = {i for i in range(r) if rnd.random() < 0.125}
    zero_cols = {j for j in range(c) if rnd.random() < 0.125}
    if twos:
        values = rnd.choice(((0, 1), (0, 1, -1))) + (2,) * (rnd.random() < 0.25)
        weights = (1, 1, 1, 1 / 20)[-len(values):] if 2 in values else None
        draw = lambda: rnd.choices(values, weights)[0]
    else:
        draw = lambda: rnd.choice((0, 1, -1))
    return M([[0 if i in zero_rows or j in zero_cols else draw()
               for j in range(c)] for i in range(r)])


class TestSignMaskScans:
    """The one witness search against orders 1 and 2 by brute force and
    Camion's test on tuples of entries from order 3 (`tu_oracles`); each
    single order from 2 on against Camion's test alone."""

    def test_eulerian_witness_against_tuples(self):
        rnd = random.Random(47)
        found = [0] * 7
        with bounds(tu=6):
            for _ in range(1500):
                m = _sign_matrix(rnd, twos=False)
                for k in range(2, 7):
                    got = intmat._least_witness(m.entries, k, k)
                    assert got == eulerian_witness(m, k)
                    found[k] += got is not None
        assert min(found[2:5]) > 50 and found[5] > 5 and found[6] > 0

    def test_order2_witness_against_tuples(self):
        rnd = random.Random(53)
        found = 0
        for _ in range(2000):
            m = _sign_matrix(rnd, twos=False)
            got = intmat._least_witness(m.entries, 2, 2)
            assert got == eulerian_witness(m, 2)
            found += got is not None
        assert 300 < found < 1700

    def test_every_window(self):
        """Every (start, stop) window equals the oracle's; a window whose
        lower orders hold no witness gives a minor with |det| > 1.  Only
        start 1 is tried on a matrix with an entry 2, which every later
        order excludes."""
        rnd = random.Random(47)
        least, searched = [0] * 9, [0] * 9
        with bounds(tu=8):
            for _ in range(1500):
                m = _sign_matrix(rnd)
                top = min(m.rows, m.cols)
                per_order = [least_witness(m, k, k) for k in range(top + 1)]
                starts = range(1, 2 if per_order[1:2] != [None] else top + 1)
                for start in starts:
                    for stop in range(start - 1, top + 1):
                        got = intmat._least_witness(m.entries, start, stop)
                        assert got == least_witness(m, start, stop)
                        assert got == next(filter(None, per_order[start:stop + 1]), None)
                    assert intmat._least_witness(m.entries, start) == got
                    if got and not any(per_order[1:start]):
                        assert abs(determinant(m.submatrix(*got))) > 1
                        least[len(got[0])] += start == 1
                for k, found in enumerate(per_order):
                    searched[k] += found is not None
        assert min(least[1:4]) > 30 and least[4] > 0
        assert min(searched[3:5]) > 30 and searched[5] > 5 and searched[6] > 0

    def test_polynomial_orders_are_not_gated(self):
        """Orders 1 and 2 answer under any TU bound; order 3 is refused."""
        det2 = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        with bounds(tu=1):
            assert intmat._least_witness(((1, 0), (0, 3))) == ((1,), (1,))
            assert intmat._least_witness(((1, 1), (1, -1))) == ((0, 1), (0, 1))
            assert intmat._least_witness(det2, stop=2) is None
            with pytest.raises(BoundExceededError, match="Eulerian search order = 3 > 1"):
                intmat._least_witness(det2)

    def test_order2_witness_realizes_nothing(self, monkeypatch):
        """A planted [[1, 1], [1, -1]] is read by the row-pair scan: no
        graph realization runs, and the witness is the enumeration's."""
        def refuse(*args):
            raise AssertionError("a graph realization ran")

        monkeypatch.setattr(intmat, "network_scaling", refuse)
        rnd = random.Random(59)
        for _ in range(200):
            r, c = rnd.randint(2, 7), rnd.randint(2, 7)
            x = [[rnd.choice((0, 0, 1, -1)) for _ in range(c)] for _ in range(r)]
            (i, k), (j, l) = rnd.sample(range(r), 2), rnd.sample(range(c), 2)
            x[i][j], x[i][l], x[k][j], x[k][l] = 1, 1, 1, -1
            got = is_totally_unimodular(M(x))
            assert len(got.witness_rows) == 2
            assert got == tu_by_enumeration(M(x))


def _cut_out(rows, row_mask, col_mask):
    """The entries of rows on the rows and columns in the masks, in order."""
    cols = list(_mask_elements(col_mask))
    return [tuple(rows[i][j] for j in cols) for i in _mask_elements(row_mask)]


def _index_blocks(col_signs, row_mask, col_mask):
    """`_mask_blocks` as (rows, cols) index lists."""
    return [(list(_mask_elements(r)), list(_mask_elements(c)))
            for r, c in _mask_blocks(col_signs, row_mask, col_mask)]


class TestBlocks:
    def test_against_breadth_first_search(self):
        """The merge of column masks against the breadth-first search
        (`tu_oracles.blocks`), on seeded sparse matrices with every entry
        nonnegative: the same row and column indices, block by block."""
        rnd = random.Random(67)
        many = 0
        for _ in range(600):
            r, c = rnd.randint(0, 12), rnd.randint(0, 12)
            density = rnd.choice((0.05, 0.1, 0.2, 0.4))
            m = IntegerMatrix(tuple(tuple(i * 12 + j + 1 if rnd.random() < density else 0
                                          for j in range(c)) for i in range(r)),
                              empty_cols=c)
            want = blocks(m)
            assert _index_blocks(_sign_masks(m.entries)[1], (1 << r) - 1, (1 << c) - 1) == want
            many += len(want) >= 4
        assert many > 20


def _planted(rnd, rows):
    """rows with one to four planted lines, each a zero, unit, duplicate or
    negated row or column inserted at a random place; returns the rows and
    the kinds planted."""
    kinds = []
    for _ in range(rnd.randint(1, 4)):
        transpose = rnd.random() < 0.5
        if transpose:
            rows = [list(col) for col in zip(*rows)]
        width = len(rows[0]) if rows else 0
        kind = rnd.choice(("zero", "unit", "duplicate", "negated"))
        if kind == "zero" or not width:
            line, kind = [0] * width, "zero"
        elif kind == "unit":
            line = [0] * width
            line[rnd.randrange(width)] = rnd.choice((1, -1))
        else:
            line = [x if kind == "duplicate" else -x for x in rnd.choice(rows)]
        rows.insert(rnd.randint(0, len(rows)), line)
        kinds.append(kind)
        if transpose:
            rows = [list(col) for col in zip(*rows)]
    return tuple(map(tuple, rows)), kinds


class TestMaskCore:
    """The core stripped on (plus, minus) masks against the tuple core it
    replaced (`tu_oracles.tu_core`): its rows, cut out of the input, are
    the same in the same order; its mask blocks are those the breadth-first
    search reads off that core, and the verdict is the one the tuple core's
    blocks give."""

    def test_against_tuple_core(self):
        rnd = random.Random(73)
        planted, verdicts = dict.fromkeys(("zero", "unit", "duplicate", "negated"), 0), [0, 0]
        outside = 0
        for _ in range(5000):
            rows, kinds = _planted(rnd, [list(r) for r in _sign_matrix(rnd).entries])
            want = tu_core(rows)
            outside += want is None
            if want is not None:
                row_signs, col_signs = _sign_masks(rows)
                live_rows, live_cols = _tu_core(row_signs, col_signs)
                core = _cut_out(rows, live_rows, live_cols)
                assert core == want
                # the blocks on the input's indices, as the oracle numbers the core's
                at_row = {i: k for k, i in enumerate(_mask_elements(live_rows))}
                at_col = {j: k for k, j in enumerate(_mask_elements(live_cols))}
                got = [([at_row[i] for i in r], [at_col[j] for j in c])
                       for r, c in _index_blocks(col_signs, live_rows, live_cols)]
                assert got == blocks(IntegerMatrix(tuple(core)))
            verdict = intmat._tu_verdict(rows)
            assert verdict == tu_verdict_by_tuples(rows)
            verdicts[verdict] += 1
            for kind in kinds:
                planted[kind] += 1
        assert min(planted.values()) > 2500 and min(verdicts) > 500 and outside > 50


def _identity_then(rnd, k, extra):
    """[I_k | X] for a random k x extra {-1, 0, 1} matrix X, columns shuffled."""
    rows = [[int(i == j) for j in range(k)] + [rnd.choice((-1, 0, 1)) for _ in range(extra)]
            for i in range(k)]
    perm = rnd.sample(range(k + extra), k + extra)
    return [[r[j] for j in perm] for r in rows]


def _combine_rows(rnd, rows, count):
    """rows with count random {-1, 0, 1} combinations of them inserted."""
    rows = [list(r) for r in rows]
    for _ in range(count):
        coeffs = [rnd.choice((-1, 0, 1)) for _ in rows]
        new = [sum(a * x for a, x in zip(coeffs, col)) for col in zip(*rows)]
        rows.insert(rnd.randint(0, len(rows)), new)
    return rows


class TestWeaklyUnimodularOracle:
    """The elimination verdict against enumerating the maximal minors."""

    def test_full_rank_identity_blocks(self):
        """[I | X] is WU iff TU; U [I | X] keeps WU when det U = +-1 and
        loses it when det U = 2, whatever it does to TU."""
        rnd = random.Random(41)
        verdicts = []
        for trial in range(300):
            k, extra = rnd.randint(1, 4), rnd.randint(0, 4)
            rows = _identity_then(rnd, k, extra)
            if trial % 3 and k > 1:
                # add row j to row i (det 1), or double row i (det 2)
                i, j = rnd.sample(range(k), 2)
                u = [[int(a == b) for b in range(k)] for a in range(k)]
                if trial % 3 == 1:
                    u[i][j] = 1
                else:
                    u[i][i] = 2
                rows = (M(u) * M(rows)).entries
            m = M(rows) if rnd.random() < 0.5 else M(rows).transpose()
            _assert_same_check(m)
            verdicts.append(is_weakly_unimodular(m).ok)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_least_base_witness(self, monkeypatch):
        """A last pivot |d| > 1 names the pivot columns (rows, when tall),
        the least base, with one determinant."""
        dets = []
        det = intmat.determinant

        def spy(m):
            dets.append(m)
            return det(m)

        monkeypatch.setattr(intmat, "determinant", spy)
        rnd = random.Random(61)
        at_base = 0
        for _ in range(400):
            r, c = rnd.randint(1, 5), rnd.randint(1, 5)
            m = M([[rnd.choice((-1, 0, 0, 1, 1, 2)) for _ in range(c)] for _ in range(r)])
            w = m if r <= c else m.transpose()
            _, pivot_cols, _, pivots, _ = intmat._gauss_jordan(w.entries)
            dets.clear()
            got = is_weakly_unimodular(m)
            assert got == wu_by_enumeration(m)
            if len(pivot_cols) == min(r, c) and abs(pivots[-1]) > 1:
                at_base += 1
                assert len(dets) == 1
                assert (got.witness_cols if r <= c else got.witness_rows) == tuple(pivot_cols)
        assert at_base > 100

    def test_rank_deficient(self):
        rnd = random.Random(43)
        deficient = 0
        for _ in range(200):
            r, c = rnd.randint(1, 3), rnd.randint(2, 6)
            base = [[rnd.choice((-1, 0, 1)) for _ in range(c)] for _ in range(r)]
            rows = _combine_rows(rnd, base, rnd.randint(1, c - r if c > r else 1))
            m = M(rows) if rnd.random() < 0.5 else M(rows).transpose()
            if rank(m) < min(m.rows, m.cols):
                deficient += 1
                assert is_weakly_unimodular(m)
            _assert_same_check(m)
        assert deficient > 100


def _padded_odd_cycle(n):
    """[C_n | I_n], C_n the 0/1 incidence of a cycle; det C_n = 2 for odd n."""
    return M([[int(j in (i, (i + 1) % n)) for j in range(n)] + [int(j == i) for j in range(n)]
              for i in range(n)])


@pytest.fixture
def no_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("a minor's determinant was computed")

    monkeypatch.setattr(intmat, "determinant", refuse)


class TestScale:
    """Inputs on which the memoized cofactor enumeration ran for seconds."""

    def test_padded_odd_cycle(self, monkeypatch):
        dets = []
        det = intmat.determinant

        def spy(m):
            dets.append(m)
            return det(m)

        monkeypatch.setattr(intmat, "determinant", spy)
        got = is_totally_unimodular(_padded_odd_cycle(9))
        nine = tuple(range(9))
        assert (got.ok, got.witness_rows, got.witness_cols, got.witness_det) == \
            (False, nine, nine, 2)
        assert len(dets) == 1

    def test_wu_yes_computes_no_minor(self, no_determinant):
        from flowlattice.matroid import from_graph

        edges = [(i, (i + 1) % 9) for i in range(9)] + [(i, (i + 2) % 9) for i in range(9)]
        rep = from_graph(edges).rep
        assert (rep.rows, rep.cols) == (8, 18)
        # adding twice row 1 to row 0 keeps every maximal minor and breaks TU
        u = M([[int(i == j) + 2 * ((i, j) == (0, 1)) for j in range(8)] for i in range(8)])
        for m in (rep, rep.transpose(), u * rep, M([[2, 1], [1, 1]])):
            assert is_weakly_unimodular(m)
        assert not intmat._tu_verdict((u * rep).entries)

    def test_late_wu_witness(self):
        """[I_8 | 0 | X] with the det -2 pair of X in its last two columns."""
        pair = [[1, 1], [1, -1]] + [[0, 0]] * 6
        m = M([[int(i == j) for j in range(8)] + [0] * 8 + pair[i] for i in range(8)])
        got = is_weakly_unimodular(m)
        assert (got.ok, got.witness_rows, got.witness_cols, got.witness_det) == \
            (False, tuple(range(8)), (2, 3, 4, 5, 6, 7, 16, 17), -2)
        assert got == wu_by_enumeration(m)


class TestConstructionCounts:
    """`IntegerMatrix` constructions, counted by wrapping `__post_init__`.
    Inside the TU layer a matrix is its rows, so a TU "yes" builds none."""

    INPUTS = Path(__file__).parent / "golden" / "inputs"

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        post_init = IntegerMatrix.__post_init__

        def counted(self):
            count[0] += 1
            post_init(self)

        monkeypatch.setattr(IntegerMatrix, "__post_init__", counted)
        return count

    def test_reconstruct_k4(self, built):
        from flowlattice.gram import parse_gram
        from flowlattice.rebuild import reconstruct_matroid

        a = parse_gram((self.INPUTS / "k4.gram").read_text())
        built[0] = 0
        assert reconstruct_matroid(a)
        assert built[0] == 6

    @pytest.mark.parametrize("basis,count", [("fundamental_basis", 6), ("cut_basis", 4)])
    def test_bases_k4(self, built, basis, count):
        """The form, its flow rows (fundamental only), the ground-order
        basis, B^T and B^T B, and the fundamental basis's membership check."""
        from flowlattice import flows
        from flowlattice.matroid import from_graph

        m = from_graph(K4)
        built[0] = 0
        getattr(flows, basis)(m)
        assert built[0] == count

    def test_tu_yes(self, built):
        m = parse_matrix((self.INPUTS / "tu.mat").read_text())
        built[0] = 0
        assert is_totally_unimodular(m)
        assert built[0] == 0

    @pytest.mark.parametrize("decision,count", [("cut_lattices_isometric", 4),
                                                ("mixed_isometric", 2)])
    def test_isometry_k4(self, built, decision, count):
        """Each dual is one matrix [-L^T I_s], and its standard form one."""
        from flowlattice import rebuild
        from flowlattice.matroid import from_graph

        m, n = from_graph(K4), from_graph([K4[i] for i in (3, 0, 5, 1, 4, 2)])
        built[0] = 0
        assert getattr(rebuild, decision)(m, n)
        assert built[0] == count


class TestBrokenInvariant:
    """A "no" verdict whose witness search finds nothing raises; it never
    turns into a "yes"."""

    def test_no_verdict_without_witness(self, monkeypatch):
        monkeypatch.setattr(intmat, "_tu_verdict", lambda m: False)
        for check, m in ((is_totally_unimodular, IntegerMatrix.identity(3)),
                         (is_weakly_unimodular, M([[1, 0, 1], [0, 1, 1]]))):
            with pytest.raises(FlowLatticeError, match="broken invariant"):
                check(m)


class TestEquality:
    def test_column_count_of_nonempty_matrix_ignored(self):
        a = IntegerMatrix(((1, 0), (0, 1)), empty_cols=7)
        b = IntegerMatrix.from_rows([[1, 0], [0, 1]])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert IntegerMatrix(((), ()), empty_cols=4) == IntegerMatrix.from_rows([(), ()])

    def test_shape_and_labels_still_count(self):
        assert IntegerMatrix.zeros(0, 3) != IntegerMatrix.zeros(0, 5)
        assert IntegerMatrix.zeros(0, 3) == IntegerMatrix((), empty_cols=3)
        assert IntegerMatrix.zeros(0, 0) != IntegerMatrix.zeros(2, 0)
        rows = [[1, 2], [3, 4]]
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
        with pytest.raises(FormatError):
            parse_matrix("2 2\n1 0 0 1 1")

    def test_empty_rows_bounded_by_lines(self):
        """A zero-width header is refused, before any row is built, when
        it names more rows than the text has lines."""
        with pytest.raises(FormatError):
            parse_matrix("100000000 0")
        assert parse_matrix("2 0\n\n") == IntegerMatrix.zeros(2, 0)


SHAPES = [(0, 0), (0, 3), (3, 0), (2, 3)]


def _sample(rows, cols):
    """A rows x cols matrix of distinct positive entries."""
    return IntegerMatrix(
        tuple(tuple(1 + i * cols + j for j in range(cols)) for i in range(rows)),
        empty_cols=cols,
    )


def _expect(m, rows, cols, entries):
    """m has the shape rows x cols and the given row lists as entries."""
    assert (m.rows, m.cols) == (rows, cols)
    assert m == (IntegerMatrix.from_rows(entries) if rows else IntegerMatrix.zeros(0, cols))


@pytest.mark.parametrize("rows, cols", SHAPES)
class TestEveryShape:
    """Each constructor and matrix-valued operation keeps both dimensions,
    whichever of them is zero."""

    def test_constructors(self, rows, cols):
        m = _sample(rows, cols)
        entries = [list(r) for r in m.entries]
        _expect(m, rows, cols, entries)
        _expect(IntegerMatrix.from_columns(m.columns(), nrows=rows), rows, cols, entries)
        _expect(parse_matrix(m.text()), rows, cols, entries)
        zero = [[0] * cols for _ in range(rows)]
        _expect(IntegerMatrix.zeros(rows, cols), rows, cols, zero)
        for n in (rows, cols):
            _expect(IntegerMatrix.identity(n), n, n,
                    [[int(i == j) for j in range(n)] for i in range(n)])

    def test_transpose_and_selections(self, rows, cols):
        m = _sample(rows, cols)
        entries = [list(r) for r in m.entries]
        _expect(m.transpose(), cols, rows, [list(c) for c in zip(*entries)] or [[]] * cols)
        _expect(m.transpose().transpose(), rows, cols, entries)
        _expect(m.select_columns(range(cols)), rows, cols, entries)
        _expect(m.select_rows(range(rows)), rows, cols, entries)
        _expect(m.submatrix([], range(cols)), 0, cols, [])
        _expect(m.submatrix(range(rows), []), rows, 0, [[]] * rows)
        _expect(m.select_rows(reversed(range(rows))), rows, cols, entries[::-1])

    def test_stacking(self, rows, cols):
        m = _sample(rows, cols)
        entries = [list(r) for r in m.entries]
        _expect(m.hstack(m), rows, 2 * cols, [r + r for r in entries])
        _expect(m.vstack(m), 2 * rows, cols, entries + entries)
        _expect(m.hstack(IntegerMatrix.zeros(rows, 0)), rows, cols, entries)
        _expect(m.vstack(IntegerMatrix.zeros(0, cols)), rows, cols, entries)

    def test_products(self, rows, cols):
        m = _sample(rows, cols)
        entries = [list(r) for r in m.entries]
        _expect(m * IntegerMatrix.identity(cols), rows, cols, entries)
        _expect(IntegerMatrix.identity(rows) * m, rows, cols, entries)
        _expect(m * IntegerMatrix.zeros(cols, 2), rows, 2, [[0, 0]] * rows)
        gram = [[sum(r[i] * r[j] for r in entries) for j in range(cols)] for i in range(cols)]
        _expect(m.transpose() * m, cols, cols, gram)

    def test_entrywise(self, rows, cols):
        m = _sample(rows, cols)
        entries = [list(r) for r in m.entries]
        _expect(-m, rows, cols, [[-x for x in r] for r in entries])
        _expect(m.scale(3), rows, cols, [[3 * x for x in r] for r in entries])
        _expect(sharp(-m), rows, cols, entries)

    def test_kernel(self, rows, cols):
        m = _sample(rows, cols)
        k = integer_kernel_basis(m)
        assert (k.rows, k.cols) == (cols, cols - rank(m))
        assert m * k == IntegerMatrix.zeros(rows, k.cols)


class TestRaggedColumns:
    def test_from_columns(self):
        with pytest.raises(DimensionError):
            IntegerMatrix.from_columns([[1, 0, 0], [0, 1]])

    def test_gram_of(self):
        from flowlattice.flows import gram_of

        with pytest.raises(DimensionError):
            gram_of([[1, 0, 0], [0, 1]])
