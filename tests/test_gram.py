import itertools
import random

import pytest

from flowlattice.errors import BoundExceededError, DimensionError, FormatError
from flowlattice.flows import fundamental_basis
from flowlattice.gram import (
    GramMatrix,
    _classify_table,
    build_x,
    classify,
    f_table,
    g_table,
    is_g_feasible,
    parse_gram,
    tu_signing,
)
from flowlattice.intmat import (
    IntegerMatrix,
    bounds,
    is_totally_unimodular,
    is_weakly_unimodular,
    sharp,
)
from flowlattice.matroid import from_graph

from conftest import K4, bridgeless_graphs, random_graph
from elimination_oracles import bases
from gram_oracles import (
    SupportFamily,
    TripleSign,
    delta,
    dense_f_table,
    dense_g_table,
    f_value,
    g_value,
    phi_gamma,
    skeleton_by_two_sorts,
    triple_sign,
)

# frozen 4x4 study matrices
A_POS = [[3, 1, 1, 2], [1, 3, 1, 2], [1, 1, 3, 2], [2, 2, 2, 5]]
A_NN = [[2, 1, 0, -1], [1, 2, 1, 0], [0, 1, 2, 1], [-1, 0, 1, 2]]

X_POS = [
    [1, 1, 1, 1],
    [1, 0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
]
X_NN = [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]


def G(rows):
    return GramMatrix.from_rows(rows)


class TestGramMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(FormatError):
            G([[1, 2], [3, 1]])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(FormatError):
            G([[0, 1], [1, 1]])

    def test_text_round_trip(self):
        a = G(A_POS)
        assert parse_gram(a.text()).mat == a.mat


class TestSupportStatistics:
    def test_phi_gamma_hand_example(self):
        # C1 = {0,1}, C2 = {1,2} on ground {0,1,2}
        fam = SupportFamily.from_sets(3, [{0, 1}, {1, 2}])
        assert phi_gamma(fam, [0, 1]) == (1, 1)   # both contain only 1
        assert phi_gamma(fam, [0]) == (2, 1)      # exactly-C1 is {0}
        assert phi_gamma(fam, []) == (3, 0)       # every element is covered

    def test_gamma_partitions_ground(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            s = rng.randint(1, 4)
            fam = SupportFamily.from_sets(
                n,
                [
                    {e for e in range(n) if rng.random() < 0.5}
                    for _ in range(s)
                ],
            )
            total = 0
            for k in range(s + 1):
                for sub in itertools.combinations(range(s), k):
                    total += phi_gamma(fam, sub)[1]
            assert total == n


class TestTriples:
    def test_signs(self):
        a = G([[1, 1, -1], [1, 1, 1], [-1, 1, 1]])
        assert triple_sign(a, (0, 1, 2)) is TripleSign.NEGATIVE
        b = G([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        assert triple_sign(b, (0, 1, 2)) is TripleSign.POSITIVE
        c = G([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
        assert triple_sign(c, (0, 1, 2)) is TripleSign.NULL

    def test_repeated_indices_rejected(self):
        with pytest.raises(DimensionError):
            triple_sign(G(A_POS), (1, 1, 2))

    def test_delta_of_study_matrices(self):
        # every triple of A_NN meets a zero entry, so none is negative
        assert delta(G(A_POS)) == ()
        assert delta(G(A_NN)) == ()

    def test_delta_nontrivial(self):
        a = G([[1, 1, -1], [1, 1, 1], [-1, 1, 1]])
        assert delta(a) == ((0, 1, 2),)


class TestFAndG:
    def test_f_cases(self):
        a = G(A_NN)
        assert f_value(a, []) == 0
        assert f_value(a, [2]) == 2
        assert f_value(a, [0, 1]) == 1
        assert f_value(a, [0, 2]) == 0     # a_02 = 0
        assert f_value(a, [0, 1, 3]) == 0  # min |a_ij| over the pairs is 0

    def test_g_tables_of_study_matrices(self):
        a = G(A_POS)
        t = g_table(a)
        # positive values: the four singletons, the three pairs {i,4}, the full set
        def mask(idx):
            return sum(1 << i for i in idx)

        assert t[mask([0, 1, 2, 3])] == 1
        for i in range(3):
            assert t[mask([i, 3])] == 1
        for i in range(4):
            assert t[mask([i])] == 1
        assert t[0] == -8
        positives = sum(v for m, v in t.items() if m and v > 0)
        assert positives == 8

    def test_g_value_matches_table(self, rng):
        for a in (G(A_POS), G(A_NN)):
            t = g_table(a)
            for mask in range(1 << a.order):
                idx = [i for i in range(a.order) if mask >> i & 1]
                assert g_value(a, idx) == t.get(mask, 0)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            with bounds(subset=3):
                g_table(G(A_POS))


class TestClassify:
    def test_study_matrices(self):
        assert classify(G(A_POS)).g_positive
        cls = classify(G(A_NN))
        assert cls.g_nonnegative and not cls.g_positive

    def test_not_nonnegative_with_witness(self):
        bad = G([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        cls = classify(bad)
        assert not cls.g_nonnegative
        with bounds(subset=3):
            t = g_table(bad)
        mask = sum(1 << i for i in cls.witness)
        assert t[mask] < 0

    def test_identity_is_g_positive(self):
        assert classify(G([[1, 0], [0, 1]])).g_positive

    def test_flow_grams_are_g_positive(self):
        for edges in (K4, [(1, 2), (2, 3), (3, 1), (1, 3)]):
            lat = fundamental_basis(from_graph(edges))
            assert classify(lat.gram).g_positive


class TestBuildX:
    def test_golden_positive(self):
        x = build_x(G(A_POS))
        assert [list(r) for r in x.entries] == X_POS

    def test_golden_nonnegative_multiset(self):
        x = build_x(G(A_NN))
        assert sorted(x.entries) == sorted(tuple(r) for r in X_NN)

    def test_row_count_is_minus_g_empty(self):
        for a in (G(A_POS), G(A_NN)):
            assert build_x(a).rows == -g_table(a)[0]

    def test_column_gram_is_sharp(self):
        for a in (G(A_POS), G(A_NN)):
            x = build_x(a)
            assert x.transpose() * x == sharp(a.mat)

    def test_rejects_bad_input(self):
        with pytest.raises(FormatError):
            build_x(G([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))


class TestSigning:
    def test_refuted_for_positive_study_matrix(self):
        assert tu_signing(IntegerMatrix.from_rows(X_POS)) is None

    def test_found_for_nonnegative_study_skeleton(self):
        x = IntegerMatrix.from_rows(X_NN)
        assert is_totally_unimodular(x)
        u = tu_signing(x)
        assert u is not None and is_totally_unimodular(u)
        assert sharp(u) == x

    def test_incidence_skeleton(self):
        m = from_graph(K4)
        x = sharp(m.rep)
        u = tu_signing(x)
        assert u is not None and is_totally_unimodular(u)

    def test_trivial_cases(self):
        ones = IntegerMatrix.from_rows([[1, 1], [1, 1]])
        u = tu_signing(ones)
        assert u is not None and is_totally_unimodular(u)


class TestFeasibility:
    def test_positive_study_matrix_infeasible(self):
        res = is_g_feasible(G(A_POS))
        assert not res and res.reason == "NO-MATCHING-SIGNING"

    def test_nonnegative_study_matrix_infeasible(self):
        res = is_g_feasible(G(A_NN))
        assert not res and res.reason == "NO-MATCHING-SIGNING"

    def test_shifted_study_matrix_still_infeasible(self):
        shifted = G([
            [v + (1 if i == j else 0) for j, v in enumerate(row)]
            for i, row in enumerate(A_NN)
        ])
        assert classify(shifted).g_positive
        assert not is_g_feasible(shifted)

    def test_not_nonnegative_reason(self):
        res = is_g_feasible(G([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
        assert not res and res.reason == "NOT-G-NONNEGATIVE S={2}"

    def test_single_four_feasible(self):
        res = is_g_feasible(G([[4]]))
        assert res
        assert tuple(res.certificate.columns()) == ((1, 1, 1, 1),)
        q = IntegerMatrix.from_rows([[2]])
        assert not is_weakly_unimodular(q)

    def test_flow_gram_feasible_with_exact_certificate(self, k4):
        lat = fundamental_basis(k4)
        res = is_g_feasible(lat.gram)
        assert res
        c = res.certificate
        assert is_totally_unimodular(c)
        assert c.transpose() * c == lat.gram.mat

    def test_negated_columns_still_feasible(self, k4):
        lat = fundamental_basis(k4)
        flipped = IntegerMatrix.from_rows([
            [v * (-1 if j == 1 else 1) for j, v in enumerate(row)]
            for row in lat.gram.mat.entries
        ])
        flipped = IntegerMatrix.from_rows([
            [v * (-1 if i == 1 else 1) for v in row]
            for i, row in enumerate(flipped.entries)
        ])
        res = is_g_feasible(GramMatrix(flipped))
        assert res
        assert res.certificate.transpose() * res.certificate == flipped


def sweep_grams() -> list:
    """The fundamental Gram matrices of every base of every bridgeless graph
    on at most 5 vertices: the 418 of the reconstruction sweep."""
    grams = [fundamental_basis(m, base).gram
             for m in map(from_graph, bridgeless_graphs(5)) for base in bases(m)]
    assert len(grams) == 418
    return grams


def random_small_grams(rng) -> list:
    """1,500 random Gram matrices of order 0-7: more than 500 of them hold a
    zero entry and more than 500 a negative triple."""
    grams = []
    for _ in range(1500):
        s = rng.randint(0, 7)
        rows = [[0] * s for _ in range(s)]
        for i in range(s):
            rows[i][i] = rng.randint(1, 6)
            for j in range(i):
                rows[i][j] = rows[j][i] = rng.choice((0, 0, 1, -1, 2, -2, 3))
        grams.append(GramMatrix.from_rows(rows))
    assert sum(any(0 in r for r in a.mat.entries) for a in grams) > 500
    assert sum(bool(delta(a)) for a in grams) > 500
    return grams


class TestFTableFromSmallerMasks:
    """`f_table` builds each member of the positive complex from two
    smaller ones; `f_value` tests every triple and pair of each mask
    afresh, and the table holds exactly the empty mask and the masks
    where it is positive."""

    @staticmethod
    def by_f_value(a):
        values = {mask: f_value(a, [i for i in range(a.order) if mask >> i & 1])
                  for mask in range(1 << a.order)}
        return {mask: v for mask, v in values.items() if v or not mask}

    def test_reconstruction_sweep(self):
        for a in sweep_grams():
            assert f_table(a) == self.by_f_value(a)

    def test_random_with_zeros_and_negative_triples(self, rng):
        for a in random_small_grams(rng):
            assert f_table(a) == self.by_f_value(a)


class TestSparseTablesAgainstDense:
    """`f_table` and `g_table` hold exactly the empty mask and the masks
    with f > 0 (the positive complex), in ascending order, with the dense
    tables' values there; the dense g is 0 everywhere else.  On a
    g-nonnegative matrix `build_x` sorts its rows once and gives the rows
    the earlier skeleton gave by sorting the singletons apart."""

    @staticmethod
    def check(a):
        f, g = f_table(a), g_table(a)
        dense_f, dense_g = dense_f_table(a), dense_g_table(a)
        keys = [mask for mask, v in enumerate(dense_f) if v or not mask]
        assert list(f) == list(g) == keys
        assert all(f[mask] == dense_f[mask] and g[mask] == dense_g[mask] for mask in keys)
        assert not any(dense_g[mask] for mask in set(range(len(dense_g))).difference(keys))
        cls, table = _classify_table(a)
        if cls.g_nonnegative:
            assert build_x(a) == skeleton_by_two_sorts(cls, table)

    def test_random_with_zeros_and_negative_triples(self, rng):
        for a in random_small_grams(rng):
            self.check(a)

    def test_reconstruction_sweep(self):
        for a in sweep_grams():
            self.check(a)

    @pytest.mark.parametrize("s", range(14, 17))
    def test_fundamental_grams_at_scale(self, s):
        a = fundamental_basis(from_graph(random_graph(random.Random(s), 8, s))).gram
        assert a.order == s
        self.check(a)
