"""Rank-0 lattices and the definiteness message."""

import pytest

from flowlattice.errors import DefinitenessError
from flowlattice.flows import FlowVector, enumerate_coefficients, fundamental_basis, gram_of
from flowlattice.gram import GramMatrix
from flowlattice.intmat import IntegerMatrix
from flowlattice.matroid import from_graph

from conftest import PATH2


class TestRankZero:
    def test_empty_columns_keep_their_count(self):
        m = IntegerMatrix.from_columns([(), ()])
        assert (m.rows, m.cols) == (0, 2)

    def test_forest_vector_is_zero(self):
        lat = fundamental_basis(from_graph(PATH2 + [(3, 4)]))
        assert lat.lattice_rank == 0
        assert lat.vector(()) == FlowVector((0, 0, 0))


class TestDefinitenessMessage:
    MESSAGE = "leading principal minor of order 2 is {}; the Gram matrix is not positive definite"

    def test_indefinite_gram(self):
        with pytest.raises(DefinitenessError) as exc:
            list(enumerate_coefficients(GramMatrix.from_rows([[1, 2], [2, 1]]), 3))
        assert str(exc.value) == self.MESSAGE.format(-3)

    def test_dependent_columns(self):
        with pytest.raises(DefinitenessError) as exc:
            gram_of([[1, 1, 0], [2, 2, 0]])
        assert str(exc.value) == self.MESSAGE.format(0)

