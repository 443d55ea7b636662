"""Rank-0 lattices, the definiteness message, the input refusals and the
command-line tag of each error type."""

import pytest

from flowlattice.cli import _parse_base, run
from flowlattice.errors import (
    BoundExceededError,
    DefinitenessError,
    DimensionError,
    FlowLatticeError,
    FormatError,
    MembershipError,
    NotABaseError,
)
from flowlattice.flows import (
    FlowLattice,
    FlowVector,
    enumerate_coefficients,
    fundamental_basis,
    gram_of,
)
from flowlattice.gram import GramMatrix, parse_gram
from flowlattice.intmat import IntegerMatrix
from flowlattice.matroid import RegularMatroid, from_graph, parse_matroid

from conftest import K4, PATH2, TRIANGLE


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



def row(*xs):
    return IntegerMatrix.from_rows([xs])


class TestInputRefusals:
    """Each malformed input is refused with its own error type and message."""

    @pytest.mark.parametrize("make,error,message", [
        (lambda: _parse_base("1,2,7", from_graph(K4)), FormatError,
         "base index out of range in '1,2,7'"),
        (lambda: _parse_base("0 1 2", from_graph(K4)), FormatError,
         "base index out of range in '0 1 2'"),
        (lambda: RegularMatroid(("a",), row(1, 0)), FormatError,
         "representation column count must equal ground size"),
        (lambda: RegularMatroid(("a", "a"), row(1, 0)), FormatError,
         "ground labels must be unique"),
        (lambda: from_graph([]), FormatError, "empty edge list"),
        (lambda: parse_matroid("graph 1 2\n"), FormatError,
         "matroid file must start with 'matroid r m'"),
        (lambda: parse_matroid("# nothing\n"), FormatError,
         "matroid file must start with 'matroid r m'"),
        (lambda: parse_matroid("matroid 1\n"), FormatError,
         "matroid header must be 'matroid r m'"),
        (lambda: parse_matroid("matroid 1 2\n"), FormatError,
         "matroid file missing ground label line"),
        (lambda: parse_matroid("matroid 1 2\na\n1 2\n1 0\n"), FormatError,
         "expected 2 ground labels, got 1"),
        (lambda: parse_matroid("matroid 1 2\na b\n2 2\n1 0\n0 1\n"), FormatError,
         "matrix shape disagrees with matroid header"),
        (lambda: RegularMatroid.from_rep("ab", IntegerMatrix.from_rows([[1, 0], [1, 0]])),
         FormatError, "representation must have full row rank"),
        (lambda: RegularMatroid.from_rep("ab", IntegerMatrix.from_rows([[1, 1], [1, -1]])),
         FormatError, "representation is not totally unimodular; witness rows (0, 1) "
         "cols (0, 1) det -2"),
        (lambda: GramMatrix(row(1, 0)), DimensionError, "Gram matrix must be square"),
        (lambda: parse_gram("matrix 1\n1\n"), FormatError,
         "gram file must start with 'gram s'"),
        (lambda: parse_gram("gram 1 1\n1\n"), FormatError, "gram header must be 'gram s'"),
        (lambda: FlowLattice.from_basis(IntegerMatrix.from_rows([[1], [0], [0]]),
                                        from_graph(TRIANGLE)),
         MembershipError, "basis columns are not flows of the source matroid"),
        (lambda: row(1).hstack(IntegerMatrix.from_rows([[1], [2]])), DimensionError,
         "hstack: row counts differ"),
        (lambda: row(1).vstack(row(1, 2)), DimensionError, "vstack: column counts differ"),
        (lambda: row(1, 2) * row(1), DimensionError, "cannot multiply 1x2 by 1x1"),
        (lambda: IntegerMatrix.from_rows([[1, 2], [3]]), DimensionError, "ragged rows"),
        (lambda: IntegerMatrix(((1,), (1, 2))), DimensionError, "ragged rows"),
        (lambda: IntegerMatrix.from_columns([[1, 2], [3]]), DimensionError, "ragged rows"),
    ])
    def test_refused(self, make, error, message):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
        assert str(exc.value) == message


_NOT_INT = "invalid literal for int() with base 10: "


class TestHeaderRefusals:
    """The header line of a gram or matroid file, after comments and blank
    lines: its own first word, then one integer per field, or a refusal
    naming the form; a field that is not an integer quotes `int`'s error.
    `TestInputRefusals` holds the cases not repeated here."""

    @pytest.mark.parametrize("text,message", [
        ("", "gram file must start with 'gram s'"),
        ("# nothing\n\n", "gram file must start with 'gram s'"),
        ("gram1\n1\n", "gram file must start with 'gram s'"),
        ("gram\n1\n", "gram header must be 'gram s'"),
        ("gram x\n1\n", "non-integer order in gram header: " + _NOT_INT + "'x'"),
        ("gram 1.5\n1\n", "non-integer order in gram header: " + _NOT_INT + "'1.5'"),
    ])
    def test_gram(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_gram(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,message", [
        ("", "matroid file must start with 'matroid r m'"),
        ("gram 1 2\n", "matroid file must start with 'matroid r m'"),
        ("matroid\n", "matroid header must be 'matroid r m'"),
        ("matroid 1 2 3\n", "matroid header must be 'matroid r m'"),
        ("matroid a 2\na b\n1 2\n1 0\n",
         "non-integer field in matroid header: " + _NOT_INT + "'a'"),
        ("matroid 1 b\na b\n1 2\n1 0\n",
         "non-integer field in matroid header: " + _NOT_INT + "'b'"),
        ("matroid x y\n", "non-integer field in matroid header: " + _NOT_INT + "'x'"),
    ])
    def test_matroid(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_matroid(text)
        assert str(exc.value) == message

    def test_header_after_comments(self):
        """Comments, blank lines and spacing around the header are read past."""
        a = parse_gram("# a\n\n  gram   2 # two\n2 1\n1 2\n")
        assert a.mat.entries == ((2, 1), (1, 2))
        m = parse_matroid("\n# b\n matroid 1 2  # one row\na b\n1 2\n1 -1\n")
        assert (m.ground, m.rep.entries) == (("a", "b"), ((1, -1),))


class TestRefusalTags:
    """Every error ends `flowlat` with exit 2 and `ERROR <tag>: <message>`;
    the error type names the tag."""

    @pytest.mark.parametrize("error,tag", [
        (FlowLatticeError, "BAD-INPUT"),
        (DimensionError, "BAD-INPUT"),
        (FormatError, "BAD-INPUT"),
        (DefinitenessError, "BAD-INPUT"),
        (BoundExceededError, "BOUND-EXCEEDED"),
        (NotABaseError, "NOT-A-BASE"),
        (MembershipError, "NOT-IN-LATTICE"),
    ])
    def test_tag(self, error, tag):
        assert error.tag == tag

    @pytest.mark.parametrize("rows,message", [
        ("1 0 / 1 0", "representation must have full row rank"),
        ("1 1 / 1 -1", "representation is not totally unimodular; "
                       "witness rows (0, 1) cols (0, 1) det -2"),
    ])
    def test_matroid_file_refused(self, tmp_path, capsys, rows, message):
        path = tmp_path / "m.matroid"
        path.write_text("matroid 2 2\na b\n2 2\n" + rows.replace(" / ", "\n") + "\n")
        assert run(["circuits", str(path)]) == 2
        assert capsys.readouterr().out == f"ERROR BAD-INPUT: {message}\n"
