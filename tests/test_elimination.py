"""The fraction-free Gauss-Jordan core against the eliminations it replaced.

Every caller of `intmat._gauss_jordan` is compared for exact equality,
values and errors alike, with the routine it replaced in
`elimination_oracles`, on seeded random inputs and on the criterion-07
reconstruction sweep.  The sign-mask pass `intmat._mask_gauss_jordan`,
which standard forms of TU representations take, is compared with the
Bareiss pass and, through `coordinatize`, with the same oracles.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import elimination_oracles as oracle
from flows_oracles import _coeff_box
from flowlattice.errors import (
    DefinitenessError,
    DimensionError,
    FlowLatticeError,
    FormatError,
    MembershipError,
    NotABaseError,
)
from flowlattice import matroid, rebuild
from flowlattice.flows import (
    FlowLattice,
    FlowVector,
    _circuit_flow,
    cut_basis,
    fundamental_basis,
    gram_of,
)
from flowlattice.gram import GramMatrix
from flowlattice.intmat import (
    IntegerMatrix,
    _gauss_jordan,
    _mask_gauss_jordan,
    determinant,
    is_totally_unimodular,
    parse_matrix,
    rank,
)
from flowlattice.matroid import (
    RegularMatroid,
    StandardForm,
    _gf2_echelon,
    circuits,
    coordinatize,
    dual,
    first_base,
    from_graph,
)
from flowlattice.rebuild import reconstruct_matroid

from conftest import K4, TWO_TRIANGLES, bridgeless_graphs
from test_flows_differential import LATTICES as GRAPHS
from test_matroid import r10


def outcome(fn, *args):
    """The value, or the type and message of the error raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - errors are compared too
        return type(exc), str(exc)


def random_matrix(rng, rows, cols):
    """Small entries, often sparse, with planted zero and dependent lines."""
    sparse = rng.random() < 0.5
    a = [[0 if sparse and rng.random() < 0.6 else rng.randint(-3, 3)
          for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.3:
        i, j, k = rng.sample(range(rows), 3)
        a[k] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y
                for x, y in zip(a[i], a[j])]
    if cols and rng.random() < 0.2:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    if rows == 0:
        return IntegerMatrix.zeros(0, cols)
    return IntegerMatrix.from_rows(a)


def fraction_rref(rows):
    """Reduced row echelon form over the rationals, pivot rows swapped up."""
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        r += 1
    return a


def random_multigraph(rng):
    nv = rng.randint(2, 6)
    edges = [(rng.randint(1, nv), rng.randint(1, nv)) for _ in range(rng.randint(1, 9))]
    return edges


# {0, +-1} and not TU (columns a, c have determinant -2), yet the least
# base (a, b) and the base (b, c) are unimodular: the sign-mask pass
# meets a 2 on both, so every standard form of it is refused
LEAVES_UNITS = RegularMatroid.from_rep(
    ("a", "b", "c"), IntegerMatrix.from_rows([[1, 1, 1], [1, 0, -1]]), validate=False)

INPUTS = Path(__file__).parent / "golden" / "inputs"


def with_identity(name):
    """[I | A], A the matrix of tests/golden/inputs/<name>.mat."""
    a = parse_matrix((INPUTS / f"{name}.mat").read_text())
    return RegularMatroid.from_rep(tuple(f"e{j + 1}" for j in range(a.rows + a.cols)),
                                   IntegerMatrix.identity(a.rows).hstack(a))


class TestCore:
    def test_reduced_rows_and_leading_minors(self, rng):
        """Also counts the matrices on which a row that is 0 in the pivot
        column meets a pivot equal to the one before (the row is left as
        it is) and one that differs (the row is rescaled): the rows before
        the pivot on column c are the pass limited to width c."""
        kept = rescaled = 0
        for _ in range(1500):
            m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
            reduced, cols, order, pivots, chosen = _gauss_jordan(m.entries)
            skips = {p == prev for c, p, prev in zip(cols, pivots, [1] + pivots)
                     if any(row[c] == 0 for row in _gauss_jordan(m.entries, c)[0])}
            kept += True in skips
            rescaled += False in skips
            assert len(cols) == oracle.rank(m)
            for k, p in enumerate(pivots):
                block = m.submatrix(order[:k + 1], cols[:k + 1])
                assert p == oracle.determinant(block)
                # a forward Bareiss row: entry j is the minor bordering the
                # earlier pivots' block by the pivot row and column j
                assert chosen[k] == [oracle.determinant(
                    m.submatrix(order[:k + 1], cols[:k] + [j])) for j in range(m.cols)]
            d = pivots[-1] if pivots else 1
            assert [[Fraction(x, d) for x in row] for row in reduced] == \
                fraction_rref(m.entries)
        assert kept > 100 and rescaled > 400

    def test_width_limits_the_pivot_columns(self, rng):
        for _ in range(300):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
            width = rng.randint(0, m.cols)
            _, cols, _, _, _ = _gauss_jordan(m.entries, width)
            assert cols == _gauss_jordan(m.select_columns(range(width)).entries)[1]


class TestRankAndDeterminant:
    def test_against_oracles(self, rng):
        for _ in range(3000):
            n = rng.randint(0, 6)
            m = random_matrix(rng, n, n if rng.random() < 0.6 else rng.randint(0, 6))
            assert rank(m) == oracle.rank(m)
            assert outcome(determinant, m) == outcome(oracle.determinant, m)


class TestGramOf:
    def test_against_k_determinants(self, rng):
        failures = 0
        for _ in range(2000):
            n = rng.randint(1, 6)
            cols = [list(c) for c in random_matrix(rng, n, rng.randint(1, 5)).columns()]
            if len(cols) > 1 and rng.random() < 0.2:
                cols[-1] = list(cols[rng.randrange(len(cols) - 1)])
            got, want = outcome(gram_of, cols), outcome(oracle.gram_of, cols)
            assert got == want
            failures += isinstance(want, tuple)
        assert 200 < failures < 1800

    @pytest.mark.parametrize("cols,order", [
        ([[0, 0, 0], [1, 1, 0]], 1), ([[1, 1, 0], [0, 0, 0]], 2), ([[1, 0], [2, 0], [0, 1]], 2)])
    def test_dependent_columns_fail_a_minor(self, cols, order):
        """A zero column gives a zero diagonal entry: the criterion names
        its minor before `GramMatrix` could reject the diagonal."""
        with pytest.raises(DefinitenessError) as exc:
            gram_of(cols)
        assert (exc.value.order, exc.value.minor) == (order, 0)
        assert outcome(gram_of, cols) == outcome(oracle.gram_of, cols)


class TestCircuitFlow:
    """Each circuit's flow, read off the free column of one Bareiss pass,
    against the flow read off the saturated integer kernel."""

    @staticmethod
    def same_flows(m):
        for c in circuits(m):
            assert _circuit_flow(m, c) == oracle.circuit_flow(m, c)
        return len(circuits(m))

    def test_graphic_and_cographic(self):
        total = 0
        for edges in GRAPHS.values():
            m = from_graph(edges)
            total += self.same_flows(m) + self.same_flows(dual(m))
        assert total == 431

    def test_r10(self):
        m = r10()
        assert self.same_flows(m) == self.same_flows(dual(m)) == 30

    def test_random_multigraphs(self, rng):
        for _ in range(150):
            m = from_graph(random_multigraph(rng))
            self.same_flows(m)
            self.same_flows(dual(m))

    def test_random_tu(self, rng):
        """Random {0, +-1} representations that are TU and of full row rank."""
        done = 0
        while done < 150:
            r, n = rng.randint(1, 4), rng.randint(2, 7)
            rep = IntegerMatrix.from_rows([[rng.choice((-1, 0, 0, 1)) for _ in range(n)]
                                           for _ in range(r)])
            if oracle.rank(rep) < r or not is_totally_unimodular(rep):
                continue
            self.same_flows(RegularMatroid.from_rep(tuple(map(str, range(n))), rep))
            done += 1

    def test_subsets_that_are_not_circuits(self, rng):
        """Errors too: no unique flow line, or a line that is not a unit
        pattern on a matrix that is not TU."""
        kinds = set()
        for _ in range(600):
            r, n = rng.randint(1, 3), rng.randint(1, 5)
            rep = random_matrix(rng, r, n)
            m = RegularMatroid.from_rep(tuple(map(str, range(n))), rep, validate=False)
            subset = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            got = outcome(_circuit_flow, m, subset)
            assert got == outcome(oracle.circuit_flow, m, subset)
            kinds.add(got[0] if isinstance(got, tuple) else "ok")
        assert kinds == {"ok", MembershipError, FlowLatticeError}


class TestCoefficients:
    @staticmethod
    def by_fractions(basis, v):
        x = oracle._solve_exact(basis, v.coords)
        if x is None:
            raise MembershipError("vector lies outside the rational span of the basis")
        if any(f.denominator != 1 for f in x):
            raise MembershipError("vector is a rational but not integral combination")
        return tuple(int(f) for f in x)

    def test_against_fraction_solve(self, rng):
        kinds = set()
        for _ in range(1000):
            n, s = rng.randint(1, 6), rng.randint(1, 4)
            b0 = random_matrix(rng, n, s)
            if oracle.rank(b0) < s:
                continue
            t = IntegerMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(s)] for _ in range(s)])
            if oracle.determinant(t) == 0:
                continue
            basis = b0 * t
            x = IntegerMatrix.from_columns([[rng.randint(-3, 3) for _ in range(s)]])
            v = list((b0 * x).column(0))
            if rng.random() < 0.3:
                v[rng.randrange(n)] += rng.choice([-1, 1])
            lat = FlowLattice.from_basis(basis)
            got = outcome(lat.coefficients, FlowVector.of(v))
            assert got == outcome(self.by_fractions, basis, FlowVector.of(v))
            kinds.add(got if isinstance(got, tuple) and got[0] is MembershipError else "ok")
        assert len(kinds) == 3

    def test_rejects_wrong_length(self, k4):
        lat = fundamental_basis(k4)
        for v in ((1, 1), (1, 1, 1, 0, 0, 0, 0)):
            with pytest.raises(DimensionError):
                lat.coefficients(FlowVector.of(v))


class TestCoeffBox:
    def test_against_fraction_inverse(self, rng):
        for _ in range(500):
            n = rng.randint(1, 5)
            b = random_matrix(rng, n + rng.randint(0, 2), n)
            if oracle.rank(b) < n:
                continue
            g = GramMatrix(b.transpose() * b)
            bound = rng.randint(0, 40)
            assert _coeff_box(g, bound) == oracle._coeff_box(g, bound)

    def test_indefinite_matches(self):
        for rows in ([[1, 2], [2, 1]], [[2, 3, 0], [3, 2, 1], [0, 1, 5]]):
            g = GramMatrix.from_rows(rows)
            assert outcome(_coeff_box, g, 7) == outcome(oracle._coeff_box, g, 7)

    def test_singular_rejected(self):
        with pytest.raises(FormatError, match="singular"):
            _coeff_box(GramMatrix.from_rows([[1, 1], [1, 1]]), 3)


class TestBases:
    def test_first_base_and_coordinatize(self, rng):
        """Also: a form's perm starts with its base, the least base when
        none is given."""
        for _ in range(300):
            m = from_graph(random_multigraph(rng))
            for mat in (m, dual(m)):
                self.check_bases(mat, [rng.sample(range(mat.size), mat.rank) for _ in range(5)])

    @staticmethod
    def check_bases(mat, bases):
        assert first_base(mat) == oracle.first_base(mat)
        assert coordinatize(mat) == oracle.coordinatize(mat, oracle.first_base(mat))
        assert coordinatize(mat).perm[:mat.rank] == first_base(mat)
        for base in bases:
            got = outcome(coordinatize, mat, base)
            assert got == outcome(oracle.coordinatize, mat, base)
            if isinstance(got, StandardForm):
                assert got.perm[:mat.rank] == tuple(sorted(base))

    def test_row_deficient_has_no_base(self):
        m = RegularMatroid.from_rep(
            ("a", "b"), IntegerMatrix.from_rows([[1, 1], [1, 1]]), validate=False)
        assert outcome(first_base, m) == outcome(oracle.first_base, m)

    @pytest.mark.parametrize("rows,det", [
        ([[1, 1], [-1, 1]], 2), ([[1, 1], [1, -1]], -2), ([[0, 2], [1, 0]], -2)])
    def test_non_unit_block(self, rows, det):
        """A base block whose determinant is not a unit makes the
        representation non-TU: the pass refuses it, given or least."""
        m = RegularMatroid.from_rep(
            ("a", "b", "c"),
            IntegerMatrix.from_rows(rows).hstack(IntegerMatrix.from_rows([[1], [0]])),
            validate=False)
        assert determinant(m.rep.select_columns((0, 1))) == det
        # (0, 1) is also the least base
        for base in ((0, 1), None):
            with pytest.raises(FormatError, match="^representation is not totally unimodular$"):
                coordinatize(m, base)

    @pytest.mark.parametrize("base", [(0, 1, 6), (-1, 0, 1), (0, 1, 99)])
    def test_base_out_of_range(self, base):
        """A base is a set of ground indices; any other is refused before
        the pass, not read as a shift or a wrapped index."""
        with pytest.raises(NotABaseError) as got:
            coordinatize(from_graph(K4), base)
        assert (got.value.subset, got.value.certificate) == (base, "elements must lie in 0..5")

    def test_singular_block(self):
        """A TU representation on a dependent set: the oracle's refusal."""
        m = RegularMatroid.from_rep(
            ("a", "b", "c"), IntegerMatrix.from_rows([[1, 1, 0], [0, 0, 1]]))
        assert outcome(coordinatize, m, (0, 1)) == outcome(oracle.coordinatize, m, (0, 1)) == \
            (NotABaseError, "dependent or undersized set (0, 1): vanishing r-by-r determinant")


class TestMaskKernel:
    """The sign-mask pass against the Bareiss pass it stands in for, and
    `coordinatize` through it against the oracle's inverse."""

    def test_against_bareiss(self, rng):
        """On {0, +-1} matrices, a finished mask pass has Bareiss's pivot
        columns and its rows divided by the last pivot, +-1; a matrix with
        an entry outside {0, +-1}, in or past the first `width` columns
        (the pass among a prefix mask of that width), is refused before
        any pivot."""
        finished = aborted = 0
        for _ in range(2000):
            r, n = rng.randint(0, 5), rng.randint(0, 7)
            rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(r)]
            width = rng.choice((None, rng.randint(0, n)))
            reduced, cols, _, pivots, _ = _gauss_jordan(rows, width)
            got = _mask_gauss_jordan(rows, None if width is None else (1 << width) - 1)
            if got is None:
                aborted += 1
                continue
            finished += 1
            d = pivots[-1] if pivots else 1
            assert abs(d) == 1 and got[1] == cols
            assert [[(p >> j & 1) - (q >> j & 1) for j in range(n)] for p, q in got[0]] == \
                [[d * x for x in row] for row in reduced]
        assert finished > 1000 and aborted > 200
        assert _mask_gauss_jordan([[1, 0], [0, 2]]) is None
        # one entry outside {0, +-1} anywhere, past the pivot columns too
        for _ in range(500):
            r, n = rng.randint(1, 5), rng.randint(1, 7)
            rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(r)]
            rows[rng.randrange(r)][rng.randrange(n)] = rng.choice((-3, -2, 2, 3))
            assert _mask_gauss_jordan(rows, rng.choice((None, rng.getrandbits(n)))) is None

    def test_among_against_permuted_bareiss(self, rng):
        """The pass among the columns of a mask is the Bareiss pass on the
        columns permuted to put the mask's first, ascending, limited to
        their count: the same pivots and, the last pivot divided out, the
        same rows.  Prefix masks stand for `_gauss_jordan`'s `width`; the
        rest are arbitrary.  A pass that makes a +-2 leaves a matrix that
        is not TU."""
        finished = aborted = 0
        for _ in range(2000):
            r, n = rng.randint(0, 5), rng.randint(0, 7)
            rows = [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(r)]
            among = rng.choice(((1 << rng.randint(0, n)) - 1, rng.getrandbits(n)))
            order = [j for j in range(n) if among >> j & 1]
            order += [j for j in range(n) if not among >> j & 1]
            moved = [[row[j] for j in order] for row in rows]
            reduced, cols, _, pivots, _ = _gauss_jordan(moved, among.bit_count())
            got = _mask_gauss_jordan(rows, among)
            if got is None:
                aborted += 1
                assert not is_totally_unimodular(IntegerMatrix.from_rows(rows))
                continue
            finished += 1
            d = pivots[-1] if pivots else 1
            assert abs(d) == 1 and got[1] == [order[c] for c in cols]
            assert [[(p >> j & 1) - (q >> j & 1) for j in order] for p, q in got[0]] == \
                [[d * x for x in row] for row in reduced]
        assert finished > 1000 and aborted > 200

    @pytest.mark.parametrize("make", [
        lambda: with_identity("r10"),
        lambda: dual(from_graph(GRAPHS["K5"])),
        lambda: dual(from_graph(GRAPHS["K33"])),
        lambda: with_identity("nested"),
    ], ids=["R10", "K5-dual", "K33-dual", "nested"])
    def test_non_graphic_tu(self, rng, make):
        """Columns permuted and negated by the seed; the least base and
        seeded given bases, refusals included."""
        m0 = make()
        kinds = set()
        for _ in range(6):
            order = rng.sample(range(m0.size), m0.size)
            signs = [rng.choice((-1, 1)) for _ in order]
            cols = [[s * x for x in m0.rep.column(j)] for j, s in zip(order, signs)]
            m = RegularMatroid.from_rep([m0.ground[j] for j in order],
                                        IntegerMatrix.from_columns(cols, m0.rank))
            assert _mask_gauss_jordan(m.rep.entries) is not None
            assert coordinatize(m) == oracle.coordinatize(m, oracle.first_base(m))
            for _ in range(10):
                base = rng.sample(range(m.size), m.rank)
                got = outcome(coordinatize, m, base)
                assert got == outcome(oracle.coordinatize, m, base)
                kinds.add(type(got))
        assert kinds == {StandardForm, tuple}

    def test_dual_read_off_the_pass(self, rng):
        """`dual` reads its flow rows and its cycle basis straight off the
        rows of the pass: [-L^T I_s] and the rows of [I_r L] mod 2, with L
        from the oracle's form."""
        reps = [from_graph(random_multigraph(rng)) for _ in range(300)]
        reps += [with_identity("r10"), with_identity("nested")]
        for m in reps:
            sf = oracle.coordinatize(m, oracle.first_base(m))
            rows, r = sf.matrix.entries, m.rank
            flows = [tuple(-row[j] for row in rows) + tuple(int(k == j) for k in range(r, m.size))
                     for j in range(r, m.size)]
            d = dual(m)
            assert d.ground == tuple(m.ground[j] for j in sf.perm)
            assert d.rep == IntegerMatrix(tuple(flows), empty_cols=m.size)
            assert d._cycle_basis == [sum(1 << j for j, x in enumerate(row) if x % 2)
                                      for row in rows]
            assert sf.flow_rows == d.rep

    def test_refused_after_a_two(self):
        """A {0, +-1} representation that leaves {0, +-1} mid-pass is not
        TU: every standard form of it is refused, on unimodular bases too,
        and so is every layer that reads one."""
        m = LEAVES_UNITS
        assert _mask_gauss_jordan(m.rep.entries) is None
        assert oracle.coordinatize(m, (1, 2)).matrix.entries[0] == (1, 0, 2)
        for call in (lambda: coordinatize(m), lambda: coordinatize(m, (1, 2)),
                     lambda: coordinatize(m, (0, 2)), lambda: first_base(m),
                     lambda: dual(m), lambda: fundamental_basis(m), lambda: cut_basis(m)):
            assert outcome(call) == (FormatError, "representation is not totally unimodular")


class TestOneEliminationPerStandardForm:
    """A standard form is one sign-mask pass, on a given base or on the
    least one, and the layers above read it without eliminating again.
    `matroid` has no other kernel: a pass that makes a +-2 is refused."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Each sign-mask pass in `matroid`: "mask", or "aborted" for one
        that returned None."""
        calls = []

        def counted(*args, eliminate=matroid._mask_gauss_jordan):
            out = eliminate(*args)
            calls.append("aborted" if out is None else "mask")
            return out
        monkeypatch.setattr(matroid, "_mask_gauss_jordan", counted)
        return calls

    @pytest.mark.parametrize("fn", [coordinatize, first_base, dual, fundamental_basis, cut_basis])
    def test_least_base(self, passes, fn):
        for edges in (K4, TWO_TRIANGLES, GRAPHS["K5"]):
            m = from_graph(edges)
            before = len(passes)
            fn(m)
            assert passes[before:] == ["mask"]

    @pytest.mark.parametrize("fn", [coordinatize, fundamental_basis, cut_basis])
    def test_given_base(self, passes, fn):
        fn(from_graph(K4), (0, 1, 4))
        assert passes == ["mask"]

    @pytest.mark.parametrize("base", [None, (1, 2)])
    def test_refused_after_a_two(self, passes, base):
        with pytest.raises(FormatError):
            coordinatize(LEAVES_UNITS, base)
        assert passes == ["aborted"]

    def test_dual_after_a_two(self, passes):
        with pytest.raises(FormatError):
            dual(RegularMatroid(LEAVES_UNITS.ground, LEAVES_UNITS.rep))
        assert passes == ["aborted"]

    def test_reconstruction(self, passes):
        gram = fundamental_basis(from_graph(GRAPHS["K5"])).gram
        passes.clear()
        assert reconstruct_matroid(gram)
        assert passes == ["mask"]
        for module in (matroid, rebuild):
            assert not hasattr(module, "_gauss_jordan")
            assert not hasattr(module, "_signed_pivot")
        assert not hasattr(rebuild, "_mask_gauss_jordan")


def check_reconstruction(gram):
    """q, the standard form and coordinates against the replaced routines."""
    rep = reconstruct_matroid(gram).report
    cert, q = rep.certificate, rep.g_positive_basis
    block = cert.select_rows(_gf2_echelon(cert)[0])
    assert q == cert * oracle._integer_inverse(block)
    ident = oracle._identity_block_rows(q)
    other = [i for i in range(q.rows) if i not in ident]
    assert rep.matroid.rep == IntegerMatrix.identity(len(other)).hstack(
        -q.select_rows(other))
    span = FlowLattice.from_basis(cert)
    for j in range(q.cols):
        v = FlowVector.of(q.column(j))
        assert span.coefficients(v) == TestCoefficients.by_fractions(cert, v)


class TestReconstructionSweep:
    """Every base of every bridgeless graph on <= 5 nodes, as in criterion 07."""

    def test_against_replaced_eliminations(self):
        total = 0
        for edges in bridgeless_graphs(5):
            m = from_graph(edges)
            assert first_base(m) == oracle.first_base(m)
            assert coordinatize(m) == oracle.coordinatize(m, oracle.first_base(m))
            for base in oracle.bases(m):
                assert coordinatize(m, base) == oracle.coordinatize(m, base)
                lat = fundamental_basis(m, base)
                assert gram_of(lat.basis) == oracle.gram_of(lat.basis)
                check_reconstruction(lat.gram)
                total += 1
        assert total == 418

    def test_parallel_elements(self, rng):
        # parallel elements repeat unit rows in q; the first of each is I_s
        repeated = 0
        for _ in range(200):
            m = from_graph(random_multigraph(rng))
            if m.corank:
                gram = fundamental_basis(m).gram
                check_reconstruction(gram)
                q = reconstruct_matroid(gram).report.g_positive_basis
                repeated += len(set(q.entries)) < q.rows
        assert repeated > 20
