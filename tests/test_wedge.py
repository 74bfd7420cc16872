import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
from _oracles import wedge_operator
import chevkit.wedge
from chevkit.errors import InputError, WedgeCapError
from chevkit.linalg import Matrix, Subspace, staged_elimination
from chevkit.wedge import membership_kernel, membership_operator


def mat(rows, ncols=None):
    """An exact DenseMatrix; membership routes take its blocks through
    oracles.integer_blocks."""
    if ncols is None:
        ncols = len(rows[0])
    return oracles.DenseMatrix([[Fraction(v) for v in r] for r in rows],
                               ncols)


small_entries = st.integers(min_value=-4, max_value=4)


def matrix_strategy(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda nr: st.integers(1, max_dim).flatmap(
            lambda nc: st.lists(
                st.lists(small_entries, min_size=nc, max_size=nc),
                min_size=nr, max_size=nr,
            ).map(lambda rows: mat(rows, ncols=nc))
        )
    )


class TestWedgeOperator:
    def test_order_zero_is_identity(self):
        b = mat([[1, 2], [3, 4], [5, 6]])
        assert wedge_operator(b, 0).rows == oracles.identity(3).rows

    def test_rank_one_projection(self):
        b = mat([[1, 0], [0, 0]])
        op = wedge_operator(b, 1)
        # column subsets {0},{1}; row pairs (0,1); entries are signed
        # 1x1 minors of the complementary row
        assert op.rows == [
            [Fraction(0), Fraction(-1)],
            [Fraction(0), Fraction(0)],
        ]
        _, kern = op.integer().rank_kernel()
        assert kern == oracles.column_span(b)

    def test_full_rank_square_collapses(self):
        b = mat([[1, 0], [0, 1]])
        op = wedge_operator(b, 2)
        assert op.nrows == 0
        assert op.ncols == 2
        _, kern = op.integer().rank_kernel()
        assert kern == oracles.full_space(2)

    def test_entries_are_signed_minors(self):
        b = mat([[1, 2], [3, 4], [5, 6]])
        op = wedge_operator(b, 2)
        # single column pair (0,1), single row triple (0,1,2); entry at p
        # is the 2x2 minor on the other two rows, sign alternating
        m01 = oracles.sympy_det([b.rows[0][:2], b.rows[1][:2]])
        m02 = oracles.sympy_det([b.rows[0][:2], b.rows[2][:2]])
        m12 = oracles.sympy_det([b.rows[1][:2], b.rows[2][:2]])
        assert op.rows == [[m12, -m02, m01]]

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            wedge_operator(mat([[1]]), -1)

    def test_cap(self, monkeypatch):
        b = mat([[random.Random(0).randint(0, 3) for _ in range(6)]
                 for _ in range(8)])
        monkeypatch.setattr(chevkit.wedge, "DEFAULT_WEDGE_CAP", 10)
        with pytest.raises(WedgeCapError):
            wedge_operator(b, 3)

    def test_above_rank_kills_everything(self):
        b = mat([[1, 2], [2, 4], [1, 1]])  # rank 2
        op = wedge_operator(b, 2)
        for col in oracles.transpose(b).rows:
            assert all(v == 0 for v in oracles.apply(op.rows, list(col)))

    @given(matrix_strategy())
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_column_span(self, b):
        assert oracles.image_kernel_check(b)

    @given(matrix_strategy(max_dim=4))
    @settings(max_examples=40, deadline=None)
    def test_wedge_past_rank_is_zero_map(self, b):
        r = oracles.sympy_rank(b.rows)
        op = wedge_operator(b, r + 1)
        prod = oracles.matmul(op, b)
        assert all(all(v == 0 for v in row) for row in prod.rows)


@st.composite
def membership_blocks(draw):
    """(kept, absorbed) DenseMatrix blocks with 1-5 shared rows, small
    integer or non-integer rational entries, and some rows zero in one
    block or both."""
    f = draw(st.integers(1, 5))
    ea = draw(st.integers(1, 4))
    ek = draw(st.integers(1, 3))
    if draw(st.booleans()):
        cell = small_entries
    else:
        cell = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def block(ncols):
        rows = []
        for _ in range(f):
            if draw(st.integers(0, 3)) == 0:
                rows.append([0] * ncols)
            else:
                rows.append(draw(st.lists(cell, min_size=ncols,
                                          max_size=ncols)))
        return mat(rows, ncols=ncols)

    return block(ek), block(ea)


class TestMembershipOperator:
    @given(membership_blocks(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_positive_multiples_of_the_product(self, blocks, data):
        kept, absorbed = blocks
        rank = oracles.sympy_rank(absorbed.rows)
        r = data.draw(st.integers(0, rank + 1))
        got = membership_operator(*oracles.integer_blocks(kept, absorbed), r)
        product = oracles.matmul(wedge_operator(absorbed, r), kept)
        want = [row for row in product.rows if any(row)]
        assert got.ncols == kept.ncols
        assert got.nrows == len(want)
        for g, w in zip(oracles.dense_rows(got), want):
            p = next(j for j, x in enumerate(w) if x)
            ratio = Fraction(g[p]) / w[p]  # g holds ints; keep it exact
            assert ratio > 0
            assert g == [ratio * x for x in w]

    @given(membership_blocks())
    @settings(max_examples=80, deadline=None)
    def test_kernel_and_rank_match_membership_kernel(self, blocks):
        matrix, cut = oracles.integer_blocks(*blocks)
        res = membership_kernel(matrix, cut)
        op = membership_operator(matrix, cut, res.absorbed_rank)
        assert op.rank_kernel() == (cut - res.kernel.dim, res.kernel)

    def test_cap_matches_wedge_operator(self, monkeypatch):
        rng = random.Random(0)
        absorbed = mat([[rng.randint(0, 3) for _ in range(6)]
                        for _ in range(8)])
        kept = mat([[rng.randint(0, 3) for _ in range(2)]
                    for _ in range(8)])
        # comb(6, 3) * comb(8, 4) = 1400 rows; the cap counts them all,
        # zero rows included
        monkeypatch.setattr(chevkit.wedge, "DEFAULT_WEDGE_CAP", 1400)
        blocks = oracles.integer_blocks(kept, absorbed)
        membership_operator(*blocks, 3)
        for r, cap in ((3, 1399), (1, 10)):
            monkeypatch.setattr(chevkit.wedge, "DEFAULT_WEDGE_CAP", cap)
            with pytest.raises(WedgeCapError) as want:
                wedge_operator(absorbed, r)
            with pytest.raises(WedgeCapError) as got:
                membership_operator(*blocks, r)
            assert str(got.value) == str(want.value)

    def test_order_zero_keeps_the_nonzero_kept_rows(self, monkeypatch):
        kept = mat([[0, 2], [0, 0], [Fraction(1, 2), Fraction(-3, 2)]])
        absorbed = mat([[1], [2], [3]])
        monkeypatch.setattr(chevkit.wedge, "DEFAULT_WEDGE_CAP", 0)
        op = membership_operator(*oracles.integer_blocks(kept, absorbed), 0)
        assert oracles.dense_rows(op) == [[0, 1], [1, -3]]

    @pytest.mark.parametrize("shape, r", [((3, 2), 3), ((2, 3), 2),
                                          ((2, 1), 2)])
    def test_collapse_gives_no_rows(self, shape, r, monkeypatch):
        f, e = shape
        absorbed = mat([[i + j + 1 for j in range(e)] for i in range(f)])
        kept = mat([[i - j for j in range(4)] for i in range(f)])
        monkeypatch.setattr(chevkit.wedge, "DEFAULT_WEDGE_CAP", 0)
        op = membership_operator(*oracles.integer_blocks(kept, absorbed), r)
        assert (op.nrows, op.ncols) == (0, 4)

    def test_negative_order_rejected(self):
        with pytest.raises(InputError):
            membership_operator(Matrix([{0: 1, 1: 1}], 2), 1, -1)

    @pytest.mark.parametrize("r", [1.5, "1", True, False])
    def test_order_must_be_an_int(self, r):
        # a float, a str or a bool is refused as a negative order is,
        # not read as the int it stands for
        matrix = Matrix([{0: 1, 1: 1}, {0: 2, 1: 1}], 2)
        with pytest.raises(InputError) as err:
            membership_operator(matrix, 1, r)
        assert str(err.value) == f"wedge order must be an int >= 0, got {r!r}"

    def test_minors_carry_their_signs(self):
        # absorbed [[1, 2], [3, 4], [5, 6]] has the 2x2 minors m01 = -2,
        # m02 = -4 and m12 = -2 on its row pairs; kept is the identity, so
        # the one composed row is (m12, -m02, m01) = 2 * (-1, 2, -1)
        matrix = Matrix([{0: 1, 3: 1, 4: 2}, {1: 1, 3: 3, 4: 4},
                         {2: 1, 3: 5, 4: 6}], 5)
        op = membership_operator(matrix, 3, 2)
        assert op.sparse_rows == [{0: -1, 1: 2, 2: -1}]
        assert op.sparse_rows == \
            oracles.membership_operator_by_subsets(matrix, 3, 2).sparse_rows


class TestMembership:
    def test_routes_agree_small(self):
        rng = random.Random(3)
        for _ in range(25):
            f = rng.randint(1, 4)
            ek = rng.randint(1, 3)
            ea = rng.randint(1, 3)
            kept = mat([[rng.randint(-2, 2) for _ in range(ek)]
                        for _ in range(f)], ncols=ek)
            absorbed = mat([[rng.randint(-2, 2) for _ in range(ea)]
                            for _ in range(f)], ncols=ea)
            rank = oracles.sympy_rank(absorbed.rows)
            matrix, cut = oracles.integer_blocks(kept, absorbed)
            res = membership_kernel(matrix, cut)
            op = membership_operator(matrix, cut, rank)
            op_rank, op_kern = op.rank_kernel()
            assert res.kernel == op_kern
            assert ek - res.kernel.dim == op_rank
            assert res.absorbed_rank == rank

    def test_kernel_meaning(self):
        kept = mat([[1, 0], [0, 1], [0, 0]])
        absorbed = mat([[1], [1], [0]])
        res = membership_kernel(*oracles.integer_blocks(kept, absorbed))
        # kept.u = (u1, u2, 0) lies in span{(1,1,0)} iff u1 == u2
        assert res.kernel.dim == 1
        u = list(oracles.dense_basis(res.kernel)[0])
        assert u[0] == u[1]
        assert kept.ncols - res.kernel.dim == 1

    @pytest.mark.parametrize("cell", [Fraction(1, 2), 0.5],
                             ids=["fraction", "float"])
    def test_non_int_cell_rejected_alike(self, cell):
        # both routes refuse a cell the kernel does not take, with the
        # kernel's own message
        matrix = Matrix([{0: cell, 1: 1}], 2)
        with pytest.raises(InputError) as by_kernel:
            membership_kernel(matrix, 1)
        with pytest.raises(InputError) as by_operator:
            membership_operator(matrix, 1, 0)
        assert str(by_operator.value) == str(by_kernel.value) == \
            f"cell {cell!r} is not an int"

    def test_cut_outside_the_columns_rejected(self):
        matrix = Matrix([{0: 1}, {1: 2, 2: 1}], 3)
        for cut in (-1, 4, 10, 1.5, "1", True, False):
            with pytest.raises(InputError) as by_kernel:
                membership_kernel(matrix, cut)
            with pytest.raises(InputError) as by_operator:
                membership_operator(matrix, cut, 1)
            assert str(by_operator.value) == str(by_kernel.value) == \
                f"column split must be an int in 0..3, got {cut!r}"

    @given(matrix_strategy(max_dim=4))
    @settings(max_examples=30, deadline=None)
    def test_cuts_at_the_ends(self, b):
        # cut = ncols: nothing is absorbed, the kernel is the matrix's own;
        # cut = 0: nothing is kept, so the kernel lives in Q^0
        m = b.integer()
        rank, kernel = m.rank_kernel()
        whole = membership_kernel(m, m.ncols)
        assert (whole.kernel, whole.absorbed_rank) == (kernel, 0)
        assert membership_operator(m, m.ncols, 0).rank_kernel() == \
            (rank, kernel)
        none = membership_kernel(m, 0)
        assert (none.kernel.ambient_dim, none.absorbed_rank) == (0, rank)

    def test_caller_rows_unchanged(self):
        # both routes read the caller's rows, which are not primitive here,
        # and leave them as they were
        rows = [{0: 2, 1: 4, 2: 6}, {1: 3, 2: -9}, {0: 5}]
        matrix = Matrix([dict(r) for r in rows], 3)
        res = membership_kernel(matrix, 2)
        membership_operator(matrix, 2, res.absorbed_rank)
        assert matrix.sparse_rows == rows

    @given(matrix_strategy(max_dim=4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_membership_detects_columns(self, absorbed, data):
        coeffs = data.draw(st.lists(
            small_entries,
            min_size=absorbed.ncols, max_size=absorbed.ncols,
        ))
        target = oracles.apply(absorbed.rows, [Fraction(c) for c in coeffs])
        kept = mat([[v] for v in target], ncols=1)
        res = membership_kernel(*oracles.integer_blocks(kept, absorbed))
        # the single kept column is itself in the span, so u = (1) is killed
        assert res.kernel == oracles.full_space(1)


@st.composite
def joined_blocks(draw):
    """(matrix, cut) of a kept and an absorbed block sharing 0-6 rows,
    each block 0-4 columns, over rows of ints or Fractions: through
    oracles.integer_blocks or, when they hold ints, now and then as sparse
    rows that may not be primitive; some rows zero in one block or both,
    and now and then a block that is all zero."""
    f = draw(st.integers(0, 6))
    value = draw(st.sampled_from([
        st.integers(-3, 3),
        st.integers(-60, 60),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    ]))
    cell = draw(st.sampled_from([st.just(0) | value,
                                 st.just(0) | st.just(0) | value]))
    def block():
        ncols = draw(st.integers(0, 4))
        zero = draw(st.integers(0, 5)) == 0
        rows = []
        for _ in range(f):
            if zero or draw(st.integers(0, 3)) == 0:
                rows.append([0] * ncols)
            else:
                rows.append(draw(st.lists(cell, min_size=ncols,
                                          max_size=ncols)))
        return oracles.DenseMatrix(rows, ncols)

    kept, absorbed = block(), block()
    if all(type(v) is int for m in (kept, absorbed) for r in m.rows
           for v in r) and draw(st.booleans()):
        joined = oracles.DenseMatrix(
            [rk + ra for rk, ra in zip(kept.rows, absorbed.rows)],
            kept.ncols + absorbed.ncols)
        return Matrix(joined.sparse_rows, joined.ncols), kept.ncols
    return oracles.integer_blocks(kept, absorbed)


class TestNonzeroMinors:
    """membership_operator builds only the nonzero minors; the loop over
    every (column subset, row subset) pair that it replaced must give the
    same rows, in the same order, with the same key order."""

    @given(joined_blocks(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_subset_loop(self, blocks, data):
        # orders 0, rank and rank + 1, and any order up to one past the
        # absorbed width, where the exterior powers collapse
        matrix, cut = blocks
        rank = membership_kernel(matrix, cut).absorbed_rank
        r = data.draw(st.sampled_from([0, rank, rank + 1])
                      | st.integers(0, matrix.ncols - cut + 1))
        got = membership_operator(matrix, cut, r)
        want = oracles.membership_operator_by_subsets(matrix, cut, r)
        assert (got.ncols, got.sparse_rows) == (want.ncols, want.sparse_rows)
        assert [list(row) for row in got.sparse_rows] == \
            [list(row) for row in want.sparse_rows]


class TestOneEliminationMembership:
    """membership_kernel reads kernel and ranks off one elimination; the
    three-elimination route it replaced (staged elimination, residual
    Matrix, canonicalising rank_kernel) must give the same results."""

    @given(joined_blocks())
    @settings(max_examples=300, deadline=None)
    def test_matches_residual_route(self, blocks):
        matrix, cut = blocks
        res = membership_kernel(matrix, cut)
        assert (res.kernel, cut - res.kernel.dim, res.absorbed_rank) == \
            oracles.membership_kernel_by_residual(matrix, cut)

    def test_one_elimination_no_matrix(self, monkeypatch):
        matrix, cut = oracles.integer_blocks(
            mat([[1, 0], [0, 1], [2, 3], [0, 0]]),
            mat([[1, 1], [1, 1], [0, 5], [0, 0]]))
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(chevkit.wedge, "staged_elimination", counted(
            "staged_elimination", chevkit.wedge.staged_elimination))
        monkeypatch.setattr("chevkit.linalg.staged_elimination", counted(
            "staged_elimination", staged_elimination))
        monkeypatch.setattr(Matrix, "__init__",
                            counted("Matrix", Matrix.__init__))
        monkeypatch.setattr(Matrix, "rank_kernel",
                            counted("rank_kernel", Matrix.rank_kernel))
        monkeypatch.setattr(Subspace, "from_vectors", classmethod(counted(
            "from_vectors", Subspace.from_vectors.__func__)))
        res = membership_kernel(matrix, cut)
        assert calls == ["staged_elimination"]
        assert (res.kernel.dim, cut - res.kernel.dim,
                res.absorbed_rank) == (1, 1, 2)
