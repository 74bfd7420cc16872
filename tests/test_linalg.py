import copy
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as O
from chevkit.errors import InputError
from chevkit.linalg import Matrix, Subspace, staged_elimination

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrix_strategy(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(lambda rows: Matrix(rows, ncols=c))
        )
    )


def _entry_forms(q):
    # one rational as a Fraction, a "p/q" string and, when integral, an int
    forms = [q, str(q)] + ([int(q)] if q.denominator == 1 else [])
    return st.sampled_from(forms)


@st.composite
def vector_families(draw):
    """(ambient dim, vectors) with mixed entry types, zero vectors and
    duplicates, shuffled."""
    n = draw(st.integers(0, 4))
    vec = st.lists(entries.flatmap(_entry_forms), min_size=n, max_size=n)
    vecs = draw(st.lists(vec, max_size=5))
    family = vecs + [[0] * n] * draw(st.integers(0, 2))
    if vecs:
        family += draw(st.lists(st.sampled_from(vecs), max_size=2))
    return n, draw(st.permutations(family))


class TestMatrix:
    def test_shapes_and_zero_rows(self):
        m = Matrix([], ncols=3)
        assert m.shape == (0, 3)
        assert m.rank_kernel()[0] == 0
        _, kern = m.rank_kernel()
        assert kern.dim == 3

    def test_matmul(self):
        a = Matrix([[1, 2], [3, 4]], ncols=2)
        b = Matrix([[0, 1], [1, 0]], ncols=2)
        assert O.matmul(a, b).rows == [[Fraction(2), Fraction(1)],
                                [Fraction(4), Fraction(3)]]

    @given(matrix_strategy(), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_triple_loop(self, a, width, data):
        b = data.draw(st.lists(
            st.lists(st.sampled_from([Fraction(0)]) | entries,
                     min_size=width, max_size=width),
            min_size=a.ncols, max_size=a.ncols,
        ))
        expected = [
            [sum((a.rows[i][t] * b[t][j] for t in range(a.ncols)),
                 Fraction(0)) for j in range(width)]
            for i in range(a.nrows)
        ]
        assert O.matmul(a, Matrix(b, ncols=width)).rows == expected

    @given(matrix_strategy())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_sympy(self, m):
        assert m.rank_kernel()[0] == O.sympy_rank(m.rows)

    @given(matrix_strategy())
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_annihilated_and_has_right_dim(self, m):
        rank, kern = m.rank_kernel()
        assert rank + kern.dim == m.ncols
        for v in O.dense_basis(kern):
            assert all(x == 0 for x in O.apply(m, v))

    @given(st.lists(st.lists(entries.flatmap(_entry_forms) | st.booleans(),
                             min_size=3, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_entries_are_boxed_as_fractions(self, rows):
        # a dense row keeps its nonzero int and Fraction cells as given and
        # boxes a str, a bool or any other cell as a Fraction; its zero
        # cells are absent from sparse_rows and read as int 0 in the dense
        # view
        m = Matrix(rows)
        assert m.rows == [[Fraction(x) for x in r] for r in rows]
        for sparse, dense, src in zip(m.sparse_rows, m.rows, rows):
            assert sparse == {j: Fraction(v) for j, v in enumerate(src)
                              if Fraction(v)}
            assert all(type(x) is (type(src[j]) if type(src[j]) in
                                   (int, Fraction) else Fraction)
                       for j, x in sparse.items())
            assert all(type(x) is int and x == 0
                       for j, x in enumerate(dense) if j not in sparse)
            assert dense is not src
        # sparse rows are kept as given
        given = [dict(row) for row in m.sparse_rows]
        again = Matrix(given, ncols=3)
        assert all(a is b for a, b in zip(again.sparse_rows, given))
        assert again.rows == m.rows and again == m

    def test_identity_and_zero(self):
        assert O.identity(3).rows == [
            [int(i == j) for j in range(3)] for i in range(3)
        ]
        assert O.identity(3).sparse_rows == [{0: 1}, {1: 1}, {2: 1}]
        assert all(type(x) is Fraction
                   for r in O.identity(3).sparse_rows for x in r.values())
        zero = O.zero_matrix(2, 3)
        assert zero.sparse_rows == [{}, {}]
        assert zero.rows == [[0] * 3] * 2
        assert all(type(x) is int for r in zero.rows for x in r)

    def test_column_selection(self):
        m = Matrix([[1, 2, 3], [4, 0, Fraction(1, 2)]], ncols=3)
        source = copy.deepcopy(m.sparse_rows)
        s = m.columns([0, 2])
        assert s.shape == (2, 2)
        assert s.rows == [[1, 3], [4, Fraction(1, 2)]]
        reordered = m.columns([2, 0, 1])
        assert reordered.rows == [[3, 1, 2], [Fraction(1, 2), 4, 0]]
        assert reordered.sparse_rows[1] == {0: Fraction(1, 2), 1: 4}
        empty = m.columns([])
        assert empty.shape == (2, 0) and empty.sparse_rows == [{}, {}]
        assert empty.rows == [[], []]
        assert m.columns(range(3)) == m
        assert m.sparse_rows == source
        for bad in ([0, 0], [3], [-1, 0]):
            with pytest.raises(InputError):
                m.columns(bad)

    @pytest.mark.parametrize("rows, ncols", [
        pytest.param([[1, 2], [3]], None, id="ragged"),
        pytest.param([[1, 2], [3, 4, 5]], 2, id="ragged-declared"),
        pytest.param([[1, 2]], 3, id="declared-wider"),
        pytest.param([[1, 2]], 1, id="declared-narrower"),
        pytest.param([], None, id="no-rows-no-ncols"),
        pytest.param([], -1, id="negative-ncols"),
        pytest.param([[]], -1, id="negative-ncols-with-rows"),
        pytest.param([{-1: 1}], 2, id="sparse-below-0"),
        pytest.param([{2: 1}], 2, id="sparse-at-ncols"),
        pytest.param([{0: 1, 5: 1}], 2, id="sparse-above-ncols"),
        pytest.param([{0: 1}], None, id="sparse-no-ncols"),
    ])
    def test_input_checks(self, rows, ncols):
        with pytest.raises(InputError):
            Matrix(rows, ncols=ncols)


class TestSubspace:
    @given(st.lists(st.lists(entries, min_size=3, max_size=3),
                    min_size=0, max_size=4))
    def test_canonical_under_generator_shuffling(self, vecs):
        a = Subspace.from_vectors(vecs, 3)
        b = Subspace.from_vectors(list(reversed(vecs)), 3)
        assert a == b
        doubled = [[2 * x for x in v] for v in vecs]
        assert Subspace.from_vectors(doubled + vecs, 3) == a

    def test_contains(self):
        s = Subspace.from_vectors([[1, 0, 1], [0, 1, 0]], 3)
        assert O.contains_vector(s, [2, 3, 2])
        assert not O.contains_vector(s, [1, 0, 0])
        assert s.reduce({0: 2, 1: 3, 2: 2}) == {}
        assert s.reduce({0: 1}) == {2: -1}
        assert s.contains(Subspace.from_vectors([[2, 3, 2]], 3))
        assert not s.contains(Subspace.from_vectors([[1, 0, 0]], 3))

    @given(st.lists(st.lists(entries, min_size=4, max_size=4), max_size=3),
           st.lists(st.lists(entries, min_size=4, max_size=4), max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_dimension_formula(self, gens_a, gens_b):
        a = Subspace.from_vectors(gens_a, 4)
        b = Subspace.from_vectors(gens_b, 4)
        total = O.sum_with(a, b)
        meet = O.intersect(a, b)
        assert a.dim + b.dim == total.dim + meet.dim
        assert total.contains(a) and total.contains(b)
        assert a.contains(meet) and b.contains(meet)

    def test_project(self):
        s = Subspace.from_vectors([[1, 2, 0], [0, 0, 1]], 3)
        p = s.project(2)
        assert p == Subspace.from_vectors([[1, 2]], 2)
        assert s.project(3) == s
        assert s.project(0).ambient_dim == 0 and s.project(0).is_zero()
        for n in (-1, 4):
            with pytest.raises(InputError, match="out of range"):
                s.project(n)

    @given(vector_families(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_project_onto_prefix_matches_from_vectors(self, family, data):
        n, vecs = family
        s = Subspace.from_vectors(vecs, n)
        cut = data.draw(st.integers(0, n))
        p = s.project(cut)
        fresh = Subspace.from_vectors(
            [b[:cut] for b in O.dense_basis(s)], cut)
        assert p == fresh
        assert p.pivots == fresh.pivots
        assert p.ambient_dim == cut
        _assert_canonical_rows(p)
        assert O.dense_basis(p) == O.dense_basis(fresh)

    def test_zero_and_full(self):
        z = O.zero_space(4)
        f = O.full_space(4)
        assert z.is_zero() and z.dim == 0
        assert f.dim == 4 and f.contains(z)

    @given(vector_families())
    @settings(max_examples=150, deadline=None)
    def test_from_vectors_matches_sympy_rref(self, family):
        n, vecs = family
        s = Subspace.from_vectors(vecs, n)
        basis, pivots = O.sympy_rref(vecs, n)
        assert O.dense_basis(s) == basis
        assert s.pivots == pivots
        _assert_canonical_rows(s)

    def test_from_vectors_edge_inputs(self):
        assert O.dense_basis(Subspace.from_vectors([], 3)) == []
        empty = Subspace.from_vectors([[], []], 0)
        assert O.dense_basis(empty) == [] and empty.ambient_dim == 0
        s = Subspace.from_vectors([["1/2", 1], [Fraction(1, 4), "1/2"]], 2)
        assert O.dense_basis(s) == [[Fraction(1), Fraction(2)]]
        assert s.pivots == [0] and s.rows == {0: {0: 1, 1: 2}}

    @pytest.mark.parametrize("vecs, n", [
        ([[1, 2], [1]], 2),
        ([[1, 2, 3]], 2),
        ([[1]], 0),
    ])
    def test_from_vectors_wrong_length(self, vecs, n):
        with pytest.raises(InputError, match="vector of length"):
            Subspace.from_vectors(vecs, n)


def _assert_canonical_rows(s):
    """s.rows: ascending pivots, each row a primitive {column: nonzero int}
    dict inside the ambient space, led by its positive pivot and zero on
    every other pivot column."""
    pivots = list(s.rows)
    assert pivots == sorted(pivots)
    for p, row in s.rows.items():
        assert all(type(v) is int and v for v in row.values())
        assert all(0 <= j < s.ambient_dim for j in row)
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert not any(q in row for q in pivots if q != p)


def _integer_vector(vec):
    """A dense int/Fraction vector as a sparse row of coprime ints."""
    denom = lcm(*(Fraction(x).denominator for x in vec)) if vec else 1
    row = {j: int(Fraction(x) * denom) for j, x in enumerate(vec) if x}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()}


@st.composite
def subspace_cases(draw):
    """(ambient dim, dense vectors, the same vectors as given, cell
    strategy): small ints, wide ints or Fractions, mostly zero or dense,
    handed over as dense lists or sparse dicts; the cell strategy draws
    more vectors of the same kind."""
    n = draw(st.integers(0, 6))
    value = draw(st.sampled_from([
        st.integers(-3, 3),
        st.integers(-60, 60),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    ]))
    zero = st.just(0)
    cell = draw(st.sampled_from([zero | value, zero | zero | zero | value]))
    vecs = draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                         max_size=5))
    given_vecs = vecs
    if draw(st.booleans()):
        given_vecs = [{j: v for j, v in enumerate(r) if v} for r in vecs]
    return n, vecs, given_vecs, cell


class TestCanonicalRows:
    """The primitive integer rows against the dense Fraction basis that
    Subspace stored before (tests/_oracles.py)."""

    @given(subspace_cases())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_the_scaled_reduced_basis(self, case):
        n, vecs, given_vecs, _ = case
        s = Subspace.from_vectors(given_vecs, n)
        _assert_canonical_rows(s)
        assert (O.dense_basis(s), s.pivots) == \
            O.dense_from_vectors_basis(vecs, n)
        negated = Subspace.from_vectors([[-x for x in v] for v in vecs], n)
        assert negated == s and negated.rows == s.rows
        assert hash(negated) == hash(s)

    def test_a_negative_pivot_is_flipped(self):
        s = Subspace.from_vectors([[0, -2, 4, -1]], 4)
        assert s.rows == {1: {1: 2, 2: -4, 3: 1}}
        assert s == Subspace.from_vectors([{1: 2, 2: -4, 3: 1}], 4)

    @given(subspace_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_and_contains_match_the_fraction_reference(self, case,
                                                             data):
        n, _, given_vecs, cell = case
        s = Subspace.from_vectors(given_vecs, n)
        probes = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                    max_size=3))
        # members too: combinations of the generators
        for v in probes + O.dense_basis(s)[:2]:
            want = O.reduce_vector(s, v)
            got = s.reduce(_integer_vector(v))
            assert got == _integer_vector(want)
            assert (not got) == O.contains_vector(s, v)
        other = Subspace.from_vectors(probes, n)
        assert s.contains(other) == all(
            O.contains_vector(s, b) for b in O.dense_basis(other))
        assert s.contains(s) and other.contains(Subspace.from_vectors([], n))

    @given(subspace_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_project_equals_a_fresh_span_of_the_cut_rows(self, case, data):
        n, _, given_vecs, _ = case
        s = Subspace.from_vectors(given_vecs, n)
        cut = data.draw(st.integers(0, n))
        p = s.project(cut)
        fresh = Subspace.from_vectors(
            [{j: v for j, v in row.items() if j < cut}
             for row in s.rows.values()], cut)
        assert p == fresh and p.rows == fresh.rows
        _assert_canonical_rows(p)

    def test_project_divides_out_a_common_factor_of_the_cut(self):
        # the row 2, 4, 1 is primitive; cut to its first two columns it is
        # 2·(1, 2)
        s = Subspace.from_vectors([[2, 4, 1]], 3)
        assert s.rows == {0: {0: 2, 1: 4, 2: 1}}
        p = s.project(2)
        assert p.rows == {0: {0: 1, 1: 2}}
        assert p == Subspace.from_vectors([[1, 2]], 2)


class TestStagedElimination:
    def test_stages_must_partition_columns(self):
        with pytest.raises(InputError):
            staged_elimination([[1, 2]], 2, [[0], [0, 1]])

    @pytest.mark.parametrize("rows", [
        [{0: "1/2"}], [["1/2", 0]], [{1: 1.5}], [[1, 1.5]],
        [[1, 2], {0: 1, 1: "2"}],
    ])
    def test_bad_cells_are_refused(self, rows):
        # only int and Fraction cells reach the kernel; a Matrix keeps a
        # sparse row as given, so the kernel is where its cells are checked
        with pytest.raises(InputError, match="not an int or a Fraction"):
            staged_elimination(rows, 2, [[0, 1]])
        sparse = [r if isinstance(r, dict) else dict(enumerate(r))
                  for r in rows]
        with pytest.raises(InputError, match="not an int or a Fraction"):
            Matrix(sparse, ncols=2).rank_kernel()

    @given(matrix_strategy(max_rows=5, max_cols=5), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_split_matches_membership_oracle(self, m, cut_raw):
        # split columns [0, cut) | [cut, ncols); the residual read off the
        # finished elimination must have kernel exactly {u : (second block)
        # u lies in the image of the first block}
        cut = min(cut_raw, m.ncols - 1)
        if cut < 1:
            return
        first = list(range(cut))
        stages = [first, list(range(cut, m.ncols))]
        elim = staged_elimination(m.rows, m.ncols, stages)
        _assert_split_matches_oracle(m.rows, first, *_split(elim, first))

    @given(matrix_strategy(max_rows=4, max_cols=5))
    @settings(max_examples=40, deadline=None)
    def test_total_rank_is_preserved(self, m):
        stages = [[c] for c in range(m.ncols)]
        elim = staged_elimination(m.rows, m.ncols, stages)
        assert elim.rank == O.sympy_rank(m.rows)

    @given(st.lists(st.lists(st.integers(-12, 12), min_size=4, max_size=4),
                    min_size=1, max_size=4), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_integer_rows_eliminate_like_fraction_rows(self, rows, scale):
        # integer rows skip the denominator pass but are still divided by
        # their gcd, and the caller's rows are never reduced in place
        copy = [list(r) for r in rows]
        scaled = [[Fraction(x, scale) for x in r] for r in rows]
        stages = [[3], [2], [0, 1]]
        a = staged_elimination(rows, 4, stages)
        b = staged_elimination(scaled, 4, stages)
        assert rows == copy
        assert a.rows == b.rows and a.pivots == b.pivots
        for absorbed in ([3], [3, 2]):
            split = _split(a, absorbed)
            assert split == _split(b, absorbed)
            _assert_split_matches_oracle(rows, absorbed, *split)


def _cell_strategy(draw):
    """One cell strategy per example: small ints (pivot ties are common),
    wide ints or Fractions, mostly zero or mostly dense."""
    value = draw(st.sampled_from([
        st.integers(-3, 3),
        st.integers(-60, 60),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    ]))
    zero = st.just(0)
    return draw(st.sampled_from([zero | value, zero | zero | zero | value]))


@st.composite
def elimination_cases(draw):
    """(dense rows, ncols, column stages): mostly-zero or dense rows of
    small ints, wide ints or Fractions, and a random partition of the
    columns into ordered stages.  Small ints make pivot ties common."""
    ncols = draw(st.integers(1, 6))
    cell = _cell_strategy(draw)
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         max_size=7))
    order = draw(st.permutations(range(ncols)))
    cuts = sorted(draw(st.sets(st.integers(1, ncols - 1)))) if ncols > 1 \
        else []
    stages = [order[a:b] for a, b in zip([0] + cuts, cuts + [ncols])]
    return rows, ncols, stages


class TestDenseOracleParity:
    """The sparse kernel against the dense elimination it replaced: the
    same rows, pivots, ranks, kernels and canonical bases."""

    @given(elimination_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_sparse_kernel_matches_dense_oracle(self, case, sparse):
        rows, ncols, stages = case
        given_rows = rows
        if sparse:
            given_rows = [{j: v for j, v in enumerate(r) if v} for r in rows]
        before = [r.copy() for r in given_rows]
        got = staged_elimination(given_rows, ncols, stages)
        assert given_rows == before
        want = O.dense_staged_elimination(rows, ncols, stages)
        assert got.rows == want.rows
        assert got.pivots == want.pivots and got.rank == want.rank
        rank, kernel = Matrix(rows, ncols=ncols).rank_kernel()
        assert (rank, O.dense_basis(kernel), kernel.pivots) == \
            O.dense_rank_kernel(rows, ncols)
        span = Subspace.from_vectors(given_rows, ncols)
        assert (O.dense_basis(span), span.pivots) == \
            O.dense_from_vectors_basis(rows, ncols)

    def test_rows_are_dense_int_lists(self):
        # bench/tracer.py reads len(rows) * ncols off the input and the
        # bit-lengths of the values in elim.rows
        dense = [[0, 2, Fraction(1, 2)], [0, 0, 0], [3, 0, 6]]
        sparse = [{1: 2, 2: Fraction(1, 2)}, {}, {0: 3, 2: 6}]
        for rows in (dense, sparse):
            elim = staged_elimination(rows, 3, [[2], [0, 1]])
            assert isinstance(elim.rows, list) and len(elim.rows) == 3
            for row in elim.rows:
                assert isinstance(row, list) and len(row) == 3
                assert all(type(v) is int for v in row)
            assert elim.rows == staged_elimination(dense, 3,
                                                   [[2], [0, 1]]).rows

    def test_sparse_columns_must_fit(self):
        with pytest.raises(InputError):
            staged_elimination([{3: 1}], 3, [[0, 1, 2]])
        with pytest.raises(InputError):
            Subspace.from_vectors([{-1: 1}], 2)


def _split(elim, absorbed):
    """(rank of the absorbed columns, residual) read off a finished
    elimination: the rows without a pivot among the absorbed columns,
    restricted to the other columns in ascending order."""
    kept = [c for c in range(elim.ncols) if c not in absorbed]
    pivoted = {r for r, c in elim.pivots if c in absorbed}
    rows = [[row[c] for c in kept]
            for i, row in enumerate(elim.rows) if i not in pivoted]
    return len(pivoted), Matrix(rows, ncols=len(kept))


def _assert_split_matches_oracle(rows, absorbed, rank, residual):
    """rank is the rank of the absorbed columns, and the residual's kernel
    is {u : (kept columns) u lies in their image}, by sympy."""
    kept = [c for c in range(len(rows[0])) if c not in absorbed]
    first = [[row[c] for c in absorbed] for row in rows]
    second = [[row[c] for c in kept] for row in rows]
    assert rank == O.sympy_rank(first)
    _, kern = residual.rank_kernel()
    first_cols = [list(col) for col in zip(*first)]
    for u in O.dense_basis(kern):
        bu = [sum(row[j] * u[j] for j in range(len(kept))) for row in second]
        assert O.in_row_span(first_cols, [Fraction(v) for v in bu])
    assert kern.dim == len(kept) - O.sympy_rank(_schur_rows(first, second))


def _schur_rows(first, second):
    """Dense oracle for {u : second u in Im(first)}: rows spanning the
    orthogonal complement of Im(first), applied to second."""
    import sympy

    nrows = len(first)
    if nrows == 0:
        return []
    a = sympy.Matrix([[O._to_sympy(Fraction(v)) for v in r] for r in first])
    if a.cols == 0:
        a = sympy.zeros(nrows, 1)
    # left null space of first = functionals vanishing on its image
    left = a.T.nullspace()
    out = []
    for w in left:
        out.append([
            Fraction(sum(
                O._from_sympy(sympy.Rational(w[i])) * second[i][j]
                for i in range(nrows)
            ))
            for j in range(len(second[0]) if second and second[0] else 0)
        ])
    return [r for r in out if r]


def test_rank_kernel_method():
    m = Matrix([[1, 1], [1, 1]], ncols=2)
    rank, kern = m.rank_kernel()
    assert rank == 1
    assert kern == Subspace.from_vectors([[1, -1]], 2)


@st.composite
def kernel_matrices(draw):
    """A Matrix of 0-6 columns, dense or sparse rows of ints or Fractions
    with zero rows mixed in; now and then the zero matrix, or one of full
    column rank (a unit lower-triangular block among the rows)."""
    ncols = draw(st.integers(0, 6))
    cell = _cell_strategy(draw)
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                         max_size=6))
    kind = draw(st.sampled_from(["random", "zero", "full rank"]))
    if kind == "zero":
        rows = [[0] * ncols for _ in rows]
    elif kind == "full rank":
        rows += [[1 if j == i else draw(cell) if j < i else 0
                  for j in range(ncols)] for i in range(ncols)]
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows = [{j: v for j, v in enumerate(r) if v} for r in rows]
    return Matrix(rows, ncols=ncols)


class TestOneEliminationKernel:
    """rank_kernel reads the canonical kernel off its one descending
    elimination; the ascending elimination plus a canonicalising second one
    that it replaced must give the same rank and the same Subspace."""

    @given(kernel_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_canonicalising_route(self, m):
        rank, kernel = m.rank_kernel()
        assert (rank, kernel) == O.rank_kernel_by_canonicalising(m)
        assert rank + kernel.dim == m.ncols
        # the rows are canonical as they stand
        assert Subspace.from_vectors(list(kernel.rows.values()),
                                     m.ncols) == kernel

    def test_edge_shapes(self):
        assert Matrix([], ncols=0).rank_kernel() == \
            (0, Subspace.from_vectors([], 0))
        assert Matrix([[0, 0], {}], ncols=2).rank_kernel() == \
            (0, Subspace.from_vectors([[1, 0], [0, 1]], 2))
        assert Matrix([[2, 4], [0, Fraction(1, 3)]]).rank_kernel() == \
            (2, Subspace.from_vectors([], 2))

    def test_one_elimination_no_canonicalising_pass(self, monkeypatch):
        calls = []
        real_from = Subspace.from_vectors.__func__

        def counted_elim(*args, **kwargs):
            calls.append("staged_elimination")
            return staged_elimination(*args, **kwargs)

        def counted_from(cls, *args, **kwargs):
            calls.append("from_vectors")
            return real_from(cls, *args, **kwargs)

        m = Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]], ncols=4)
        monkeypatch.setattr("chevkit.linalg.staged_elimination",
                            counted_elim)
        monkeypatch.setattr(Subspace, "from_vectors",
                            classmethod(counted_from))
        rank, kernel = m.rank_kernel()
        assert calls == ["staged_elimination"]
        assert (rank, kernel.dim) == (2, 2)
