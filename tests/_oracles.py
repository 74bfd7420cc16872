"""Independent oracles built on sympy, reference copies of package
routines that the package has replaced, and helpers only tests use.

The sympy oracles recompute package results from scratch through symbolic
composition and sympy linear algebra, sharing no code with the package
beyond the index enumeration contract (degree then lexicographic), so
agreement is meaningful.  The reference copies (shift_by_compose,
map_power) are the straightforward versions of a faster package routine,
written on Poly arithmetic; tests compare the package against them.
dense_staged_elimination is likewise the package's elimination kernel as
it was on dense rows, before it moved to sparse integer rows;
dense_jet_matrix (with component_series) the jet build as it was before it
grew one x-degree at a time, in dense rows;
normal_form_by_fractions is the Fraction division pass staircase.normal_form
ran before it reduced integer rows, and normal_form_by_projection its
integer reduction as it was before it read the diagram's own rows below a
series' cut, through the projected span; PolyArithmeticParser the parser as
it was when every literal, variable and power was a Poly; it reads the
tokens of tokenize_by_match_loop, the tokenizer as it was before it read
its text in one finditer pass.  random_series_by_randint is the product
probe's draw as it was before it called getrandbits directly, and
canonical_json_by_dumps the canonical JSON writer as it was before it
wrote its text in one pass: the payload made JSON-ready, then json.dumps.
staircase_vertices_by_domination is the quadratic vertex search of
diagram_from_generators before it tested lower neighbours, and
ideal_jet_space_by_fractions the ideal-jet rows as they were built before
each generator was scaled to integers once, and relation_jets_by_rref the
certified climb as it ran before it read H(k) off a single generator's
leading term: on the canonical echelon of the generators' multiples.  integer_row is the
conversion the elimination kernel made on entry while it still took
dense and Fraction rows; tests that feed such rows go through it
(integer_rows, int_matrix, and integer_blocks for the one matrix and
column split of a membership system), DenseMatrix holds the exact dense
matrices that the references build, and dense_rows reads a package Matrix
densely.
rank_kernel_by_canonicalising and membership_kernel_by_residual are the
kernel routes as they were before each read its canonical rows off one
descending elimination: an ascending elimination, then a second one to
canonicalise (and, for membership, a residual Matrix in between).
membership_operator_by_subsets is the dense wedge route as it was before
it built only the nonzero minors: every (column subset, row subset) pair
visited, with _minor's memoised expansion; kernel_contains_by_pairs the
climb's guard as it was before it indexed the guard rows by column, and
echelon_by_scans the jet echelon as JetSystem built it before it reduced
each new row through a heap of the pivot columns it meets, and
column_steps_by_derivation the parent steps of one degree's columns as the
jet build derived them at every order before it read a shared table.
dense_basis, reduce_vector and contains_vector are the dense Fraction
basis of a canonical Subspace and the membership test on it, as Subspace
held them before it kept the elimination's primitive integer rows.  The
helpers at the end (matrix products, the identity, subspace sums and
meets, the dense wedge operator and its self-test, coefficient reads, a
series' terms as a Poly) were package functions that nothing in the
package or the benchmark called; tests build inputs and references with
them.
"""

import json
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm, prod

import sympy

from chevkit.censored import AtLeast
from chevkit.chevalley import VERIFIED, RelationJets
from chevkit.errors import (
    ConsistencyError,
    InputError,
    RelationsMismatchError,
    check_int,
)
from chevkit.indices import (
    degree,
    dominates,
    index_count,
    indices_of_degree,
    indices_up_to,
    mono_key,
)
from chevkit.jets import jet_matrix
from chevkit.linalg import (
    Matrix,
    Subspace,
    _primitive,
    _reduce,
    staged_elimination,
)
from chevkit.poly import _TOKEN_RE, Poly, TruncatedSeries, var_names
from chevkit.staircase import (
    _integer_row,
    diagram_from_generators,
    hilbert_samuel_count,
    ideal_jet_space,
)
from chevkit.wedge import _check_cap


def _to_sympy(q):
    return sympy.Rational(q.numerator, q.denominator)


def _from_sympy(r):
    return Fraction(int(r.p), int(r.q))


def sympy_poly(p, symbols):
    expr = sympy.Integer(0)
    for beta, c in p.terms.items():
        term = _to_sympy(c)
        for s, e in zip(symbols, beta):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def taylor_coeff(expr, symbols, point, alpha):
    """Coefficient of prod (x - a)^alpha in the expansion of expr at point."""
    shifted = expr
    for s, a in zip(symbols, point):
        shifted = shifted.subs(s, s + _to_sympy(a))
    shifted = sympy.expand(shifted)
    poly = sympy.Poly(shifted, *symbols)
    return _from_sympy(sympy.Rational(poly.coeff_monomial(
        sympy.prod([s ** e for s, e in zip(symbols, alpha)])
    )))


def jet_matrix_by_composition(components, points, image, l):
    """Jet matrix rebuilt by expanding (phi - b)^beta symbolically."""
    m = len(points[0])
    n = len(components)
    xs = sympy.symbols(f"x0:{m}")
    comps = [sympy_poly(c, xs) for c in components]
    cols = indices_up_to(n, l)
    row_alphas = indices_up_to(m, l)
    rows = []
    col_exprs = []
    for beta in cols:
        expr = sympy.Integer(1)
        for comp, bj, e in zip(comps, image, beta):
            expr *= (comp - _to_sympy(bj)) ** e
        col_exprs.append(sympy.expand(expr))
    for a in points:
        for alpha in row_alphas:
            rows.append([
                taylor_coeff(expr, xs, a, alpha) for expr in col_exprs
            ])
    return rows


def sympy_rank(rows):
    if not rows:
        return 0
    mat = sympy.Matrix([[_to_sympy(Fraction(v)) for v in r] for r in rows])
    return mat.rank()


def sympy_nullspace(rows, ncols):
    if not rows:
        rows = [[0] * ncols]
    mat = sympy.Matrix([[_to_sympy(Fraction(v)) for v in r] for r in rows])
    return [
        [_from_sympy(sympy.Rational(v)) for v in vec]
        for vec in mat.nullspace()
    ]


def projected_kernel_dim(components, points, image, l, k):
    """dim of the degree-<= k prefixes of the order-l jet kernel, from the
    symbolically rebuilt matrix."""
    n = len(components)
    rows = jet_matrix_by_composition(components, points, image, l)
    ncols = len(indices_up_to(n, l))
    kern = sympy_nullspace(rows, ncols)
    keep = len(indices_up_to(n, k))
    prefixes = [v[:keep] for v in kern]
    return sympy_rank(prefixes)


def threshold_by_search(components, points, image, k, l_cap):
    """Least l with zero projected kernel, for maps with zero relation
    ideal; None if not reached by l_cap."""
    for l in range(k, l_cap + 1):
        if projected_kernel_dim(components, points, image, l, k) == 0:
            return l
    return None


def threshold_by_stabilization(components, points, image, k, l_cap):
    """Least l whose projected kernel dimension equals the value at l_cap.
    Meaningful when the chain is known to settle within the cap."""
    dims = [
        projected_kernel_dim(components, points, image, l, k)
        for l in range(k, l_cap + 1)
    ]
    final = dims[-1]
    for l, d in zip(range(k, l_cap + 1), dims):
        if d == final:
            return l
    return None


def in_row_span(rows, vector):
    """Whether vector lies in the row span, by a rank comparison."""
    base = sympy_rank(rows)
    return sympy_rank(rows + [vector]) == base


def composition_taylor_vector(f_local, components, image, a, l):
    """Taylor coefficients (degree <= l, shared enumeration) at a of
    f_local((phi - b)(x)), computed purely in sympy."""
    m = len(a)
    n = len(components)
    xs = sympy.symbols(f"x0:{m}")
    comps = [sympy_poly(c, xs) for c in components]
    diffs = [comp - _to_sympy(bj) for comp, bj in zip(comps, image)]
    expr = sympy.Integer(0)
    for beta, c in f_local.terms.items():
        term = _to_sympy(c)
        for d, e in zip(diffs, beta):
            term *= d ** e
        expr += term
    expr = sympy.expand(expr)
    return [
        taylor_coeff(expr, xs, a, alpha)
        for alpha in indices_up_to(m, l)
    ]


def sympy_det(rows):
    return _from_sympy(sympy.Rational(sympy.Matrix(
        [[_to_sympy(Fraction(v)) for v in r] for r in rows]
    ).det()))


def sympy_rref(vectors, ncols):
    """(nonzero rows, pivot columns) of sympy's reduced row-echelon form of
    the vectors stacked as rows; entries are anything Fraction() accepts."""
    if not vectors or ncols == 0:
        return [], []
    m = sympy.Matrix([[_to_sympy(Fraction(x)) for x in v] for v in vectors])
    reduced, pivots = m.rref()
    basis = [[_from_sympy(reduced[i, j]) for j in range(ncols)]
             for i in range(len(pivots))]
    return basis, list(pivots)


def shift_by_compose(p, point):
    """p(x + point) by substituting x_i + a_i into p through Poly.compose:
    the body Poly.shift had before it expanded terms binomially."""
    if len(point) != p.arity:
        raise InputError(
            f"point has {len(point)} coordinates, expected {p.arity}"
        )
    point = tuple(Fraction(a) for a in point)
    args = [
        variable(p.arity, i) + Poly.constant(p.arity, point[i])
        for i in range(p.arity)
    ]
    return p.compose(args)


def map_power(series_list, beta, d):
    """Product series_list[0]^beta[0] * ... truncated past degree d.

    Every factor must already be truncated at >= d; the result is exact in
    degrees <= d because truncation commutes with multiplication there.
    """
    if len(series_list) != len(beta):
        raise InputError(
            f"power index {beta} does not match {len(series_list)} series"
        )
    arity = series_list[0].arity if series_list else 1
    result = TruncatedSeries(arity, {(0,) * arity: Fraction(1)}, d)
    for s, e in zip(series_list, beta):
        if s.trunc_degree < d:
            raise TruncationError(
                f"factor truncated at {s.trunc_degree}, need degree {d}"
            )
        for _ in range(e):
            result = result * s
    return result


# the dense jet build

def component_series(phi, tup, point_index, l):
    """Image-centered component series at one source point, truncated at l:
    each component shifted once, less its constant term c(a) = b_j."""
    series = [c.taylor(tup.points[point_index], l) for c in phi.components]
    for s in series:
        s.terms.pop((0,) * phi.source_arity, None)
    return series


def dense_jet_matrix(phi, tup, l):
    """(rows, scales, col_labels, row_labels): the order-l jet matrix as
    jets.jet_matrix built it before it grew one x-degree at a time.  Dense
    int rows, row (p, alpha) scaled by scales[p]^|alpha|, where scales[p]
    is the least common denominator of the series truncated at l, and each
    column one truncated product away from a previously built one."""
    m, n = phi.source_arity, phi.target_arity
    betas = indices_up_to(n, l)
    alphas = indices_up_to(m, l)
    alpha_pos = {a: i for i, a in enumerate(alphas)}
    rows = [[0] * len(betas) for _ in range(tup.size * len(alphas))]
    scales = []
    for pi in range(tup.size):
        comps = component_series(phi, tup, pi, l)
        t = 1
        for c in comps:
            for v in c.terms.values():
                t = lcm(t, v.denominator)
        comps = [TruncatedSeries(m, {a: (v * t ** degree(a)).numerator
                                     for a, v in c.terms.items()},
                                 l, _exact=True)
                 for c in comps]
        scales.append(t)
        powers = {(0,) * n: TruncatedSeries(m, {(0,) * m: 1}, l,
                                            _exact=True)}
        for col, beta in enumerate(betas):
            if col:
                j = next(i for i, e in enumerate(beta) if e)
                parent = tuple(e - (i == j) for i, e in enumerate(beta))
                powers[beta] = powers[parent] * comps[j]
            for alpha, c in powers[beta].terms.items():
                rows[pi * len(alphas) + alpha_pos[alpha]][col] = c
    row_labels = tuple((pi, a) for pi in range(tup.size) for a in alphas)
    return rows, tuple(scales), betas, row_labels


class TruncationError(InputError):
    """A truncation degree does not support the requested operation."""


# the dense staged elimination

def _integerize(row):
    """Scale a row of ints/Fractions to coprime integers (kernel-preserving).

    Always returns a new list, which callers may reduce in place.
    """
    if all(x.__class__ is int for x in row):
        ints = list(row)
    else:
        denom = 1
        for x in row:
            denom = lcm(denom, x.denominator)
        ints = [x.numerator * (denom // x.denominator) for x in row]
    _normalize(ints)
    return ints


def _reduce_row(row, prow, c):
    """Clear column c of row against the pivot row prow, in place.

    row <- pv·row − f·prow with pv = prow[c] and f = row[c], then divided by
    its gcd.  Both rows have the same length.
    """
    pv, f = prow[c], row[c]
    row[:] = [pv * a - f * b for a, b in zip(row, prow)]
    _normalize(row)


def _normalize(row):
    """Divide an integer row in place by the gcd of its entries."""
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for i, v in enumerate(row):
            row[i] = v // g


class DenseElimination:
    """Result of dense_staged_elimination: reduced rows plus pivot
    bookkeeping."""

    def __init__(self, rows, ncols, pivots):
        self.rows = rows
        self.ncols = ncols
        self.pivots = pivots

    @property
    def rank(self):
        return len(self.pivots)

    def kernel_vectors(self):
        pivot_cols = {c for _, c in self.pivots}
        basis = []
        for free in range(self.ncols):
            if free in pivot_cols:
                continue
            v = [Fraction(0)] * self.ncols
            v[free] = Fraction(1)
            for r, c in self.pivots:
                num = self.rows[r][free]
                if num:
                    v[c] = Fraction(-num, self.rows[r][c])
            basis.append(v)
        return basis


def dense_staged_elimination(rows, ncols, col_stages):
    """Fraction-free Gauss-Jordan over caller-ordered column stages.

    rows hold ints or Fractions.  col_stages must partition range(ncols);
    stages are processed in order.  A row left without a pivot in stages
    0..s is zero on their columns, and those rows, restricted to the later
    columns, have the kernel {u : (later columns)·u lies in the span of the
    earlier ones}: row operations preserve kernel and row space, and the
    later stages only recombine such rows among themselves.
    """
    work = [_integerize(r) for r in rows]
    for r in work:
        if len(r) != ncols:
            raise InputError("row length does not match column count")
    seen = set()
    for stage in col_stages:
        for c in stage:
            if not 0 <= c < ncols or c in seen:
                raise InputError("column stages must partition the columns")
            seen.add(c)
    if len(seen) != ncols:
        raise InputError("column stages must cover every column")

    nrows = len(work)
    pivots = []
    pivot_rows = set()
    for stage in col_stages:
        for c in stage:
            # smallest nonzero pivot keeps the integer growth tame
            best = None
            for i in range(nrows):
                if i in pivot_rows or not work[i][c]:
                    continue
                if best is None or abs(work[i][c]) < abs(work[best][c]):
                    best = i
            if best is None:
                continue
            pivots.append((best, c))
            pivot_rows.add(best)
            prow = work[best]
            for i in range(nrows):
                if i != best and work[i][c]:
                    _reduce_row(work[i], prow, c)
    return DenseElimination(work, ncols, pivots)


def dense_from_vectors_basis(vectors, ambient_dim):
    """(basis, pivots) of the canonical span of dense int/Fraction vectors,
    by one ascending dense elimination, as Subspace.from_vectors built it."""
    elim = dense_staged_elimination(vectors, ambient_dim,
                                    [list(range(ambient_dim))])
    basis = []
    pivots = []
    for r, c in elim.pivots:
        row = elim.rows[r]
        pv = row[c]
        basis.append([Fraction(v, pv) if v else Fraction(0) for v in row])
        pivots.append(c)
    return basis, pivots


def dense_rank_kernel(rows, ncols):
    """(rank, kernel basis, kernel pivots) of a dense matrix by the dense
    route: Fraction kernel vectors, then their canonical span."""
    elim = dense_staged_elimination(rows, ncols, [list(range(ncols))])
    return (elim.rank,
            *dense_from_vectors_basis(elim.kernel_vectors(), ncols))


def rank_kernel_by_canonicalising(matrix):
    """(rank, kernel) of a Matrix as Matrix.rank_kernel computed it before
    it read the canonical rows off a descending elimination: one ascending
    stage, one integer kernel vector per free column, then a second
    elimination through Subspace.from_vectors to canonicalise them."""
    ncols = matrix.ncols
    elim = staged_elimination(matrix.sparse_rows, ncols, [range(ncols)])
    hits = {}
    for r, c in elim.pivots:
        row = elim.sparse_rows[r]
        for f, v in row.items():
            if f != c:
                hits.setdefault(f, []).append((c, row[c], v))
    pivot_cols = {c for _, c in elim.pivots}
    vectors = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        col = hits.get(f, ())
        big = lcm(*(pv for _, pv, _ in col))
        vec = {f: big}
        for c, pv, v in col:
            vec[c] = -v * (big // pv)
        vectors.append(vec)
    return elim.rank, Subspace.from_vectors(vectors, ncols)


def membership_kernel_by_residual(matrix, cut):
    """(kernel, residual_rank, absorbed_rank) of a membership system as
    wedge.membership_kernel computed them before it made one elimination:
    a two-stage elimination, the absorbed columns (at and past cut) first,
    then the rows left without a pivot among them as a residual Matrix over
    the kept columns (before cut), then that matrix's rank_kernel by
    rank_kernel_by_canonicalising."""
    ncols = matrix.ncols
    elim = staged_elimination(
        matrix.sparse_rows, ncols,
        [list(range(cut, ncols)), list(range(cut))],
    )
    absorbed_rows = {r for r, c in elim.pivots if c >= cut}
    residual = Matrix(
        [row for i, row in enumerate(elim.sparse_rows)
         if i not in absorbed_rows],
        ncols=cut,
    )
    rank, kernel = rank_kernel_by_canonicalising(residual)
    return kernel, rank, len(absorbed_rows)


def dense_basis(subspace):
    """The canonical basis as dense Fraction lists with pivots 1, the form
    Subspace stored before it kept its primitive integer rows."""
    n = subspace.ambient_dim
    return [[Fraction(row.get(j, 0), row[p]) for j in range(n)]
            for p, row in subspace.rows.items()]


def reduce_vector(subspace, vec):
    """Subspace.reduce_vector as it was on the dense Fraction basis:
    subtract the basis component; the result is zero iff vec is inside."""
    row = [Fraction(x) for x in vec]
    if len(row) != subspace.ambient_dim:
        raise InputError(
            f"vector of length {len(row)} in ambient dim"
            f" {subspace.ambient_dim}"
        )
    for b, p in zip(dense_basis(subspace), subspace.pivots):
        f = row[p]
        if f:
            row = [x - f * y for x, y in zip(row, b)]
    return row


def contains_vector(subspace, vec):
    return not any(reduce_vector(subspace, vec))


# matrices and subspaces

def integer_row(row):
    """A new sparse row: the nonzeros of a dense or sparse row of
    ints/Fractions, scaled to coprime integers (kernel-preserving).  Any
    other cell is refused.  The kernel made this conversion on entry while
    it still took dense and Fraction rows; tests feed such rows through
    here."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    out = {j: v for j, v in items if v}
    if any(v.__class__ is not int for v in out.values()):
        denom = 1
        for v in out.values():
            if not isinstance(v, (int, Fraction)):
                raise InputError(f"cell {v!r} is not an int or a Fraction")
            denom = lcm(denom, v.denominator)
        out = {j: v.numerator * (denom // v.denominator)
               for j, v in out.items()}
    g = gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out


def integer_rows(rows):
    return [integer_row(r) for r in rows]


def int_matrix(rows, ncols=None):
    """The package Matrix over dense or sparse int/Fraction rows, each
    through integer_row: the same rank, kernel and row space.  ncols
    defaults to the length of the first row, which must then be dense."""
    rows = list(rows)
    return Matrix(integer_rows(rows), len(rows[0]) if ncols is None else ncols)


def dense_rows(m):
    """The rows of a package Matrix as dense lists, absent cells 0."""
    return [[row.get(j, 0) for j in range(m.ncols)] for row in m.sparse_rows]


class DenseMatrix:
    """An exact matrix of dense int/Fraction rows, for references: the
    form the package Matrix also held before it took sparse integer rows
    only.  sparse_rows are its exact nonzeros; integer() is the package
    Matrix over its rows scaled by integer_row."""

    def __init__(self, rows, ncols):
        self.rows = [list(r) for r in rows]
        if any(len(r) != ncols for r in self.rows):
            raise InputError(f"a row is not {ncols} cells long")
        self.nrows, self.ncols = len(self.rows), ncols

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def sparse_rows(self):
        return [{j: v for j, v in enumerate(r) if v} for r in self.rows]

    def integer(self):
        return int_matrix(self.rows, self.ncols)


def integer_blocks(kept, absorbed):
    """(matrix, cut) for the membership routes, from two DenseMatrix blocks
    with shared rows: each joined row [kept | absorbed] through
    integer_row, which scales a row's two halves alike and so keeps the
    membership system {u : kept u lies in the column span of absorbed};
    cut is kept's column count."""
    joined = integer_rows(rk + ra for rk, ra in zip(kept.rows, absorbed.rows))
    return Matrix(joined, kept.ncols + absorbed.ncols), kept.ncols


def identity(n):
    return DenseMatrix(
        [[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n)


def zero_matrix(nrows, ncols):
    return DenseMatrix([[0] * ncols for _ in range(nrows)], ncols)


def elimination_rank(rows, ncols):
    """Rank of dense rows by one fresh single-stage staged_elimination; no
    kernel is canonicalised."""
    return staged_elimination(integer_rows(rows), ncols,
                              [list(range(ncols))]).rank


def transpose(m):
    rows = [[m.rows[i][j] for i in range(m.nrows)] for j in range(m.ncols)]
    return DenseMatrix(rows, m.nrows)


def apply(rows, vec):
    """The dense rows times the column vector vec, as a list."""
    for r in rows:
        if len(r) != len(vec):
            raise InputError(
                f"vector length {len(vec)} does not match {len(r)} columns"
            )
    return [sum((r[j] * vec[j] for j in range(len(vec))), Fraction(0))
            for r in rows]


def matmul(a, b):
    """The product a @ b of DenseMatrix objects, row by row, skipping zero
    entries on both sides: wedge operators have at most r + 1 nonzeros per
    row."""
    if a.ncols != b.nrows:
        raise InputError(f"cannot multiply {a.shape} by {b.shape}")
    rows = []
    for row in a.rows:
        acc = [0] * b.ncols
        for x, brow in zip(row, b.rows):
            if not x:
                continue
            for j, y in enumerate(brow):
                if y:
                    acc[j] += x * y
        rows.append(acc)
    return DenseMatrix(rows, b.ncols)


def zero_space(ambient_dim):
    return Subspace.from_vectors([], ambient_dim)


def full_space(ambient_dim):
    return Subspace.from_vectors([{i: 1} for i in range(ambient_dim)],
                                 ambient_dim)


def _check_ambient(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise InputError(
            f"ambient dimension mismatch: {a.ambient_dim} vs {b.ambient_dim}"
        )


def sum_with(a, b):
    _check_ambient(a, b)
    return Subspace.from_vectors(
        integer_rows(dense_basis(a) + dense_basis(b)), a.ambient_dim)


def intersect(a, b):
    _check_ambient(a, b)
    basis_a, basis_b = dense_basis(a), dense_basis(b)
    if not basis_a or not basis_b:
        return zero_space(a.ambient_dim)
    # solve sum_i s_i a_i = sum_j t_j b_j; columns are the basis vectors
    stacked = [list(v) for v in basis_a] + [[-x for x in v] for v in basis_b]
    combos = sympy_nullspace([list(col) for col in zip(*stacked)],
                             len(stacked))
    vecs = []
    for w in combos:
        vec = [Fraction(0)] * a.ambient_dim
        for s, v in zip(w[: len(basis_a)], basis_a):
            if s:
                for i, x in enumerate(v):
                    vec[i] += s * x
        vecs.append(vec)
    return Subspace.from_vectors(integer_rows(vecs), a.ambient_dim)


def column_span(b):
    return Subspace.from_vectors(integer_rows(transpose(b).rows), b.nrows)


def _minor(rows_of_b, row_set, col_set, memo):
    """Determinant of a square minor of sparse rows, memoized by index sets.

    Exact in whatever the cells are, ints or Fractions; the empty minor is 1.
    """
    key = (row_set, col_set)
    got = memo.get(key)
    if got is not None:
        return got
    size = len(row_set)
    if size == 0:
        val = 1
    elif size == 1:
        val = rows_of_b[row_set[0]].get(col_set[0], 0)
    else:
        # expand along the first column; subminors repeat across the
        # operator's rows, which is where the memo pays off
        val = 0
        rest = col_set[1:]
        for pos, ri in enumerate(row_set):
            c = rows_of_b[ri].get(col_set[0])
            if not c:
                continue
            sub = row_set[:pos] + row_set[pos + 1:]
            term = c * _minor(rows_of_b, sub, rest, memo)
            val += term if pos % 2 == 0 else -term
    memo[key] = val
    return val


def wedge_operator(b, r):
    """The order-r wedge operator of b, as a DenseMatrix.

    Rows are indexed by (column r-subset J, row (r+1)-subset I), both in
    lexicographic order, J outermost.  The entry in column p is zero unless
    p is in I, and otherwise the signed r x r minor of b on rows I minus p
    and columns J.  Order 0 gives the identity.  The reference that
    chevkit.wedge.membership_operator composes without building it; its
    minors are _minor's, one memoised expansion per (rows, columns) pair,
    and only the cap is the package's.
    """
    if r < 0:
        raise InputError("wedge order must be >= 0")
    f, e = b.nrows, b.ncols
    if r == 0:
        return identity(f)
    if r > e or r + 1 > f:
        # the source or target exterior power collapses to zero
        return DenseMatrix([], f)
    _check_cap(e, f, r)
    memo = {}
    rows = []
    for col_subset in combinations(range(e), r):
        for row_subset in combinations(range(f), r + 1):
            row = [Fraction(0)] * f
            for pos, p in enumerate(row_subset):
                rest = row_subset[:pos] + row_subset[pos + 1:]
                minor = _minor(b.sparse_rows, rest, col_subset, memo)
                if minor:
                    row[p] = minor if pos % 2 == 0 else -minor
            rows.append(row)
    return DenseMatrix(rows, f)


def membership_operator_by_subsets(matrix, cut, r):
    """chevkit.wedge.membership_operator as it was before it built only
    the nonzero minors: every (column r-subset J, row (r+1)-subset I) pair
    visited in order, each composed row the signed sum over p in I of
    _minor(I minus p, J) times kept row p, zero rows dropped and the rest
    divided by their gcd.  Valid input only: no cut, order or cap check."""
    f, e = matrix.nrows, matrix.ncols - cut
    if r > e or r + 1 > f:
        return Matrix([], ncols=cut)
    high, low = [], []
    for row in matrix.sparse_rows:
        row = dict(row)
        _primitive(row)
        high.append({j - cut: v for j, v in row.items() if j >= cut})
        low.append([(j, v) for j, v in row.items() if j < cut])
    # a minor on rows that include a zero row of absorbed vanishes: a row
    # subset holding two such rows gives a zero row, and one holding just z
    # keeps only the term p = z
    zero = {i for i, row in enumerate(high) if not row}
    memo = {}
    rows = []
    for col_subset in combinations(range(e), r):
        for row_subset in combinations(range(f), r + 1):
            hit = [i for i in row_subset if i in zero]
            if len(hit) > 1:
                continue
            acc = [0] * cut
            for pos, p in enumerate(row_subset):
                if not low[p] or hit and p != hit[0]:
                    continue
                rest = row_subset[:pos] + row_subset[pos + 1:]
                minor = _minor(high, rest, col_subset, memo)
                if not minor:
                    continue
                if pos % 2:
                    minor = -minor
                for j, v in low[p]:
                    acc[j] += minor * v
            if any(acc):
                g = gcd(*acc)
                rows.append({j: v // g for j, v in enumerate(acc) if v})
    return Matrix(rows, ncols=cut)


def kernel_contains_by_pairs(rows, vectors):
    """chevkit.jets.JetSystem.kernel_contains's test as it was before it
    indexed the guard rows by column: every (guard row, vector) pair's
    product summed entry by entry over the vector's nonzeros."""
    return all(
        not sum(row[i] * x for i, x in v.items() if i in row)
        for v in vectors for row in rows
    )


def echelon_by_scans(phi, tup, l):
    """(echelon, ends) of chevkit.jets.JetSystem through order l, built by
    its _extend as it was before it reduced through a heap of the pivot
    columns each row meets: every order re-sorts the whole echelon into
    staged order, tests every pivot row against every new row, and then
    eliminates over all the order's columns, stage by stage."""
    build = jet_matrix(phi, tup, l)
    n = phi.target_arity
    echelon, ends = [], []
    for d in range(l + 1):
        batch = [dict(row) for row in build.layer(d)]
        for _, c, prow in sorted(echelon, key=lambda e: (-e[0], e[1])):
            for row in batch:
                if c in row:
                    _reduce(row, prow, c)
        stages = [range(index_count(n, e - 1), index_count(n, e))
                  for e in range(d, -1, -1)]
        elim = staged_elimination(batch, index_count(n, d), stages)
        for r, c in elim.pivots:
            e = next(d - i for i, stage in enumerate(stages) if c in stage)
            echelon.append((e, c, elim.sparse_rows[r]))
        ends.append(len(echelon))
    return echelon, ends


def column_steps_by_derivation(n, d):
    """The (parent column, j) steps of the target columns of degree d, as
    JetMatrix._add_order derived them at every order before it read the
    shared jets._column_steps table: j the first nonzero coordinate of
    beta, the parent beta - e_j found through a position dict of the
    degree d - 1 columns; [None] at d = 0."""
    if d == 0:
        return [None]
    base = index_count(n, d - 2)
    pos = {b: base + i for i, b in enumerate(indices_of_degree(n, d - 1))}
    steps = []
    for beta in indices_of_degree(n, d):
        j = next(i for i, e in enumerate(beta) if e)
        parent = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
        steps.append((pos[parent], j))
    return steps


def image_kernel_check(b):
    """Self-test: the column span of b equals the kernel of its wedge operator
    at order rank(b).  Should hold for every matrix."""
    r = sympy_rank(b.rows)
    _, kernel = wedge_operator(b, r).integer().rank_kernel()
    return column_span(b) == kernel


# multi-indices and polynomials

def mono_cmp(beta, gamma):
    """Three-way comparison in the shared monomial order (-1, 0 or 1)."""
    if len(beta) != len(gamma):
        raise InputError(
            f"cannot compare multi-indices of arities {len(beta)} and"
            f" {len(gamma)}"
        )
    a, b = mono_key(beta), mono_key(gamma)
    return (a > b) - (a < b)


def position_map(arity, d):
    """Map each multi-index of degree <= d to its enumeration position."""
    return {b: i for i, b in enumerate(indices_up_to(arity, d))}


def ideal_jet_space_by_fractions(presentation, k):
    """staircase.ideal_jet_space as it was before it scaled each generator
    to integers once: every multiple x^gamma * g as a sparse row of the
    generator's own Fraction coefficients, scaled to integers row by row
    through integer_row, the conversion the kernel made on entry then."""
    monomials = indices_up_to(presentation.arity, k)
    position = {b: i for i, b in enumerate(monomials)}
    vectors = []
    for g in presentation.recentered:
        for gamma in indices_up_to(presentation.arity, k - g.order()):
            vec = {}
            for b, c in g.terms.items():
                i = position.get(tuple(x + y for x, y in zip(gamma, b)))
                if i is not None:
                    vec[i] = c
            vectors.append(integer_row(vec))
    return Subspace.from_vectors(vectors, len(monomials))


def staircase_vertices_by_domination(diagram):
    """The minimal exponents of a diagram's pivot set, found by testing
    every pivot against every other for componentwise domination: the
    quadratic definition diagram_from_generators used before it tested
    lower neighbours."""
    monomials = indices_up_to(diagram.arity, diagram.trunc_degree)
    pivots = [monomials[p] for p in diagram.span.pivots]
    return tuple(sorted(
        (p for p in pivots
         if not any(q != p and dominates(p, q) for q in pivots)),
        key=mono_key,
    ))


def to_poly(s):
    """A TruncatedSeries' terms as a Poly."""
    return Poly(s.arity, s.terms)


def initial_exponent(f):
    """Minimum exponent of the support in the shared order; None when f = 0."""
    if not f.terms:
        return None
    return min(f.terms, key=mono_key)


def coeff(f, beta):
    """Coefficient of x^beta in a Poly or TruncatedSeries; reading a series
    past its truncation degree raises TruncationError."""
    if isinstance(f, TruncatedSeries) and degree(beta) > f.trunc_degree:
        raise TruncationError(
            f"coefficient at {beta} lies past truncation degree"
            f" {f.trunc_degree}"
        )
    return f.terms.get(tuple(beta), Fraction(0))


def coeff_vector(s, d):
    """Coefficients of a series at all indices of degree <= d, in the shared
    order."""
    if d > s.trunc_degree:
        raise TruncationError(
            f"requested degree {d} exceeds truncation degree {s.trunc_degree}"
        )
    return [s.terms.get(b, Fraction(0)) for b in indices_up_to(s.arity, d)]


def scaled_derivative(p, beta):
    """Taylor-coefficient extractor: apply (1/beta!) * d^beta.

    The coefficient of x^alpha in the result is comb-weighted so that
    evaluating at a point a gives exactly the x^beta coefficient of the
    expansion of the polynomial around a.
    """
    if len(beta) != p.arity:
        raise InputError(
            f"derivative index {beta} has wrong arity for {p.arity} variables"
        )
    terms = {}
    for alpha, c in p.terms.items():
        if not all(a >= b for a, b in zip(alpha, beta)):
            continue
        w = c * prod(comb(a, b) for a, b in zip(alpha, beta))
        if w:
            terms[tuple(a - b for a, b in zip(alpha, beta))] = w
    return Poly(p.arity, terms)


def relation_subspace(engine, rj):
    """The relation jets of a RelationJets row of the engine: exact, off
    the engine's relation echelon, when generators were supplied, the
    stabilized or last-computed projected kernel otherwise.  The chain
    starts at the row's degree k."""
    if engine.presentation is not None:
        return engine.relation_space(rj.chain[0])
    return engine.jets.projected_kernel(rj.chain[-1], rj.chain[0])


def relation_jets_by_rref(engine, k):
    """ChevalleyEngine.relation_jets of an engine with generators, as it
    was before it read H(k) off the generator's leading term: the target
    is the canonical echelon of the generators' multiples
    (ideal_jet_space), its codimension is checked against the staircase
    count of a fresh diagram, the climb stops at that codimension, and the
    guard is fed the target's canonical rows.  Returns the same
    RelationJets or raises the same error, with the same text."""
    check_int(k, "degree k", 0, engine.l_max)
    pres = engine.presentation
    target = ideal_jet_space(pres, k)
    from_staircase = hilbert_samuel_count(
        diagram_from_generators(pres, max(k, pres.generator_degree)), k)
    if target.codim != from_staircase:
        raise ConsistencyError(
            f"jet codimension {target.codim} disagrees with staircase count"
            f" {from_staircase} at k={k}"
        )
    w = engine.window
    codims = []
    for l in range(k, engine.l_max + 1):
        codims.append(engine.jets.quotient_dim(l, k))
        full_window = len(codims) >= w and len(set(codims[-w:])) == 1
        settled = codims[-1] == target.codim
        if settled:
            break
    if not engine.jets.kernel_contains(l, k, target.rows.values()):
        raise ConsistencyError(
            "validated relation jets escaped a projected kernel"
            f" at l={l}, k={k}"
        )
    if settled:
        l_value, codim = l, codims[-1]
    elif full_window:
        dim = index_count(engine.phi.target_arity, k) - codims[-1]
        raise RelationsMismatchError(
            f"projected kernels stabilized at dimension {dim} but the"
            f" supplied relations span dimension {target.dim} at k={k};"
            " either the generators do not generate the full relation"
            " ideal or the window reported a false stabilization"
        )
    else:
        l_value, codim = AtLeast(engine.l_max + 1), target.codim
    return RelationJets(status=VERIFIED, l_value=l_value,
                        chain=range(k, l + 1), codim=codim)


# fits

def max_pair_slope_by_pairs(rows):
    """Largest ceil((lj - li) / (kj - ki)) over every pair of (k, l) rows
    with distinct k, never below zero: the quadratic reference for
    experiments._max_pair_slope."""
    alpha = 0
    for i, (ki, li) in enumerate(rows):
        for kj, lj in rows[i + 1:]:
            num, den = lj - li, kj - ki
            if den == 0:
                continue
            if den < 0:
                num, den = -num, -den
            alpha = max(alpha, -(-num // den))
    return alpha


# polynomial construction and the Fraction-valued probe path

def variable(arity, i):
    """The polynomial x_i (formerly Poly.variable)."""
    if not 0 <= i < arity:
        raise InputError(f"variable index {i} out of range for arity {arity}")
    beta = tuple(1 if j == i else 0 for j in range(arity))
    return Poly(arity, {beta: Fraction(1)})


def monomial(beta, c=1):
    """The polynomial c * x^beta (formerly Poly.monomial)."""
    return Poly(len(beta), {tuple(beta): Fraction(c)})


def normal_form_by_fractions(f, diagram):
    """staircase.normal_form as it was before it reduced integer rows: one
    Fraction pass subtracting c times the reduced basis element of each
    staircase term of f."""
    monomials = indices_up_to(diagram.arity, diagram.trunc_degree)
    pivot_pos = {monomials[p]: i for i, p in enumerate(diagram.span.pivots)}
    if isinstance(f, Poly):
        # a polynomial is known exactly, so it carries the diagram's full
        # truncation degree as long as it fits under it
        if f.total_degree() > diagram.trunc_degree:
            raise InputError(
                f"polynomial degree {f.total_degree()} exceeds diagram"
                f" truncation {diagram.trunc_degree}"
            )
        f = f.truncate(diagram.trunc_degree)
    if f.arity != diagram.arity:
        raise InputError(
            f"series arity {f.arity} does not match diagram arity"
            f" {diagram.arity}"
        )
    if f.trunc_degree > diagram.trunc_degree:
        raise InputError(
            f"series truncated at {f.trunc_degree} exceeds diagram degree"
            f" {diagram.trunc_degree}"
        )
    t = f.trunc_degree
    terms = dict(f.terms)
    for exponent, c in f.terms.items():
        pos = pivot_pos.get(exponent)
        if pos is None:
            continue
        basis_elem = diagram.reduced_basis[pos]
        for b, bc in basis_elem.terms.items():
            if degree(b) > t:
                continue
            # a term new to the remainder is stored negated, with no zero
            # subtracted from
            if b not in terms:
                terms[b] = -(c * bc)
            elif s := terms[b] - c * bc:
                terms[b] = s
            else:
                del terms[b]
    return TruncatedSeries(f.arity, terms, t, _exact=True)


def normal_form_by_projection(f, diagram):
    """staircase.normal_form as it was before it read the diagram's own rows
    below a series' cut: the span, projected below degree t when f is
    truncated there, reduces the integer row."""
    row, t, scale = _integer_row(f, diagram)
    span = diagram.span
    if t < diagram.trunc_degree:
        span = span.project(index_count(diagram.arity, t))
    span.reduce(row)
    monomials = diagram._monomials
    s = row.pop(scale)
    terms = {monomials[j]: Fraction(v, s) for j, v in row.items()}
    return TruncatedSeries(f.arity, terms, t, _exact=True)


def residual_order_by_fractions(f, diagram):
    """staircase.residual_order read off normal_form_by_fractions."""
    nf = normal_form_by_fractions(f, diagram)
    t = nf.trunc_degree
    order = nf.order()
    if order is not None and order < t:
        return order
    return AtLeast(t)


class PolyArithmeticParser:
    """poly._Parser as it was before it combined term dicts: every literal,
    variable and power is a Poly, combined by Poly arithmetic."""

    def __init__(self, tokens, arity, names, aliases=None):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.index = {n: i for i, n in enumerate(names)}
        if aliases:
            for alias, target in aliases.items():
                if target not in self.index:
                    raise InputError(
                        f"alias target {target!r} is not a variable name"
                    )
                self.index[alias] = self.index[target]

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self):
        p = self.expr()
        if self.peek() is not None:
            raise InputError(f"unexpected trailing token {self.peek()[1]!r}")
        return p

    def expr(self):
        sign = 1
        t = self.peek()
        while t and t[0] == "op" and t[1] in "+-":
            if t[1] == "-":
                sign = -sign
            self.take()
            t = self.peek()
        p = self.term() * sign
        while True:
            t = self.peek()
            if t is None or t[0] != "op" or t[1] not in "+-":
                break
            op = self.take()[1]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.factor()
        while True:
            t = self.peek()
            if t is None:
                break
            if t[0] == "op" and t[1] == "*":
                self.take()
                p = p * self.factor()
            elif t[0] in ("num", "name") or (t[0] == "op" and t[1] == "("):
                p = p * self.factor()
            else:
                break
        return p

    def factor(self):
        base = self.atom()
        t = self.peek()
        if t and t[0] == "op" and t[1] in ("^", "**"):
            self.take()
            e = self.take()
            if e is None or e[0] != "num" or "/" in e[1]:
                raise InputError("exponent must be a nonnegative integer literal")
            return power_by_squaring(base, int(e[1]))
        return base

    def atom(self):
        t = self.take()
        if t is None:
            raise InputError("unexpected end of polynomial text")
        kind, val = t
        if kind == "num":
            # allow p/q only when it forms a single rational literal
            try:
                return Poly.constant(self.arity, Fraction(val))
            except ZeroDivisionError:
                raise InputError(f"zero denominator in {val!r}") from None
        if kind == "name":
            if val not in self.index:
                raise InputError(f"unknown variable {val!r}")
            return variable(self.arity, self.index[val])
        if kind == "op" and val == "(":
            p = self.expr()
            t = self.take()
            if t is None or t[1] != ")":
                raise InputError("unbalanced parenthesis")
            return p
        if kind == "op" and val == "-":
            return -self.atom()
        raise InputError(f"unexpected token {val!r}")


def power_by_squaring(p, e):
    """Poly.__pow__ as it was before it shared poly._pow_terms."""
    if e < 0:
        raise InputError("negative powers are not defined for polynomials")
    result = Poly.constant(p.arity, 1)
    base = p
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


def tokenize_by_match_loop(text):
    """poly._tokenize as it was before it read its text in one finditer
    pass: one _TOKEN_RE.match per token."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise InputError(f"cannot tokenize polynomial near {rest[:20]!r}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_poly_by_poly_arithmetic(text, arity, names=None, aliases=None):
    """poly.parse_poly through tokenize_by_match_loop and
    PolyArithmeticParser."""
    names = var_names(arity, names)
    tokens = tokenize_by_match_loop(text)
    if not tokens:
        raise InputError("empty polynomial text")
    return PolyArithmeticParser(tokens, arity, names, aliases).parse()


def random_series_by_randint(rng, arity, max_degree, trunc):
    """experiments._random_series as it was before it called getrandbits
    directly: randint for the term count and each exponent coordinate,
    choice for the coefficient."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            while True:
                exps = tuple(
                    rng.randint(0, max_degree) for _ in range(arity)
                )
                if degree(exps) <= max_degree:
                    break
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[exps] = terms.get(exps, 0) + coeff
        terms = {exps: c for exps, c in terms.items() if c}
        if terms:
            return TruncatedSeries(arity, terms, trunc, _exact=True)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, AtLeast):
        return {"at_least": value.bound}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json_by_dumps(payload):
    """cli.canonical_json as it was before it wrote its text in one pass:
    the payload made JSON-ready, then the stdlib encoder with sorted keys
    and a two-space indent."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
