"""Jet matrices of polynomial maps at fibred tuples of points.

The jet matrix of order l maps coefficient vectors of target-variable
polynomials (degree <= l, coordinates centered at the shared image point) to
the Taylor coefficients of their pullbacks at each source point.  Columns
follow the shared index enumeration of the target, rows are grouped per
source point.  Every column for an exponent of degree D is a pullback of
order >= D, so rows of degree <= k see zeros in all columns of degree > k.

Rows are built and kept as integers.  At each point p the image-centered
component series vanish at p; substituting x -> t_p x, with t_p the least
common denominator of their coefficients, makes every one of them integer
and multiplies the x^alpha coefficient of every product by t_p^|alpha|.
So row (p, alpha) is stored as t_p^|alpha| times its exact entries: a
positive factor constant along the row, which leaves every rank, kernel,
echelon row and canonical subspace as it is.  The exact Fraction entries
are rebuilt only where they are printed or compared (JetMatrix.matrix).

Indices are enumerated degree ascending, so the order-l jet matrix is the
leading block of any higher-order one: per point, its first C(m+l, l) rows,
and its first C(n+l, l) columns.  JetSystem therefore builds one jet matrix
per fibred tuple and slices every order out of it, growing the build
geometrically (capped at the engine's l_max) when a higher order is asked.
By the triangular shape, order l + 1 only adds rows to order l, so JetSystem
also keeps one append-only row echelon and reads every order off a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InputError
from .indices import degree, index_count, indices_up_to
from .linalg import Matrix, _dense, _reduce, staged_elimination
from .poly import TruncatedSeries


class PolyMap:
    """A polynomial map from source variables to target variables."""

    __slots__ = ("name", "source_arity", "target_arity", "components")

    def __init__(self, name, components, source_arity=None):
        components = tuple(components)
        if not components:
            raise InputError("a map needs at least one component")
        if source_arity is None:
            source_arity = components[0].arity
        for c in components:
            if c.arity != source_arity:
                raise InputError(
                    f"component arity {c.arity} does not match source arity"
                    f" {source_arity}"
                )
        self.name = name
        self.source_arity = source_arity
        self.target_arity = len(components)
        self.components = components

    def eval_at(self, point):
        if len(point) != self.source_arity:
            raise InputError(
                f"point has {len(point)} coordinates, map expects"
                f" {self.source_arity}"
            )
        point = tuple(Fraction(p) for p in point)
        return tuple(c.eval(point) for c in self.components)

    def __repr__(self):
        return (
            f"PolyMap({self.name!r}, {self.source_arity}->{self.target_arity})"
        )


@dataclass(frozen=True)
class FibredTuple:
    """Source points sharing one exact image point."""

    points: tuple
    image: tuple

    @classmethod
    def make(cls, phi, points):
        if not points:
            raise InputError("a fibred tuple needs at least one point")
        pts = tuple(tuple(Fraction(c) for c in p) for p in points)
        if len(set(pts)) < len(pts):
            repeated = next(p for i, p in enumerate(pts) if p in pts[:i])
            raise InputError("a fibred tuple repeats the point"
                             f" ({', '.join(map(str, repeated))})")
        images = [phi.eval_at(p) for p in pts]
        first = images[0]
        for p, img in zip(pts, images):
            if img != first:
                raise InputError(
                    f"points do not share an image: phi{pts[0]} = {first}"
                    f" but phi{p} = {img}"
                )
        return cls(pts, first)

    @property
    def size(self):
        return len(self.points)


class JetMatrix:
    """A jet matrix with its row/column index labels.

    col_labels[j] is the target exponent of column j; row_labels[i] is a
    (point position, source exponent) pair.  rows holds the integer rows:
    row (p, alpha) is scales[p]^|alpha| times the exact row, where scales[p]
    is the positive integer t_p of the build.  matrix is the exact Fraction
    matrix, built on first read; shape and every rank or kernel read rows.
    """

    def __init__(self, rows, scales, level, col_labels, row_labels):
        self.rows = rows
        self.scales = scales
        self.level = level
        self.col_labels = col_labels
        self.row_labels = row_labels
        self._matrix = None

    @property
    def shape(self):
        return (len(self.rows), len(self.col_labels))

    @property
    def matrix(self):
        if self._matrix is None:
            exact = []
            for row, (p, alpha) in zip(self.rows, self.row_labels):
                f = self.scales[p] ** degree(alpha)
                exact.append([Fraction(v, f) for v in row])
            self._matrix = Matrix(exact, ncols=len(self.col_labels))
        return self._matrix

    def integer_matrix(self):
        """The integer rows as a Matrix: the same ranks and kernels as
        matrix, with no Fraction built."""
        return Matrix(self.rows, ncols=len(self.col_labels))


def component_series(phi, tup, point_index, l):
    """Image-centered component series at one source point, truncated at l:
    each component shifted once, less its constant term c(a) = b_j."""
    series = [c.taylor(tup.points[point_index], l) for c in phi.components]
    for s in series:
        s.terms.pop((0,) * phi.source_arity, None)
    return series


def _integer_series(phi, tup, point_index, l):
    """(t, series): the component series at one point with x -> t x, t the
    least common denominator of their coefficients.  Each series vanishes
    at the point, so every kept term has |alpha| >= 1 and c t^|alpha| is an
    integer; the series hold ints."""
    comps = component_series(phi, tup, point_index, l)
    t = 1
    for c in comps:
        for v in c.terms.values():
            t = lcm(t, v.denominator)
    out = []
    for c in comps:
        terms = {alpha: (v * t ** degree(alpha)).numerator
                 for alpha, v in c.terms.items()}
        out.append(TruncatedSeries(c.arity, terms, l, _exact=True))
    return t, out


def jet_matrix(phi, tup, l):
    """The order-l jet matrix of phi at the fibred tuple.

    Column for exponent beta holds, per point, the Taylor coefficients of
    the product of the image-centered components raised to beta, each row
    (p, alpha) scaled to integers by t_p^|alpha|.  Products are memoized
    along the exponent lattice: each column is one truncated multiplication
    of integer series away from a previously built column.
    """
    if l < 0:
        raise InputError("jet order must be >= 0")
    m, n = phi.source_arity, phi.target_arity
    betas = indices_up_to(n, l)
    alphas = indices_up_to(m, l)
    rows_per_point = len(alphas)
    alpha_pos = {a: i for i, a in enumerate(alphas)}

    # beta = parent + e_j, j its first nonzero coordinate; beta = 0 has none
    steps = [None]
    for beta in betas[1:]:
        j = next(i for i, e in enumerate(beta) if e)
        steps.append((tuple(e - (i == j) for i, e in enumerate(beta)), j))

    rows = [[0] * len(betas) for _ in range(tup.size * rows_per_point)]
    scales = []
    one = TruncatedSeries(m, {(0,) * m: 1}, l, _exact=True)
    for pi in range(tup.size):
        t, comps = _integer_series(phi, tup, pi, l)
        scales.append(t)
        powers = {(0,) * n: one}
        base = pi * rows_per_point
        for col, (beta, step) in enumerate(zip(betas, steps)):
            if step is not None:
                parent, j = step
                powers[beta] = powers[parent] * comps[j]
            for alpha, c in powers[beta].terms.items():
                rows[base + alpha_pos[alpha]][col] = c

    row_labels = tuple(
        (pi, alpha) for pi in range(tup.size) for alpha in alphas
    )
    return JetMatrix(rows, tuple(scales), l, betas, row_labels)


def jet_blocks(jm, k):
    """Split columns at degree k: (low block, high block).

    Low carries the columns of degree <= k, high the rest.  Columns are
    degree-sorted, so both blocks are contiguous.  Both hold the integer
    rows: a positive scaling of each row of [low | high] leaves every
    membership kernel {u : low u in the column span of high} unchanged.
    """
    if k > jm.level:
        raise InputError(f"split degree {k} exceeds jet order {jm.level}")
    if k < 0:
        raise InputError("split degree must be >= 0")
    n = len(jm.col_labels[0])
    cut = index_count(n, k)
    whole = jm.integer_matrix()
    low = whole.submatrix(col_idx=range(cut))
    high = whole.submatrix(col_idx=range(cut, whole.ncols))
    return low, high


class JetSystem:
    """Jet analyses of one map at one fibred tuple, read off one echelon.

    The system keeps one jet_matrix build, at some order L, and reads every
    order l <= L off it as a leading block: indices are enumerated degree
    ascending, so the order-l matrix is rows p*C(m+L, L) + i for each point
    p and i < C(m+l, l), and columns j < C(n+l, l).  An order past L
    rebuilds at max(l, min(2L, l_max)), so a climb l = k, k+1, ... makes
    logarithmically many builds and never passes l_max.

    Entry (p, alpha; beta) is zero whenever |alpha| < |beta|, so J_{l+1} is
    J_l, padded with zero columns of degree l + 1, plus the rows of x-degree
    l + 1.  The system keeps one row echelon over the staged column order:
    highest degree first, ascending within a degree.  Reaching order l + 1
    reduces the new rows against the existing pivot rows in that order and
    pivots what is left with one staged_elimination.  A row never changes
    once made and is zero before its pivot in the staged order, so the
    order-l echelon is a prefix, and off that prefix:

    - rank J_l is its length;
    - quotient_dim(l, k) is the number of its pivots of degree <= k, as the
      others count the rank of the degree-> k column block;
    - its rows pivoting at degree <= k vanish on the higher columns and span
      every row-space vector that does; cut to the degree-<= k columns they
      are the guard rows, whose kernel is the projected kernel.
    """

    def __init__(self, phi, tup, l_max):
        self.phi = phi
        self.tup = tup
        self.l_max = l_max
        self._build = None
        # (pivot degree, pivot column, sparse row) in the order the rows
        # were made; _ends[l] is the length of the order-l prefix
        self._echelon = []
        self._ends = []
        self._jets = {}
        self._kernels = {}
        self._blocks = {}

    def _reach(self, l):
        """The build, regrown first if it does not cover order l."""
        if l < 0:
            raise InputError("jet order must be >= 0")
        if self._build is None or l > self._build.level:
            level = l
            if self._build is not None:
                level = max(l, min(2 * self._build.level, self.l_max))
            self._build = jet_matrix(self.phi, self.tup, level)
        return self._build

    def _row_index(self, lo, hi):
        """Build rows (p, alpha) of every point with lo <= pos(alpha) < hi."""
        per_point = index_count(self.phi.source_arity, self._build.level)
        return [p * per_point + i
                for p in range(self.tup.size) for i in range(lo, hi)]

    def _extend(self):
        """Append the pivot rows of the next order to the echelon."""
        l = len(self._ends)
        m, n = self.phi.source_arity, self.phi.target_arity
        ncols = index_count(n, l)
        src = self._build.rows
        # sparse and unscaled: _reduce and staged_elimination both leave
        # rows primitive, so the pivot rows come out the same
        batch = [
            {j: v for j, v in enumerate(src[r][:ncols]) if v}
            for r in self._row_index(index_count(m, l - 1), index_count(m, l))
        ]
        for _, c, prow in sorted(self._echelon, key=lambda e: (-e[0], e[1])):
            for row in batch:
                if c in row:
                    _reduce(row, prow, c)
        stages = [range(index_count(n, d - 1), index_count(n, d))
                  for d in range(l, -1, -1)]
        elim = staged_elimination(batch, ncols, stages)
        labels = self._build.col_labels
        for r, c in elim.pivots:
            self._echelon.append(
                (degree(labels[c]), c, elim.sparse_rows[r]))
        self._ends.append(len(self._echelon))

    def analysis(self, l):
        """Extend the echelon through order l; return rank J_l, the length
        of its order-l prefix."""
        self._reach(l)
        while len(self._ends) <= l:
            self._extend()
        return self._ends[l]

    def _prefix(self, l, k, since=0):
        """The echelon rows made at orders since..l; since=0 gives the whole
        order-l prefix."""
        end = self.analysis(l)
        if not 0 <= k <= l:
            raise InputError(f"block degree {k} outside 0..{l}")
        return self._echelon[self._ends[since - 1] if since else 0:end]

    def _guard_rows(self, l, k, since=0):
        """The sparse echelon rows pivoting at degree <= k: they vanish on
        every column of degree > k, so they are already cut to the
        degree-<= k columns."""
        return [row for d, _, row in self._prefix(l, k, since) if d <= k]

    def jet(self, l):
        """The order-l JetMatrix: a leading block of the build, sliced
        without any elimination."""
        if l not in self._jets:
            build = self._reach(l)
            if build.level == l:
                self._jets[l] = build
            else:
                m, n = self.phi.source_arity, self.phi.target_arity
                ncols = index_count(n, l)
                row_idx = self._row_index(0, index_count(m, l))
                src = build.rows
                self._jets[l] = JetMatrix(
                    [src[r][:ncols] for r in row_idx],
                    build.scales,
                    l,
                    build.col_labels[:ncols],
                    tuple(build.row_labels[r] for r in row_idx),
                )
        return self._jets[l]

    def kernel(self, l):
        """Kernel of the order-l jet matrix, ambient dim = target indices.

        One fresh single-stage elimination of jet(l), apart from the
        echelon, so its projections are a separate route.
        """
        if l not in self._kernels:
            self._kernels[l] = self.jet(l).integer_matrix().rank_kernel()[1]
        return self._kernels[l]

    def projected_kernel(self, l, k):
        """Projection of the order-l kernel onto coordinates of degree <= k:
        the kernel of the guard rows, canonicalised on first read.

        u is in it exactly when (low block)u lies in the column span of the
        high block.
        """
        if (l, k) not in self._blocks:
            cut = index_count(self.phi.target_arity, k)
            residual = Matrix(
                [_dense(row, cut) for row in self._guard_rows(l, k)],
                ncols=cut)
            self._blocks[(l, k)] = residual.rank_kernel()[1]
        return self._blocks[(l, k)]

    def quotient_dim(self, l, k):
        """Codimension of the projected kernel in the degree-<= k jet space.

        The number of order-l echelon pivots of degree <= k; no subspace is
        built.
        """
        return sum(d <= k for d, _, _ in self._prefix(l, k))

    def kernel_contains(self, l, k, vectors, since=0):
        """Whether the projected kernel at (l, k) holds every vector.

        Vectors are integer coordinates over the degree-<= k indices, each
        a dense sequence or a sparse {index: nonzero} dict.  The test is the
        exact product guard . v == 0 on the integer guard rows, so no
        subspace is built.  Each product runs over the vector's nonzero
        entries only, collected once per call from a dense vector; a caller
        that tests the same vectors at many orders passes sparse ones.

        With since > 0 only the guard rows made at orders since..l are
        tested.  A row's cut to the degree-<= k columns never changes once
        made, so a climb over l that has passed order since - 1 tests each
        row once and still fails at the same order.
        """
        rows = self._guard_rows(l, k, since)
        sparse = [v.items() if isinstance(v, dict)
                  else [(i, x) for i, x in enumerate(v) if x]
                  for v in vectors]
        return all(
            not sum(row[i] * x for i, x in t if i in row)
            for t in sparse for row in rows
        )
