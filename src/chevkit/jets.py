"""Jet matrices of polynomial maps at fibred tuples of points.

The jet matrix of order l maps coefficient vectors of target-variable
polynomials (degree <= l, coordinates centered at the shared image point) to
the Taylor coefficients of their pullbacks at each source point.  Columns
follow the shared index enumeration of the target, rows are grouped per
source point.  Every column for an exponent of degree D is a pullback of
order >= D, so rows of degree <= k see zeros in all columns of degree > k;
that triangular shape is what the staged elimination exploits.

Indices are enumerated degree ascending, so the order-l jet matrix is the
leading block of any higher-order one: per point, its first C(m+l, l) rows,
and its first C(n+l, l) columns.  JetSystem therefore builds one jet matrix
per fibred tuple and slices every order out of it, growing the build
geometrically (capped at the engine's l_max) when a higher order is asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InputError
from .indices import degree, index_count, indices_up_to
from .linalg import Matrix, Subspace, _integerize, staged_elimination
from .poly import Poly, TruncatedSeries


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


@dataclass(frozen=True)
class JetMatrix:
    """A jet matrix with its row/column index labels.

    col_labels[j] is the target exponent of column j; row_labels[i] is a
    (point position, source exponent) pair.
    """

    matrix: Matrix
    level: int
    col_labels: tuple
    row_labels: tuple

    @property
    def shape(self):
        return self.matrix.shape


def component_series(phi, tup, point_index, l):
    """Image-centered component series at one source point, truncated at l."""
    a = tup.points[point_index]
    b = tup.image
    return [
        (c - Poly.constant(phi.source_arity, bj)).taylor(a, l)
        for c, bj in zip(phi.components, b)
    ]


def jet_matrix(phi, tup, l):
    """The order-l jet matrix of phi at the fibred tuple.

    Column for exponent beta holds, per point, the Taylor coefficients of
    the product of the image-centered components raised to beta.  Products
    are memoized along the exponent lattice: each column is one truncated
    multiplication away from a previously built column.
    """
    if l < 0:
        raise InputError("jet order must be >= 0")
    m, n = phi.source_arity, phi.target_arity
    betas = indices_up_to(n, l)
    alphas = indices_up_to(m, l)
    rows_per_point = len(alphas)
    alpha_pos = {a: i for i, a in enumerate(alphas)}

    rows = [
        [Fraction(0)] * len(betas)
        for _ in range(tup.size * rows_per_point)
    ]
    for pi in range(tup.size):
        comps = component_series(phi, tup, pi, l)
        powers = {(0,) * n: TruncatedSeries.constant(m, 1, l)}
        base = pi * rows_per_point
        for col, beta in enumerate(betas):
            if any(beta):
                j = next(i for i, e in enumerate(beta) if e)
                parent = tuple(
                    e - (i == j) for i, e in enumerate(beta)
                )
                powers[beta] = powers[parent] * comps[j]
            series = powers[beta]
            for alpha, c in series.terms.items():
                rows[base + alpha_pos[alpha]][col] = c

    row_labels = tuple(
        (pi, alpha) for pi in range(tup.size) for alpha in alphas
    )
    return JetMatrix(
        matrix=Matrix(rows, ncols=len(betas)),
        level=l,
        col_labels=tuple(betas),
        row_labels=row_labels,
    )


def jet_blocks(jm, k):
    """Split columns at degree k: (low block, high block).

    Low carries the columns of degree <= k, high the rest.  Columns are
    degree-sorted, so both blocks are contiguous.
    """
    if k > jm.level:
        raise InputError(f"split degree {k} exceeds jet order {jm.level}")
    if k < 0:
        raise InputError("split degree must be >= 0")
    n = len(jm.col_labels[0])
    cut = index_count(n, k)
    low = jm.matrix.submatrix(col_idx=range(cut))
    high = jm.matrix.submatrix(col_idx=range(cut, jm.matrix.ncols))
    return low, high


class JetSystem:
    """Cached jet analyses of one map at one fibred tuple.

    analysis(l) runs a single staged elimination of the order-l jet matrix,
    eliminating column blocks from the highest degree down and photographing
    the state at every degree boundary.  That one pass yields, for every
    k <= l: the rank of the degree-> k column block, and a residual row
    system whose kernel is the projected jet kernel at degree k.

    The system keeps one jet_matrix build, at some order L, and reads every
    order l <= L off it as a leading block: indices are enumerated degree
    ascending, so the order-l matrix is rows p*C(m+L, L) + i for each point
    p and i < C(m+l, l), and columns j < C(n+l, l).  The build's rows are
    scaled to coprime integers once; a slice of such a row only needs its
    gcd divided out, which staged_elimination does on entry.  An order past
    L rebuilds at max(l, min(2L, l_max)), so a climb l = k, k+1, ... makes
    logarithmically many builds and never passes l_max; without l_max the
    rebuild is at exactly l.
    """

    def __init__(self, phi, tup, l_max=None):
        self.phi = phi
        self.tup = tup
        self.l_max = l_max
        self._build = None
        self._int_rows = None
        self._analyses = {}

    def _grow(self, l):
        level = l
        if self._build is not None and self.l_max is not None:
            level = max(l, min(2 * self._build.level, self.l_max))
        self._build = jet_matrix(self.phi, self.tup, level)
        self._int_rows = [_integerize(r) for r in self._build.matrix.rows]

    def jet(self, l):
        return self.analysis(l).jet

    def analysis(self, l):
        if l not in self._analyses:
            if l < 0:
                raise InputError("jet order must be >= 0")
            if self._build is None or l > self._build.level:
                self._grow(l)
            build = self._build
            m, n = self.phi.source_arity, self.phi.target_arity
            per_point = index_count(m, build.level)
            row_idx = [
                p * per_point + i
                for p in range(self.tup.size)
                for i in range(index_count(m, l))
            ]
            ncols = index_count(n, l)
            rows = [self._int_rows[r][:ncols] for r in row_idx]
            self._analyses[l] = _JetAnalysis(
                build, row_idx, rows, ncols, n, l
            )
        return self._analyses[l]

    def kernel(self, l):
        """Kernel of the order-l jet matrix, ambient dim = target indices."""
        return self.analysis(l).kernel

    def projected_kernel(self, l, k):
        """Projection of the order-l kernel onto coordinates of degree <= k."""
        return self.analysis(l).block(k)

    def quotient_dim(self, l, k):
        """Codimension of the projected kernel in the degree-<= k jet space.

        Read off the elimination's ranks as rank J_l - rank of the degree-> k
        column block; no subspace is built.
        """
        return self.analysis(l).quotient_dim(k)

    def kernel_contains(self, l, k, vectors):
        """Whether the projected kernel at (l, k) holds every vector.

        Vectors are integer coordinates over the degree-<= k indices.  The
        test is the exact product residual . v == 0 on the elimination's
        integer rows, so no subspace is built.  Each product runs over the
        vector's nonzero entries only, collected once per vector.
        """
        rows = self.analysis(l).residual_rows(k)
        sparse = [[(i, x) for i, x in enumerate(v) if x] for v in vectors]
        return all(
            not sum(row[i] * x for i, x in t) for t in sparse for row in rows
        )

    def membership_residual(self, l, k):
        """(residual matrix, high-block rank) for the degree-k split at order l.

        The residual's kernel equals the projected kernel: u is in it exactly
        when (low block)u lies in the column span of the high block.
        """
        a = self.analysis(l)
        return a.residual(k), a.high_ranks[k]


class _JetAnalysis:
    # holds the build it was sliced from, never its JetSystem: a system <->
    # analysis cycle would outlive every engine until the cyclic GC ran
    def __init__(self, build, row_idx, rows, ncols, n, l):
        self.level = l
        self._build = build
        self._row_idx = row_idx
        self._ncols = ncols
        counts = [index_count(n, d) for d in range(-1, l + 1)]
        # stage si holds the columns of degree l - si; highest degree first
        stages = [
            list(range(counts[l - si], counts[l - si + 1]))
            for si in range(l + 1)
        ]
        elim = staged_elimination(
            rows, ncols, stages, snapshot_after=range(l),
        )
        self.rank = elim.rank
        self._elim = elim
        self._snapshots = {k: elim.snapshots[l - k - 1] for k in range(l)}
        self.high_ranks = {k: snap.rank for k, snap in self._snapshots.items()}
        self.high_ranks[l] = 0
        self._blocks = {}

    @cached_property
    def jet(self):
        """The order-l JetMatrix: the leading block of the build."""
        build, ncols = self._build, self._ncols
        if build.level == self.level:
            return build
        src = build.matrix.rows
        return JetMatrix(
            matrix=Matrix([src[r][:ncols] for r in self._row_idx],
                          ncols=ncols),
            level=self.level,
            col_labels=build.col_labels[:ncols],
            row_labels=tuple(build.row_labels[r] for r in self._row_idx),
        )

    def _check_degree(self, k):
        if not 0 <= k <= self.level:
            raise InputError(f"block degree {k} outside 0..{self.level}")

    def quotient_dim(self, k):
        self._check_degree(k)
        return self.rank - self.high_ranks[k]

    def residual(self, k):
        """Row system (a Matrix) whose kernel is the projected kernel at k."""
        self._check_degree(k)
        if k == self.level:
            return self.jet.matrix
        return self._snapshots[k].residual

    def residual_rows(self, k):
        """Integer rows with the same kernel as residual(k)."""
        self._check_degree(k)
        if k == self.level:
            # row operations keep the kernel; only pivot rows are nonzero
            return [self._elim.rows[r] for r, _ in self._elim.pivots]
        return self._snapshots[k].rows

    @cached_property
    def kernel(self):
        """Full kernel of the jet matrix, canonicalised on first use."""
        return Subspace.from_vectors(self._elim.kernel_vectors(), self._ncols)

    def block(self, k):
        """Projected kernel at degree k, canonicalised on first use."""
        if k not in self._blocks:
            self._blocks[k] = self.residual(k).rank_kernel()[1]
        return self._blocks[k]


def jet_kernel(phi, tup, l):
    """Kernel of the order-l jet matrix as a canonical subspace."""
    return JetSystem(phi, tup).kernel(l)


def projected_jet_kernel(phi, tup, l, k):
    """Projection of the order-l jet kernel to coordinates of degree <= k."""
    if k > l:
        raise InputError(f"projection degree {k} exceeds jet order {l}")
    return JetSystem(phi, tup).projected_kernel(l, k)


def jet_quotient_dim(phi, tup, l, k):
    """Dimension of the degree-<= k jet space modulo the projected kernel."""
    if k > l:
        raise InputError(f"projection degree {k} exceeds jet order {l}")
    return JetSystem(phi, tup).quotient_dim(l, k)
