"""Jet matrices of polynomial maps at fibred tuples of points.

The jet matrix of order l maps coefficient vectors of target-variable
polynomials (degree <= l, coordinates centered at the shared image point) to
the Taylor coefficients of their pullbacks at each source point.  Columns
follow the shared index enumeration of the target, rows are grouped per
source point.  Every column for an exponent of degree D is a pullback of
order >= D, so rows of degree <= k see zeros in all columns of degree > k.

Rows are built and kept as integers.  At each point p the image-centered
component series are shifted once and kept whole, and they vanish at p;
substituting x -> t_p x, with t_p the least common denominator of all their
coefficients, makes every one of them integer and multiplies the x^alpha
coefficient of every product by t_p^|alpha|.  So row (p, alpha) is stored as
t_p^|alpha| times its exact entries: a positive factor constant along the
row, which leaves every rank, kernel, echelon row and canonical subspace as
it is.  The exact Fraction entries are rebuilt only where they are printed
or compared (JetMatrix.matrix).

Indices are enumerated degree ascending, so the order-l jet matrix is the
leading block of any higher-order one: per point, its first C(m+l, l) rows,
and its first C(n+l, l) columns.  By the triangular shape, order d only adds
the rows of x-degree d, and those are the degree-d homogeneous parts of the
powers: H_d(phi^beta) = sum_e H_{d-e}(phi^parent) H_e(phi_j), where beta is
parent + e_j.  A JetMatrix keeps every power as its homogeneous parts and
grows in place, making each order's sparse rows once.  JetSystem makes one
build per fibred tuple, grows it to every order asked, and keeps one
append-only row echelon that reads every order off a prefix.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .errors import InputError
from .indices import degree, index_count, indices_of_degree, indices_up_to
from .linalg import Matrix, _reduce, staged_elimination


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
    """A jet matrix with its row/column index labels, grown in place.

    col_labels[j] is the target exponent of column j; row_labels[i] is a
    (point position, source exponent) pair.  Rows are integer: row (p, alpha)
    is scales[p]^|alpha| times the exact row, where scales[p] is the positive
    integer t_p of the build.  layer(d) holds the sparse rows of x-degree d,
    made once, when grow first passes order d.  integer_matrix(), one Matrix
    over those rows, and matrix, the exact entries as dense Fraction row
    lists, are made on first read at the current order; shape is counted.

    prefix(l) is the order-l leading block, a JetMatrix over the same build:
    growing any of them makes the new orders once for all.
    """

    def __init__(self, phi, tup):
        """The build before its first order; jet_matrix grows it."""
        m, n = phi.source_arity, phi.target_arity
        self._arity = (m, n)
        self._size = tup.size
        scales, self._comps = [], []
        for point in tup.points:
            t, comps = _integer_components(phi, point)
            scales.append(t)
            self._comps.append(comps)
        self.scales = tuple(scales)
        # per column beta, (parent column, j) with beta = parent + e_j, j
        # its first nonzero coordinate; None for beta = 0
        self._steps = []
        # per point and column, phi^beta as (lo, hi, parts): its nonzero
        # homogeneous parts {degree: term dict}, all of degree lo..hi, or
        # None where phi^beta is zero
        self._powers = [[] for _ in tup.points]
        # per order d, per point, the sparse rows of x-degree d
        self._layers = []
        self.level = -1
        self._integer = self._matrix = None

    def _add_order(self):
        """Make the rows of the next x-degree d: the degree-d part of every
        power phi^beta, from the parts of lower degree already made."""
        m, n = self._arity
        d = len(self._layers)
        new = index_count(n, d) - index_count(n, d - 1)
        if d == 0:
            self._steps.append(None)
        else:
            base = index_count(n, d - 2)
            pos = {b: base + i
                   for i, b in enumerate(indices_of_degree(n, d - 1))}
            for beta in indices_of_degree(n, d):
                j = next(i for i, e in enumerate(beta) if e)
                parent = beta[:j] + (beta[j] - 1,) + beta[j + 1:]
                self._steps.append((pos[parent], j))
        alpha_pos = {a: i for i, a in enumerate(indices_of_degree(m, d))}
        layer = []
        for comps, powers in zip(self._comps, self._powers):
            for step in self._steps[-new:]:
                if step is None:
                    powers.append((0, 0, {0: {(0,) * m: 1}}))
                elif powers[step[0]] is None or not comps[step[1]]:
                    powers.append(None)
                else:
                    lo, hi, _ = powers[step[0]]
                    parts = comps[step[1]]
                    powers.append((lo + parts[0][0], hi + parts[-1][0], {}))
            rows = [{} for _ in alpha_pos]
            for col, power in enumerate(powers):
                if power is None or not power[0] <= d <= power[1]:
                    continue
                parts = power[2]
                if d:
                    parent, j = self._steps[col]
                    below = powers[parent][2]
                    part = {}
                    for e, terms in comps[j]:
                        left = below.get(d - e)
                        if left is None:
                            continue
                        for b1, c1 in left.items():
                            for b2, c2 in terms:
                                b = tuple(map(add, b1, b2))
                                if b not in part:
                                    part[b] = c1 * c2
                                elif s := part[b] + c1 * c2:
                                    part[b] = s
                                else:
                                    del part[b]
                    if not part:
                        continue
                    parts[d] = part
                for alpha, c in parts[d].items():
                    rows[alpha_pos[alpha]][col] = c
            layer.append(rows)
        self._layers.append(layer)

    def grow(self, l):
        """Raise the order to l, making each order's rows once; an order
        already reached is left as it is."""
        if l < 0:
            raise InputError("jet order must be >= 0")
        while len(self._layers) <= l:
            self._add_order()
        if l > self.level:
            self.level = l
            self._integer = self._matrix = None
        return self

    def prefix(self, l):
        """The order-l leading block, l <= level, over the same build."""
        if not 0 <= l <= self.level:
            raise InputError(f"jet order {l} outside 0..{self.level}")
        view = copy(self)
        view.level = l
        view._integer = view._matrix = None
        return view

    def layer(self, d):
        """The sparse rows of x-degree d, point by point, as {column: int}
        over the columns of degree <= d.  They are the build's own rows: a
        caller that changes one copies it first."""
        if not 0 <= d <= self.level:
            raise InputError(f"jet order {d} outside 0..{self.level}")
        return [row for rows in self._layers[d] for row in rows]

    @property
    def col_labels(self):
        return indices_up_to(self._arity[1], self.level)

    @property
    def row_labels(self):
        alphas = indices_up_to(self._arity[0], self.level)
        return tuple((p, alpha) for p in range(self._size) for alpha in alphas)

    @property
    def shape(self):
        m, n = self._arity
        return (self._size * index_count(m, self.level),
                index_count(n, self.level))

    @property
    def matrix(self):
        if self._matrix is None:
            ncols = self.shape[1]
            self._matrix = []
            for row, (p, alpha) in zip(self.integer_matrix().sparse_rows,
                                       self.row_labels):
                f = self.scales[p] ** degree(alpha)
                exact = [Fraction(0)] * ncols
                for j, v in row.items():
                    exact[j] = Fraction(v, f)
                self._matrix.append(exact)
        return self._matrix

    def integer_matrix(self):
        """The build's own sparse rows as one Matrix, made on first read:
        the same ranks and kernels as matrix, with no row copied."""
        if self._integer is None:
            self._integer = Matrix(
                [row for p in range(self._size)
                 for layer in self._layers[:self.level + 1]
                 for row in layer[p]], ncols=self.shape[1])
        return self._integer


def _integer_components(phi, point):
    """(t, comps): the image-centered components at one source point,
    shifted once and kept whole, with x -> t x, t the least common
    denominator of all their coefficients.  Each vanishes at the point, so
    every term has |alpha| >= 1 and c t^|alpha| is an integer.  comps[j] is
    component j's nonzero homogeneous parts, [(e, [(alpha, int)])] by
    ascending degree e >= 1."""
    series = [c.taylor(point, max(c.total_degree(), 0)).terms
              for c in phi.components]
    t = 1
    for terms in series:
        terms.pop((0,) * phi.source_arity, None)
        for v in terms.values():
            t = lcm(t, v.denominator)
    comps = []
    for terms in series:
        parts = {}
        for alpha, v in terms.items():
            e = degree(alpha)
            parts.setdefault(e, []).append((alpha, (v * t ** e).numerator))
        comps.append(sorted(parts.items()))
    return t, comps


def jet_matrix(phi, tup, l):
    """The order-l jet matrix of phi at the fibred tuple, as a build that
    grows in place (JetMatrix.grow).

    Column for exponent beta holds, per point, the Taylor coefficients of
    the product of the image-centered components raised to beta, each row
    (p, alpha) scaled to integers by t_p^|alpha|.  Each power is one
    product of integer series away from a previously built column, made
    one homogeneous part at a time.
    """
    return JetMatrix(phi, tup).grow(l)


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
    cut = index_count(jm._arity[1], k)
    whole = jm.integer_matrix()
    return whole.columns(range(cut)), whole.columns(range(cut, whole.ncols))


class JetSystem:
    """Jet analyses of one map at one fibred tuple, read off one echelon.

    The system makes one jet_matrix build, at the first order asked, and
    grows it in place to each later one, so every order's rows are made
    once whatever order the requests come in.  Every order l reads the
    build as a leading block: indices are enumerated degree ascending, so
    the order-l matrix is, per point, the rows of x-degree <= l, and the
    columns j < C(n+l, l).

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

    def __init__(self, phi, tup):
        self.phi = phi
        self.tup = tup
        self._build = None
        # (pivot degree, pivot column, sparse row) in the order the rows
        # were made; _ends[l] is the length of the order-l prefix
        self._echelon = []
        self._ends = []
        self._jets = {}
        self._kernels = {}
        self._blocks = {}

    def _grow(self, l):
        """The build, made or grown first so that it covers order l."""
        if self._build is None:
            self._build = jet_matrix(self.phi, self.tup, l)
        return self._build.grow(l)

    def _extend(self):
        """Append the pivot rows of the next order to the echelon."""
        l = len(self._ends)
        n = self.phi.target_arity
        ncols = index_count(n, l)
        # copies, as _reduce works in place; the rows keep their positive
        # t_p^|alpha| scales, but _reduce and staged_elimination both leave
        # rows primitive, so the pivot rows come out the same
        batch = [dict(row) for row in self._build.layer(l)]
        for _, c, prow in sorted(self._echelon, key=lambda e: (-e[0], e[1])):
            for row in batch:
                if c in row:
                    _reduce(row, prow, c)
        stages = [range(index_count(n, d - 1), index_count(n, d))
                  for d in range(l, -1, -1)]
        elim = staged_elimination(batch, ncols, stages)
        for r, c in elim.pivots:
            # a pivot's degree is that of its column's stage
            d = next(l - i for i, stage in enumerate(stages) if c in stage)
            self._echelon.append((d, c, elim.sparse_rows[r]))
        self._ends.append(len(self._echelon))

    def analysis(self, l):
        """Extend the echelon through order l; return rank J_l, the length
        of its order-l prefix."""
        self._grow(l)
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
        """The order-l JetMatrix: a leading block of the build, made dense
        only when its rows are read."""
        if l not in self._jets:
            self._jets[l] = self._grow(l).prefix(l)
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
            residual = Matrix(self._guard_rows(l, k), ncols=cut)
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

        Vectors are sparse {index: nonzero int} dicts over the degree-<= k
        indices, such as a canonical Subspace's rows.  The test is the exact
        product guard . v == 0 on the integer guard rows, over the vector's
        nonzero entries only, so no subspace is built.

        With since > 0 only the guard rows made at orders since..l are
        tested.  A row's cut to the degree-<= k columns never changes once
        made, so a climb over l that has passed order since - 1 tests each
        row once and still fails at the same order.
        """
        rows = self._guard_rows(l, k, since)
        return all(
            not sum(row[i] * x for i, x in v.items() if i in row)
            for v in vectors for row in rows
        )
