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
grows in place, making each order's sparse rows once, and reads order l
off its rows through x-degree l.  What an order needs besides the powers
depends only on the arities and the degree: the parent step of each new
column (_column_steps) and the row position of each source exponent
(_row_positions).  Both are tables cached per (arity, degree) and shared
by every build.  JetSystem makes one build per fibred tuple, grows it to
every order asked, and keeps one append-only row echelon whose rows
through order l are the order-l echelon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, islice, repeat
from math import lcm
from operator import add

from .errors import InputError, check_int
from .indices import (
    degree,
    index_add,
    index_count,
    indices_of_degree,
    indices_up_to,
)
from .linalg import (Matrix, _check_cells, _check_row, _combine, _primitive,
                     staged_elimination)


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


def _text(coords):
    """Coordinates as reduced rationals in parentheses: (1/2, -1)."""
    return f"({', '.join(map(str, coords))})"


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
            raise InputError(
                f"a fibred tuple repeats the point {_text(repeated)}")
        images = [phi.eval_at(p) for p in pts]
        first = images[0]
        for p, img in zip(pts, images):
            if img != first:
                raise InputError(
                    "points do not share an image: phi"
                    f"{_text(pts[0])} = {_text(first)}"
                    f" but phi{_text(p)} = {_text(img)}"
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
    made once, when grow first passes order d.  integer_matrix(l), the
    order-l jet matrix, is one Matrix over the layers through d = l, made
    on every read with no row copied.  The labels, shape and matrix, the
    exact entries as dense Fraction row lists made on every read, are those
    of the order reached, level.
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
        # per column beta, its step from the shared _column_steps tables:
        # (parent column, j) with beta = parent + e_j, None for beta = 0
        self._steps = []
        # per point and column, phi^beta as (lo, hi, parts): its nonzero
        # homogeneous parts {degree: term dict}, all of degree lo..hi, or
        # None where phi^beta is zero
        self._powers = [[] for _ in tup.points]
        # per order d, per point, the sparse rows of x-degree d
        self._layers = []
        self.level = -1

    def _add_order(self):
        """Make the rows of the next x-degree d: the degree-d part of every
        power phi^beta, from the parts of lower degree already made."""
        m, n = self._arity
        d = len(self._layers)
        new = _column_steps(n, d)
        self._steps.extend(new)
        alpha_pos = _row_positions(m, d)
        layer = []
        for comps, powers in zip(self._comps, self._powers):
            for step in new:
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
        already reached is left as it is.  l must be an int (not a bool)."""
        check_int(l, "jet order")
        while len(self._layers) <= l:
            self._add_order()
        self.level = max(self.level, l)
        return self

    def layer(self, d):
        """The sparse rows of x-degree d, point by point, as {column: int}
        over the columns of degree <= d.  They are the build's own rows: a
        caller that changes one copies it first."""
        check_int(d, "jet order", 0, self.level)
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
        whole = self.integer_matrix(self.level)
        exact = []
        for row, (p, alpha) in zip(whole.sparse_rows, self.row_labels):
            f = self.scales[p] ** degree(alpha)
            dense = [Fraction(0)] * whole.ncols
            for j, v in row.items():
                dense[j] = Fraction(v, f)
            exact.append(dense)
        return exact

    def integer_matrix(self, l):
        """The order-l jet matrix, l <= level: the build's own rows of
        x-degree <= l, point by point, as one Matrix over the columns of
        degree <= l, with no row copied.  At l = level it has the same ranks
        and kernels as matrix."""
        check_int(l, "jet order", 0, self.level)
        return Matrix([row for p in range(self._size)
                       for layer in self._layers[:l + 1] for row in layer[p]],
                      ncols=index_count(self._arity[1], l))


@lru_cache(maxsize=None)
def _column_steps(n, d):
    """The (parent column, j) step of each target column of degree d, in
    column order: beta = parent + e_j, with j the first nonzero coordinate
    of beta, so the parent has degree d - 1; (None,) at d = 0.  Built once
    per (n, d) and shared by every build of target arity n."""
    if d == 0:
        return (None,)
    base = index_count(n, d - 2)
    pos = {b: base + i for i, b in enumerate(indices_of_degree(n, d - 1))}
    steps = []
    for beta in indices_of_degree(n, d):
        j = next(i for i, e in enumerate(beta) if e)
        steps.append((pos[beta[:j] + (beta[j] - 1,) + beta[j + 1:]], j))
    return tuple(steps)


@lru_cache(maxsize=None)
def _row_positions(m, d):
    """{alpha: position} over the source exponents of degree d, in the
    shared order: the row of alpha within a point's layer of x-degree d.
    Built once per (m, d) and shared by every build of source arity m; a
    build only reads it."""
    return {a: i for i, a in enumerate(indices_of_degree(m, d))}


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


class JetSystem:
    """Jet analyses of one map at one fibred tuple, read off one echelon.

    The system makes one jet_matrix build, at the first order asked, and
    grows it in place to each later one, so every order's rows are made
    once whatever order the requests come in.  jet(l) reads the build's
    rows through order l: indices are enumerated degree ascending, so the
    order-l matrix is, per point, the rows of x-degree <= l, over the
    columns j < C(n+l, l).

    Entry (p, alpha; beta) is zero whenever |alpha| < |beta|, so J_{l+1} is
    J_l, padded with zero columns of degree l + 1, plus the rows of x-degree
    l + 1.  The system keeps one row echelon over the staged column order:
    highest degree first, ascending within a degree, the order of the keys
    (-degree, column).  A row never changes once made and is zero before
    its pivot in the staged order.  Reaching order l + 1 costs only what
    the new rows touch.  Each new row in turn is reduced through a heap of
    the pivot columns it meets, popped in staged order; a reduction queues
    the pivot columns it brings in, and as a pivot row is zero before its
    pivot, these all come later.  So the row ends zero on every pivot
    column made so far, its own order's included.  The reductions leave
    the row the content they make (linalg._combine), a positive integer
    factor with no effect on the support; what is left of the row, if
    anything, is made primitive, which gives the row of linalg._reduce,
    and becomes the pivot row of its first staged column.

    So the order-l echelon is the rows made through order l, and of those:

    - rank J_l is their number;
    - quotient_dim(l, k) is the number pivoting at degree <= k, as the
      others count the rank of the degree-> k column block;
    - the rows pivoting at degree <= k vanish on the higher columns and span
      every row-space vector that does; cut to the degree-<= k columns they
      are the guard rows, whose kernel is the projected kernel.

    The order-(l+1) guard rows hold the order-l ones, so the projected
    kernels are nested, Kp(l+1, k) in Kp(l, k): a vector lies in every
    member through order l exactly when it lies in Kp(l, k).

    restricted(vertices) gives a second system over the same build whose
    rows skip the columns of a staircase; see there.
    """

    def __init__(self, phi, tup):
        self.phi = phi
        self.tup = tup
        self._build = None
        # the pivot rows by pivot column, in the order they were made, and
        # per column of the orders reached its staged key (-degree, column);
        # _counts[l][k] is the number of rows made through order l that
        # pivot at degree <= k, so _counts[l][l] is the number made
        self._pivot_rows = {}
        self._keys = []
        self._counts = []
        self._kernels = {}
        self._blocks = {}
        # the staircase vertices whose columns the rows skip, the skipped
        # columns of the orders reached, and per order l the number of
        # columns of degree <= l the rows keep
        self._staircase = ()
        self._dropped = set()
        self._widths = []

    def restricted(self, vertices):
        """A system over this one's build whose rows skip the staircase
        columns: those whose exponent dominates one of vertices, which must
        be exact through every order read.  Its echelon is that of the
        restricted jet matrix J'_l, made by the same _extend, so there
        quotient_dim(l, k) is rank J'_l - rank J'^{>k}_l: the codimension,
        in the column_count(k) kept coordinates of degree <= k, of the
        projection of ker J'_l onto them.  Only the echelon's counts are
        read on it; jet(l) and kernel(l) stay the whole build's.  With no
        vertices nothing is skipped, and the system is this one."""
        vertices = tuple(vertices)
        if not vertices:
            return self
        system = JetSystem(self.phi, self.tup)
        system._build = self._grow(0)
        system._staircase = vertices
        return system

    def _grow(self, l):
        """The build, made or grown first so that it covers order l."""
        if self._build is None:
            self._build = jet_matrix(self.phi, self.tup, l)
        return self._build.grow(l)

    def _extend(self):
        """Append the pivot rows of the next order to the echelon."""
        l = len(self._counts)
        made = len(self._pivot_rows)
        n = self.phi.target_arity
        keys = self._keys
        start = len(keys)
        keys.extend(zip(repeat(-l), range(start, index_count(n, l))))
        dropped = self._dropped
        if self._staircase:
            # the staircase exponents of degree l: v + gamma, |gamma| =
            # l - |v|, made from the vertices rather than tested per column
            stair = {index_add(v, gamma) for v in self._staircase
                     if degree(v) <= l
                     for gamma in indices_of_degree(n, l - degree(v))}
            dropped.update(
                c for c, beta in enumerate(indices_of_degree(n, l), start)
                if beta in stair)
        self._widths.append(len(keys) - len(dropped))
        pivot_rows = self._pivot_rows
        tally = [0] * (l + 1)
        for row in self._build.layer(l):
            # a copy, as _combine works in place, cut to the kept columns
            row = ({c: v for c, v in row.items() if c not in dropped}
                   if dropped else dict(row))
            # the pivot columns the row meets, popped in staged order; a
            # pivot row is zero before its pivot, so a reduction brings in
            # only later pivot columns, queued as they come, and the row
            # ends zero on every pivot column
            queued = {c for c in row if c in pivot_rows}
            heap = [keys[c] for c in queued]
            heapify(heap)
            while heap:
                c = heappop(heap)[1]
                if c in row:
                    prow = pivot_rows[c]
                    _combine(row, prow, c)
                    for j in prow:
                        if j in pivot_rows and j not in queued:
                            queued.add(j)
                            heappush(heap, keys[j])
            if row:
                # _combine leaves the row a positive multiple of _reduce's
                # row, with its support; _primitive divides that out
                _primitive(row)
                key = min(map(keys.__getitem__, row))
                tally[-key[0]] += 1
                pivot_rows[key[1]] = row
        # every row made before this order pivots at degree < l
        below = (self._counts[-1] if l else []) + [made]
        self._counts.append([a + b for a, b in zip(below, accumulate(tally))])

    def analysis(self, l):
        """Extend the echelon through order l; return rank J_l, the number
        of its rows made through order l."""
        self._grow(l)
        while len(self._counts) <= l:
            self._extend()
        return self._counts[l][l]

    def _guard_rows(self, l, k):
        """The sparse order-l echelon rows pivoting at degree <= k: they
        vanish on every column of degree > k, so they are already cut to
        the degree-<= k columns."""
        keys = self._keys
        return [row for c, row in islice(self._pivot_rows.items(),
                                         self.analysis(l))
                if -keys[c][0] <= k]

    def jet(self, l):
        """The order-l jet matrix, one integer Matrix over the build's
        rows through order l."""
        return self._grow(l).integer_matrix(l)

    def kernel(self, l):
        """Kernel of the order-l jet matrix, ambient dim = target indices.

        One fresh single-stage elimination of jet(l), apart from the
        echelon, so its projections are a separate route.
        """
        if l not in self._kernels:
            self._kernels[l] = self.jet(l).rank_kernel()[1]
        return self._kernels[l]

    def projected_kernel(self, l, k):
        """Projection of the order-l kernel onto coordinates of degree <= k:
        the kernel of the guard rows, canonicalised on first read.

        u is in it exactly when (low block)u lies in the column span of the
        high block.
        """
        check_int(l, "jet order")
        check_int(k, "block degree", 0, l)
        if (l, k) not in self._blocks:
            cut = index_count(self.phi.target_arity, k)
            self._blocks[(l, k)] = staged_elimination(
                self._guard_rows(l, k), cut,
                [range(cut - 1, -1, -1)]).kernel()
        return self._blocks[(l, k)]

    def quotient_dim(self, l, k):
        """Codimension of the projected kernel in the degree-<= k jet space.

        The number of guard rows, counted once per order as its rows are
        made; no row list or subspace is built.
        """
        check_int(l, "jet order")
        check_int(k, "block degree", 0, l)
        self.analysis(l)
        return self._counts[l][k]

    def column_count(self, k):
        """The number of columns of degree <= k the rows keep: C(n+k, k),
        less the staircase columns on a restricted system."""
        check_int(k, "block degree")
        self.analysis(k)
        return self._widths[k]

    def kernel_contains(self, l, k, vectors):
        """Whether the projected kernel at (l, k) holds every vector.

        Vectors are sparse {index: int} dicts over the C(n+k, k) indices of
        degree <= k, such as a canonical Subspace's rows.  Each is checked
        as it is read, by the elimination kernel's row and cell checks: an
        index out of range or a cell that is not an int is an InputError.
        The test is the exact product guard . v == 0 on the integer guard
        rows, so no subspace is built.  The guard rows are indexed by column
        once, and each vector's products are summed only at the columns it
        shares with them; the first nonzero product answers False.  The
        kernels are nested in l, so the answer at l is also the answer for
        every order from k to l together.
        """
        check_int(l, "jet order")
        check_int(k, "block degree", 0, l)
        cut = index_count(self.phi.target_arity, k)
        by_column = {}
        for g, row in enumerate(self._guard_rows(l, k)):
            for i, x in row.items():
                by_column.setdefault(i, []).append((g, x))
        for v in vectors:
            _check_row(v, cut)
            _check_cells(v)
            products = {}
            for i, x in v.items():
                for g, y in by_column.get(i, ()):
                    products[g] = products.get(g, 0) + x * y
            if any(products.values()):
                return False
        return True
