"""Exterior-power operators and span-membership tests.

For a matrix B with e columns and f rows and r = rank B, the wedge operator
of order r sends w to the wedge of w with every r-tuple of columns of B; its
kernel is exactly the column span of B.  That turns "is this vector in the
image" into "does this matrix kill it", which composes with other maps.

The dense operator has comb(e, r) * comb(f, r+1) rows and explodes quickly,
so it is guarded by a cap.  membership_operator composes it with a second
block without building it: each composed row is a signed sum of integer
r x r minors times integer rows, and the rows that come out zero, most of
them in practice, are dropped.  membership_kernel computes the same kernel
by one staged elimination instead: eliminate B's columns first, and the rows
left without a pivot among them are a row system with the identical kernel
at any size, read off the same elimination.  Both take one sparse integer
matrix and a column split cut: the kept block is its columns before cut and
the absorbed block B its columns at and past cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from .errors import InputError, WedgeCapError
from .linalg import (
    Matrix,
    Subspace,
    _check_cells,
    _primitive,
    staged_elimination,
)

DEFAULT_WEDGE_CAP = 10**6


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


def _check_cap(e, f, r):
    """Refuse an order-r wedge operator of an f x e block with more than
    DEFAULT_WEDGE_CAP rows, comb(e, r) * comb(f, r + 1).  The cap is read
    at each call."""
    cells = comb(e, r) * comb(f, r + 1)
    if cells > DEFAULT_WEDGE_CAP:
        raise WedgeCapError(
            f"wedge target needs {cells} rows x {f} cols, over the cap"
            f" {DEFAULT_WEDGE_CAP}; use membership_kernel for large blocks"
        )


def _check_cut(matrix, cut):
    """Refuse a column split that is not an int in 0..ncols."""
    if not isinstance(cut, int) or not 0 <= cut <= matrix.ncols:
        raise InputError(f"column split {cut!r} outside 0..{matrix.ncols}")


def membership_operator(matrix, cut, r):
    """The order-r wedge operator of the absorbed block composed with the
    kept block, up to positive row scalings, with its zero rows dropped.

    The kept block is matrix's columns before cut, the absorbed block its
    columns at and past cut.  With r = rank(absorbed), a vector u is killed
    exactly when kept . u lies in the column span of absorbed.

    W, the order-r wedge operator of absorbed, is never built.  Its rows
    are indexed by (column r-subset J, row (r+1)-subset I), both in
    lexicographic order, J outermost.  Each integer row i of matrix is
    copied and divided once by its gcd d_i; row (J, I) of the product is
    then the sum over p in I of the signed minor on rows I minus p and
    columns J times kept row p, which is row (J, I) of W @ kept divided by
    prod_{i in I} d_i.  Rows in (J, I) order that are not zero are
    returned, each divided by its gcd, so kernel and rank are those of
    W @ kept.  The cap applies to W's full row count.
    """
    _check_cut(matrix, cut)
    if r < 0:
        raise InputError("wedge order must be >= 0")
    f, e = matrix.nrows, matrix.ncols - cut
    if r > e or r + 1 > f:
        # the source or target exterior power collapses to zero
        return Matrix([], ncols=cut)
    if r:
        _check_cap(e, f, r)
    high, low = [], []
    for row in matrix.sparse_rows:
        # a copy: the rows are the caller's and stay as they are
        _check_cells(row)
        row = dict(row)
        _primitive(row)
        high.append({j - cut: v for j, v in row.items() if j >= cut})
        # kept rows as (column, value) pairs; an all-zero row adds nothing
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


@dataclass(frozen=True)
class MembershipResult:
    """Kernel of a span-membership system and the rank it was read at.

    kernel: all u in Q^cut with kept . u in the column span of absorbed,
    where kept is the matrix's columns before cut and absorbed its columns
    at and past cut; its codimension is the rank of the composed wedge
    operator.
    absorbed_rank: rank of the absorbed block.
    """

    kernel: Subspace
    absorbed_rank: int


def membership_kernel(matrix, cut):
    """Same kernel as membership_operator at r = rank(absorbed), any size.

    One staged elimination, the absorbed columns (at and past cut) first,
    then the kept ones (before cut) highest first.  The rows left without a
    pivot among the absorbed columns vanish there and on u exactly when
    kept . u is a combination of absorbed's columns; the kernel over the
    first cut columns is read off them.
    """
    _check_cut(matrix, cut)
    ncols = matrix.ncols
    elim = staged_elimination(
        matrix.sparse_rows, ncols,
        [range(cut, ncols), range(cut - 1, -1, -1)],
    )
    return MembershipResult(elim.kernel(cut),
                            sum(c >= cut for _, c in elim.pivots))
