"""Exterior-power operators and span-membership tests.

For a matrix B with e columns and f rows and r = rank B, the wedge operator
of order r sends w to the wedge of w with every r-tuple of columns of B; its
kernel is exactly the column span of B.  That turns "is this vector in the
image" into "does this matrix kill it", which composes with other maps.

The dense operator has comb(e, r) * comb(f, r+1) rows and explodes quickly,
so it is guarded by a cap.  membership_operator composes it with a second
block without building it: each composed row is a signed sum of integer
r x r minors times integer rows.  Only the nonzero minors are built, by
Laplace expansion over the absorbed block's nonzeros in each column, and
each adds only into the composed rows it reaches, so the rows that would
come out zero, most of them in practice, are never made.
membership_kernel computes the same kernel by one staged elimination
instead: eliminate B's columns first, and the rows left without a pivot
among them are a row system with the identical kernel at any size, read
off the same elimination.  Both take one sparse integer matrix and a
column split cut: the kept block is its columns before cut and the
absorbed block B its columns at and past cut.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from .errors import WedgeCapError, check_int
from .linalg import (
    Matrix,
    Subspace,
    _check_cells,
    _primitive,
    staged_elimination,
)

DEFAULT_WEDGE_CAP = 10**6


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


def membership_operator(matrix, cut, r):
    """The order-r wedge operator of the absorbed block composed with the
    kept block, up to positive row scalings, with its zero rows dropped.

    The kept block is matrix's columns before cut, the absorbed block its
    columns at and past cut.  With r = rank(absorbed), a vector u is killed
    exactly when kept . u lies in the column span of absorbed.  r must be
    an int (not a bool) >= 0.

    W, the order-r wedge operator of absorbed, is never built.  Its rows
    are indexed by (column r-subset J, row (r+1)-subset I), both in
    lexicographic order, J outermost.  Each integer row i of matrix is
    copied and divided once by its gcd d_i; row (J, I) of the product is
    then the sum over p in I of the signed minor on rows I minus p and
    columns J times kept row p, which is row (J, I) of W @ kept divided by
    prod_{i in I} d_i.  Rows in (J, I) order that are not zero are
    returned, each divided by its gcd, so kernel and rank are those of
    W @ kept.  The cap applies to W's full row count.

    Only the nonzero minors are built.  The minors on columns J, one
    {row r-subset R: minor} dict, come by Laplace expansion along J[0] from
    the memoised minors of J[1:], through the absorbed block's nonzeros in
    column J[0].  Each nonzero minor on R then adds into row I = R + {p}
    for every p outside R with a nonzero kept row, signed by p's place in
    I.
    """
    check_int(cut, "column split", 0, matrix.ncols)
    check_int(r, "wedge order")
    f, e = matrix.nrows, matrix.ncols - cut
    if r > e or r + 1 > f:
        # the source or target exterior power collapses to zero
        return Matrix([], ncols=cut)
    if r:
        _check_cap(e, f, r)
    # absorbed column -> its nonzeros as (row, value), rows ascending;
    # kept row p -> its nonzeros as (column, value)
    columns = [[] for _ in range(e)]
    kept = []
    for i, row in enumerate(matrix.sparse_rows):
        # a copy: the rows are the caller's and stay as they are
        _check_cells(row)
        row = dict(row)
        _primitive(row)
        for j, v in row.items():
            if j >= cut and v:
                columns[j - cut].append((i, v))
        kept.append([(j, v) for j, v in row.items() if j < cut and v])
    active = [p for p in range(f) if kept[p]]
    # column suffix -> {row subset: nonzero minor}; the empty minor is 1
    memo = {(): {(): 1}}
    rows = []
    for col_subset in combinations(range(e), r):
        # memoise the minors of col_subset's proper suffixes, shortest first
        s = r
        while s > 1 and col_subset[s - 1:] in memo:
            s -= 1
        for s in range(s - 1, 0, -1):
            memo[col_subset[s:]] = _expand(columns[col_subset[s]],
                                           memo[col_subset[s + 1:]])
        minors = (_expand(columns[col_subset[0]], memo[col_subset[1:]])
                  if r else memo[()])
        acc = {}
        for row_subset, minor in minors.items():
            pos = 0
            for p in active:
                while pos < r and row_subset[pos] < p:
                    pos += 1
                if pos < r and row_subset[pos] == p:
                    continue
                term = -minor if pos % 2 else minor
                key = row_subset[:pos] + (p,) + row_subset[pos:]
                out = acc.get(key)
                if out is None:
                    acc[key] = out = {}
                for j, v in kept[p]:
                    out[j] = out.get(j, 0) + term * v
        for key in sorted(acc):
            out = {j: v for j, v in sorted(acc[key].items()) if v}
            if out:
                g = gcd(*out.values())
                rows.append({j: v // g for j, v in out.items()})
    return Matrix(rows, ncols=cut)


def _expand(column, minors):
    """The nonzero minors on one more column, by Laplace expansion along it.

    column is that column's nonzeros as (row, value), minors the nonzero
    {row subset: minor} on the columns after it; the minor on R + {i} gains
    value times the minor on R, signed by i's place in R + {i}.
    """
    out = {}
    for row_subset, minor in minors.items():
        for i, v in column:
            pos = bisect_left(row_subset, i)
            if pos < len(row_subset) and row_subset[pos] == i:
                continue
            key = row_subset[:pos] + (i,) + row_subset[pos:]
            term = v * minor
            out[key] = out.get(key, 0) + (-term if pos % 2 else term)
    return {key: minor for key, minor in out.items() if minor}


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
    check_int(cut, "column split", 0, matrix.ncols)
    ncols = matrix.ncols
    elim = staged_elimination(
        matrix.sparse_rows, ncols,
        [range(cut, ncols), range(cut - 1, -1, -1)],
    )
    return MembershipResult(elim.kernel(cut),
                            sum(c >= cut for _, c in elim.pivots))
