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
at any size, read off the same elimination.  Both read sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd

from .errors import InputError, WedgeCapError
from .linalg import Matrix, Subspace, _primitive, staged_elimination

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


def membership_operator(kept, absorbed, r):
    """The order-r wedge operator of `absorbed` composed with `kept`, up to
    positive row scalings, with its zero rows dropped.

    With r = rank(absorbed), a vector u is killed exactly when kept . u
    lies in the column span of absorbed.

    W, the order-r wedge operator of absorbed, is never built.  Its rows
    are indexed by (column r-subset J, row (r+1)-subset I), both in
    lexicographic order, J outermost.  Each integer row i of
    [absorbed | kept] is divided once by its gcd d_i; row (J, I) of the
    product is then the sum over p in I of the signed minor on rows I minus
    p and columns J times kept row p, which is row (J, I) of W @ kept
    divided by prod_{i in I} d_i.  Rows in (J, I) order that are not zero
    are returned, each divided by its gcd, so kernel and rank are those of
    W @ kept.  The cap applies to W's full row count.
    """
    if kept.nrows != absorbed.nrows:
        raise InputError(
            f"row mismatch: kept has {kept.nrows}, absorbed has"
            f" {absorbed.nrows}"
        )
    if r < 0:
        raise InputError("wedge order must be >= 0")
    f, e, ek = absorbed.nrows, absorbed.ncols, kept.ncols
    if r > e or r + 1 > f:
        # the source or target exterior power collapses to zero
        return Matrix([], ncols=ek)
    if r:
        _check_cap(e, f, r)
    joined = [{**ra, **{e + j: v for j, v in rk.items()}}
              for ra, rk in zip(absorbed.sparse_rows, kept.sparse_rows)]
    for row in joined:
        _primitive(row)
    high = [{j: v for j, v in row.items() if j < e} for row in joined]
    # kept rows as (column, value) pairs; an all-zero row adds nothing
    low = [[(j - e, v) for j, v in row.items() if j >= e] for row in joined]
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
            acc = [0] * ek
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
    return Matrix(rows, ncols=ek)


@dataclass(frozen=True)
class MembershipResult:
    """Kernel and ranks of a span-membership system.

    kernel: all u with kept . u in the column span of absorbed.
    residual_rank: codimension of that kernel (rank of the residual rows,
    which equals the rank of the composed wedge operator).
    absorbed_rank: rank of the absorbed block.
    """

    kernel: Subspace
    residual_rank: int
    absorbed_rank: int


def membership_kernel(kept, absorbed):
    """Same kernel as membership_operator at r = rank(absorbed), any size.

    One staged elimination, absorbed's columns first, then kept's highest
    first.  The rows left without a pivot among absorbed's columns,
    restricted to kept's, vanish on u exactly when kept . u is a
    combination of absorbed's columns; the kernel is read off them.
    """
    if kept.nrows != absorbed.nrows:
        raise InputError(
            f"row mismatch: kept has {kept.nrows}, absorbed has"
            f" {absorbed.nrows}"
        )
    ea, ek = absorbed.ncols, kept.ncols
    rows = [{**ra, **{ea + j: v for j, v in rk.items()}}
            for ra, rk in zip(absorbed.sparse_rows, kept.sparse_rows)]
    elim = staged_elimination(
        rows, ea + ek, [range(ea), range(ea + ek - 1, ea - 1, -1)],
    )
    kernel = elim.kernel(ea)
    absorbed_rank = sum(c < ea for _, c in elim.pivots)
    return MembershipResult(kernel, ek - kernel.dim, absorbed_rank)
