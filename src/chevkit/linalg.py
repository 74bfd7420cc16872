"""Dense exact linear algebra over the rationals.

The workhorse is a staged fraction-free elimination: columns are processed
in caller-chosen groups, highest-priority group first.  Rows that end without
a pivot in the first groups vanish there, so one pass over a matrix yields
the ranks of a chain of nested column blocks and, read off the finished
rows, the residual row systems that test membership in their column spans.
Callers that only want a plain rank/kernel use a single stage, and Subspace
canonicalises through one ascending stage as well: it is the only
elimination in this module.

Elimination runs on integer rows; Fractions appear only at the API edge, in
Matrix entries that were given as Fractions, kernel vectors and canonical
Subspace bases.  Integer Matrix cells stay ints all the way in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

# the one zero cell of every canonical basis; Fractions are immutable
_ZERO = Fraction(0)


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


class Matrix:
    """Immutable-by-convention dense rational matrix.

    Cells are ints or Fractions.  Consumers compare, multiply and eliminate
    them; none divides cells with /, which would turn two ints into a float.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        # int and Fraction cells are kept as they are (Fraction() would
        # re-check a Fraction through the numbers ABCs); anything else,
        # str included, is boxed
        rows = [[x if x.__class__ is int or x.__class__ is Fraction
                 else Fraction(x) for x in r] for r in rows]
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise InputError("ragged matrix rows")
            if ncols is not None and ncols != width:
                raise InputError(
                    f"declared {ncols} columns but rows have {width}"
                )
            ncols = width
        elif ncols is None:
            raise InputError("a matrix with no rows needs an explicit ncols")
        if ncols < 0:
            raise InputError("negative column count")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def submatrix(self, row_idx=None, col_idx=None):
        rs = range(self.nrows) if row_idx is None else row_idx
        cs = range(self.ncols) if col_idx is None else list(col_idx)
        rows = [[self.rows[i][j] for j in cs] for i in rs]
        return Matrix(rows, ncols=len(cs))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def rank_kernel(self):
        """(rank, kernel as canonical Subspace); rank + dim kernel = ncols."""
        elim = staged_elimination(self.rows, self.ncols,
                                  [list(range(self.ncols))])
        kernel = Subspace.from_vectors(elim.kernel_vectors(), self.ncols)
        return elim.rank, kernel

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class Elimination:
    """Result of staged_elimination: reduced rows plus pivot bookkeeping."""

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


def staged_elimination(rows, ncols, col_stages):
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
    return Elimination(work, ncols, pivots)


class Subspace:
    """A subspace of Q^n held as a canonical reduced row-echelon basis.

    Pivot entries are 1, pivot columns are cleared everywhere else, and rows
    are sorted by pivot position, so two Subspace objects are equal exactly
    when they describe the same subspace.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis, pivots, _trusted=False):
        if not _trusted:
            raise InputError("use Subspace.from_vectors to build a subspace")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, vectors, ambient_dim):
        """Canonical span of the vectors; entries are anything Fraction()
        accepts (int, Fraction, "1/2")."""
        if ambient_dim < 0:
            raise InputError("negative ambient dimension")
        rows = []
        for vec in vectors:
            row = [x if isinstance(x, (int, Fraction)) else Fraction(x)
                   for x in vec]
            if len(row) != ambient_dim:
                raise InputError(
                    f"vector of length {len(row)} in ambient dim {ambient_dim}"
                )
            rows.append(row)
        # one ascending stage finds pivots in column order, clears every
        # pivot column outside its pivot row and leaves each pivot row led by
        # its pivot; scaling the pivots to 1 gives the reduced row-echelon
        # form, which is unique
        elim = staged_elimination(rows, ambient_dim, [list(range(ambient_dim))])
        basis = []
        pivots = []
        for r, c in elim.pivots:
            row = elim.rows[r]
            pv = row[c]
            basis.append([Fraction(v, pv) if v else _ZERO for v in row])
            pivots.append(c)
        return cls(ambient_dim, basis, pivots, _trusted=True)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def codim(self):
        return self.ambient_dim - len(self.basis)

    def is_zero(self):
        return not self.basis

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim and self.basis == other.basis
        )

    def __hash__(self):
        return hash(
            (self.ambient_dim, tuple(tuple(r) for r in self.basis))
        )

    def reduce_vector(self, vec):
        """Subtract the basis component; the result is zero iff vec is inside."""
        row = [Fraction(x) for x in vec]
        if len(row) != self.ambient_dim:
            raise InputError(
                f"vector of length {len(row)} in ambient dim {self.ambient_dim}"
            )
        for b, p in zip(self.basis, self.pivots):
            f = row[p]
            if f:
                row = [x - f * y for x, y in zip(row, b)]
        return row

    def integer_basis(self):
        """The basis rows scaled to coprime integers; they span the same
        subspace and are what integer row systems test against."""
        return [_integerize(b) for b in self.basis]

    def contains_vector(self, vec):
        return not any(self.reduce_vector(vec))

    def contains(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise InputError(
                f"ambient dimension mismatch: {self.ambient_dim} vs"
                f" {other.ambient_dim}"
            )
        return all(self.contains_vector(b) for b in other.basis)

    def project(self, n):
        """Image under projection onto the first n coordinates.

        It is read off the basis: rows pivoting at or past n vanish there,
        and the rest, cut to length n, are still reduced row-echelon, so
        they are the canonical basis.
        """
        if not 0 <= n <= self.ambient_dim:
            raise InputError(
                f"projection onto {n} coordinates out of range for"
                f" Q^{self.ambient_dim}"
            )
        kept = [(b[:n], p) for b, p in zip(self.basis, self.pivots) if p < n]
        return Subspace(n, [b for b, _ in kept], [p for _, p in kept],
                        _trusted=True)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"
