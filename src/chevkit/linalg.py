"""Exact linear algebra over the rationals: one sparse integer elimination
kernel, fed sparse rows from end to end.

The kernel is a staged fraction-free elimination: columns are processed in
caller-chosen groups, highest-priority group first.  Rows that end without a
pivot in the first groups vanish there, so one pass over a matrix yields the
ranks of a chain of nested column blocks and, read off the finished rows,
the residual row systems that test membership in their column spans.
Callers that only want a plain rank/kernel use a single stage; every
canonical Subspace, kernel or span, is read off the one elimination that
made it, and staged_elimination is the only one in this module.  Every
split is a column prefix: Elimination.kernel(stop) reads the kernel over
the first stop columns, as Subspace.project(n) keeps the first n.

The kernel runs on sparse integer rows, {column: nonzero int} dicts, the
one row format that enters this module; callers scale Fraction rows to
integers first.  Every row operation, gcd and scan costs the row's
nonzeros, not its width: jet and ideal-jet matrices are a few percent
nonzero.  A canonical Subspace keeps the kernel's own finished rows,
primitive with positive pivots, and reduces through the kernel's one row
operation.  A Matrix hands the kernel its sparse rows as they are;
Elimination.rows is a dense view built on read, for the benchmark's tracer.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InputError, check_int


def _check_row(row, ncols):
    """Refuse a row that is not a sparse {column: value} dict over the
    columns 0..ncols-1; its cells are not looked at."""
    if not isinstance(row, dict):
        raise InputError(f"a {type(row).__name__} row is not a sparse"
                         " {column: int} dict")
    if row and (min(row) < 0 or max(row) >= ncols):
        raise InputError("row column outside the column count")


def _check_cells(row):
    """Refuse a sparse row with a cell that is not an int (a Fraction,
    float, str or bool)."""
    for v in row.values():
        if v.__class__ is not int:
            raise InputError(f"cell {v!r} is not an int")


def _primitive(row):
    """Divide a sparse integer row in place by the gcd of its nonzeros."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j in row:
            row[j] //= g


def _combine(row, prow, c):
    """Clear column c of the sparse row against the pivot row prow, in place,
    leaving its content: with pv = prow[c], f = row[c] and
    g = gcd(pv, f), row <- (pv/g)·row − (f/g)·prow.

    The subtraction touches only prow's support.  If row is s times a row
    r, s a positive integer, the result is a positive integer multiple of
    the one r gives, with the same support: g divides s·gcd(pv, r[c]).  So
    a caller that makes its rows primitive later gets the rows of _reduce.
    """
    pv, f = prow[c], row[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in prow.items():
        s = row.get(j, 0) - b * v
        if s:
            row[j] = s
        else:
            del row[j]


def _reduce(row, prow, c):
    """Clear column c of the sparse row against the pivot row prow, in place,
    and divide the row by its gcd: _combine, then _primitive.  The result
    is the primitive row of pv·row − f·prow, as gcd(pv, f) > 0 keeps the
    sign."""
    _combine(row, prow, c)
    _primitive(row)


def _dense(row, ncols):
    """The dense list of a sparse row; absent cells read 0."""
    out = [0] * ncols
    for j, v in row.items():
        out[j] = v
    return out


class Matrix:
    """Immutable-by-convention exact matrix of sparse integer rows.

    sparse_rows[i] is row i as {column: nonzero int}, kept as given after
    one column-range check, shared and never changed; staged_elimination
    and membership_operator check the cells.  Callers with dense or
    Fraction rows scale them to integers first.  No consumer divides cells
    with /, which would make floats.  ncols is an int (not a bool) >= 0.
    """

    __slots__ = ("sparse_rows", "nrows", "ncols")

    def __init__(self, rows, ncols):
        check_int(ncols, "column count")
        rows = list(rows)
        for r in rows:
            _check_row(r, ncols)
        self.sparse_rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def columns(self, cols):
        """The matrix of a sequence of distinct columns, in its order."""
        pos = {c: i for i, c in enumerate(cols)}
        if len(pos) < len(cols) or not all(0 <= c < self.ncols for c in pos):
            raise InputError("columns must be distinct and in range")
        return Matrix([{pos[j]: v for j, v in row.items() if j in pos}
                       for row in self.sparse_rows], ncols=len(pos))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.shape == other.shape
                and self.sparse_rows == other.sparse_rows)

    def rank_kernel(self):
        """(rank, kernel as canonical Subspace); rank + dim kernel = ncols,
        both off one elimination, columns highest first."""
        elim = staged_elimination(self.sparse_rows, self.ncols,
                                  [range(self.ncols - 1, -1, -1)])
        return elim.rank, elim.kernel()

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


class Elimination:
    """Result of staged_elimination: reduced sparse rows plus pivot
    bookkeeping.

    sparse_rows[i] is the finished input row i as {column: nonzero int};
    pivots lists (row, column) in the order the pivots were taken.
    """

    def __init__(self, sparse_rows, ncols, pivots):
        self.sparse_rows = sparse_rows
        self.ncols = ncols
        self.pivots = pivots

    @property
    def rows(self):
        """The finished rows as dense int lists, built on each read."""
        return [_dense(row, self.ncols) for row in self.sparse_rows]

    @property
    def rank(self):
        return len(self.pivots)

    def kernel(self, stop=None):
        """Canonical kernel, in Q^stop, of the rows pivoting before stop
        (default ncols, else an int, not a bool, in 0..ncols); the first
        stop columns were the last stage, taken highest first.

        A row pivoting at c is then zero on every free column past c, so
        free column f's vector, L (the lcm of the pivots pv of the rows
        nonzero at f) at f and -row[f]·(L // pv) at each such row's pivot,
        leads at f and is 0 on the other free columns: made primitive, it
        is the canonical row at f.
        """
        if stop is None:
            stop = self.ncols
        check_int(stop, "kernel stop", 0, self.ncols)
        hits = {}  # free column -> (pivot column, pivot, entry) of its rows
        for r, c in self.pivots:
            if c < stop:
                row = self.sparse_rows[r]
                for f, v in row.items():
                    if f != c:
                        hits.setdefault(f, []).append((c, row[c], v))
        pivoted = {c for _, c in self.pivots}
        canonical = {}
        for f in range(stop):
            if f not in pivoted:
                col = hits.get(f, ())
                big = lcm(*(pv for _, pv, _ in col))
                vec = {f: big}
                for c, pv, v in col:
                    vec[c] = -v * (big // pv)
                _primitive(vec)
                canonical[f] = vec
        return Subspace(stop, canonical, _trusted=True)


def staged_elimination(rows, ncols, col_stages):
    """Fraction-free Gauss-Jordan over caller-ordered column stages.

    rows are sparse {column: nonzero int} dicts; each is copied and made
    primitive on entry, so the caller's rows are never changed, and a cell
    that is not an int is refused.
    col_stages must partition range(ncols); stages are processed in order.
    A row left without a pivot in stages 0..s is zero on their columns, and
    those rows, restricted to the later columns, have the kernel
    {u : (later columns)·u lies in the span of the earlier ones}: row
    operations preserve kernel and row space, and the later stages only
    recombine such rows among themselves.

    Each column's pivot is the row of smallest |value| there, the lowest
    row index on a tie, and every row ends primitive.  ncols is an int (not
    a bool) >= 0.
    """
    check_int(ncols, "column count")
    work = []
    for r in rows:
        _check_row(r, ncols)
        _check_cells(r)
        row = {j: v for j, v in r.items() if v}
        _primitive(row)
        work.append(row)
    seen = set()
    for stage in col_stages:
        for c in stage:
            if not 0 <= c < ncols or c in seen:
                raise InputError("column stages must partition the columns")
            seen.add(c)
    if len(seen) != ncols:
        raise InputError("column stages must cover every column")

    pivots = []
    # rows that may still take a pivot, ascending, so the first row of
    # smallest |value| wins
    free = list(range(len(work)))
    for stage in col_stages:
        for c in stage:
            best = None
            for i in free:
                v = work[i].get(c)
                if v is not None and (best is None or abs(v) < low):
                    best, low = i, abs(v)
            if best is None:
                continue
            pivots.append((best, c))
            free.remove(best)
            prow = work[best]
            for i, row in enumerate(work):
                if i != best and c in row:
                    _reduce(row, prow, c)
    return Elimination(work, ncols, pivots)


class Subspace:
    """A subspace of Q^n held as its canonical primitive integer rows.

    rows maps each pivot column, ascending, to the fraction-free reduced
    echelon row pivoting there: a sparse {column: nonzero int} dict that is
    primitive, has a positive pivot and is zero on every other pivot
    column.  Dividing a row by its pivot gives the unique reduced
    row-echelon row, so two Subspace objects are equal exactly when their
    rows are.  The rows are shared; no caller changes them.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim, rows, _trusted=False):
        if not _trusted:
            raise InputError("use Subspace.from_vectors to build a subspace")
        self.ambient_dim = ambient_dim
        self.rows = rows

    @classmethod
    def from_vectors(cls, vectors, ambient_dim):
        """Canonical span of sparse {coordinate: nonzero int} vectors in
        Q^ambient_dim, ambient_dim an int (not a bool) >= 0."""
        check_int(ambient_dim, "ambient dimension")
        # one ascending stage takes the pivots in column order and clears
        # every pivot column outside its pivot row; the finished rows are
        # primitive, so only a negative pivot's sign is left to fix
        elim = staged_elimination(vectors, ambient_dim,
                                  [range(ambient_dim)])
        canonical = {}
        for r, c in elim.pivots:
            row = elim.sparse_rows[r]
            if row[c] < 0:
                for j in row:
                    row[j] = -row[j]
            canonical[c] = row
        return cls(ambient_dim, canonical, _trusted=True)

    @property
    def pivots(self):
        return list(self.rows)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def codim(self):
        return self.ambient_dim - len(self.rows)

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim,
                     tuple(frozenset(r.items()) for r in self.rows.values())))

    def reduce(self, row):
        """Clear every pivot column of a sparse integer row in place, through
        _reduce, and return it: it is empty exactly when the row lies in the
        subspace.  Keys past the ambient dimension ride along untouched.

        Each of the subspace's rows is zero on every other pivot column, so
        no clearing brings a cleared column back.
        """
        rows = self.rows
        for p in [p for p in row if p in rows]:
            _reduce(row, rows[p], p)
        return row

    def contains(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise InputError(
                f"ambient dimension mismatch: {self.ambient_dim} vs"
                f" {other.ambient_dim}"
            )
        return not any(self.reduce(dict(row)) for row in other.rows.values())

    def project(self, n):
        """Image under projection onto the first n coordinates.

        It is read off the rows: rows pivoting at or past n vanish there,
        and the rest, cut to length n and made primitive again, are still
        reduced echelon rows with positive pivots, so they are canonical.
        n is an int (not a bool) in 0..ambient_dim.
        """
        check_int(n, "projection dimension", 0, self.ambient_dim)
        kept = {}
        for p, row in self.rows.items():
            if p < n:
                cut = {j: v for j, v in row.items() if j < n}
                _primitive(cut)
                kept[p] = cut
        return Subspace(n, kept, _trusted=True)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"
