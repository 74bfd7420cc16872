"""Staircases of initial exponents and truncated division.

Everything is relative to one monomial order: degree first, then
lexicographic (see indices).  Because the enumeration of indices agrees with
the order, the initial exponent of a coefficient vector is simply its first
nonzero position, and the echelon form of a family of series doubles as a
division basis.

A staircase computed from generators is exact through its truncation degree:
a monomial of degree <= d is in the staircase if and only if some ideal
element has it as initial exponent.  No claim is made past d, which the
`provisional` flag records for nonzero ideals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .censored import AtLeast, censor
from .errors import ConsistencyError, InputError
from .indices import (
    degree,
    dominates,
    index_add,
    index_count,
    indices_up_to,
    mono_key,
)
from .linalg import Subspace
from .poly import Poly, TruncatedSeries, format_poly


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of an ideal of target-variable polynomials at a center.

    Generators are written in the global coordinates; they are recentred at
    the stored point on first use.
    """

    generators: tuple
    center: tuple
    arity: int

    @classmethod
    def make(cls, generators, center):
        center = tuple(center)
        arity = len(center)
        gens = []
        for g in generators:
            if g.arity != arity:
                raise InputError(
                    f"generator arity {g.arity} does not match center"
                    f" arity {arity}"
                )
            gens.append(g)
        return cls(tuple(gens), center, arity)

    @cached_property
    def recentered(self):
        """Nonzero generators rewritten in coordinates centered at the point,
        as a tuple computed once per presentation."""
        shifted = (g.shift(self.center) for g in self.generators)
        return tuple(g for g in shifted if not g.is_zero())

    @cached_property
    def generator_degree(self):
        """Largest total degree of a nonzero generator (0 for the zero
        ideal), kept by recentring: the least truncation of a diagram."""
        return max((g.total_degree() for g in self.generators
                    if not g.is_zero()), default=0)


@dataclass(frozen=True)
class Diagram:
    """A staircase with its ideal jet space and, read off it on demand, a
    reduced division basis.

    vertices: the minimal staircase exponents of degree <= trunc_degree.
    provisional is True when vertices of degree > trunc_degree may exist
    (any nonzero ideal).  span: the ideal_jet_space at trunc_degree, whose
    pivots are the staircase; its leading slices are the ideal's jets of
    every lower degree.  Two diagrams are equal when their spans are, so
    two ideals with one staircase stay apart.
    """

    arity: int
    trunc_degree: int
    vertices: tuple
    provisional: bool
    span: Subspace = field(repr=False)

    def contains(self, beta):
        """Staircase membership; exact for degree <= trunc_degree."""
        if len(beta) != self.arity:
            raise InputError(
                f"index arity {len(beta)} does not match diagram arity"
                f" {self.arity}"
            )
        return any(dominates(beta, v) for v in self.vertices)

    @property
    def _monomials(self):
        """The span's coordinates: the monomials of degree <= trunc_degree
        in the shared order."""
        return indices_up_to(self.arity, self.trunc_degree)

    @cached_property
    def reduced_basis(self):
        """One truncated series per staircase monomial of degree <=
        trunc_degree: that monomial with coefficient 1 plus a tail entirely
        off the staircase (the span's canonical rows over their pivots)."""
        monomials = self._monomials
        return tuple(
            TruncatedSeries(
                self.arity,
                {monomials[j]: Fraction(v, row[p]) for j, v in row.items()},
                self.trunc_degree,
                _exact=True,
            )
            for p, row in self.span.rows.items()
        )

    @cached_property
    def _position(self):
        """Monomial -> its position in _monomials."""
        return {b: i for i, b in enumerate(self._monomials)}

    def to_dict(self, names=None):
        return {
            "arity": self.arity,
            "truncation_degree": self.trunc_degree,
            "vertices": [list(v) for v in self.vertices],
            "provisional": self.provisional,
            "reduced_basis": [format_poly(f, names) for f in self.reduced_basis],
        }


def _check_staircase_closure(pivot_set, arity, d):
    # the pivot set must be closed upward within degree <= d, and the
    # minimal elements must be pairwise incomparable
    for p in pivot_set:
        if degree(p) >= d:
            continue
        for i in range(arity):
            up = tuple(p[j] + (j == i) for j in range(arity))
            if up not in pivot_set:
                raise ConsistencyError(
                    f"staircase not upward closed: {p} present, {up} missing"
                )


def diagram_from_generators(presentation, d):
    """Staircase of the ideal the generators span, exact through degree d.

    Works by echelon-reducing every monomial multiple of every generator
    that can still have initial exponent of degree <= d.  The order is
    degree-compatible, so those multiples span exactly the degree-<= d
    truncations of ideal elements.
    """
    arity = presentation.arity
    gens = presentation.recentered
    if d < 0:
        raise InputError("truncation degree must be >= 0")
    if d < presentation.generator_degree:
        raise InputError(
            f"truncation degree {d} is below a generator degree"
            f" {presentation.generator_degree}"
        )
    monomials = indices_up_to(arity, d)
    echelon = ideal_jet_space(presentation, d)
    pivot_exponents = [monomials[p] for p in echelon.pivots]
    pivot_set = set(pivot_exponents)
    _check_staircase_closure(pivot_set, arity, d)

    # the pivot set is closed upward, so a pivot is minimal exactly when
    # none of its lower neighbours is a pivot
    vertices = tuple(sorted(
        (p for p in pivot_exponents
         if not any(p[:i] + (e - 1,) + p[i + 1:] in pivot_set
                    for i, e in enumerate(p) if e)),
        key=mono_key,
    ))
    for v in vertices:
        for w in vertices:
            if v != w and dominates(v, w):
                raise ConsistencyError(f"comparable vertices {v}, {w}")

    return Diagram(
        arity=arity,
        trunc_degree=d,
        vertices=vertices,
        provisional=bool(gens),
        span=echelon,
    )


def _reduce_to_row(f, diagram):
    """f reduced against the diagram, as (row, t, scale).

    row is a sparse {position: int} row over the degree-<= t monomials, t
    the truncation degree of f, and row[scale] the positive integer it is
    scaled by: the normal form is row / row[scale], with the scale key past
    every position.  The span, projected below degree t when f is
    truncated there, clears each staircase term of f once.
    """
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
    position = diagram._position
    scale = len(position)
    denom = 1
    for c in f.terms.values():
        denom = lcm(denom, c.denominator)
    row = {position[b]: c.numerator * (denom // c.denominator)
           for b, c in f.terms.items()}
    row[scale] = denom
    span = diagram.span
    if t < diagram.trunc_degree:
        span = span.project(index_count(diagram.arity, t))
    return span.reduce(row), t, scale


def normal_form(f, diagram):
    """Division remainder of f against the diagram's reduced basis.

    The result has the same truncation degree as f, carries no staircase
    monomial, and differs from f by an element of the truncated ideal span.
    The reduction runs on one integer row (see _reduce_to_row); only the
    final division by its scale makes Fractions.
    """
    row, t, scale = _reduce_to_row(f, diagram)
    monomials = diagram._monomials
    s = row.pop(scale)
    terms = {monomials[j]: Fraction(v, s) for j, v in row.items()}
    return TruncatedSeries(f.arity, terms, t, _exact=True)


def residual_order(f, diagram):
    """Vanishing order of f modulo the ideal: exact, or censored.

    Returns the order of the normal form when that is visibly below the
    truncation degree; otherwise AtLeast(truncation degree of f), meaning
    the residual order meets or exceeds the bound.  The order is the degree
    of the reduced row's first position, so no Fraction is built.
    """
    row, t, scale = _reduce_to_row(f, diagram)
    first = min(row)
    if first == scale:
        return AtLeast(t)
    return censor(degree(diagram._monomials[first]), t)


def hilbert_samuel_count(diagram, k):
    """Monomials of degree <= k outside the staircase.

    This is the dimension of the degree-<= k jet space modulo the ideal's
    jets (the Hilbert-Samuel function).
    """
    if k > diagram.trunc_degree:
        raise InputError(
            f"count at degree {k} exceeds diagram truncation"
            f" {diagram.trunc_degree}"
        )
    if not diagram.vertices:
        return index_count(diagram.arity, k)
    return sum(
        1
        for b in indices_up_to(diagram.arity, k)
        if not diagram.contains(b)
    )


def ideal_jet_space(presentation, k):
    """Degree-<= k jets (at the center) of the generated ideal, as a Subspace.

    Spanned by the monomial multiples x^gamma * g of the recentered
    generators that can still have initial exponent of degree <= k,
    truncated at degree k; ambient coordinates follow the shared index
    enumeration.  This is the one place ideal-jet vectors are built, as
    sparse integer rows: each generator is scaled once, by the lcm of its
    coefficients' denominators, which leaves the span as it is.
    """
    monomials = indices_up_to(presentation.arity, k)
    position = {b: i for i, b in enumerate(monomials)}
    vectors = []
    for g in presentation.recentered:
        denom = lcm(*(c.denominator for c in g.terms.values()))
        terms = [(b, c.numerator * (denom // c.denominator))
                 for b, c in g.terms.items()]
        for gamma in indices_up_to(presentation.arity, k - g.order()):
            vec = {}
            for b, c in terms:
                # terms of x^gamma * g past degree k have no position
                i = position.get(index_add(gamma, b))
                if i is not None:
                    vec[i] = c
            vectors.append(vec)
    return Subspace.from_vectors(vectors, len(monomials))
