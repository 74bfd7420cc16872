"""Thresholds at which projected jet kernels reach the relation jets.

For a map and a fibred tuple, the degree-<= k jets of the relation ideal sit
inside every projected jet kernel, and the projected kernels shrink as the
jet order grows, reaching the relation jets at some finite order.  This
module computes that threshold order per k, three ways:

* with user-supplied relation generators the target codimension H(k) is
  exact, the threshold is certified, and a guard checks that the
  generators' multiples lie in every projected kernel climbed;
* without generators the chain of projected kernels is watched until it
  holds still for a window of consecutive orders, an honest heuristic
  (STABILIZED) that can also come back INCONCLUSIVE with a censored bound;
* a staircase-restricted route answers the yes/no question "has order l
  reached the threshold for degree k" on the jet matrix cut to the columns
  outside the staircase, used to cross-validate the first two.  It reads
  its own echelon of that matrix, grown over the engine's jet build by the
  climb's code, and one fresh elimination of it per engine checks that
  echelon's counts.

A parameterized family of tuples can be sampled at random rational
parameters to estimate the generic threshold along the family (HEURISTIC).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .censored import AtLeast, is_censored
from .errors import (
    ConsistencyError,
    InputError,
    RelationsMismatchError,
    check_int,
)
from .indices import degree, dominates, index_count, indices_up_to
from .jets import FibredTuple, JetSystem, jet_matrix
from .staircase import (
    IdealPresentation,
    diagram_from_generators,
    hilbert_samuel_count,
    ideal_multiples,
    principal_count,
)

VERIFIED = "VERIFIED"
STABILIZED = "STABILIZED"
INCONCLUSIVE = "INCONCLUSIVE"
HEURISTIC = "HEURISTIC"

# parameter points drawn per leaf by sample_leaf_chevalley
LEAF_TRIALS = 5


def validate_relations(phi, tup, generators):
    """Check that every generator really is a relation of the map.

    A generator must vanish at the image point (otherwise it would generate
    the unit ideal) and must compose with the map to the zero polynomial.
    """
    gens = []
    for g in generators:
        if g.arity != phi.target_arity:
            raise InputError(
                f"relation arity {g.arity} does not match target arity"
                f" {phi.target_arity}"
            )
        if g.eval(tup.image) != 0:
            raise InputError(
                "relation generator does not vanish at the image point;"
                " it would generate the unit ideal"
            )
        if not g.compose(list(phi.components)).is_zero():
            raise InputError(
                "claimed relation does not compose to zero with the map"
            )
        gens.append(g)
    return tuple(gens)


@dataclass(frozen=True)
class RelationJets:
    """Best knowledge of the degree-<= k relation jets at one tuple.

    l_value: least jet order whose projected kernel equals the subspace;
    censored (AtLeast) when the search range did not settle it.
    chain: the range of orders the climb read, from k; the member at order
    l is JetSystem.projected_kernel(l, k) of the engine's jets.
    codim: codimension of the subspace in the degree-<= k jet space.
    """

    status: str
    l_value: object
    chain: range
    codim: int


@dataclass(frozen=True)
class ChevalleyEntry:
    """One table row: a (tuple, k) pair with its threshold and jet codimension."""

    map_name: str
    tuple_id: str
    k: int
    l_value: object
    h_value: int
    status: str


class ChevalleyEngine:
    """All threshold computations for one map at one fibred tuple.

    relations=None means no knowledge of the relation ideal (heuristic
    stabilization); an explicit list, possibly empty, asserts that the
    listed generators generate the whole relation ideal (empty = zero
    ideal), which makes results certified.
    """

    def __init__(self, phi, tup, relations=None, l_max=12, window=3):
        check_int(l_max, "l_max")
        check_int(window, "stabilization window", 1)
        self.phi = phi
        self.tup = tup
        self.l_max = l_max
        self.window = window
        if relations is None:
            self.presentation = None
        else:
            gens = validate_relations(phi, tup, relations)
            self.presentation = IdealPresentation.make(gens, tup.image)
        self.jets = JetSystem(phi, tup)
        self._diagram = None
        self._staircase_jets = None

    # exact relation jets (verified mode only)

    def relation_space(self, k):
        """Degree-<= k jets of the relation ideal: the leading slice of the
        engine's one relation echelon, diagram(k).span.

        Indices are enumerated degree ascending, so the reduced echelon of
        the degree-<= k jets is that of any higher degree restricted to its
        rows pivoting below C(n+k, k), each cut to that length.
        """
        check_int(k, "degree k")
        span = self.diagram(k).span
        return span.project(index_count(self.phi.target_arity, k))

    def diagram(self, trunc):
        """Staircase of the supplied relation ideal, exact through trunc.

        The engine keeps one diagram and rebuilds it, at exactly
        max(trunc, generator degree), only when a request passes its
        truncation.  The diagram returned may therefore be exact through
        more than trunc; every caller only counts or tests membership at
        degrees <= trunc, where the answer does not depend on it.
        """
        check_int(trunc, "truncation degree")
        presentation = self._relations()
        if self._diagram is None or trunc > self._diagram.trunc_degree:
            self._diagram = diagram_from_generators(
                presentation, max(trunc, presentation.generator_degree),
            )
        return self._diagram

    def _relations(self):
        # the presentation, which every staircase read needs
        if self.presentation is None:
            raise InputError("no relation generators were supplied")
        return self.presentation

    def _relation_codim(self, k):
        # H(k), the codimension of the relation jets T_k: in closed form for
        # at most one generator, else off the relation echelon, the only
        # exact route for several
        if self.presentation.principal_vertices is None:
            return hilbert_samuel_count(self.diagram(k), k)
        return principal_count(self.presentation, k)

    # the threshold chain

    def relation_jets(self, k):
        """Read the chain at l = k, k+1, ... up to the first order that
        settles degree k, or to l_max; each call climbs afresh.

        Chain members are nested in l, so two are equal exactly when their
        codimensions are.  With relations the chain contains the relation
        jets T_k, which are reached at the first order of codimension H(k)
        (VERIFIED).  By the nesting T_k lies in every member climbed
        exactly when it lies in the last, so one guard at the stop order,
        fed the generators' multiples that span T_k, checks it against
        them all, before any result or mismatch is reported.  Without
        relations the chain is STABILIZED at the first full window of equal
        codimensions.
        """
        check_int(k, "degree k", 0, self.l_max)
        h = None if self.presentation is None else self._relation_codim(k)
        w = self.window
        codims = []
        for l in range(k, self.l_max + 1):
            codims.append(self.jets.quotient_dim(l, k))
            full_window = len(codims) >= w and len(set(codims[-w:])) == 1
            settled = full_window if h is None else codims[-1] == h
            if settled:
                break
        if h is not None and not self.jets.kernel_contains(
                l, k, ideal_multiples(self.presentation, k)):
            raise ConsistencyError(
                "validated relation jets escaped a projected kernel"
                f" at l={l}, k={k}"
            )
        codim = codims[-1]
        if settled:
            l_value, status = ((l, VERIFIED) if h is not None
                               else (l - w + 1, STABILIZED))
        elif h is None:
            # the provable bound: the threshold is at least the last order
            # at which the chain still moved (and at least k by definition)
            l_value = AtLeast(k + max((i for i in range(1, len(codims))
                                       if codims[i - 1] != codims[i]),
                                      default=0))
            status = INCONCLUSIVE
        elif full_window:
            total = index_count(self.phi.target_arity, k)
            raise RelationsMismatchError(
                f"projected kernels stabilized at dimension"
                f" {total - codims[-1]} but the supplied relations span"
                f" dimension {total - h} at k={k};"
                " either the generators do not generate the full relation"
                " ideal or the window reported a false stabilization"
            )
        else:
            l_value, status = AtLeast(self.l_max + 1), VERIFIED
            codim = h
        return RelationJets(
            status=status, l_value=l_value, chain=range(k, l + 1),
            codim=codim,
        )

    # staircase-restricted route

    def _staircase_vertices(self):
        # exact through l_max: in closed form for at most one generator,
        # else off the relation echelon built there
        vertices = self._relations().principal_vertices
        if vertices is None:
            vertices = self.diagram(self.l_max).vertices
        return vertices

    def diagram_threshold(self, k, l):
        """Whether order l has reached the threshold for degree k, decided
        on the staircase-restricted jet matrix J'_l (independent route).

        The engine keeps one more echelon, over the rows of its jet build
        cut to the columns outside the staircase (JetSystem.restricted),
        and grows it as the climb's.  proj_k(ker J'_l) is zero exactly when
        its codimension in the kept coordinates of degree <= k, the
        restricted quotient_dim(l, k), is their number.  The staircase is
        exact only through l_max, so a larger l is refused, as
        relation_jets refuses k > l_max."""
        check_int(l, "jet order l", 0, self.l_max)
        check_int(k, "degree k", 0, l)
        if self._staircase_jets is None:
            # the vertices, not the engine, so the system holds no
            # reference back to it
            self._staircase_jets = self.jets.restricted(
                self._staircase_vertices())
        jets = self._staircase_jets
        return jets.quotient_dim(l, k) == jets.column_count(k)

    def fresh_diagram_thresholds(self, l):
        """diagram_threshold(k, l) for k = 0..l, read off one fresh
        elimination of the staircase-restricted order-l jet matrix, apart
        from the restricted echelon: a cross-check of its counts."""
        check_int(l, "jet order l", 0, self.l_max)
        n = self.phi.target_arity
        kernel, betas = _staircase_free_kernel(
            self.jets.jet(l), indices_up_to(n, l), self._staircase_vertices())
        return tuple(_projects_to_zero(kernel, betas, k)
                     for k in range(l + 1))


def _staircase_free_kernel(jet, betas, vertices):
    """(kernel, column exponents) of the jet matrix restricted to the
    columns whose exponent lies outside the staircase of vertices.  betas
    labels the columns: a sequence of exponents in the shared order, at
    least as long as the row."""
    betas = betas[:jet.ncols]
    kept = [c for c, beta in enumerate(betas)
            if not any(dominates(beta, v) for v in vertices)]
    _, kernel = jet.columns(kept).rank_kernel()
    return kernel, [betas[c] for c in kept]


def _projects_to_zero(kernel, betas, k):
    """Whether the kernel vanishes on the coordinates of degree <= k.

    betas are sorted by degree, so those coordinates are a leading prefix.
    A canonical row keeps its pivot entry under projection onto a prefix
    that holds its pivot, and vanishes there otherwise, so the projection
    is zero exactly when every pivot lies past the prefix: when the first
    pivot, the rows' pivots ascending, has degree > k.
    """
    first = next(iter(kernel.rows), None)
    return first is None or degree(betas[first]) > k


def diagram_threshold_test(phi, tup, k, l, diagram):
    """Standalone staircase-restricted threshold test.

    Drops the jet-matrix columns whose exponent lies in the staircase, takes
    the kernel of the rest, and reports whether its projection onto the
    degree-<= k coordinates is zero.  The staircase must be exact through
    degree l, hence the truncation requirement.
    """
    if diagram.arity != phi.target_arity:
        raise InputError(
            f"staircase arity {diagram.arity} does not match target arity"
            f" {phi.target_arity}"
        )
    check_int(l, "jet order l")
    check_int(k, "degree k", 0, l)
    if diagram.trunc_degree < l:
        raise InputError(
            f"staircase is only exact through degree {diagram.trunc_degree},"
            f" need {l}"
        )
    jet = jet_matrix(phi, tup, l).integer_matrix(l)
    betas = indices_up_to(diagram.arity, diagram.trunc_degree)
    return _projects_to_zero(
        *_staircase_free_kernel(jet, betas, diagram.vertices), k)


@dataclass(frozen=True)
class Leaf:
    """A rational family of fibred tuples: points given by polynomials in
    the parameters, with the shared-image condition holding identically."""

    name: str
    params: tuple
    point_exprs: tuple

    @classmethod
    def make(cls, name, params, point_exprs):
        params = tuple(params)
        if not params:
            raise InputError("a leaf needs at least one parameter")
        pts = tuple(tuple(pt) for pt in point_exprs)
        if not pts:
            raise InputError("a leaf needs at least one point")
        for pt in pts:
            for e in pt:
                if e.arity != len(params):
                    raise InputError(
                        f"leaf expression arity {e.arity} does not match"
                        f" {len(params)} parameters"
                    )
        return cls(name, params, pts)

    def validate(self, phi):
        """The shared-image condition as a polynomial identity."""
        for pt in self.point_exprs:
            if len(pt) != phi.source_arity:
                raise InputError(
                    f"leaf point has {len(pt)} coordinates, map expects"
                    f" {phi.source_arity}"
                )
        images = [
            tuple(comp.compose(list(pt)) for comp in phi.components)
            for pt in self.point_exprs
        ]
        first = images[0]
        for img in images[1:]:
            if img != first:
                raise InputError(
                    f"leaf {self.name!r} points do not share an image"
                    " identically in the parameters"
                )

    def tuple_at(self, phi, t_values):
        t = tuple(Fraction(v) for v in t_values)
        if len(t) != len(self.params):
            raise InputError(
                f"got {len(t)} parameter values for {len(self.params)}"
                " parameters"
            )
        pts = [tuple(e.eval(t) for e in pt) for pt in self.point_exprs]
        return FibredTuple.make(phi, pts)


@dataclass(frozen=True)
class LeafSample:
    """Sampled generic-threshold estimate along a leaf (HEURISTIC).

    l_generic: minimum threshold over the samples (generic parameters have
    the smallest value once ranks are maximal).  rank_profile: per-order
    maximum of the jet codimension over the samples.  mismatch is True when
    the sample attaining the minimum threshold does not also attain the
    maximal rank profile; it is reported, never resolved silently.
    """

    leaf_name: str
    k: int
    l_generic: object
    rank_profile: dict
    samples: tuple
    mismatch: bool


def sample_leaf_chevalley(phi, leaf, ks, seed=0, l_max=12, window=3,
                          relations=None):
    """Estimate the generic threshold for each degree k in ks along a leaf
    by sampling rational parameter points; one LeafSample per k, in order.
    Results are heuristic: membership of a sample in the generic stratum is
    not certified.  Every k is checked against 0..l_max before any draw.

    The draw of LEAF_TRIALS parameter points depends on the seed and the
    leaf alone, so one engine per point serves every k.  A draw at which
    two points collide, off the generic stratum, is skipped.

    A draw's profile is read at every order up to its threshold and written
    past it: where its row at k is VERIFIED with a finite l, every l' > l
    has codimension rj.codim, with no jet of order l' built.  This is
    exact.  The validated generators compose to zero, so the relation jets
    T_k lie in Kp(l', k); the projected kernels are nested, so Kp(l', k)
    lies in Kp(l, k); and Kp(l, k) = T_k.  Each draw's echelon is thus
    built only to its largest threshold.  STABILIZED and INCONCLUSIVE rows,
    and censored VERIFIED ones, are still read at every order to l_max.
    """
    ks = tuple(ks)  # read three times: checked, its max, then per k
    check_int(l_max, "l_max")
    for k in ks:
        check_int(k, "degree k", 0, l_max)
    leaf.validate(phi)
    rng = random.Random(seed)
    drawn = []
    seen = set()
    attempts = 0
    while len(drawn) < LEAF_TRIALS and attempts < 50 * LEAF_TRIALS:
        attempts += 1
        t = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            for _ in leaf.params
        )
        if t in seen:
            continue
        seen.add(t)
        try:
            tup = leaf.tuple_at(phi, t)
        except InputError:  # validated leaf: only a repeated point is left
            continue
        drawn.append((t, ChevalleyEngine(
            phi, tup, relations=relations, l_max=l_max, window=window
        )))
    if len(drawn) < LEAF_TRIALS:
        raise InputError(f"leaf {leaf.name!r}: only {len(drawn)} of"
                         f" {LEAF_TRIALS} draws give distinct points")
    if relations is not None and ks:
        # several generators count H(k) on the relation echelon: one build
        # per engine serves every k
        for _, engine in drawn:
            if engine.presentation.principal_vertices is None:
                engine.diagram(max(ks))
    results = []
    for k in ks:
        orders = range(k, l_max + 1)
        samples = []
        for t, engine in drawn:
            rj = engine.relation_jets(k)
            # past a certified threshold the codimension is H(k)
            top = (rj.l_value if rj.status == VERIFIED
                   and not is_censored(rj.l_value) else l_max)
            profile = {l: engine.jets.quotient_dim(l, k) if l <= top
                       else rj.codim for l in orders}
            samples.append((t, rj.l_value, profile))

        finite = [lv for _, lv, _ in samples if not is_censored(lv)]
        if finite:
            l_generic = min(finite)
        else:
            l_generic = AtLeast(min(lv.bound for _, lv, _ in samples))
        max_profile = {
            l: max(prof[l] for _, _, prof in samples) for l in orders
        }
        mismatch = False
        if finite:
            best = next(
                prof for _, lv, prof in samples
                if not is_censored(lv) and lv == l_generic
            )
            mismatch = any(best[l] != max_profile[l] for l in orders)
        results.append(LeafSample(
            leaf_name=leaf.name,
            k=k,
            l_generic=l_generic,
            rank_profile=max_profile,
            samples=tuple(samples),
            mismatch=mismatch,
        ))
    return results
