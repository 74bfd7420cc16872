"""Thresholds at which projected jet kernels reach the relation jets.

For a map and a fibred tuple, the degree-<= k jets of the relation ideal sit
inside every projected jet kernel, and the projected kernels shrink as the
jet order grows, reaching the relation jets at some finite order.  This
module computes that threshold order per k, three ways:

* with user-supplied relation generators the target space is exact, the
  threshold is certified, and a staircase cross-check guards the answer;
* without generators the chain of projected kernels is watched until it
  holds still for a window of consecutive orders, an honest heuristic
  (STABILIZED) that can also come back INCONCLUSIVE with a censored bound;
* a staircase-restricted route answers the yes/no question "has order l
  reached the threshold for degree k" through an independent kernel
  computation, used to cross-validate the first two.

A parameterized family of tuples can be sampled at random rational
parameters to estimate the generic threshold along the family (HEURISTIC).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .censored import AtLeast, is_censored
from .errors import ConsistencyError, InputError, RelationsMismatchError
from .indices import degree, index_count, indices_up_to
from .jets import FibredTuple, JetSystem, jet_matrix
from .staircase import (
    IdealPresentation,
    diagram_from_generators,
    hilbert_samuel_count,
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
    l_stab: first order of the certifying run, or None when censored.
    chain: the range of orders the climb read; the member at order l is
    JetSystem.projected_kernel(l, k) of the engine's jets.
    target: the exact relation jets when generators were supplied.
    codim: codimension of the subspace in the degree-<= k jet space.
    """

    k: int
    status: str
    l_value: object
    l_stab: object
    chain: range
    target: object
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
    l_stab: object


class ChevalleyEngine:
    """All threshold computations for one map at one fibred tuple.

    relations=None means no knowledge of the relation ideal (heuristic
    stabilization); an explicit list, possibly empty, asserts that the
    listed generators generate the whole relation ideal (empty = zero
    ideal), which makes results certified.
    """

    def __init__(self, phi, tup, relations=None, l_max=12, window=3):
        if l_max < 0:
            raise InputError("l_max must be >= 0")
        if window < 1:
            raise InputError("stabilization window must be >= 1")
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
        self._relation_jets = {}
        self._diagram = None
        self._diagram_kernels = {}

    # exact relation jets (verified mode only)

    def relation_space(self, k):
        """Degree-<= k jets of the relation ideal: the leading slice of the
        engine's one relation echelon, diagram(k).span.

        Indices are enumerated degree ascending, so the reduced echelon of
        the degree-<= k jets is that of any higher degree restricted to its
        rows pivoting below C(n+k, k), each cut to that length.
        """
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
        if self.presentation is None:
            raise InputError("no relation generators were supplied")
        if self._diagram is None or trunc > self._diagram.trunc_degree:
            self._diagram = diagram_from_generators(
                self.presentation,
                max(trunc, self.presentation.generator_degree),
            )
        return self._diagram

    def _hs_crosscheck(self, k, target):
        # the codimension of the relation jets must equal the staircase
        # count; both read the engine's one relation echelon, so this checks
        # the slicing and the staircase bookkeeping, not the echelon itself
        from_jets = target.codim
        from_staircase = hilbert_samuel_count(self.diagram(k), k)
        if from_jets != from_staircase:
            raise ConsistencyError(
                f"jet codimension {from_jets} disagrees with staircase count"
                f" {from_staircase} at k={k}"
            )

    # the threshold chain

    def relation_jets(self, k):
        if k < 0:
            raise InputError("k must be >= 0")
        if k > self.l_max:
            raise InputError(f"k={k} exceeds l_max={self.l_max}")
        if k not in self._relation_jets:
            self._relation_jets[k] = self._climb(k)
        return self._relation_jets[k]

    def _climb(self, k):
        """Read the chain at l = k, k+1, ... up to the first order that
        settles degree k.

        Chain members are nested in l, so two are equal exactly when their
        codimensions are.  With relations the chain contains the target,
        which is reached at the first order of codimension target.codim
        (VERIFIED); the guard checks the target against each order first.
        Without relations the chain is STABILIZED at the first full window
        of equal codimensions.
        """
        target = None
        if self.presentation is not None:
            target = self.relation_space(k)
            self._hs_crosscheck(k, target)
            rows = target.rows.values()
        w = self.window
        codims = []
        for l in range(k, self.l_max + 1):
            # each guard row is tested at the order that made it; the first
            # test covers every row through order k
            if target is not None and not self.jets.kernel_contains(
                    l, k, rows, since=0 if l == k else l):
                raise ConsistencyError(
                    "validated relation jets escaped a projected kernel"
                    f" at l={l}, k={k}"
                )
            codims.append(self.jets.quotient_dim(l, k))
            full_window = len(codims) >= w and len(set(codims[-w:])) == 1
            if target is not None and codims[-1] == target.codim:
                l_value, status = l, VERIFIED
            elif target is None and full_window:
                l_value, status = l - w + 1, STABILIZED
            else:
                continue
            return RelationJets(
                k=k, status=status, l_value=l_value, l_stab=l_value,
                chain=range(k, l + 1),
                target=target, codim=codims[-1],
            )
        if target is None:
            # the provable bound: the threshold is at least the last order
            # at which the chain still moved (and at least k by definition)
            l_value = AtLeast(k + max((i for i in range(1, len(codims))
                                       if codims[i - 1] != codims[i]),
                                      default=0))
            status, codim = INCONCLUSIVE, codims[-1]
        elif full_window:
            dim = index_count(self.phi.target_arity, k) - codims[-1]
            raise RelationsMismatchError(
                f"projected kernels stabilized at dimension {dim} but the"
                f" supplied relations span dimension {target.dim} at k={k};"
                " either the generators do not generate the full relation"
                " ideal or the window reported a false stabilization"
            )
        else:
            l_value, status = AtLeast(self.l_max + 1), VERIFIED
            codim = target.codim
        return RelationJets(
            k=k, status=status, l_value=l_value, l_stab=None,
            chain=range(k, self.l_max + 1),
            target=target, codim=codim,
        )

    # staircase-restricted route

    def _diagram_kernel(self, l):
        # a staircase is exact through its truncation and only exponents of
        # degree <= l <= l_max are asked about, so one staircase serves all l
        if l not in self._diagram_kernels:
            self._diagram_kernels[l] = _staircase_free_kernel(
                self.jets.jet(l), self.diagram(self.l_max)
            )
        return self._diagram_kernels[l]

    def diagram_threshold(self, k, l):
        """Whether order l has reached the threshold for degree k, decided
        through the staircase-restricted jet matrix (independent route)."""
        if k > l:
            raise InputError(f"degree {k} exceeds jet order {l}")
        return _projects_to_zero(*self._diagram_kernel(l), k)


def _staircase_free_kernel(jm, diagram):
    """(kernel, column exponents) of the jet matrix restricted to the
    columns whose exponent lies outside the staircase.  The diagram is
    truncated at or past jm's order, so the column labels are a prefix of
    its monomials."""
    betas = indices_up_to(diagram.arity, diagram.trunc_degree)[:jm.shape[1]]
    kept = [c for c, beta in enumerate(betas) if not diagram.contains(beta)]
    _, kernel = jm.integer_matrix().columns(kept).rank_kernel()
    return kernel, [betas[c] for c in kept]


def _projects_to_zero(kernel, betas, k):
    """Whether the kernel vanishes on the coordinates of degree <= k.

    betas are sorted by degree, so those coordinates are a leading prefix.
    """
    return kernel.project(sum(degree(b) <= k for b in betas)).is_zero()


def diagram_threshold_test(phi, tup, k, l, diagram, jm=None):
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
    if k > l:
        raise InputError(f"degree {k} exceeds jet order {l}")
    if diagram.trunc_degree < l:
        raise InputError(
            f"staircase is only exact through degree {diagram.trunc_degree},"
            f" need {l}"
        )
    jm = jet_matrix(phi, tup, l) if jm is None else jm.prefix(l)
    return _projects_to_zero(*_staircase_free_kernel(jm, diagram), k)


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
    status: str
    trials: int
    seed: int


def sample_leaf_chevalley(phi, leaf, ks, seed=0, l_max=12, window=3,
                          relations=None):
    """Estimate the generic threshold for each degree k in ks along a leaf
    by sampling rational parameter points; one LeafSample per k, in order.
    Results are heuristic: membership of a sample in the generic stratum is
    not certified.

    The draw of LEAF_TRIALS parameter points depends on the seed and the
    leaf alone, so one engine per point serves every k.  A draw at which
    two points collide, off the generic stratum, is skipped.
    """
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
    results = []
    for k in ks:
        orders = range(k, l_max + 1)
        samples = []
        for t, engine in drawn:
            rj = engine.relation_jets(k)
            profile = {l: engine.jets.quotient_dim(l, k) for l in orders}
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
            status=HEURISTIC,
            trials=LEAF_TRIALS,
            seed=seed,
        ))
    return results
