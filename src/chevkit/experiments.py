"""Experiment drivers: threshold tables, linear-bound fitting, order
probes, the composite-order law, and an end-to-end consistency verifier.

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .censored import censor, is_censored
from .chevalley import (
    ChevalleyEngine,
    ChevalleyEntry,
    HEURISTIC,
    VERIFIED,
    sample_leaf_chevalley,
)
from .errors import (
    ConsistencyError,
    InputError,
    RelationsMismatchError,
    check_int,
)
from .indices import index_count
from .linalg import Matrix
from .poly import TruncatedSeries
from .staircase import (
    diagram_from_generators,
    hilbert_samuel_count,
    normal_form,
    residual_order,
)
from .scenario import relations_for, scenario_tuples
from .wedge import membership_kernel, membership_operator

# verify_consistency's membership-route orders and dense wedge row budget
MEMBERSHIP_L_CAP = 6
DENSE_CELL_CAP = 2000


@dataclass(frozen=True)
class TableRun:
    """A scenario's full threshold table and its leaf samples."""

    entries: tuple
    leaf_samples: tuple


def _climb_tuples(scenario, staircase=False):
    """(key, tuple, engine, {k: RelationJets}) for every tuple of the
    scenario, in table order (scenario_tuples): one engine per tuple,
    climbed at every k of k_range.  An engine's relation echelon is built
    once, through the degree it is read to: k_max, where the climb counts
    H(k) on it for two or more generators and where a caller that runs
    the staircase route (staircase) checks its counts; l_max, where that
    route reads the staircase off it, for two or more generators (for at
    most one it reads it in closed form).  Errors name the tuple, and the
    map and k of a failed climb."""
    phi = scenario.phi
    k_min, k_max = scenario.k_range
    climbed = []
    for key, tup in scenario_tuples(scenario):
        try:
            engine = ChevalleyEngine(
                phi, tup, relations=relations_for(scenario, key),
                l_max=scenario.l_max, window=scenario.window,
            )
        except InputError as exc:
            raise InputError(f"tuple {key}: {exc}") from None
        rows = {}
        k = k_max
        try:
            pres = engine.presentation
            if pres is not None and pres.principal_vertices is None:
                engine.diagram(scenario.l_max if staircase else k_max)
            elif pres is not None and staircase:
                engine.diagram(k_max)
            for k in range(k_min, k_max + 1):
                rows[k] = engine.relation_jets(k)
        except (RelationsMismatchError, ConsistencyError) as exc:
            raise type(exc)(
                f"map {phi.name!r}, tuple {key}, k={k}: {exc}"
            ) from None
        climbed.append((key, tup, engine, rows))
    return climbed


def run_table(scenario):
    """Compute a ChevalleyEntry row for every (tuple, k) of the scenario,
    then heuristic samples for every (leaf, k).  Row order is deterministic:
    points as written, then tuples as written, k ascending."""
    phi = scenario.phi
    k_min, k_max = scenario.k_range
    entries = [
        ChevalleyEntry(
            map_name=phi.name, tuple_id=key, k=k,
            l_value=rj.l_value, h_value=rj.codim,
            status=rj.status,
        )
        for key, _, _, rows in _climb_tuples(scenario)
        for k, rj in rows.items()
    ]
    leaf_samples = []
    for leaf in scenario.leaves:
        samples = sample_leaf_chevalley(
            phi, leaf, range(k_min, k_max + 1), seed=scenario.seed,
            l_max=scenario.l_max, window=scenario.window,
            relations=relations_for(scenario, "leaf:" + leaf.name),
        )
        leaf_samples.extend(samples)
        entries.extend(
            ChevalleyEntry(
                map_name=phi.name, tuple_id="leaf:" + leaf.name, k=s.k,
                l_value=s.l_generic, h_value=s.rank_profile[scenario.l_max],
                status=HEURISTIC,
            )
            for s in samples
        )
    return TableRun(entries=tuple(entries), leaf_samples=tuple(leaf_samples))


@dataclass(frozen=True)
class LinearBound:
    """A bound l <= alpha*k + beta covering every fitted row."""

    alpha: int
    beta: int
    witnesses: tuple  # the (k, l) rows met with equality


def _max_pair_slope(rows):
    """Largest ceil((lj - li) / (kj - ki)) over row pairs with ki < kj,
    never below zero.

    Only adjacent distinct k need be read, each pair taking the largest l
    at the higher k and the smallest at the lower: the rise from k to k''
    over any k < k' < k'' is at most the two adjacent rises, so its slope
    is at most the larger of theirs, and ceil is monotone.  One sort.
    """
    low, high = {}, {}
    for k, l in rows:
        low[k] = min(l, low.get(k, l))
        high[k] = max(l, high.get(k, l))
    ks = sorted(low)
    return max(
        [0] + [-((low[a] - high[b]) // (b - a)) for a, b in zip(ks, ks[1:])]
    )


def _bound_at_slope(alpha, certified, censored):
    """The least intercept >= 0 covering every (k, l) row and every censored
    (k, bound) row at slope alpha, with the certified rows it meets."""
    if not certified:
        raise InputError("linear fit needs at least one uncensored row")
    beta = max(0, max(l - alpha * k for k, l in certified))
    for k, bound in censored:
        beta = max(beta, bound - alpha * k)
    witnesses = tuple(
        (k, l) for k, l in certified if l == alpha * k + beta
    )
    return LinearBound(alpha=alpha, beta=beta, witnesses=witnesses)


def fit_linear_bound(entries):
    """Fit a linear envelope l <= alpha*k + beta over a threshold table.

    Certified rows (VERIFIED or STABILIZED with an integer threshold) are
    data points; censored rows only push the intercept up so the bound
    still covers them; HEURISTIC rows are excluded.  The slope comes from
    pairwise differences within each tuple's own row sequence (thresholds
    of different tuples need not lie on one line), the intercept from
    coverage of every row.
    """
    groups = {}
    censored = []
    for e in entries:
        if e.status == HEURISTIC:
            continue
        if is_censored(e.l_value):
            censored.append((e.k, e.l_value.bound))
        else:
            groups.setdefault((e.map_name, e.tuple_id), []).append(
                (e.k, e.l_value)
            )
    certified = [pair for rows in groups.values() for pair in rows]
    alpha = max(
        (_max_pair_slope(rows) for rows in groups.values()), default=0
    )
    return _bound_at_slope(alpha, certified, censored)


@dataclass(frozen=True)
class OrderEntry:
    value: object         # int or AtLeast
    normal_form: object   # TruncatedSeries in coordinates centered at b


def residual_order_probe(presentation, polys, trunc=8):
    """Vanishing orders of functions along the fibre: recenters each
    polynomial at the presentation's center and reduces it against the
    staircase, exact through trunc, reporting an exact order or a censored
    lower bound.  One OrderEntry per polynomial, in order."""
    check_int(trunc, "probe truncation degree", 0)
    deg_needed = max(
        (p.total_degree() for p in polys if not p.is_zero()), default=0
    )
    if deg_needed > trunc:
        raise InputError(
            f"probe polynomial has degree {deg_needed} but the truncation"
            f" degree is {trunc}"
        )
    diagram = diagram_from_generators(presentation, trunc)
    entries = []
    for p in polys:
        nf = normal_form(p.shift(presentation.center), diagram)
        entries.append(OrderEntry(
            value=censor(nf.order(), nf.trunc_degree), normal_form=nf,
        ))
    return tuple(entries)


@dataclass(frozen=True)
class ProductProbe:
    """Random products F*G with the orders of F, G, and F*G, plus a fitted
    envelope order(FG) <= alpha*(order(F)+order(G)) + beta over the
    uncensored triples."""

    triples: tuple
    excluded: int
    envelope: object  # LinearBound or None when every triple was censored


# the product probe's coefficients, drawn as an index into this tuple
_COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def _random_series(rng, arity, max_degree, trunc):
    """A nonzero polynomial of degree <= max_degree with int coefficients,
    as a series truncated at trunc.

    Each draw below n is rng.getrandbits(n.bit_length()), drawn again
    while it is n or more: the rule by which Random.randint and
    Random.choice draw, written out so that each value costs one call.  The
    draws come in their order: the term count in 1..4, then per term the
    exponent coordinates in 0..max_degree (the whole tuple drawn again
    while its degree is too high) and the coefficient's index.
    """
    bits = rng.getrandbits
    width = (max_degree + 1).bit_length()
    coords = range(arity)
    while True:
        terms = {}
        count = bits(3)
        while count > 3:
            count = bits(3)
        for _ in range(count + 1):
            while True:
                exps = []
                for _ in coords:
                    e = bits(width)
                    while e > max_degree:
                        e = bits(width)
                    exps.append(e)
                if sum(exps) <= max_degree:
                    break
            exps = tuple(exps)
            i = bits(3)
            while i > 5:
                i = bits(3)
            terms[exps] = terms.get(exps, 0) + _COEFFICIENTS[i]
        terms = {exps: c for exps, c in terms.items() if c}
        if terms:
            return TruncatedSeries(arity, terms, trunc, _exact=True)


def product_order_probe(presentation, trials=200, seed=0, trunc=8):
    """Sample random F, G in the coordinates centered at the presentation's
    center and compare order(FG) against order(F) + order(G).  Triples with
    any censored order are excluded and counted."""
    check_int(trials, "trials", 1)
    check_int(trunc, "product probe truncation degree", 2)
    diagram = diagram_from_generators(presentation, trunc)
    rng = random.Random(seed)
    arity = presentation.arity
    half = trunc // 2
    triples = []
    excluded = 0
    for _ in range(trials):
        f = _random_series(rng, arity, half, trunc)
        g = _random_series(rng, arity, half, trunc)
        vals = [
            residual_order(f, diagram),
            residual_order(g, diagram),
            residual_order(f * g, diagram),
        ]
        if any(is_censored(v) for v in vals):
            excluded += 1
            continue
        triples.append(tuple(vals))
    envelope = None
    if triples:
        pairs = [(nf + ng, nfg) for nf, ng, nfg in triples]
        envelope = _bound_at_slope(_max_pair_slope(pairs), pairs, [])
    return ProductProbe(
        triples=tuple(triples), excluded=excluded, envelope=envelope,
    )


@dataclass(frozen=True)
class CompositeOrder:
    """Both sides of the composite-order law for one function f."""

    nu: object     # residual order of f at the image point: int or AtLeast
    order: object  # least order of f∘phi over the tuple's points; None at 0
    row: object    # RelationJets at k = nu, or None off k_range or censored


def composite_order_probe(engine, polys, k_range):
    """One CompositeOrder per polynomial, in order, at the engine's tuple.

    The law: if nu(f) = k and the row (a, k) is VERIFIED with a finite l,
    then ord(f∘phi) <= l.  At l = l(a, k) the projected kernel Kp(l, k) is
    the relation jets T_k, and it holds the k-jet of every f whose
    composite vanishes through degree l at every point; nu(f) = k puts the
    k-jet of f outside T_k, so f∘phi does not.  nu is read against the
    engine's one relation diagram, exact past k_max and every polynomial's
    degree; each row is climbed once, however many polynomials share it.
    """
    k_min, k_max = k_range
    check_int(k_max, "k_max", k_min, engine.l_max)
    diagram = engine.diagram(
        max([k_max + 1] + [p.total_degree() for p in polys]))
    nus = [residual_order(p.shift(engine.tup.image), diagram) for p in polys]
    rows = {k: engine.relation_jets(k) for k in {
        k for k in nus if not is_censored(k) and k_min <= k <= k_max}}
    components = list(engine.phi.components)
    probes = []
    for p, nu in zip(polys, nus):
        composed = p.compose(components)
        order = None if composed.is_zero() else min(
            composed.shift(a).order() for a in engine.tup.points)
        probes.append(CompositeOrder(nu=nu, order=order, row=rows.get(nu)))
    return tuple(probes)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, details, summary):
    """A check that passes exactly when no failure detail was recorded; its
    detail is the failures joined, or the summary when there are none."""
    return CheckResult(name, not details,
                       "; ".join(details) if details else summary)


def verify_consistency(scenario):
    """Cross-validate every route the package offers on one scenario.

    Checks: the supplied relations really vanish; the two jet-codimension
    counts agree; the staircase-restricted threshold test, read off its own
    echelon, agrees with the chain at every (k, l), and with one fresh
    elimination of the restricted jet matrix per tuple, at l = min(l_max,
    MEMBERSHIP_L_CAP); three independent membership routes compute the same
    projected kernels for l <= MEMBERSHIP_L_CAP (including the dense
    alternating-minors route when its operator has at most DENSE_CELL_CAP
    rows); the relation-growth-bounded line repeats the vanishing test;
    and the monotonicity laws hold across the table, with validated
    relation jets inside every projected kernel of their chain.  Returns
    the CheckResults as a tuple; a table whose climb fails gives its one
    failed check, and input an engine refuses raises InputError.
    """
    phi = scenario.phi
    n = phi.target_arity
    k_min, k_max = scenario.k_range
    try:
        # a tuple that is not fibred is malformed input (InputError), not a
        # failed check
        climbed = _climb_tuples(scenario, staircase=True)
    except (RelationsMismatchError, ConsistencyError) as exc:
        return (CheckResult(
            "table-construction", False, f"{type(exc).__name__}: {exc}"
        ),)
    checks = [CheckResult(
        "table-construction", True,
        f"{sum(len(rows) for *_, rows in climbed)} rows over"
        f" {len(climbed)} tuples",
    )]
    verified = [c for c in climbed if c[2].presentation is not None]

    generators = [(key, g) for key, _, engine, _ in verified
                  for g in engine.presentation.generators]
    escaped = [key for key, g in generators
               if not g.compose(list(phi.components)).is_zero()]
    checks.append(_check(
        "relations-vanish",
        [f"{key}: generator fails to compose to zero" for key in escaped],
        f"{len(verified)} tuples with validated generators",
    ))

    details = []
    count = 0
    for key, _, engine, rows in verified:
        for k, rj in rows.items():
            a = rj.codim
            b = hilbert_samuel_count(engine.diagram(k), k)
            count += 1
            if a != b:
                details.append(f"{key} k={k}: jets {a} vs staircase {b}")
    checks.append(_check("codimension-count-agreement", details,
                         f"{count} counts agree"))

    details = []
    count = 0
    for key, _, engine, rows in verified:
        for k, rj in rows.items():
            for l in range(k, scenario.l_max + 1):
                expected = (not is_censored(rj.l_value)
                            and l >= rj.l_value)
                got = engine.diagram_threshold(k, l)
                count += 1
                if got != expected:
                    details.append(
                        f"{key} k={k} l={l}: staircase route {got},"
                        f" chain route {expected}"
                    )
        # the route reads its own echelon, made by the climb's code; one
        # fresh elimination per engine, at the membership routes' top
        # order, checks its counts
        top = min(scenario.l_max, MEMBERSHIP_L_CAP)
        ks = [k for k in rows if k <= top]
        if ks:
            fresh = engine.fresh_diagram_thresholds(top)
            for k in ks:
                got = engine.diagram_threshold(k, top)
                if got != fresh[k]:
                    details.append(
                        f"{key} k={k} l={top}: staircase echelon {got},"
                        f" fresh staircase kernel {fresh[k]}"
                    )
    checks.append(_check("threshold-route-agreement", details,
                         f"{count} (k, l) cells agree"))

    details = []
    count = dense_count = 0
    for key, _, engine, _ in climbed:
        wholes = {}  # the order-l jet matrix, read once per l
        for k in range(k_min, k_max + 1):
            for l in range(k, min(scenario.l_max, MEMBERSHIP_L_CAP) + 1):
                cut = index_count(n, k)
                staged = engine.jets.projected_kernel(l, k)
                projected = engine.jets.kernel(l).project(cut)
                if l not in wholes:
                    wholes[l] = engine.jets.jet(l)
                whole = wholes[l]
                schur = membership_kernel(whole, cut)
                count += 1
                if projected != staged or schur.kernel != staged:
                    details.append(f"{key} k={k} l={l}: kernels differ")
                    continue
                r = schur.absorbed_rank
                cells = (math.comb(whole.ncols - cut, r)
                         * math.comb(whole.nrows, r + 1))
                if cells <= DENSE_CELL_CAP:
                    dense = membership_operator(whole, cut, r)
                    # equal primitive rows add nothing to rank or kernel;
                    # each row's keys ascend, so its items name it
                    distinct = {tuple(row.items()): row
                                for row in dense.sparse_rows}
                    _, dense_kernel = Matrix(
                        list(distinct.values()), cut).rank_kernel()
                    dense_count += 1
                    if dense_kernel != staged:
                        details.append(
                            f"{key} k={k} l={l}: dense route differs"
                        )
    checks.append(_check(
        "membership-route-agreement", details,
        f"{count} cells agree ({dense_count} also checked densely)",
    ))

    # the same vanishing test, under the name and in the place of the float
    # growth probe's check, whose only certified branch it was:
    # bench/golden.json pins verify's output bytes
    checks.append(_check(
        "relation-growth-bounded",
        [f"{key}: generator growth not certified" for key in escaped],
        f"{len(generators)} generators certified by exact vanishing",
    ))

    details = []
    for key, _, engine, rows in climbed:
        for k, rj in rows.items():
            chain = [(l, engine.jets.projected_kernel(l, k))
                     for l in rj.chain]
            for (l0, e0), (l1, e1) in zip(chain, chain[1:]):
                if not e0.contains(e1):
                    details.append(
                        f"{key} k={k}: kernel grew from l={l0} to l={l1}"
                    )
            # the engine guards this by multiplying the generators'
            # multiples into the echelon's guard rows; recheck it here by
            # reducing the relation echelon's canonical rows against each
            # chain member's own
            if engine.presentation is not None:
                target = engine.relation_space(k)
                for l, e in chain:
                    if not e.contains(target):
                        details.append(
                            f"{key} k={k} l={l}: relation jets outside the"
                            " projected kernel"
                        )
            if rj.status == VERIFIED and not is_censored(rj.l_value):
                h = rj.codim
                for l, e in chain:
                    d = index_count(n, k) - e.dim
                    if d > h:
                        details.append(
                            f"{key} k={k} l={l}: codimension {d} exceeds"
                            f" {h}"
                        )
                    if (d == h) != (l >= rj.l_value):
                        details.append(
                            f"{key} k={k} l={l}: equality at the wrong"
                            " order"
                        )
        for k in range(k_min, k_max):
            lo, hi = rows[k].l_value, rows[k + 1].l_value
            if not is_censored(lo) and not is_censored(hi) and hi < lo:
                details.append(
                    f"{key}: threshold dropped from k={k} ({lo}) to"
                    f" k={k + 1} ({hi})"
                )
    checks.append(_check("monotonicity", details,
                         "chains and thresholds monotone"))

    return tuple(checks)
