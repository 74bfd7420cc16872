import copy
from fractions import Fraction
from math import comb

import pytest

import _oracles as oracles
from chevkit.censored import AtLeast, is_censored
from chevkit.chevalley import (
    HEURISTIC,
    INCONCLUSIVE,
    LEAF_TRIALS,
    STABILIZED,
    VERIFIED,
    ChevalleyEngine,
    Leaf,
    diagram_threshold_test,
    sample_leaf_chevalley,
    validate_relations,
)
from hypothesis import given, settings, strategies as st

from chevkit import chevalley as chevalley_module
from chevkit import staircase as staircase_module
from chevkit.errors import ConsistencyError, InputError, RelationsMismatchError
from chevkit.experiments import DENSE_CELL_CAP
from chevkit.indices import indices_up_to
from chevkit.jets import (
    FibredTuple,
    JetSystem,
    PolyMap,
    jet_blocks,
    jet_matrix,
)
from chevkit.linalg import Subspace
from chevkit.poly import Poly, parse_poly
from chevkit.staircase import (
    IdealPresentation,
    diagram_from_generators,
    hilbert_samuel_count,
    ideal_jet_space,
    normal_form,
    residual_order,
)
from chevkit.wedge import membership_kernel, membership_operator

Y2 = ["y1", "y2"]
Y3 = ["y1", "y2", "y3"]


def squaring():
    return PolyMap("squaring", [parse_poly("x1^2", 1)])


def cusp():
    return PolyMap("cusp", [parse_poly("x1^2", 1), parse_poly("x1^3", 1)])


def cone():
    comps = [parse_poly(t, 2) for t in ("x1", "x1 x2", "x1 x2^2")]
    return PolyMap("cone", comps)


def cusp_engine(l_max=12, window=3, gens=("y1^3 - y2^2",), point=(0,)):
    phi = cusp()
    tup = FibredTuple.make(phi, [point])
    relations = [parse_poly(g, 2, names=Y2) for g in gens]
    return ChevalleyEngine(phi, tup, relations=relations, l_max=l_max,
                           window=window)


class TestValidation:
    def test_good_generator_passes(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1^3 - y2^2", 2, names=Y2)
        assert validate_relations(phi, tup, [g]) == (g,)

    def test_arity_mismatch(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1^2", 3, names=Y3)
        with pytest.raises(InputError, match="arity"):
            validate_relations(phi, tup, [g])

    def test_nonvanishing_generator_is_unit_ideal(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1 + 1", 2, names=Y2)
        with pytest.raises(InputError, match="unit ideal"):
            validate_relations(phi, tup, [g])

    def test_non_relation_rejected(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1", 2, names=Y2)
        with pytest.raises(InputError, match="compose to zero"):
            validate_relations(phi, tup, [g])

    def test_engine_parameter_bounds(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        with pytest.raises(InputError):
            ChevalleyEngine(phi, tup, l_max=-1)
        with pytest.raises(InputError):
            ChevalleyEngine(phi, tup, window=0)
        eng = ChevalleyEngine(phi, tup, l_max=4)
        with pytest.raises(InputError):
            eng.relation_jets(5)
        with pytest.raises(InputError):
            eng.relation_jets(-1)


class TestVerifiedThresholds:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_cusp_origin(self, k):
        eng = cusp_engine()
        rj = eng.relation_jets(k)
        assert rj.status == VERIFIED
        assert rj.l_value == 2 * k + 1
        assert rj.l_stab == 2 * k + 1
        assert eng.relation_jets(k).codim == 2 * k + 1
        assert oracles.relation_subspace(eng, rj) == rj.target

    @pytest.mark.parametrize("k", range(1, 5))
    def test_squaring_origin_zero_ideal(self, k):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, relations=[], l_max=10)
        rj = eng.relation_jets(k)
        assert rj.status == VERIFIED
        assert rj.l_value == 2 * k
        assert oracles.relation_subspace(eng, rj).is_zero()
        assert eng.relation_jets(k).codim == k + 1

    @pytest.mark.parametrize("k", range(1, 4))
    def test_squaring_pair(self, k):
        phi = squaring()
        tup = FibredTuple.make(phi, [(1,), (-1,)])
        eng = ChevalleyEngine(phi, tup, relations=[], l_max=8)
        rj = eng.relation_jets(k)
        assert rj.status == VERIFIED
        assert rj.l_value == k
        assert eng.relation_jets(k).codim == k + 1

    def test_cone_thresholds(self):
        phi = cone()
        g = [parse_poly("y2^2 - y1 y3", 3, names=Y3)]
        origin = ChevalleyEngine(
            phi, FibredTuple.make(phi, [(0, 0)]), relations=g, l_max=8
        )
        assert origin.relation_jets(1).l_value == 3
        assert origin.relation_jets(1).codim == 4
        assert origin.relation_jets(2).codim == 9
        off = ChevalleyEngine(
            phi, FibredTuple.make(phi, [(0, 1)]), relations=g, l_max=8
        )
        assert off.relation_jets(1).l_value == 3
        assert off.relation_jets(2).codim == 9
        smooth = ChevalleyEngine(
            phi, FibredTuple.make(phi, [(1, 1)]), relations=g, l_max=8
        )
        assert smooth.relation_jets(2).l_value == 2
        assert smooth.relation_jets(2).codim == 6

    def test_threshold_matches_brute_force_search(self):
        # the chains settle well inside the cap, so the sympy dimension
        # scan is an independent route to the same thresholds
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        eng = cusp_engine()
        for k in (1, 2):
            expected = oracles.threshold_by_stabilization(
                phi.components, tup.points, tup.image, k, 10
            )
            assert eng.relation_jets(k).l_value == expected
        sq = squaring()
        sq_tup = FibredTuple.make(sq, [(0,)])
        sq_eng = ChevalleyEngine(sq, sq_tup, relations=[], l_max=10)
        for k in (1, 2, 3):
            expected = oracles.threshold_by_search(
                sq.components, sq_tup.points, sq_tup.image, k, 10
            )
            assert sq_eng.relation_jets(k).l_value == expected

    def test_mid_chain_plateau_is_tolerated(self):
        # the dimension chain pauses twice on its way down; only the final
        # value matters in verified mode
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, relations=[], l_max=14, window=3)
        rj = eng.relation_jets(6)
        dims = [eng.jets.projected_kernel(l, 6).dim for l in rj.chain]
        assert dims == [3, 3, 2, 2, 1, 1, 0]
        assert rj.status == VERIFIED
        assert rj.l_value == 12

    def test_chain_is_nested(self):
        eng = cusp_engine()
        chain = [eng.jets.projected_kernel(l, 2)
                 for l in eng.relation_jets(2).chain]
        for prev, cur in zip(chain, chain[1:]):
            assert prev.contains(cur)

    def test_relation_jets_compare_by_value(self):
        eng = cusp_engine()
        a, b = eng.relation_jets(2), cusp_engine().relation_jets(2)
        assert a == b and hash(a) == hash(b)
        last = a.chain[-1]
        assert ((last, eng.jets.projected_kernel(last, 2))
                == (a.l_value, oracles.relation_subspace(eng, a)))

    def test_chain_is_the_range_of_orders_read(self, monkeypatch):
        a, b = cusp_engine().relation_jets(2), cusp_engine().relation_jets(2)
        assert type(a.chain) is range and a.chain == range(2, 6)

        # comparing and hashing results builds no projected kernel
        def refuse(self, l, k):
            raise AssertionError("projected kernel built")
        monkeypatch.setattr(JetSystem, "projected_kernel", refuse)
        assert a == b and hash(a) == hash(b)

    def test_censored_when_range_too_short(self):
        eng = cusp_engine(l_max=5)
        rj = eng.relation_jets(3)
        assert rj.status == VERIFIED
        assert rj.l_value == AtLeast(6)
        assert rj.l_stab is None
        # the exact subspace is still reported
        assert oracles.relation_subspace(eng, rj) == rj.target

    def test_incomplete_generators_detected(self):
        # y1 * (y1^3 - y2^2) composes to zero but generates a smaller ideal
        eng = cusp_engine(gens=("y1^4 - y1 y2^2",))
        eng.relation_jets(1)  # too coarse to notice at k=1
        with pytest.raises(RelationsMismatchError):
            eng.relation_jets(2)


class TestWindowMode:
    def test_squaring_stabilizes(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, l_max=6, window=2)
        rj = eng.relation_jets(1)
        assert rj.status == STABILIZED
        assert rj.l_value == 2
        assert rj.l_stab == 2
        assert [eng.jets.projected_kernel(l, 1).dim
                for l in rj.chain] == [1, 0, 0]

    def test_inconclusive_when_window_never_fills(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, l_max=3, window=3)
        rj = eng.relation_jets(2)
        assert rj.status == INCONCLUSIVE
        assert rj.l_value == AtLeast(2)
        assert rj.l_stab is None
        assert is_censored(rj.l_value)

    def test_window_matches_verified_on_stable_case(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        heuristic = ChevalleyEngine(phi, tup, l_max=12, window=3)
        certified = cusp_engine()
        for k in (1, 2, 3):
            assert (oracles.relation_subspace(
                        heuristic, heuristic.relation_jets(k))
                    == oracles.relation_subspace(
                        certified, certified.relation_jets(k)))
            assert (heuristic.relation_jets(k).l_value
                    == certified.relation_jets(k).l_value)


class TestDiagramRoute:
    def test_engine_route_agrees(self):
        eng = cusp_engine()
        for k in (1, 2):
            lv = eng.relation_jets(k).l_value
            for l in range(k, 9):
                assert eng.diagram_threshold(k, l) == (l >= lv)

    @pytest.mark.parametrize("phi, point, gen", [
        (cusp(), (0,), "y1^3 - y2^2"),
        (cone(), (1, 1), "y2^2 - y1 y3"),
    ])
    def test_reads_enumerate_no_index_prefix(self, phi, point, gen):
        # the staircase route takes its column exponents from the
        # diagram's own enumeration and jet_blocks its split from the
        # build's arity, so no order leaves an indices_up_to cache entry
        n = phi.target_arity
        eng = ChevalleyEngine(
            phi, FibredTuple.make(phi, [point]),
            relations=[parse_poly(gen, n, names=Y3[:n])], l_max=8)
        eng.diagram(eng.l_max)
        size = indices_up_to.cache_info().currsize
        for l in range(eng.l_max + 1):
            for k in range(l + 1):
                eng.diagram_threshold(k, l)
                jet_blocks(eng.jets.jet(l), k)
        assert indices_up_to.cache_info().currsize == size

    def test_standalone_frozen(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y2)], tup.image
        )
        diag = diagram_from_generators(pres, 8)
        assert diagram_threshold_test(phi, tup, 1, 3, diag) is True
        assert diagram_threshold_test(phi, tup, 1, 2, diag) is False

    def test_standalone_input_checks(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y2)], tup.image
        )
        shallow = diagram_from_generators(pres, 4)
        with pytest.raises(InputError, match="exact through"):
            diagram_threshold_test(phi, tup, 2, 6, shallow)
        with pytest.raises(InputError, match="exceeds jet order"):
            diagram_threshold_test(phi, tup, 3, 2, shallow)
        wrong_arity = diagram_from_generators(
            IdealPresentation.make([], (0, 0, 0)), 4
        )
        with pytest.raises(InputError, match="arity"):
            diagram_threshold_test(phi, tup, 1, 2, wrong_arity)

    def test_reuses_supplied_jet_matrix(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y2)], tup.image
        )
        diag = diagram_from_generators(pres, 6)
        jm = jet_matrix(phi, tup, 5)
        assert diagram_threshold_test(phi, tup, 2, 5, diag, jm=jm) is True


def _vanishing_at(p, center):
    return p - p.eval(center)


@st.composite
def presentations_at_centres(draw):
    """(engine, presentation) for 1-2 random generators in arity 1-3 at a
    random rational centre.  The map is constant at the centre, so every
    generator vanishing there is a relation.  Two generators share a
    factor, which makes their monomial multiples dependent."""
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exps = st.tuples(*([st.integers(0, 2)] * n)).filter(
        lambda b: 0 < sum(b) <= 2)
    poly = st.dictionaries(exps, coeff, min_size=1, max_size=3).map(
        lambda t: Poly(n, t)).filter(lambda p: not p.is_zero())
    center = draw(st.tuples(*([st.fractions(
        min_value=-2, max_value=2, max_denominator=3)] * n)))
    if draw(st.booleans()):
        gens = [_vanishing_at(draw(poly), center)]
    else:
        factor = _vanishing_at(draw(poly), center)
        gens = [factor * draw(poly), factor * draw(poly)]
    gens = [g for g in gens if not g.is_zero()]
    phi = PolyMap("constant", [Poly.constant(1, c) for c in center])
    tup = FibredTuple.make(phi, [(0,)])
    eng = ChevalleyEngine(phi, tup, relations=gens, l_max=6)
    return eng, IdealPresentation.make(gens, center)


class TestRelationEchelon:
    @given(presentations_at_centres(),
           st.lists(st.integers(0, 5), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_slices_match_fresh_builds(self, case, requests):
        # requests in any order: the one echelon grows and is sliced
        eng, pres = case
        deg = max((g.total_degree() for g in pres.generators), default=0)
        for k in requests:
            space = eng.relation_space(k)
            fresh = ideal_jet_space(pres, k)
            assert space == fresh and space.pivots == fresh.pivots
            assert hilbert_samuel_count(eng.diagram(k), k) == \
                hilbert_samuel_count(
                    diagram_from_generators(pres, max(k, deg)), k)

    def test_cusp_builds_one_diagram_per_new_level(self, monkeypatch):
        levels = []
        inside = []
        build = diagram_from_generators
        jets = staircase_module.ideal_jet_space

        def counting_build(presentation, d):
            levels.append(d)
            inside.append(True)
            try:
                return build(presentation, d)
            finally:
                inside.pop()

        def guarded_jets(presentation, k):
            assert inside, "ideal_jet_space reached outside a diagram build"
            return jets(presentation, k)

        monkeypatch.setattr(chevalley_module, "diagram_from_generators",
                            counting_build)
        monkeypatch.setattr(staircase_module, "ideal_jet_space",
                            guarded_jets)
        eng = cusp_engine(l_max=16)
        for k in range(1, 9):
            eng.relation_jets(k)
        assert levels == [3, 4, 5, 6, 7, 8]
        assert eng.diagram(2).trunc_degree == 8
        assert levels == [3, 4, 5, 6, 7, 8]

    def test_diagram_may_be_exact_past_the_request(self):
        eng = cusp_engine()
        assert eng.diagram(7).trunc_degree == 7
        assert eng.diagram(5).trunc_degree == 7
        assert eng.diagram(9).trunc_degree == 9


class TestConsistencyGuards:
    def test_hs_crosscheck_runs(self):
        # the cross-check is exercised on every verified run; a passing run
        # is the evidence (a failure raises ConsistencyError)
        eng = cusp_engine()
        for k in range(0, 5):
            eng.relation_jets(k)

    @pytest.mark.parametrize("mono, l", [((1, 0), 2), ((0, 1), 3),
                                         ((0, 0), 2), ((2, 0), 4),
                                         ((1, 1), 5)])
    def test_escaped_relation_jets_raise(self, mono, l, monkeypatch):
        # a space of the true dimension, so the staircase cross-check
        # passes, that is not inside the chain: y1 = x^2 is already outside
        # the projected kernel at l=2, y2 = x^3 leaves it at l=3, y1^2 = x^4
        # at l=4 and y1*y2 = x^5 at l=5, the true threshold.  The guard
        # tests each echelon row only at the order that made it: the
        # constant escapes through the order-0 row at the first test, and
        # the last two through rows made at l > k + 1
        k = 2
        eng = cusp_engine()
        betas = indices_up_to(2, k)
        fake = Subspace.from_vectors(
            [oracles.integer_row([int(b == mono) for b in betas])],
            len(betas))
        assert fake.dim == eng.relation_space(k).dim
        # the guard tests the canonical rows of relation_space(k)
        monkeypatch.setattr(eng, "relation_space", lambda _: fake)
        with pytest.raises(ConsistencyError,
                           match=f"escaped a projected kernel at l={l}, k=2"):
            eng.relation_jets(k)

    def test_relation_space_requires_generators(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup)
        with pytest.raises(InputError):
            eng.relation_space(2)
        with pytest.raises(InputError):
            eng.diagram(4)


class TestSharedRows:
    """A Subspace hands its canonical rows out shared: every reader leaves
    them as they were."""

    def test_readers_leave_the_rows_unchanged(self):
        eng = cusp_engine(l_max=10)
        pres = eng.presentation
        diag = eng.diagram(8)
        span_rows = copy.deepcopy(diag.span.rows)

        # relation_jets slices the diagram and guards with the slice's rows
        for k in range(1, 5):
            rj = eng.relation_jets(k)
            assert rj.target.rows == ideal_jet_space(pres, k).rows
            assert diag.span.rows == span_rows

        # below the threshold the kernel is strictly larger than the target
        k, l = 3, 3
        target = eng.relation_space(k)
        kernel = eng.jets.projected_kernel(l, k)
        target_rows = copy.deepcopy(target.rows)
        kernel_rows = copy.deepcopy(kernel.rows)
        assert eng.jets.kernel_contains(l, k, target.rows.values())
        assert target.rows == target_rows
        assert kernel.dim > target.dim and kernel.contains(target)
        assert target.rows == target_rows and kernel.rows == kernel_rows
        assert not target.contains(kernel)
        assert target.rows == target_rows and kernel.rows == kernel_rows

        f = parse_poly("y1^4 + 3 y1^2 y2 - y2^3 + 2", 2, names=Y2)
        shifted = f.shift(pres.center)
        series = [shifted, shifted.truncate(8), shifted.truncate(5)]
        for g in series:
            normal_form(g, diag)
            residual_order(g, diag)
            assert diag.span.rows == span_rows

    def test_jet_routes_leave_the_build_rows_unchanged(self):
        # the jet matrices, their column blocks and the projected kernels
        # hand the kernel the build's layer rows and the echelon's guard
        # rows without copying them; every route copies before it reduces
        eng = cusp_engine(l_max=8, point=(Fraction(1, 2),))
        jets, top = eng.jets, 6
        jets.analysis(top)
        layers = copy.deepcopy([jets.jet(top).layer(d)
                                for d in range(top + 1)])
        guards = {(l, k): copy.deepcopy(jets._guard_rows(l, k))
                  for l in range(top + 1) for k in range(l + 1)}

        def assert_unchanged():
            assert [jets.jet(top).layer(d) for d in range(top + 1)] == layers
            assert {key: jets._guard_rows(*key) for key in guards} == guards

        dense = 0
        for l in range(top + 1):
            jets.kernel(l)
            assert_unchanged()
            for k in range(l + 1):
                jets.projected_kernel(l, k)
                assert_unchanged()
                low, high = jet_blocks(jets.jet(l), k)
                blocks = copy.deepcopy([low.sparse_rows, high.sparse_rows])
                r = membership_kernel(low, high).absorbed_rank
                if (comb(high.ncols, r) * comb(high.nrows, r + 1)
                        <= DENSE_CELL_CAP):
                    membership_operator(low, high, r).rank_kernel()
                    dense += 1
                assert [low.sparse_rows, high.sparse_rows] == blocks
                eng.diagram_threshold(k, l)
                assert_unchanged()
        assert dense


def pair_leaf():
    pe = lambda s: parse_poly(s, 1, names=["t"])
    return Leaf.make("pair", ["t"], [[pe("t")], [pe("-t")]])


class TestLeaves:
    def test_validate_accepts_identical_images(self):
        pair_leaf().validate(squaring())

    def test_validate_rejects_generic_mismatch(self):
        pe = lambda s: parse_poly(s, 1, names=["t"])
        bad = Leaf.make("shifted", ["t"], [[pe("t")], [pe("t + 1")]])
        with pytest.raises(InputError, match="share an image"):
            bad.validate(squaring())

    def test_tuple_at(self):
        tup = pair_leaf().tuple_at(squaring(), [Fraction(1, 2)])
        assert tup.points == ((Fraction(1, 2),), (Fraction(-1, 2),))
        assert tup.image == (Fraction(1, 4),)

    def test_draws_skip_colliding_points(self):
        # at seed 2 the stream draws t = 0, where t and -t are one point
        for samp in sample_leaf_chevalley(
            squaring(), pair_leaf(), [1, 2, 3], seed=2, l_max=8
        ):
            assert len(samp.samples) == LEAF_TRIALS
            assert all(t != (0,) for t, _, _ in samp.samples)
            assert [lv for _, lv, _ in samp.samples] == [samp.k] * 5

    def test_leaf_whose_points_always_collide_is_refused(self):
        pe = lambda s: parse_poly(s, 1, names=["t"])
        same = Leaf.make("same", ["t"], [[pe("t")], [pe("t")]])
        with pytest.raises(InputError, match="distinct points"):
            sample_leaf_chevalley(squaring(), same, [1], l_max=4)

    def test_make_needs_params_and_points(self):
        pe = lambda s: parse_poly(s, 1, names=["t"])
        with pytest.raises(InputError):
            Leaf.make("no_params", [], [[pe("t")]])
        with pytest.raises(InputError):
            Leaf.make("no_points", ["t"], [])

    def test_sampling_is_heuristic_and_deterministic(self):
        (samp,) = sample_leaf_chevalley(
            squaring(), pair_leaf(), [2], seed=1, l_max=10
        )
        assert samp.status == HEURISTIC
        assert samp.l_generic == 2
        assert samp.mismatch is False
        assert samp.trials == LEAF_TRIALS == 5
        assert len(samp.samples) == 5
        assert samp.rank_profile[10] == 3
        (again,) = sample_leaf_chevalley(
            squaring(), pair_leaf(), [2], seed=1, l_max=10
        )
        assert again.samples == samp.samples

    def test_sampling_with_relations(self):
        (samp,) = sample_leaf_chevalley(
            squaring(), pair_leaf(), [1], seed=0, l_max=8, relations=[],
        )
        assert samp.status == HEURISTIC
        assert samp.l_generic == 1

    @pytest.mark.parametrize("ks", [[], [1], [1, 2, 3], [3, 1, 3]])
    @pytest.mark.parametrize("relations", [None, []])
    def test_one_draw_serves_every_k(self, ks, relations, monkeypatch):
        built = []
        init = ChevalleyEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChevalleyEngine, "__init__", counting)
        samples = sample_leaf_chevalley(
            squaring(), pair_leaf(), ks, seed=2, l_max=8, relations=relations
        )
        assert len(built) == LEAF_TRIALS
        assert [s.k for s in samples] == ks
        monkeypatch.undo()
        for s, k in zip(samples, ks):
            (alone,) = sample_leaf_chevalley(
                squaring(), pair_leaf(), [k], seed=2, l_max=8,
                relations=relations,
            )
            assert s == alone
