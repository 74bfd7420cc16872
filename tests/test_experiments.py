import collections
import dataclasses
import functools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
import test_cli
import chevkit.chevalley as chevalley_module
import chevkit.experiments as experiments_module
from chevkit.censored import AtLeast, is_censored
from chevkit.chevalley import (
    HEURISTIC,
    STABILIZED,
    VERIFIED,
    ChevalleyEngine,
    ChevalleyEntry,
    sample_leaf_chevalley,
)
from chevkit.errors import InputError, RelationsMismatchError
from chevkit.experiments import (
    CheckResult,
    TableRun,
    _max_pair_slope,
    _random_series,
    composite_order_probe,
    fit_linear_bound,
    product_order_probe,
    residual_order_probe,
    run_table,
    verify_consistency,
)
from chevkit.jets import JetSystem, PolyMap
from chevkit.linalg import Matrix
from chevkit.poly import Poly, parse_poly
from chevkit.scenario import (
    load_scenario,
    parse_scenario,
    relations_for,
    scenario_tuples,
    target_aliases,
    target_names,
)
from chevkit.staircase import IdealPresentation

ROOT = Path(__file__).resolve().parent.parent

Y2 = ["y1", "y2"]


def row(k, l, status=VERIFIED, tuple_id="0", map_name="m"):
    return ChevalleyEntry(
        map_name=map_name, tuple_id=tuple_id, k=k, l_value=l,
        h_value=0, status=status,
    )


def cusp_presentation():
    g = parse_poly("y1^3 - y2^2", 2, names=Y2)
    return IdealPresentation.make([g], (0, 0))


class TestLinearFit:
    def test_exact_line(self):
        bound = fit_linear_bound([row(1, 2), row(2, 4), row(3, 6)])
        assert (bound.alpha, bound.beta) == (2, 0)
        assert bound.witnesses == ((1, 2), (2, 4), (3, 6))

    def test_identity_line(self):
        bound = fit_linear_bound([row(1, 1), row(2, 2)])
        assert (bound.alpha, bound.beta) == (1, 0)

    def test_offset_line(self):
        bound = fit_linear_bound([row(1, 3), row(2, 5)])
        assert (bound.alpha, bound.beta) == (2, 1)
        assert bound.witnesses == ((1, 3), (2, 5))

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(-20, 40)),
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_pair_slope_matches_every_pair(self, rows):
        # repeated k, a single k and falling l included
        assert _max_pair_slope(rows) == oracles.max_pair_slope_by_pairs(rows)

    @pytest.mark.parametrize("rows, alpha", [
        ([], 0),
        ([(3, 7)], 0),
        ([(2, 5), (2, 9), (2, 1)], 0),
        ([(1, 9), (4, 2)], 0),
        ([(1, 2), (1, 8), (3, 7), (3, 3)], 3),
        ([(5, 1), (0, 0), (2, 9), (2, 4)], 5),
    ])
    def test_pair_slope_edge_cases(self, rows, alpha):
        assert _max_pair_slope(rows) == alpha
        assert oracles.max_pair_slope_by_pairs(rows) == alpha

    def test_ragged_slopes_round_up(self):
        bound = fit_linear_bound([row(1, 2), row(3, 7)])
        # slope ceil(5/2) = 3, intercept lifts the first row back under
        assert bound.alpha == 3
        assert bound.beta == 0
        assert bound.witnesses == ()

    def test_slope_not_pooled_across_tuples(self):
        # one row each from two tuples: no within-tuple pair, slope stays 0
        entries = [row(4, 4, tuple_id="a"), row(5, 11, tuple_id="b")]
        bound = fit_linear_bound(entries)
        assert (bound.alpha, bound.beta) == (0, 11)
        assert bound.witnesses == ((5, 11),)

    def test_censored_rows_push_intercept(self):
        entries = [row(1, 2), row(2, 4), row(2, AtLeast(9))]
        bound = fit_linear_bound(entries)
        assert (bound.alpha, bound.beta) == (2, 5)
        assert bound.witnesses == ()

    def test_heuristic_rows_excluded(self):
        entries = [row(1, 2), row(2, 4), row(1, 50, status=HEURISTIC)]
        bound = fit_linear_bound(entries)
        assert (bound.alpha, bound.beta) == (2, 0)

    def test_stabilized_rows_count(self):
        entries = [row(1, 2, status=STABILIZED), row(2, 4, status=STABILIZED)]
        assert fit_linear_bound(entries).alpha == 2

    def test_needs_a_certified_row(self):
        with pytest.raises(InputError, match="uncensored"):
            fit_linear_bound([row(1, AtLeast(3))])
        with pytest.raises(InputError, match="uncensored"):
            fit_linear_bound([row(1, 9, status=HEURISTIC)])

    def test_negative_slope_clamped(self):
        bound = fit_linear_bound([row(1, 5), row(2, 3)])
        assert bound.alpha == 0
        assert bound.beta == 5


class TestOrderProbe:
    def test_frozen_orders(self):
        polys = [
            parse_poly("y2^2", 2, names=Y2),
            parse_poly("y1", 2, names=Y2),
            parse_poly("y1^3 - y2^2", 2, names=Y2),
        ]
        entries = residual_order_probe(cusp_presentation(), polys, trunc=8)
        values = [e.value for e in entries]
        assert values == [3, 1, AtLeast(8)]
        assert oracles.to_poly(entries[0].normal_form) == parse_poly(
            "y1^3", 2, names=Y2
        )
        # the normal forms are truncated at exactly the requested degree
        assert {e.normal_form.trunc_degree for e in entries} == {8}

    def test_degree_over_truncation(self):
        deep = [parse_poly("y2^9", 2, names=Y2)]
        with pytest.raises(InputError, match="truncation"):
            residual_order_probe(cusp_presentation(), deep, trunc=8)

    def test_recentered_probe(self):
        # at a smooth center the ideal has a degree-1 staircase vertex
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y2)], (1, 1)
        )
        (entry,) = residual_order_probe(
            pres, [parse_poly("y1 - 1", 2, names=Y2)], trunc=6
        )
        assert entry.value == 1

    def test_reads_an_iterator_once(self):
        polys = [parse_poly(t, 2, names=Y2) for t in ("y2^2", "y1", "y2")]
        assert residual_order_probe(cusp_presentation(), iter(polys)) == \
            residual_order_probe(cusp_presentation(), polys)


class TestProductProbe:
    def test_frozen_run(self):
        probe = product_order_probe(cusp_presentation(), trials=50, seed=0,
                                    trunc=8)
        assert len(probe.triples) == 45
        assert probe.excluded == 5
        assert (probe.envelope.alpha, probe.envelope.beta) == (2, 0)

    def test_deterministic(self):
        a = product_order_probe(cusp_presentation(), trials=30, seed=7)
        b = product_order_probe(cusp_presentation(), trials=30, seed=7)
        assert a.triples == b.triples
        assert a.excluded == b.excluded

    def test_orders_superadditive(self):
        probe = product_order_probe(cusp_presentation(), trials=40, seed=3)
        for nf, ng, nfg in probe.triples:
            assert nfg >= nf + ng

    def test_truncation_bound(self):
        with pytest.raises(InputError):
            product_order_probe(cusp_presentation(), trunc=1)


class TestRandomSeries:
    """The product probe draws with getrandbits by randrange's rule; the
    draw through randint and choice is the reference, down to term order,
    coefficient types and the generator's state afterwards."""

    @given(st.integers(0, 2 ** 64), st.integers(1, 3), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_draws_match_randint_and_choice(self, seed, arity, max_degree):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(4):
            got = _random_series(rng, arity, max_degree, 2 * max_degree)
            want = oracles.random_series_by_randint(
                reference, arity, max_degree, 2 * max_degree)
            assert list(got.terms.items()) == list(want.terms.items())
            assert [type(c) for c in got.terms.values()] == \
                [type(c) for c in want.terms.values()] == \
                [int] * len(got.terms)
            assert got.trunc_degree == want.trunc_degree
        assert rng.getstate() == reference.getstate()


# the scenarios the composite-order law is drawn on: the shipped ones, and
# the three-generator curve and the Osgood truncation that test_cli pins
LAW_SCENARIOS = [
    load_scenario(ROOT / "scenarios" / f"{name}.json")
    for name in ("cone", "cusp", "identity", "squaring")
] + [parse_scenario(test_cli.TestOutputPins.MONO345),
     parse_scenario(test_cli.TestOutputPins.OSGOOD4)]
LAW_TARGETS = [(sc, key, tup) for sc in LAW_SCENARIOS
               for key, tup in scenario_tuples(sc)]


@functools.lru_cache(maxsize=None)
def law_engine(i):
    """One engine per law target, shared by every draw on it."""
    sc, key, tup = LAW_TARGETS[i]
    return ChevalleyEngine(sc.phi, tup, relations=relations_for(sc, key),
                           l_max=sc.l_max, window=sc.window)


def origin_target(name):
    # every law scenario lists its origin first
    return next(i for i, (sc, _, _) in enumerate(LAW_TARGETS)
                if sc.name == name)


def target_poly(sc, text):
    n = sc.phi.target_arity
    return parse_poly(text, n, names=target_names(n),
                      aliases=target_aliases(n))


@st.composite
def vanishing_polys(draw):
    """(target index, f): f vanishes at the target's image point, as a sum
    of up to three terms of degree 1..4 around it, plus, half the time, a
    monomial multiple of a relation generator, so that nu(f) and the plain
    order of f can differ."""
    # a scenario first, so that each one has its share of the draws
    sc = draw(st.sampled_from(LAW_SCENARIOS))
    i = draw(st.sampled_from([i for i, target in enumerate(LAW_TARGETS)
                              if target[0] is sc]))
    _, key, tup = LAW_TARGETS[i]
    n = sc.phi.target_arity
    minus_b = tuple(-c for c in tup.image)

    def exponents(top):
        return st.tuples(*[st.integers(0, top)] * n).filter(
            lambda e: 1 <= sum(e) <= top)

    terms = draw(st.dictionaries(exponents(4), st.integers(-3, 3).filter(
        bool), min_size=1, max_size=3))
    f = Poly(n, terms).shift(minus_b)
    gens = relations_for(sc, key)
    if gens and draw(st.booleans()):
        multiple = Poly(n, {draw(exponents(2)): draw(st.sampled_from(
            [-2, -1, 1, 2]))}).shift(minus_b)
        f = f + draw(st.sampled_from(gens)) * multiple
    return i, f


class TestCompositeOrderLaw:
    """ord(f∘phi) <= l(a, nu(f)) wherever the row at nu(f) is certified
    with a finite threshold."""

    @given(vanishing_polys())
    @settings(max_examples=200, deadline=None)
    def test_law_holds_on_random_functions(self, case):
        i, f = case
        sc, _, tup = LAW_TARGETS[i]
        (probe,) = composite_order_probe(law_engine(i), [f], sc.k_range)
        k_min, k_max = sc.k_range
        in_range = not is_censored(probe.nu) and k_min <= probe.nu <= k_max
        assert (probe.row is not None) == in_range
        # f vanishes at the image point, so its composite does at every
        # point of the tuple
        assert probe.order is None or probe.order >= 1
        if in_range and not is_censored(probe.row.l_value):
            assert probe.row.status == VERIFIED
            assert probe.order is not None
            assert probe.order <= probe.row.l_value

    # one tight case per shipped scenario, at its origin: (nu, ord, l)
    @pytest.mark.parametrize("name, text, expected", [
        ("cusp", "y2", (1, 3, 3)),
        ("cone", "y3", (1, 3, 3)),
        ("identity", "y1", (1, 1, 1)),
        ("squaring", "y1^2", (2, 4, 4)),
    ])
    def test_tight_cases(self, name, text, expected):
        i = origin_target(name)
        sc = LAW_TARGETS[i][0]
        (probe,) = composite_order_probe(
            law_engine(i), [target_poly(sc, text)], sc.k_range)
        assert (probe.nu, probe.order, probe.row.l_value) == expected

    def test_relation_has_no_row(self):
        # y2^2 - y1^3 lies in the cusp's relation ideal: its residual order
        # is censored and its composite zero, although its plain order is 2
        i = origin_target("cusp")
        sc = LAW_TARGETS[i][0]
        (probe,) = composite_order_probe(
            law_engine(i), [target_poly(sc, "y2^2 - y1^3")], sc.k_range)
        assert probe == experiments_module.CompositeOrder(
            nu=AtLeast(6), order=None, row=None)

    def test_each_row_is_climbed_once(self, monkeypatch):
        sc = LAW_SCENARIOS[1]
        key, tup = scenario_tuples(sc)[0]
        engine = ChevalleyEngine(sc.phi, tup, relations=relations_for(
            sc, key), l_max=sc.l_max)
        seen = []
        climb = engine.relation_jets
        monkeypatch.setattr(engine, "relation_jets",
                            lambda k: seen.append(k) or climb(k))
        polys = [target_poly(sc, t) for t in ("y1", "y2", "y1^2", "y1^9")]
        probes = composite_order_probe(engine, polys, sc.k_range)
        assert sorted(seen) == [1, 2]
        assert [p.nu for p in probes] == [1, 1, 2, AtLeast(9)]
        assert probes[0].row == probes[1].row
        assert probes[3].row is None and probes[3].order == 18

    def test_reads_an_iterator_once(self):
        i = origin_target("cusp")
        sc = LAW_TARGETS[i][0]
        polys = [target_poly(sc, t) for t in ("y2", "y1^2", "y2^2 - y1^3")]
        probes = composite_order_probe(law_engine(i), polys, sc.k_range)
        assert len(probes) == 3
        assert composite_order_probe(
            law_engine(i), iter(polys), sc.k_range) == probes

    def test_refusals(self):
        sc = LAW_SCENARIOS[1]
        key, tup = scenario_tuples(sc)[0]
        engine = ChevalleyEngine(sc.phi, tup, relations=relations_for(
            sc, key), l_max=4)
        with pytest.raises(InputError, match="k_max must be an int in 1..4"):
            composite_order_probe(engine, [], (1, 5))
        with pytest.raises(InputError, match="2 coordinates, expected 1"):
            composite_order_probe(engine, [Poly(1, {(1,): 1})], (1, 4))


def small_cusp_scenario(gens=("y1^3 - y2^2",), k_max=2):
    return parse_scenario({
        "name": "cusp",
        "map": {"name": "cusp", "m": 1, "n": 2,
                "components": ["x^2", "x^3"]},
        "points": [[0], [1]],
        "relations": {"*": list(gens)},
        "k_range": [1, k_max],
        "l_max": 8,
    })


class TestRunTable:
    def test_osgood_climb_at_scale(self):
        # Osgood N = 6 at k <= 8 sends batches of new rows through the
        # echelon far larger than any shipped scenario's, at orders up
        # to 49; every row is certified
        table = run_table(parse_scenario(oracles.osgood_scenario(6, 8, 70)))
        assert [(e.tuple_id, e.k, e.status) for e in table.entries] == \
            [("0,0", k, VERIFIED) for k in range(1, 9)]
        assert [e.l_value for e in table.entries] == \
            [3, 7, 12, 18, 25, 33, 41, 49]
        assert [e.h_value for e in table.entries] == \
            [4, 10, 20, 35, 56, 84, 119, 161]
        assert table.leaf_samples == ()

    def test_row_order_and_values(self):
        table = run_table(small_cusp_scenario())
        ids = [(e.tuple_id, e.k) for e in table.entries]
        assert ids == [("0", 1), ("0", 2), ("1", 1), ("1", 2)]
        by_id = {(e.tuple_id, e.k): e for e in table.entries}
        assert by_id[("0", 1)].l_value == 3
        assert by_id[("0", 2)].l_value == 5
        assert by_id[("1", 1)].l_value == 1
        assert all(e.status == VERIFIED for e in table.entries)

    def test_table_run_holds_no_engine(self):
        # a result record is a plain value: nothing keeps an engine alive
        assert [f.name for f in dataclasses.fields(TableRun)] == [
            "entries", "leaf_samples"]

    def test_mismatch_names_the_tuple(self):
        bad = small_cusp_scenario(gens=("y1^4 - y1 y2^2",))
        with pytest.raises(RelationsMismatchError, match="tuple 0, k=2"):
            run_table(bad)

    def test_leaf_rows(self):
        sc = parse_scenario({
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "points": [[0]],
            "leaves": [{"name": "pair", "params": ["t"],
                        "points": [["t"], ["-t"]]}],
            "k_range": [1, 2],
            "l_max": 8,
        })
        table = run_table(sc)
        leaf_rows = [e for e in table.entries if e.tuple_id == "leaf:pair"]
        assert len(leaf_rows) == 2
        assert all(e.status == HEURISTIC for e in leaf_rows)
        assert len(table.leaf_samples) == 2
        assert table.leaf_samples[0].l_generic == 1

    def test_leaf_draw_serves_every_k(self, monkeypatch):
        sc = load_scenario(ROOT / "scenarios" / "squaring.json")
        built = []
        init = ChevalleyEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChevalleyEngine, "__init__", counting)
        table = run_table(sc)
        tuples = len(list(scenario_tuples(sc)))
        # one engine per scenario tuple, then one per trial of the leaf
        assert len(built) == tuples + 5 * len(sc.leaves)
        monkeypatch.setattr(ChevalleyEngine, "__init__", init)

        k_min, k_max = sc.k_range
        separate = tuple(
            sample_leaf_chevalley(
                sc.phi, leaf, [k], seed=sc.seed, l_max=sc.l_max,
                window=sc.window,
                relations=relations_for(sc, "leaf:" + leaf.name),
            )[0]
            for leaf in sc.leaves for k in range(k_min, k_max + 1)
        )
        assert len(separate) == 3
        assert table.leaf_samples == separate

    @pytest.mark.parametrize("name, k_max", [("cusp", 5), ("cone", 2),
                                             ("squaring", 3),
                                             ("mono345", 3)])
    def test_one_relation_build_per_engine(self, monkeypatch, name, k_max):
        # the shipped scenarios have one generator or none, whose H(k) is
        # counted in closed form, so nothing builds a relation echelon;
        # with three generators every engine, leaf trials included, builds
        # it once, at k_max, which no generator degree exceeds here
        if name == "mono345":
            sc = parse_scenario(MONO345)
        else:
            sc = load_scenario(ROOT / "scenarios" / f"{name}.json")
        builds = []
        build = chevalley_module.diagram_from_generators

        def counting(presentation, d):
            builds.append((presentation, d))
            return build(presentation, d)

        monkeypatch.setattr(chevalley_module, "diagram_from_generators",
                            counting)
        run_table(sc)
        if name != "mono345":
            assert builds == []
            return
        engines = len(list(scenario_tuples(sc))) + 5 * len(sc.leaves)
        assert engines == 8
        assert len({id(p) for p, _ in builds}) == len(builds) == engines
        assert {d for _, d in builds} == {k_max}


# the monomial curve (x^3, x^4, x^5), whose relation ideal needs three
# generators, with a leaf of single points along the curve
MONO345 = {
    "name": "mono345",
    "map": {"name": "mono345", "m": 1, "n": 3,
            "components": ["x^3", "x^4", "x^5"]},
    "points": [[0], [1], ["1/2"]],
    "leaves": [{"name": "line", "params": ["t"], "points": [["t"]]}],
    "relations": {"*": ["y2^2 - y1*y3", "y1^3 - y2*y3", "y3^2 - y1^2*y2"]},
    "k_range": [1, 3],
    "l_max": 8,
}


class TestVerify:
    def test_identity_scenario_passes(self):
        sc = parse_scenario({
            "name": "identity",
            "map": {"name": "identity", "m": 1, "n": 1,
                    "components": ["x"]},
            "points": [[0], [2]],
            "relations": {"*": []},
            "k_range": [1, 2],
            "l_max": 6,
        })
        checks = verify_consistency(sc)
        assert all(c.passed for c in checks)
        names = [c.name for c in checks]
        assert names == [
            "table-construction",
            "relations-vanish",
            "codimension-count-agreement",
            "threshold-route-agreement",
            "membership-route-agreement",
            "relation-growth-bounded",
            "monotonicity",
        ]

    def test_squaring_scenario_passes(self):
        sc = parse_scenario({
            "name": "squaring",
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "points": [[0], [1]],
            "tuples": [[[1], [-1]]],
            "relations": {"*": []},
            "k_range": [1, 2],
            "l_max": 8,
        })
        checks = verify_consistency(sc)
        assert all(c.passed for c in checks)

    def test_bad_generators_fail_construction(self):
        bad = small_cusp_scenario(gens=("y1^4 - y1 y2^2",))
        checks = verify_consistency(bad)
        assert not all(c.passed for c in checks)
        (check,) = checks
        assert check.name == "table-construction"
        assert "RelationsMismatchError" in check.detail
        # the table climb is run_table's, and so is the context of its errors
        assert check.detail.startswith(
            "RelationsMismatchError: map 'cusp', tuple 0, k=2: projected"
            " kernels stabilized")

    def test_returns_a_plain_tuple(self):
        checks = verify_consistency(small_cusp_scenario(k_max=1))
        assert type(checks) is tuple
        assert all(type(c) is CheckResult for c in checks)

    def test_construction_failure_is_the_first_in_table_order(self):
        # tuple 0 fails its climb at k=2 before tuple 1 refuses its
        # generator; both would fail, the first in table order is reported
        sc = parse_scenario({
            "map": {"name": "cusp", "m": 1, "n": 2,
                    "components": ["x^2", "x^3"]},
            "points": [[0], [1]],
            "relations": {"0": ["y1^4 - y1 y2^2"], "1": ["y1 - y2"]},
            "k_range": [1, 2],
            "l_max": 8,
        })
        (check,) = verify_consistency(sc)
        assert check.detail.startswith(
            "RelationsMismatchError: map 'cusp', tuple 0, k=2:")
        with pytest.raises(RelationsMismatchError, match="tuple 0, k=2"):
            run_table(sc)

    def test_refused_engine_names_the_tuple(self):
        # input the engine refuses is malformed, not a failed check
        sc = small_cusp_scenario(gens=("y1 - y2",))
        with pytest.raises(InputError, match="tuple 0: claimed relation"
                           " does not compose to zero"):
            verify_consistency(sc)

    def test_dense_route_difference_is_reported(self, monkeypatch):
        # the dense route ranks only distinct rows; an operator with no
        # rows kills every vector, and the check still sees it differ
        monkeypatch.setattr(experiments_module, "membership_operator",
                            lambda matrix, cut, r: Matrix([], ncols=cut))
        checks = {c.name: c for c in verify_consistency(small_cusp_scenario())}
        check = checks.pop("membership-route-agreement")
        assert not check.passed
        assert "dense route differs" in check.detail
        assert all(c.passed for c in checks.values())

    def test_each_route_reads_each_jet_matrix_once(self, monkeypatch):
        # the staircase route and kernel(l) cache what they take from
        # jet(l), and the membership loop reads it once per order whatever
        # the number of degrees k, so no caller reads one order twice
        reads = collections.Counter()
        jet = JetSystem.jet

        def counting(self, l):
            reads[(sys._getframe(1).f_code.co_name, id(self), l)] += 1
            return jet(self, l)

        monkeypatch.setattr(JetSystem, "jet", counting)
        checks = verify_consistency(small_cusp_scenario(k_max=4))
        assert all(c.passed for c in checks)
        assert set(reads.values()) == {1}
        membership = sorted(l for caller, _, l in reads
                            if caller == "verify_consistency")
        # two tuples, orders 1..6 (k_min to the membership cap)
        assert membership == sorted(list(range(1, 7)) * 2)

    @pytest.mark.parametrize("name", ["cusp", "cone", "squaring",
                                      "identity", "mono345"])
    def test_one_relation_build_per_engine(self, monkeypatch, name):
        # the count checks read each engine's relation echelon through
        # k_max, and the staircase route its staircase through l_max: in
        # closed form for at most one generator, so the climb builds the
        # echelon at max(k_max, generator degree), and off the echelon for
        # three, so it builds it at l_max; once, and nothing builds again
        if name == "mono345":
            sc = parse_scenario(MONO345)
        else:
            sc = load_scenario(ROOT / "scenarios" / f"{name}.json")
        builds = []
        build = chevalley_module.diagram_from_generators

        def counting(presentation, d):
            builds.append((presentation, d))
            return build(presentation, d)

        monkeypatch.setattr(chevalley_module, "diagram_from_generators",
                            counting)
        checks = verify_consistency(sc)
        assert all(c.passed for c in checks)
        engines = sum(relations_for(sc, key) is not None
                      for key, _ in scenario_tuples(sc))
        assert engines > 0
        assert len({id(p) for p, _ in builds}) == len(builds) == engines
        k_max = sc.k_range[1]
        if name == "mono345":
            assert {d for _, d in builds} == {sc.l_max} == {8}
        else:
            assert [d for _, d in builds] == [
                max(k_max, p.generator_degree) for p, _ in builds]
            assert {d for _, d in builds} == {
                "cusp": {5}, "cone": {2}, "squaring": {3},
                "identity": {3}}[name]

    def test_unfibred_tuple_is_an_input_error(self):
        # a malformed tuple is refused before any check is run
        sc = parse_scenario({
            "map": {"name": "cusp", "m": 1, "n": 2,
                    "components": ["x^2", "x^3"]},
            "tuples": [[[1], [-1]]],
        })
        with pytest.raises(InputError, match="do not share an image"):
            verify_consistency(sc)
