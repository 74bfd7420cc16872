import gc
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
import chevkit.jets
from chevkit.chevalley import ChevalleyEngine
from chevkit.errors import InputError
from chevkit.indices import degree, index_count, indices_up_to
from chevkit.jets import (
    FibredTuple,
    JetSystem,
    PolyMap,
    component_series,
    jet_blocks,
    jet_matrix,
)
from chevkit.censored import AtLeast
from chevkit.linalg import Matrix, staged_elimination
from chevkit.poly import Poly, parse_poly
from chevkit.scenario import load_scenario, scenario_tuples
from chevkit.wedge import membership_kernel

ROOT = Path(__file__).resolve().parent.parent


def squaring():
    return PolyMap("squaring", [parse_poly("x1^2", 1)])


def cusp():
    return PolyMap("cusp", [parse_poly("x1^2", 1), parse_poly("x1^3", 1)])


def cone():
    comps = [parse_poly(t, 2) for t in ("x1", "x1 x2", "x1 x2^2")]
    return PolyMap("cone", comps)


class TestFibredTuple:
    def test_shared_image_required(self):
        with pytest.raises(InputError, match="share an image"):
            FibredTuple.make(squaring(), [(1,), (2,)])

    def test_opposite_points_share_square(self):
        tup = FibredTuple.make(squaring(), [(1,), (-1,)])
        assert tup.image == (Fraction(1),)
        assert tup.size == 2

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            FibredTuple.make(squaring(), [])


class TestJetMatrix:
    def test_squaring_at_origin_order_2(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        jm = jet_matrix(squaring(), tup, 2)
        assert jm.shape == (3, 3)
        assert jm.col_labels == ((0,), (1,), (2,))
        assert jm.row_labels == ((0, (0,)), (0, (1,)), (0, (2,)))
        expected = [
            [1, 0, 0],
            [0, 0, 0],
            [0, 1, 0],
        ]
        assert jm.matrix.rows == [[Fraction(v) for v in r] for r in expected]

    def test_squaring_pair_order_1(self):
        tup = FibredTuple.make(squaring(), [(1,), (-1,)])
        jm = jet_matrix(squaring(), tup, 1)
        expected = [
            [1, 0],
            [0, 2],
            [1, 0],
            [0, -2],
        ]
        assert jm.matrix.rows == [[Fraction(v) for v in r] for r in expected]

    def test_constant_column_is_indicator(self):
        tup = FibredTuple.make(cusp(), [(2,)])
        jm = jet_matrix(cusp(), tup, 3)
        col0 = [r[0] for r in jm.matrix.rows]
        for (pi, alpha), v in zip(jm.row_labels, col0):
            assert v == (1 if degree(alpha) == 0 else 0)

    def test_triangular_shape(self):
        # rows of source degree <= k are zero in columns of target degree > k
        tup = FibredTuple.make(cone(), [(1, 1)])
        jm = jet_matrix(cone(), tup, 3)
        for i, (pi, alpha) in enumerate(jm.row_labels):
            for j, beta in enumerate(jm.col_labels):
                if degree(beta) > degree(alpha):
                    assert jm.matrix.rows[i][j] == 0

    @pytest.mark.parametrize("mk,pts,l", [
        (squaring, [(0,)], 3),
        (squaring, [(1,), (-1,)], 3),
        (cusp, [(Fraction(1, 2),)], 3),
        (cone, [(1, 1)], 2),
        (cone, [(0, 1)], 3),
    ])
    def test_matches_composition_oracle(self, mk, pts, l):
        phi = mk()
        tup = FibredTuple.make(phi, pts)
        jm = jet_matrix(phi, tup, l)
        expected = oracles.jet_matrix_by_composition(
            phi.components, tup.points, tup.image, l
        )
        assert jm.matrix.rows == expected

    def test_negative_order_rejected(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        with pytest.raises(InputError):
            jet_matrix(squaring(), tup, -1)


@st.composite
def _rational_map_tuples(draw):
    """(map, tuple, order): 1-2 components in 1-2 source variables with
    small rational coefficients, at a random rational point; an even
    one-variable map is also taken at the opposite point."""
    m = draw(st.integers(1, 2))
    even = m == 1 and draw(st.booleans())
    step = 2 if even else 1
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    exps = st.tuples(*[st.integers(0, 2).map(lambda e: step * e)] * m)
    comps = [Poly(m, draw(st.dictionaries(exps, coeff, min_size=1,
                                          max_size=3)))
             for _ in range(draw(st.integers(1, 2)))]
    phi = PolyMap("rational", comps, source_arity=m)
    point = tuple(draw(st.fractions(min_value=-2, max_value=2,
                                    max_denominator=4)) for _ in range(m))
    points = [point, tuple(-c for c in point)] if even and any(point) \
        else [point]
    return phi, FibredTuple.make(phi, points), draw(st.integers(0, 3))


class TestIntegerRows:
    """jet_matrix keeps integer rows, each a positive multiple of the exact
    row; the exact Fraction view is built only when read."""

    @given(_rational_map_tuples())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_positive_multiples_of_the_exact_rows(self, case):
        phi, tup, l = case
        jm = jet_matrix(phi, tup, l)
        want = oracles.jet_matrix_by_composition(
            phi.components, tup.points, tup.image, l
        )
        assert len(jm.rows) == len(want)
        for got, exact in zip(jm.rows, want):
            assert all(type(v) is int for v in got)
            lead = next((j for j, x in enumerate(exact) if x), None)
            if lead is None:
                assert not any(got)
                continue
            ratio = Fraction(got[lead]) / exact[lead]
            assert ratio > 0
            assert got == [ratio * x for x in exact]
        assert jm.matrix.rows == want

    def test_reads_off_the_integer_rows_never_build_the_exact_view(
            self, monkeypatch):
        def refuse(jm):
            raise AssertionError("exact view built")

        monkeypatch.setattr(chevkit.jets.JetMatrix, "matrix",
                            property(refuse))
        phi = cusp()
        tup = FibredTuple.make(phi, [(Fraction(1, 2),)])
        sys = JetSystem(phi, tup, l_max=6)
        assert sys.jet(6).shape == (7, index_count(2, 6))
        for l in range(7):
            sys.analysis(l)
            sys.kernel(l)
            for k in range(l + 1):
                sys.projected_kernel(l, k)
                sys.quotient_dim(l, k)
                sys.kernel_contains(l, k, [])
                jet_blocks(sys.jet(l), k)
        engine = ChevalleyEngine(phi, tup, relations=[
            parse_poly("y1^3 - y2^2", 2, names=["y1", "y2"])], l_max=6)
        engine.relation_jets(2)
        assert engine.diagram_threshold(2, 6) in (True, False)


class TestJetBlocks:
    def test_split_shapes(self):
        tup = FibredTuple.make(cusp(), [(1,)])
        jm = jet_matrix(cusp(), tup, 4)
        low, high = jet_blocks(jm, 2)
        assert low.ncols == index_count(2, 2)
        assert high.ncols == jm.matrix.ncols - low.ncols
        assert low.nrows == high.nrows == jm.matrix.nrows

    def test_split_degree_bounds(self):
        tup = FibredTuple.make(cusp(), [(1,)])
        jm = jet_matrix(cusp(), tup, 2)
        with pytest.raises(InputError):
            jet_blocks(jm, 3)
        with pytest.raises(InputError):
            jet_blocks(jm, -1)


class TestKernels:
    def test_squaring_order_2_kernel(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        kern = JetSystem(squaring(), tup, l_max=2).kernel(2)
        assert kern.dim == 1
        assert list(kern.basis[0]) == [0, 0, 1]

    def test_kernel_annihilated(self):
        tup = FibredTuple.make(cusp(), [(Fraction(1, 2),)])
        jm = jet_matrix(cusp(), tup, 4)
        kern = JetSystem(cusp(), tup, l_max=4).kernel(4)
        for v in kern.basis:
            image = oracles.apply(jm.matrix, list(v))
            assert all(c == 0 for c in image)

    @pytest.mark.parametrize("mk,pts", [
        (squaring, [(0,)]),
        (squaring, [(1,), (-1,)]),
        (cusp, [(0,)]),
        (cone, [(0, 1)]),
    ])
    def test_dims_match_sympy(self, mk, pts):
        phi = mk()
        tup = FibredTuple.make(phi, pts)
        l = 4
        jm = jet_matrix(phi, tup, l)
        rank = oracles.sympy_rank(jm.matrix.rows)
        assert JetSystem(phi, tup, l_max=l).kernel(l).dim == \
            jm.matrix.ncols - rank
        for k in range(0, l + 1):
            expected = oracles.projected_kernel_dim(
                phi.components, tup.points, tup.image, l, k
            )
            assert JetSystem(phi, tup, l_max=l).projected_kernel(l, k).dim \
                == expected

    def test_projection_routes_agree(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        sys = JetSystem(phi, tup, l_max=5)
        for l in range(1, 6):
            full = sys.kernel(l)
            for k in range(0, l + 1):
                cut = index_count(phi.target_arity, k)
                assert sys.projected_kernel(l, k) == full.project(cut)

    def test_quotient_dim_is_codimension(self):
        phi = cone()
        tup = FibredTuple.make(phi, [(1, 1)])
        sys = JetSystem(phi, tup, l_max=3)
        for l in range(0, 4):
            for k in range(0, l + 1):
                total = index_count(phi.target_arity, k)
                proj = sys.projected_kernel(l, k).dim
                assert sys.quotient_dim(l, k) == total - proj

    @pytest.mark.parametrize("name", ["cone", "cusp", "identity", "squaring"])
    def test_rank_only_codim_on_shipped_maps(self, name):
        # quotient_dim reads ranks only; it must match the codimension of
        # the canonicalised projected kernel everywhere on the chain
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
        for _, tup in scenario_tuples(scenario):
            sys = JetSystem(scenario.phi, tup, l_max=scenario.l_max)
            for l in range(scenario.l_max + 1):
                for k in range(l + 1):
                    assert sys.quotient_dim(l, k) == \
                        sys.projected_kernel(l, k).codim, (tup, l, k)

    @given(st.sampled_from([cusp, cone]),
           st.lists(st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4), min_size=2, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_rank_only_codim_at_random_points(self, mk, coords):
        phi = mk()
        tup = FibredTuple.make(phi, [tuple(coords[:phi.source_arity])])
        sys = JetSystem(phi, tup, l_max=4)
        for l in range(5):
            for k in range(l + 1):
                assert sys.quotient_dim(l, k) == \
                    sys.projected_kernel(l, k).codim

    @given(st.sampled_from([cusp, cone]), st.integers(0, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_contains_matches_canonical_membership(self, mk, l, data):
        # kernel vectors (scaled to integers), sparse and dense random
        # vectors, in one call and one at a time
        phi = mk()
        tup = FibredTuple.make(phi, [(0,) * phi.source_arity])
        sys = JetSystem(phi, tup, l_max=l)
        k = data.draw(st.integers(0, l))
        width = index_count(phi.target_arity, k)
        proj = sys.projected_kernel(l, k)
        vectors = proj.integer_basis() + data.draw(st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -2, 3]),
                     min_size=width, max_size=width), max_size=3))
        for v in vectors:
            assert sys.kernel_contains(l, k, [v]) == proj.contains_vector(v)
        assert sys.kernel_contains(l, k, vectors) == \
            all(proj.contains_vector(v) for v in vectors)

    @given(st.sampled_from([cusp, cone]), st.integers(0, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_kernel_contains_takes_sparse_vectors(self, mk, l, data):
        # a sparse {index: x} vector answers as its dense twin does
        phi = mk()
        tup = FibredTuple.make(phi, [(0,) * phi.source_arity])
        sys = JetSystem(phi, tup, l_max=l)
        k = data.draw(st.integers(0, l))
        width = index_count(phi.target_arity, k)
        proj = sys.projected_kernel(l, k)
        dense = proj.integer_basis() + data.draw(st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -2, 3]),
                     min_size=width, max_size=width), max_size=3))
        sparse = [{i: x for i, x in enumerate(v) if x} for v in dense]
        assert proj.integer_rows() == sparse[:proj.dim]
        for since in range(l + 1):
            for d, v in zip(dense, sparse):
                assert sys.kernel_contains(l, k, [v], since) == \
                    sys.kernel_contains(l, k, [d], since)
            assert sys.kernel_contains(l, k, sparse, since) == \
                sys.kernel_contains(l, k, dense, since)

    def test_projection_degree_bound(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        with pytest.raises(InputError):
            JetSystem(squaring(), tup, l_max=2).projected_kernel(2, 3)
        with pytest.raises(InputError):
            JetSystem(squaring(), tup, l_max=2).quotient_dim(2, 3)

    def test_negative_projection_degree(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        with pytest.raises(InputError):
            JetSystem(squaring(), tup, l_max=2).projected_kernel(2, -1)
        with pytest.raises(InputError):
            JetSystem(squaring(), tup, l_max=2).quotient_dim(2, -1)
        with pytest.raises(InputError):
            JetSystem(squaring(), tup, l_max=2).kernel_contains(2, -1, [])

    def test_membership_residual_kernel(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        sys = JetSystem(phi, tup, l_max=5)
        l, k = 5, 2
        low, high = jet_blocks(sys.jet(l), k)
        # the guard rows' kernel is the kernel of the membership system
        # (low)u in the column span of (high); the pivots they leave out of
        # rank J_l count the rank of the high block
        assert membership_kernel(low, high).kernel == \
            sys.projected_kernel(l, k)
        assert sys.analysis(l) - sys.quotient_dim(l, k) == \
            oracles.sympy_rank(high.rows)


def _count_builds(monkeypatch):
    """Record the order of every jet_matrix build a JetSystem makes."""
    levels = []
    build = chevkit.jets.jet_matrix

    def counting(phi, tup, l):
        levels.append(l)
        return build(phi, tup, l)

    monkeypatch.setattr(chevkit.jets, "jet_matrix", counting)
    return levels


def _assert_leading_blocks(phi, tup, top):
    sys = JetSystem(phi, tup, l_max=top)
    sys.analysis(top)
    for l in range(top + 1):
        got, want = sys.jet(l), jet_matrix(phi, tup, l)
        assert got.level == l
        assert got.matrix.rows == want.matrix.rows, (tup, l)
        assert got.col_labels == want.col_labels
        assert got.row_labels == want.row_labels


class TestSingleBuild:
    """One jet_matrix build per system; every lower order is its leading
    block of rows (per point) and columns."""

    @pytest.mark.parametrize("name", ["cone", "cusp", "identity", "squaring"])
    def test_slices_equal_fresh_builds_on_shipped_maps(self, name):
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
        for _, tup in scenario_tuples(scenario):
            _assert_leading_blocks(scenario.phi, tup, scenario.l_max)

    @given(st.sampled_from([cusp, cone]),
           st.lists(st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4), min_size=2, max_size=2),
           st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_slices_equal_fresh_builds_at_random_points(self, mk, coords,
                                                        top):
        phi = mk()
        tup = FibredTuple.make(phi, [tuple(coords[:phi.source_arity])])
        _assert_leading_blocks(phi, tup, top)

    @pytest.mark.parametrize("mk,pts", [
        (cusp, [(Fraction(1, 2),)]),
        (cone, [(1, 1)]),
        (squaring, [(1,), (-1,)]),
    ])
    def test_out_of_order_analyses_match_single_order_systems(self, mk, pts):
        phi = mk()
        tup = FibredTuple.make(phi, pts)
        sys = JetSystem(phi, tup, l_max=9)
        for l in (5, 2, 9, 1):
            got = sys.analysis(l)
            fresh = JetSystem(phi, tup, l_max=l)
            assert got == fresh.analysis(l)
            for k in range(l + 1):
                assert sys.quotient_dim(l, k) == fresh.quotient_dim(l, k)
                assert sys._guard_rows(l, k) == fresh._guard_rows(l, k), \
                    (l, k)

    def test_engine_climb_builds_geometrically(self, monkeypatch):
        levels = _count_builds(monkeypatch)
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        rel = parse_poly("y1^3 - y2^2", 2, names=["y1", "y2"])
        engine = ChevalleyEngine(phi, tup, relations=[rel], l_max=16)
        assert [engine.relation_jets(k).l_value for k in range(1, 9)] == \
            [3, 5, 7, 9, 11, 13, 15, AtLeast(17)]
        assert len(levels) <= 5
        assert max(levels) == 16

    @given(st.integers(0, 12),
           st.lists(st.integers(0, 14), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_builds_stay_within_twice_the_requests(self, l_max, requests):
        levels = []
        build = chevkit.jets.jet_matrix

        def counting(phi, tup, l):
            levels.append(l)
            return build(phi, tup, l)

        phi = squaring()
        tup = FibredTuple.make(phi, [(1,), (-1,)])
        sys = JetSystem(phi, tup, l_max=l_max)
        highest = 0
        original, chevkit.jets.jet_matrix = chevkit.jets.jet_matrix, counting
        try:
            for l in requests:
                before = len(levels)
                highest = max(highest, l)
                sys.analysis(l)
                for level in levels[before:]:
                    assert l <= level <= max(l, min(2 * highest, l_max))
        finally:
            chevkit.jets.jet_matrix = original
        assert len(levels) <= len(set(requests))

    def test_first_build_is_at_the_requested_order(self, monkeypatch):
        # the first request builds exactly its order, lower orders are
        # sliced out of that build, and only a higher one regrows it
        levels = _count_builds(monkeypatch)
        tup = FibredTuple.make(cusp(), [(0,)])
        sys = JetSystem(cusp(), tup, l_max=16)
        sys.quotient_dim(7, 2)
        assert levels == [7]
        for l in (1, 2, 3, 6):
            sys.analysis(l)
        assert levels == [7]
        sys.analysis(9)
        assert levels == [7, 14]

    def test_no_reference_cycle(self):
        # a reference cycle through the system keeps every engine's matrices
        # alive until the cyclic collector runs, which shows in peak memory
        phi = cone()
        tup = FibredTuple.make(phi, [(1, 1)])
        gc.disable()
        try:
            sys = JetSystem(phi, tup, l_max=6)
            for l in (2, 6, 3):
                sys.analysis(l)
                sys.jet(l)
                sys.projected_kernel(l, 1)
                sys.kernel_contains(l, 1, [])
            sys.kernel(3)
            dead_sys = weakref.ref(sys)
            dead_jet = weakref.ref(sys.jet(3))
            del sys
            assert dead_sys() is None
            assert dead_jet() is None
        finally:
            gc.enable()


def _fresh_splits(phi, tup, l):
    """{k: (rank J_l, quotient_dim, projected kernel)} from one fresh
    two-stage staged elimination of the order-l jet matrix per k:
    degree-> k columns first; the rows left without a pivot there, cut to
    the degree-<= k columns, have the projected kernel as their kernel."""
    rows = jet_matrix(phi, tup, l).matrix.rows
    ncols = index_count(phi.target_arity, l)
    splits = {}
    for k in range(l + 1):
        cut = index_count(phi.target_arity, k)
        elim = staged_elimination(rows, ncols,
                                  [list(range(cut, ncols)), list(range(cut))])
        high = {r for r, c in elim.pivots if c >= cut}
        residual = Matrix([row[:cut] for i, row in enumerate(elim.rows)
                           if i not in high], ncols=cut)
        splits[k] = (elim.rank, elim.rank - len(high),
                     residual.rank_kernel()[1])
    return splits


def _assert_prefix_reads(phi, tup, orders, l_max):
    sys = JetSystem(phi, tup, l_max=l_max)
    for l in orders:
        rank = sys.analysis(l)
        for k, (want_rank, want_codim, want_kernel) in \
                _fresh_splits(phi, tup, l).items():
            assert rank == want_rank, (tup, l)
            assert sys.quotient_dim(l, k) == want_codim, (tup, l, k)
            assert sys.projected_kernel(l, k) == want_kernel, (tup, l, k)


@st.composite
def _random_tuples(draw):
    """(map, points): one cusp or cone point, or 2-3 points on the cone's
    singular fibre x1 = 0, where new rows must be reduced against old
    pivots before they are pivoted."""
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    kind = draw(st.sampled_from(["cusp", "cone", "fibre"]))
    if kind == "fibre":
        ts = draw(st.lists(coord, min_size=2, max_size=3, unique=True))
        return cone(), [(0, t) for t in ts]
    phi = cusp() if kind == "cusp" else cone()
    return phi, [tuple(draw(coord) for _ in range(phi.source_arity))]


class TestEchelon:
    """The append-only echelon: every (l, k) read off its order-l prefix
    equals a fresh staged elimination of the order-l jet matrix."""

    @given(_random_tuples(), st.permutations(range(6)))
    @settings(max_examples=25, deadline=None)
    def test_prefix_reads_match_fresh_eliminations_at_random_points(
            self, case, orders):
        phi, pts = case
        _assert_prefix_reads(phi, FibredTuple.make(phi, pts), orders,
                             l_max=5)

    @pytest.mark.parametrize("comps,m,pts,top", [
        (["x1^3 - x1"], 1, [(0,), (1,), (-1,)], 8),
        (["x1", "x2^3 - x2"], 2, [(0, 1), (0, -1), (0, 0)], 5),
        # reducing against the old pivots lowest degree first, instead of
        # in the staged order, miscounts here at order 4
        (["x2 + x1^3", "x2^2 + x1^2 x2"], 2, [(0, 0)], 5),
    ])
    def test_prefix_reads_match_fresh_eliminations_on_folds(
            self, comps, m, pts, top):
        phi = PolyMap("fold", [parse_poly(c, m) for c in comps])
        orders = list(range(top + 1))
        random.Random(top).shuffle(orders)
        _assert_prefix_reads(phi, FibredTuple.make(phi, pts), orders, top)

    @pytest.mark.parametrize("name", ["cone", "cusp", "identity", "squaring"])
    def test_prefix_reads_match_fresh_eliminations_on_shipped_tuples(
            self, name):
        # orders shuffled by a fixed seed; cone stops at 7 for time
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
        top = min(scenario.l_max, 7 if name == "cone" else 12)
        rng = random.Random(name)
        for _, tup in scenario_tuples(scenario):
            orders = list(range(top + 1))
            rng.shuffle(orders)
            _assert_prefix_reads(scenario.phi, tup, orders, l_max=top)

    def test_one_elimination_per_new_order(self, monkeypatch):
        calls = []
        elim = chevkit.jets.staged_elimination

        def counting(rows, ncols, stages):
            calls.append(ncols)
            return elim(rows, ncols, stages)

        monkeypatch.setattr(chevkit.jets, "staged_elimination", counting)
        phi = cone()
        sys = JetSystem(phi, FibredTuple.make(phi, [(1, 1)]), l_max=8)
        for l in (6, 3, 8):
            sys.jet(l)
        assert calls == []
        sys.analysis(4)
        assert len(calls) == 5
        sys.quotient_dim(3, 2)
        sys.kernel_contains(4, 1, [[1, 0, 0, 0]])
        sys.projected_kernel(2, 2)
        assert len(calls) == 5
        sys.quotient_dim(7, 7)
        assert len(calls) == 8
        sys.jet(5)
        assert len(calls) == 8

class TestDefiningProperty:
    """J^l(phi) applied to the coefficients of F equals the Taylor
    coefficients of F composed with the recentered map, at every point."""

    def run_case(self, phi, pts, f_local, l):
        tup = FibredTuple.make(phi, pts)
        jm = jet_matrix(phi, tup, l)
        origin = (0,) * phi.target_arity
        vec = oracles.coeff_vector(f_local.taylor(origin, l), l)
        image = oracles.apply(jm.matrix, vec)
        per_point = len(indices_up_to(phi.source_arity, l))
        for pi, a in enumerate(tup.points):
            expected = oracles.composition_taylor_vector(
                f_local, phi.components, tup.image, a, l
            )
            got = image[pi * per_point:(pi + 1) * per_point]
            assert got == expected

    def test_cusp_case(self):
        f = parse_poly("y1^3 - y2^2 + 2y2", 2, names=["y1", "y2"])
        self.run_case(cusp(), [(1,)], f, 4)
        self.run_case(cusp(), [(Fraction(1, 2),)], f, 5)

    def test_random_cases(self):
        rng = random.Random(7)
        names = ["y1", "y2", "y3"]
        for _ in range(20):
            phi = cone()
            a = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            l = rng.randint(1, 3)
            f = Poly.zero(3)
            for _ in range(rng.randint(1, 3)):
                beta = tuple(rng.randint(0, 2) for _ in range(3))
                f = f + oracles.monomial(beta, Fraction(rng.randint(-3, 3)))
            if f.is_zero():
                continue
            self.run_case(phi, [a], f, l)


class TestComponentSeries:
    def test_centering(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(1,)])
        series = component_series(phi, tup, 0, 3)
        # components minus image values vanish at the point
        for s in series:
            assert s.terms.get((0,), Fraction(0)) == 0
