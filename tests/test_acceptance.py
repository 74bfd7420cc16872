"""Acceptance suite: ten end-to-end criteria, one test (and one printed
verdict line) each.  Run with -s to see the verdict lines on success; a
failing criterion fails its test outright."""

import json
import math
import random
import time
from fractions import Fraction

import pytest

import _oracles as oracles
from chevkit.censored import is_censored
from chevkit.chevalley import STABILIZED, VERIFIED, ChevalleyEngine, ChevalleyEntry
from chevkit.cli import main as cli_main
from chevkit.experiments import fit_linear_bound, product_order_probe
from chevkit.indices import index_count, indices_up_to
from chevkit.jets import FibredTuple, PolyMap, jet_blocks, jet_matrix
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

DENSE_CELL_CAP = 2000

Y2 = ["y1", "y2"]
Y3 = ["y1", "y2", "y3"]


def squaring_map():
    return PolyMap("squaring", [parse_poly("x1^2", 1)])


def cusp_map():
    return PolyMap("cusp", [parse_poly("x1^2", 1), parse_poly("x1^3", 1)])


def cone_map():
    comps = [parse_poly(t, 2) for t in ("x1", "x1 x2", "x1 x2^2")]
    return PolyMap("cone", comps)


def cusp_generators():
    return [parse_poly("y1^3 - y2^2", 2, names=Y2)]


def cusp_presentation():
    return IdealPresentation.make(cusp_generators(), (0, 0))


def verdict(line):
    print(line)


# shared tables; each fixture times its own construction so the criterion
# that owns the budget sees only its own cost

@pytest.fixture(scope="module")
def c1_data():
    phi = squaring_map()
    tup = FibredTuple.make(phi, [(0,)])
    t0 = time.monotonic()
    engine = ChevalleyEngine(phi, tup, relations=None, l_max=14, window=3)
    rows = {k: engine.relation_jets(k) for k in range(1, 7)}
    oracle = {
        k: oracles.threshold_by_search(
            phi.components, tup.points, tup.image, k, 14
        )
        for k in range(1, 7)
    }
    elapsed = time.monotonic() - t0
    return engine, rows, oracle, elapsed


@pytest.fixture(scope="module")
def c2_data():
    phi = cusp_map()
    tup = FibredTuple.make(phi, [(0,)])
    t0 = time.monotonic()
    engine = ChevalleyEngine(
        phi, tup, relations=cusp_generators(), l_max=12, window=3
    )
    rows = {k: engine.relation_jets(k) for k in range(1, 6)}
    entries = [
        ChevalleyEntry(
            map_name="cusp", tuple_id="0", k=k, l_value=rows[k].l_value,
            h_value=engine.relation_jets(k).codim, status=rows[k].status,
            l_stab=rows[k].l_stab,
        )
        for k in range(1, 6)
    ]
    bound = fit_linear_bound(entries)
    elapsed = time.monotonic() - t0
    return engine, rows, bound, elapsed


def c3_cases():
    one_var = [(Fraction(0),), (Fraction(1),), (Fraction(-1),),
               (Fraction(2),), (Fraction(1, 2),)]
    two_var = [(0, 0), (0, 1), (1, 0), (1, 1), (-1, 1)]
    return [
        (PolyMap("identity", [parse_poly("x1", 1)]), one_var, []),
        (squaring_map(), one_var, []),
        (cusp_map(), one_var, cusp_generators()),
        (cone_map(), two_var,
         [parse_poly("y2^2 - y1 y3", 3, names=Y3)]),
    ]


@pytest.fixture(scope="module")
def c3_data():
    engines = {}
    for phi, points, gens in c3_cases():
        for a in points:
            tup = FibredTuple.make(phi, [a])
            engines[(phi.name, a)] = ChevalleyEngine(
                phi, tup, relations=gens, l_max=10, window=3
            )
    rows = {
        key: {k: eng.relation_jets(k) for k in (1, 2, 3)}
        for key, eng in engines.items()
    }
    return engines, rows


def test_c01_window_stabilization(c1_data):
    """Heuristic mode finds l = 2k for the squaring map at the origin, and
    an independent brute-force search over sympy matrices agrees."""
    engine, rows, oracle, elapsed = c1_data
    for k in range(1, 7):
        rj = rows[k]
        assert rj.status == STABILIZED
        assert rj.l_value == 2 * k
        assert rj.l_stab == 2 * k
        assert oracles.relation_subspace(engine, rj).is_zero()
        assert oracle[k] == 2 * k
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    verdict(f"C1 PASS: window mode l=2k for k=1..6 in {elapsed:.2f}s,"
            " oracle agrees")


def test_c02_certified_cusp_table(c2_data):
    """Verified mode certifies l = 2k + 1 on the cusp at the origin and the
    fitted envelope is exactly (alpha, beta) = (2, 1)."""
    engine, rows, bound, elapsed = c2_data
    for k in range(1, 6):
        rj = rows[k]
        assert rj.status == VERIFIED
        assert rj.l_value == 2 * k + 1
        assert engine.relation_jets(k).codim == 2 * k + 1
    assert (bound.alpha, bound.beta) == (2, 1)
    assert len(bound.witnesses) == 5
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    verdict(f"C2 PASS: certified l=2k+1 for k=1..5, fit (2, 1),"
            f" in {elapsed:.2f}s")


def test_c03_route_agreement(c3_data):
    """Four independent routes agree on every (map, point, k, l) cell:
    the staircase-restricted threshold test, the staged projected kernel,
    the full-kernel projection, the alternating-minors membership operator
    (where it fits), and rank J_l minus the rank of its degree-> k block
    against the codimension."""
    engines, rows = c3_data
    cells = dense_cells = 0
    for key, engine in engines.items():
        n = engine.phi.target_arity
        for k in (1, 2, 3):
            rj = rows[key][k]
            assert not is_censored(rj.l_value), (key, k)
            for l in range(k, 11):
                reached = engine.diagram_threshold(k, l)
                assert reached == (l >= rj.l_value), (key, k, l)
                staged = engine.jets.projected_kernel(l, k)
                full = engine.jets.kernel(l).project(index_count(n, k))
                jm = engine.jets.jet(l)
                low, high = jet_blocks(jm, k)
                schur = membership_kernel(low, high)
                assert staged == full == schur.kernel, (key, k, l)
                # codim of the projected kernel = rank J_l - rank(high), by
                # two fresh eliminations apart from the echelon
                assert (oracles.elimination_rank(jm.matrix, jm.shape[1])
                        - oracles.elimination_rank(high.sparse_rows,
                                                   high.ncols)
                        == engine.jets.quotient_dim(l, k)), (key, k, l)
                cells += 1
                r = schur.absorbed_rank
                size = (math.comb(high.ncols, r)
                        * math.comb(high.nrows, r + 1))
                if size <= DENSE_CELL_CAP:
                    op = membership_operator(low, high, r)
                    _, dense_kernel = op.rank_kernel()
                    assert dense_kernel == staged, (key, k, l)
                    dense_cells += 1
    verdict(f"C3 PASS: {cells} cells agree on all routes"
            f" ({dense_cells} also checked densely)")


def test_c04_wedge_identities():
    """Across 500 random matrices up to 5x5: the column span equals the
    wedge-operator kernel, and the operators at rank and rank + 1 both
    annihilate the columns."""
    rng = random.Random(2024)
    t0 = time.monotonic()
    for trial in range(500):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        b = oracles.DenseMatrix(
            [[Fraction(rng.randint(-4, 4)) for _ in range(nc)]
             for _ in range(nr)],
            nc,
        )
        assert oracles.image_kernel_check(b), trial
        r = oracles.sympy_rank(b.rows)
        for order in (r, r + 1):
            op = oracles.wedge_operator(b, order)
            prod = oracles.matmul(op, b)
            assert all(v == 0 for row in prod.rows for v in row), trial
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    verdict(f"C4 PASS: 500 wedge identities in {elapsed:.2f}s")


def test_c05_jet_composition_oracle():
    """200 random (map, function, point, order) cases: the jet matrix
    applied to the function's coefficients reproduces the sympy Taylor
    coefficients of the composition."""
    rng = random.Random(11)

    def rand_poly(arity, max_deg):
        p = Poly.zero(arity)
        for _ in range(rng.randint(1, 3)):
            while True:
                e = tuple(rng.randint(0, max_deg) for _ in range(arity))
                if sum(e) <= max_deg:
                    break
            p = p + oracles.monomial(e, Fraction(rng.randint(-3, 3)))
        return p if not p.is_zero() else rand_poly(arity, max_deg)

    for trial in range(200):
        m = rng.randint(1, 2)
        n = rng.randint(1, 3)
        phi = PolyMap("r", [rand_poly(m, 3) for _ in range(n)],
                      source_arity=m)
        a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))
        l = rng.randint(1, 6)
        f_local = rand_poly(n, 3)
        tup = FibredTuple.make(phi, [a])
        jm = jet_matrix(phi, tup, l)
        vec = oracles.coeff_vector(f_local.taylor((0,) * n, l), l)
        got = oracles.apply(jm.matrix, vec)
        expected = oracles.composition_taylor_vector(
            f_local, phi.components, tup.image, a, l
        )
        assert got == expected, trial
    verdict("C5 PASS: 200 jet/composition agreements")


def test_c06_division_checks():
    """100 random reductions against the cusp staircase: supports avoid the
    staircase, the reduced part lies in the truncated ideal, and reduction
    is idempotent, linear, and order non-decreasing."""
    trunc = 8
    pres = cusp_presentation()
    diagram = diagram_from_generators(pres, trunc)
    ideal8 = ideal_jet_space(pres, trunc)
    betas = indices_up_to(2, trunc)
    rng = random.Random(5)

    def rand_poly():
        p = Poly.zero(2)
        for _ in range(rng.randint(1, 5)):
            while True:
                e = (rng.randint(0, trunc), rng.randint(0, trunc))
                if sum(e) <= trunc:
                    break
            p = p + oracles.monomial(e, Fraction(rng.randint(-4, 4)))
        return p

    for trial in range(100):
        f = rand_poly()
        g = rand_poly()
        nf = normal_form(f, diagram)
        assert all(not diagram.contains(b) for b in nf.terms), trial
        diff = f - nf.to_poly()
        vec = [oracles.coeff(diff, b) for b in betas]
        member = Subspace.from_vectors(oracles.integer_rows([vec]),
                                       len(betas))
        assert ideal8.contains(member), trial
        assert normal_form(nf.to_poly(), diagram) == nf, trial
        sum_nf = normal_form(f + g, diagram)
        assert sum_nf == nf + normal_form(g, diagram), trial
        if not nf.to_poly().is_zero() and not f.is_zero():
            assert nf.order() >= f.order(), trial
        value = residual_order(f, diagram)
        if not is_censored(value):
            assert value == nf.order(), trial
    verdict("C6 PASS: 100 division checks")


def test_c07_count_agreement():
    """The staircase count and the engine's jet codimension both give
    2k + 1 on the cusp for k = 1..6."""
    diagram = diagram_from_generators(cusp_presentation(), 13)
    phi = cusp_map()
    tup = FibredTuple.make(phi, [(0,)])
    engine = ChevalleyEngine(
        phi, tup, relations=cusp_generators(), l_max=13
    )
    for k in range(1, 7):
        expected = 2 * k + 1
        assert hilbert_samuel_count(diagram, k) == expected
        assert engine.relation_jets(k).codim == expected
    verdict("C7 PASS: both counts give 2k+1 for k=1..6")


def test_c08_monotonicity(c1_data, c2_data, c3_data):
    """Across every table computed above: chains only shrink, thresholds
    never drop as k grows, and the codimension reaches its ceiling exactly
    from the threshold on."""
    c1_engine, c1_rows, _, _ = c1_data
    c2_engine, c2_rows, _, _ = c2_data
    c3_engines, c3_rows = c3_data

    tables = [(c1_engine, c1_rows), (c2_engine, c2_rows)]
    tables += [
        (c3_engines[key], c3_rows[key]) for key in sorted(
            c3_rows, key=lambda key: (key[0], [str(c) for c in key[1]])
        )
    ]
    checked = 0
    for engine, rows in tables:
        ks = sorted(rows)
        for k0, k1 in zip(ks, ks[1:]):
            l0, l1 = rows[k0].l_value, rows[k1].l_value
            if not is_censored(l0) and not is_censored(l1):
                assert l1 >= l0, (k0, k1)
        for k in ks:
            rj = rows[k]
            chain = [(l, engine.jets.projected_kernel(l, k))
                     for l in rj.chain]
            for (_, e0), (_, e1) in zip(chain, chain[1:]):
                assert e0.contains(e1), k
            if is_censored(rj.l_value) or rj.status != VERIFIED:
                continue
            h = engine.relation_jets(k).codim
            n = engine.phi.target_arity
            for l, e in chain:
                d = index_count(n, k) - e.dim
                assert d <= h, (k, l)
                assert (d == h) == (l >= rj.l_value), (k, l)
                checked += 1
    verdict(f"C8 PASS: monotonicity over {len(tables)} tables"
            f" ({checked} equality cells)")


def test_c09_product_orders():
    """200 random product trials give a finite envelope, and the direct
    triple nu(y2^2), nu(y2^2), nu(y2^4) = (3, 3, 6) shows the orders are
    genuinely superadditive."""
    pres = cusp_presentation()
    probe = product_order_probe(pres, trials=200, seed=0, trunc=8)
    assert probe.envelope is not None
    assert len(probe.triples) + probe.excluded == 200
    assert len(probe.triples) > 0
    for nf, ng, nfg in probe.triples:
        assert nfg >= nf + ng
    diagram = diagram_from_generators(pres, 8)
    f = parse_poly("y2^2", 2, names=Y2)
    triple = (
        residual_order(f, diagram),
        residual_order(f, diagram),
        residual_order(f * f, diagram),
    )
    assert triple == (3, 3, 6)
    verdict(f"C9 PASS: envelope ({probe.envelope.alpha},"
            f" {probe.envelope.beta}) over {len(probe.triples)} triples,"
            " direct triple (3, 3, 6)")


def test_c10_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical canonical JSON."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    cusp = str(root / "scenarios" / "cusp.json")
    outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code = cli_main(["chevalley", "--scenario", cusp, "--k-max", "3",
                         "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    entries = json.loads(outputs[0])["entries"]
    assert set(entries[0]) == {"H", "k", "l", "l_stab", "map", "status",
                               "tuple"}
    fit_outputs = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        assert cli_main(["fit", "--scenario", cusp, "--out", str(out)]) == 0
        fit_outputs.append(out.read_bytes())
    assert fit_outputs[0] == fit_outputs[1]
    verdict("C10 PASS: byte-identical JSON across reruns")
