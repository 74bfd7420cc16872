"""Seeded inputs for the chevkit benchmark, and the checks on their outputs.

A workload is a list of ops; an op is one CLI verb on one generated
scenario file.  The maps, relation generators and leaves come from the
shipped scenarios under ``scenarios/``; points, fibre tuples, probe
polynomials and the program's own random seeds are drawn from the workload
seed, with rational heights |p|, q <= HEIGHT.  The same seed always writes
the same files and argument lists.

Every op carries its work units, an input-size estimate and a check.  The
checks use only closed forms and counts that hold for every seed, so an
unseen seed is still checked:

* cusp at 0: l = H = 2k+1; cusp at a != 0: l = k, H = k+1;
  squaring at 0: l = 2k; squaring pairs and leaf rows: l = k, H = k+1;
  cone at a smooth point (x1 != 0): l = k, H = C(k+2, 2);
* every VERIFIED H equals hilbert_samuel_count(diagram_from_generators(...)),
  computed here before any timing;
* a fitted bound covers every certified row;
* verify prints no FAIL line and the route counts its inputs imply;
* residual orders of probe polynomials follow from the monomial rewriting
  y2^2 -> y1^3 (cusp) and y2^2 -> y1*y3 (cone); the cone's tangent cone is
  a domain, so its product orders add exactly, the cusp's only
  superadditively.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HEIGHT = 4
WORKLOADS = ("table", "verify", "probe")
SHIPPED = ("cusp", "cone", "identity", "squaring")
MEMBERSHIP_L_CAP = 6  # verify_consistency's default membership_l_cap


@dataclass
class Op:
    """One CLI call: argv without --out, plus what its output must satisfy."""

    id: str
    argv: list
    units: int            # work units the op completes when it succeeds
    cells: int            # estimated matrix cells (see README)
    height: int           # largest point height in the scenario
    check: Callable       # (stdout, payload) -> list of problems
    scenario: str         # path of the scenario file


def _rational(rng, nonzero=True):
    while True:
        q = Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
        if q or not nonzero:
            return q


def _height(points):
    return max(
        (max(abs(Fraction(c).numerator), Fraction(c).denominator)
         for p in points for c in p),
        default=0,
    )


def _key(points):
    return ";".join(",".join(str(Fraction(c)) for c in p) for p in points)


def _at_least(n):
    return {"at_least": n}


def _jet_cells(m, n, l, sizes):
    return sum(sizes) * math.comb(m + l, l) * math.comb(n + l, l)


def _load_shipped(root):
    out = {}
    for name in SHIPPED:
        with open(os.path.join(root, "scenarios", name + ".json"),
                  encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def _writer(work):
    """scenario(name, base, **fields) writes a scenario file into work."""
    def scenario(name, base, **fields):
        data = {"name": name, "map": base["map"]}
        data.update(fields)
        path = os.path.join(work, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
        return path, data
    return scenario


# ---------------------------------------------------------------- table


def _row(key, k, l, h, status):
    return {"tuple": key, "k": k, "l": l, "H": h, "status": status}


def _check_rows(rows, expected, map_name, hs_counts):
    problems = []
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    for got, want in zip(rows, expected):
        where = f"tuple {want['tuple']} k={want['k']}"
        if got.get("map") != map_name:
            problems.append(f"{where}: map {got.get('map')!r}")
        for field in ("tuple", "k", "status"):
            if got.get(field) != want[field]:
                problems.append(f"{where}: {field} {got.get(field)!r}")
        if want["l"] is not None and got.get("l") != want["l"]:
            problems.append(f"{where}: l={got.get('l')!r}, closed form"
                            f" {want['l']!r}")
        if want["H"] is not None and got.get("H") != want["H"]:
            problems.append(f"{where}: H={got.get('H')!r}, closed form"
                            f" {want['H']!r}")
        if want["status"] == "VERIFIED":
            hs = hs_counts[(want["tuple"], want["k"])]
            if got.get("H") != hs:
                problems.append(f"{where}: H={got.get('H')!r}, staircase"
                                f" count {hs}")
        l_value = got.get("l")
        stab = got.get("l_stab")
        if want["status"] == "HEURISTIC" or isinstance(l_value, dict):
            if stab is not None:
                problems.append(f"{where}: l_stab={stab!r} on a"
                                " censored or heuristic row")
        elif stab != l_value:
            problems.append(f"{where}: l_stab={stab!r} but l={l_value!r}")
    return problems


def _check_fit(payload):
    alpha, beta = payload.get("alpha"), payload.get("beta")
    if not isinstance(alpha, int) or not isinstance(beta, int):
        return [f"fit returned alpha={alpha!r}, beta={beta!r}"]
    problems = []
    certified = set()
    for row in payload["entries"]:
        if row["status"] == "HEURISTIC":
            continue
        l_value = row["l"]
        bound = l_value["at_least"] if isinstance(l_value, dict) else l_value
        if bound > alpha * row["k"] + beta:
            problems.append(f"row {row['tuple']} k={row['k']} l={l_value}"
                            f" above {alpha}*k + {beta}")
        if not isinstance(l_value, dict):
            certified.add((row["k"], l_value))
    for k, l in payload.get("witnesses", []):
        if (k, l) not in certified or l != alpha * k + beta:
            problems.append(f"witness (k={k}, l={l}) is not a tight row")
    return problems


def staircase_counts(path, k_range):
    """H at every (tuple, k) with generators, from the staircase alone."""
    from chevkit.chevalley import validate_relations
    from chevkit.scenario import load_scenario, relations_for, scenario_tuples
    from chevkit.staircase import (
        IdealPresentation,
        diagram_from_generators,
        hilbert_samuel_count,
    )

    scenario = load_scenario(path)
    counts = {}
    for key, tup in scenario_tuples(scenario):
        rel = relations_for(scenario, key)
        if rel is None:
            continue
        gens = validate_relations(scenario.phi, tup, rel)
        pres = IdealPresentation.make(gens, tup.image)
        deg = max((g.total_degree() for g in gens if not g.is_zero()),
                  default=0)
        for k in range(k_range[0], k_range[1] + 1):
            diagram = diagram_from_generators(pres, max(k, deg))
            counts[(key, k)] = hilbert_samuel_count(diagram, k)
    return counts


def _table_ops(name, path, data, expected, m, n, leaf_points=0):
    hs_counts = staircase_counts(path, data["k_range"])
    map_name = data["map"]["name"]
    k_min, k_max = data["k_range"]
    l_max = data["l_max"]
    points = list(data.get("points", []))
    sizes = [1] * len(points) + [len(t) for t in data.get("tuples", [])]
    for t in data.get("tuples", []):
        points.extend(t)
    leaf_cells = 5 * (k_max - k_min + 1) * _jet_cells(m, n, l_max,
                                                      [leaf_points])
    cells = _jet_cells(m, n, l_max, sizes) + leaf_cells

    def check_table(stdout, payload):
        return _check_rows(payload["entries"], expected, map_name, hs_counts)

    def check_fit(stdout, payload):
        return check_table(stdout, payload) + _check_fit(payload)

    return [
        Op(f"{name}.{verb}", [verb, "--scenario", path], len(expected),
           cells, _height(points), check, path)
        for verb, check in (("chevalley", check_table), ("fit", check_fit))
    ]


def _cusp_rows(points, k_range, l_max):
    rows = []
    for p in points:
        a = Fraction(p[0])
        for k in range(k_range[0], k_range[1] + 1):
            if a == 0:
                l = 2 * k + 1 if 2 * k + 1 <= l_max else _at_least(l_max + 1)
                rows.append(_row(_key([p]), k, l, 2 * k + 1, "VERIFIED"))
            else:
                rows.append(_row(_key([p]), k, k, k + 1, "VERIFIED"))
    return rows


def _table(rng, shipped, scenario):
    cusp, cone, square = shipped["cusp"], shipped["cone"], shipped["squaring"]
    cusp_rel = cusp["relations"]["*"]
    cone_rel = cone["relations"]["*"]
    ops = []

    # the scaled run: cusp at its singular point with l_max 16 / k_max 8
    pts, kr, lm = [[0]], [1, 8], 16
    path, data = scenario("cusp16", cusp, points=pts,
                          relations={"*": cusp_rel}, k_range=kr, l_max=lm)
    ops += _table_ops("cusp16", path, data, _cusp_rows(pts, kr, lm), 1, 2)

    pts, kr, lm = [[0], [str(_rational(rng))]], [1, 4], 10
    path, data = scenario("cusp", cusp, points=pts,
                          relations={"*": cusp_rel}, k_range=kr, l_max=lm)
    ops += _table_ops("cusp", path, data, _cusp_rows(pts, kr, lm), 1, 2)

    # singular origin with generators, one smooth point with generators
    # (VERIFIED), one smooth point without them (window mode, STABILIZED)
    for i in range(2):
        smooth = []
        while len(smooth) < 2:
            p = [str(_rational(rng)), str(_rational(rng, nonzero=False))]
            if p not in smooth:
                smooth.append(p)
        pts, kr, lm = [[0, 0]] + smooth, [1, 2], 6
        rel = {_key([pts[0]]): cone_rel, _key([pts[1]]): cone_rel}
        path, data = scenario(f"cone{i}", cone, points=pts, relations=rel,
                              k_range=kr, l_max=lm, window=3)
        rows = []
        for p, status in zip(pts, ("VERIFIED", "VERIFIED", "STABILIZED")):
            for k in range(kr[0], kr[1] + 1):
                if p == [0, 0]:
                    rows.append(_row(_key([p]), k, None, None, status))
                else:
                    rows.append(_row(_key([p]), k, k, math.comb(k + 2, 2),
                                     status))
        ops += _table_ops(f"cone{i}", path, data, rows, 2, 3)

    # the leaf samples its own parameters (HEURISTIC rows)
    c = _rational(rng)
    pair = [[str(c)], [str(-c)]]
    kr, lm = [1, 2], 8
    path, data = scenario(
        "square", square, points=[[0]], tuples=[pair],
        leaves=square["leaves"], relations={"*": []}, k_range=kr,
        l_max=lm, seed=rng.randrange(1 << 30),
    )
    ks = range(kr[0], kr[1] + 1)
    rows = [_row("0", k, 2 * k, k + 1, "VERIFIED") for k in ks]
    rows += [_row(_key(pair), k, k, k + 1, "VERIFIED") for k in ks]
    rows += [_row("leaf:" + leaf["name"], k, k, k + 1, "HEURISTIC")
             for leaf in square["leaves"] for k in ks]
    leaf_points = sum(len(leaf["points"]) for leaf in square["leaves"])
    ops += _table_ops("square", path, data, rows, 1, 1, leaf_points)
    return ops


# ---------------------------------------------------------------- verify

_ROUTE_RE = {
    "threshold": re.compile(
        r"^PASS threshold-route-agreement: (\d+) \(k, l\) cells agree",
        re.M),
    "membership": re.compile(
        r"^PASS membership-route-agreement: (\d+) cells agree", re.M),
}


def _verify_op(name, path, data, m, n):
    k_min, k_max = data["k_range"]
    l_max = data["l_max"]
    ntup = len(data["points"])
    ks = range(k_min, k_max + 1)
    want = {
        "threshold": ntup * sum(l_max - k + 1 for k in ks),
        "membership": ntup * sum(
            max(0, min(l_max, MEMBERSHIP_L_CAP) - k + 1) for k in ks),
    }

    def check(stdout, payload):
        problems = [line for line in stdout.splitlines()
                    if line.startswith("FAIL")]
        if payload.get("all_passed") is not True:
            problems.append("verify reports all_passed false")
        for route, regex in _ROUTE_RE.items():
            found = regex.search(stdout)
            if not found or int(found.group(1)) != want[route]:
                problems.append(f"{route} route: printed"
                                f" {found and found.group(1)}, expected"
                                f" {want[route]} cells")
        return problems

    return Op(f"{name}.verify", ["verify", "--scenario", path],
              sum(want.values()),
              _jet_cells(m, n, l_max, [1] * ntup),
              _height(data["points"]), check, path)


def _verify(rng, shipped, scenario):
    cusp, cone = shipped["cusp"], shipped["cone"]
    rel_cusp = {"*": cusp["relations"]["*"]}
    rel_cone = {"*": cone["relations"]["*"]}
    specs = [("vcusp0", cusp, [[0]], [1, 3], 7)]
    specs += [(f"vcusp{i}", cusp, [[str(_rational(rng))]], [1, 2], 6)
              for i in (1, 2)]
    # (0, t) lies on the cone's singular line over the origin
    specs += [("vcone0", cone, [[0, str(_rational(rng, nonzero=False))]],
               [1, 2], 4)]
    specs += [(f"vcone{i}", cone,
               [[str(_rational(rng)), str(_rational(rng, nonzero=False))]],
               [1, 2], 4) for i in (1, 2, 3)]
    ops = []
    for name, base, pts, kr, lm in specs:
        rel = rel_cusp if base is cusp else rel_cone
        path, data = scenario(name, base, points=pts, relations=rel,
                              k_range=kr, l_max=lm)
        m, n = base["map"]["m"], base["map"]["n"]
        ops.append(_verify_op(name, path, data, m, n))
    return ops


# ---------------------------------------------------------------- probe


def _cusp_reduce(e):
    i, j = e
    return (i + 3 * (j // 2), j % 2)


def _cone_reduce(e):
    a, b, c = e
    return (a + b // 2, b % 2, c + b // 2)


def _mono_text(e):
    return "*".join(f"y{i + 1}" if d == 1 else f"y{i + 1}^{d}"
                    for i, d in enumerate(e) if d)


def _monomials(rng, n, lo, hi):
    while True:
        e = tuple(rng.randint(0, hi) for _ in range(n))
        if lo <= sum(e) <= hi:
            return e


def _nu_polys(rng, n, trunc, count, reduce, relation, rel_degree):
    """Probe polynomials with their expected residual orders.

    Most are short sums of monomials, whose normal form is the sum of the
    rewritten monomials; every eighth is a monomial multiple of the
    relation, which lies in the ideal.
    """
    polys = []
    for idx in range(count):
        if idx % 8 == 7:
            e = _monomials(rng, n, 0, trunc - rel_degree)
            mono = _mono_text(e)
            text = f"({relation})" + (f"*{mono}" if mono else "")
            polys.append((text, _at_least(trunc)))
            continue
        terms = {}
        parts = []
        for _ in range(rng.randint(1, 3)):
            e = _monomials(rng, n, 1, trunc)
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {abs(c)}*{_mono_text(e)}")
            r = reduce(e)
            if sum(r) <= trunc:
                terms[r] = terms.get(r, 0) + c
        text = " ".join(parts).lstrip("+ ")
        orders = [sum(r) for r, c in terms.items() if c]
        order = min(orders, default=trunc)
        polys.append((text, order if order < trunc else _at_least(trunc)))
    return polys


def _product_op(name, path, trials, trunc, exact, n, height):
    def check(stdout, payload):
        triples = payload.get("triples", [])
        problems = []
        if payload.get("trials") != trials:
            problems.append(f"ran {payload.get('trials')} trials")
        if len(triples) + payload.get("excluded", -1) != trials:
            problems.append("triples and exclusions do not add up")
        for nf, ng, nfg in triples:
            if nfg < nf + ng or (exact and nfg != nf + ng):
                problems.append(f"triple ({nf}, {ng}, {nfg}) breaks the"
                                " order law")
                break
        return problems

    return Op(f"{name}.product",
              ["product", "--scenario", path, "--trials", str(trials),
               "--trunc", str(trunc)],
              3 * trials, math.comb(n + trunc, n) ** 2, height, check, path)


def _nu_op(name, path, polys, trunc, n, height):
    argv = ["nu", "--scenario", path, "--trunc", str(trunc)]
    for text, _ in polys:
        argv += ["--poly", text]

    def check(stdout, payload):
        entries = payload.get("entries", [])
        if len(entries) != len(polys):
            return [f"{len(entries)} orders for {len(polys)} polynomials"]
        return [f"nu({text}) = {e['value']!r}, closed form {want!r}"
                for (text, want), e in zip(polys, entries)
                if e["value"] != want][:5]

    return Op(f"{name}.nu", argv, len(polys),
              math.comb(n + trunc, n) ** 2, height, check, path)




def _probe(rng, shipped, scenario):
    cusp, cone = shipped["cusp"], shipped["cone"]
    cusp_rel = cusp["relations"]["*"]
    cone_rel = cone["relations"]["*"]
    ops = []
    path, _ = scenario("pcusp", cusp, points=[[0]],
                       relations={"*": cusp_rel}, seed=rng.randrange(1 << 30))
    ops.append(_product_op("pcusp", path, 600, 12, False, 2, 0))
    polys = _nu_polys(rng, 2, 10, 480, _cusp_reduce, cusp_rel[0], 3)
    ops.append(_nu_op("pcusp", path, polys, 10, 2, 0))
    # (0, t) maps to the origin, the cone's vertex
    point = [0, str(_rational(rng, nonzero=False))]
    path, _ = scenario("pcone", cone, points=[point],
                       relations={"*": cone_rel}, seed=rng.randrange(1 << 30))
    height = _height([point])
    ops.append(_product_op("pcone", path, 500, 8, True, 3, height))
    polys = _nu_polys(rng, 3, 8, 300, _cone_reduce, cone_rel[0], 2)
    ops.append(_nu_op("pcone", path, polys, 8, 3, height))
    return ops


def build(workload, seed, root, work):
    """Write the workload's scenario files into work; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make_ops = {"table": _table, "verify": _verify, "probe": _probe}[workload]
    return make_ops(rng, _load_shipped(root), _writer(work))


def shipped_ops(root):
    """chevalley and fit on the four shipped scenarios, checked by digest."""
    ops = []
    for name in SHIPPED:
        path = os.path.join(root, "scenarios", name + ".json")
        for verb in ("chevalley", "fit"):
            ops.append(Op(f"shipped.{name}.{verb}",
                          [verb, "--scenario", path], 0, 0, 0,
                          lambda stdout, payload: [], path))
    return ops
