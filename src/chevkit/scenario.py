"""Scenario files: JSON descriptions of a map, points, tuples, leaves,
relation ideals, and run parameters.

Coordinates and coefficients are exact: integers or rational strings like
"3/2".  Floats anywhere in the file are rejected at parse time.  Variables
are x1..xm on the source (alias x when m is 1) and y1..yn on the target
(alias y when n is 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .chevalley import Leaf
from .errors import InputError
from .jets import FibredTuple, PolyMap
from .poly import NAME_RE, parse_poly, parse_rational

_SCENARIO_KEYS = {
    "name", "map", "points", "tuples", "leaves", "relations",
    "k_range", "l_max", "window", "seed", "out",
}
_MAP_KEYS = {"name", "m", "n", "components"}
_LEAF_KEYS = {"name", "params", "points"}


@dataclass(frozen=True)
class Scenario:
    name: str
    phi: PolyMap
    points: tuple
    tuples: tuple
    leaves: tuple
    relations: object  # dict key -> tuple of generators, or None
    k_range: tuple
    l_max: int
    window: int
    seed: int
    out: object


def point_key(point):
    """Canonical text key for a point: comma-joined reduced rationals."""
    return ",".join(str(Fraction(c)) for c in point)


def tuple_key(points):
    """Canonical text key for a tuple of points: semicolon-joined."""
    return ";".join(point_key(p) for p in points)


def _reject_float(text):
    raise InputError(
        f"float literal {text!r} in scenario; use integers or rational"
        " strings like \"3/2\""
    )


def _is_int(value):
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _coordinate(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(
            f"{where}: coordinates must be integers or rational strings,"
            f" got {value!r}"
        )
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def _check_keys(data, allowed, where):
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"{where}: unknown keys {sorted(unknown)}")


def _refuse_repeats(names, what):
    seen = set()
    for name in names:
        if name in seen:
            raise InputError(f"{what} {name!r} repeated")
        seen.add(name)


def _parse_point(raw, m, where):
    if not isinstance(raw, list) or len(raw) != m:
        raise InputError(f"{where}: expected a list of {m} coordinates")
    return tuple(_coordinate(c, where) for c in raw)


def _source_aliases(m):
    return {"x": "x1"} if m == 1 else None


def target_names(n):
    return [f"y{i + 1}" for i in range(n)]


def target_aliases(n):
    return {"y": "y1"} if n == 1 else None


def parse_scenario(data):
    if not isinstance(data, dict):
        raise InputError("scenario must be a JSON object")
    _check_keys(data, _SCENARIO_KEYS, "scenario")
    if "map" not in data:
        raise InputError("scenario: missing required key 'map'")

    raw_map = data["map"]
    if not isinstance(raw_map, dict):
        raise InputError("scenario: 'map' must be an object")
    _check_keys(raw_map, _MAP_KEYS, "map")
    for key in ("m", "n", "components"):
        if key not in raw_map:
            raise InputError(f"map: missing required key {key!r}")
    m, n = raw_map["m"], raw_map["n"]
    if not _is_int(m) or not _is_int(n) or m < 1 or n < 1:
        raise InputError("map: m and n must be positive integers")
    comps_raw = raw_map["components"]
    if not isinstance(comps_raw, list) or len(comps_raw) != n:
        raise InputError(f"map: expected {n} component polynomials")
    components = [
        parse_poly(text, m, aliases=_source_aliases(m)) for text in comps_raw
    ]
    map_name = raw_map.get("name", "map")
    phi = PolyMap(map_name, components, source_arity=m)

    points = tuple(
        _parse_point(p, m, f"points[{i}]")
        for i, p in enumerate(data.get("points", []))
    )
    tuples = tuple(
        tuple(_parse_point(p, m, f"tuples[{i}][{j}]")
              for j, p in enumerate(group))
        for i, group in enumerate(data.get("tuples", []))
    )
    for i, group in enumerate(tuples):
        if not group:
            raise InputError(f"tuples[{i}]: a tuple needs at least one point")
    # a one-point tuple has its point's key
    tuple_keys = ([point_key(p) for p in points]
                  + [tuple_key(g) for g in tuples])
    _refuse_repeats(tuple_keys, "scenario: tuple key")

    leaves = []
    for i, raw_leaf in enumerate(data.get("leaves", [])):
        if not isinstance(raw_leaf, dict):
            raise InputError(f"leaves[{i}]: expected an object")
        _check_keys(raw_leaf, _LEAF_KEYS, f"leaves[{i}]")
        params = raw_leaf.get("params")
        if not isinstance(params, list) or not params:
            raise InputError(f"leaves[{i}]: 'params' must be a nonempty list")
        for p in params:
            if not isinstance(p, str) or not NAME_RE.fullmatch(p):
                raise InputError(f"leaves[{i}]: parameter {p!r} is not a name")
        _refuse_repeats(params, f"leaves[{i}]: parameter")
        raw_pts = raw_leaf.get("points")
        if not isinstance(raw_pts, list) or not raw_pts:
            raise InputError(f"leaves[{i}]: 'points' must be a nonempty list")
        pts = []
        for j, pt in enumerate(raw_pts):
            if not isinstance(pt, list) or len(pt) != m:
                raise InputError(
                    f"leaves[{i}].points[{j}]: expected {m} expressions"
                )
            pts.append(tuple(
                parse_poly(text, len(params), names=list(params))
                for text in pt
            ))
        name = raw_leaf.get("name", f"leaf{i}")
        if not isinstance(name, str):
            raise InputError(f"leaves[{i}]: 'name' must be a string")
        leaves.append(Leaf.make(name, params, pts))

    _refuse_repeats([leaf.name for leaf in leaves], "scenario: leaf name")

    relations = None
    if "relations" in data:
        raw_rel = data["relations"]
        if not isinstance(raw_rel, dict):
            raise InputError(
                "scenario: 'relations' must map tuple keys to generator"
                " lists"
            )
        valid = ["*", *tuple_keys, *("leaf:" + leaf.name for leaf in leaves)]
        relations = {}
        for key, gens in raw_rel.items():
            if key not in valid:
                raise InputError(
                    f"relations: key {key!r} names no point, tuple or leaf;"
                    f" valid keys: {', '.join(valid)}"
                )
            if not isinstance(gens, list):
                raise InputError(f"relations[{key!r}]: expected a list")
            relations[key] = tuple(
                parse_poly(text, n, names=target_names(n),
                           aliases=target_aliases(n))
                for text in gens
            )

    k_range = data.get("k_range", [1, 3])
    if _is_int(k_range):
        k_range = [1, k_range]
    if (not isinstance(k_range, list) or len(k_range) != 2
            or not all(_is_int(v) for v in k_range)):
        raise InputError("scenario: k_range must be [k_min, k_max]")
    k_min, k_max = k_range
    l_max = data.get("l_max", 12)
    window = data.get("window", 3)
    seed = data.get("seed", 0)
    for label, value in (("l_max", l_max), ("window", window),
                         ("seed", seed)):
        if not _is_int(value):
            raise InputError(f"scenario: {label} must be an integer")
    if not (0 <= k_min <= k_max):
        raise InputError("scenario: need 0 <= k_min <= k_max")
    if k_max > l_max:
        raise InputError(
            f"scenario: k_max={k_max} exceeds l_max={l_max}"
        )
    if window < 1:
        raise InputError("scenario: window must be >= 1")

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise InputError("scenario: 'out' must be a string path")
    name = data.get("name", map_name)
    if not isinstance(name, str):
        raise InputError("scenario: 'name' must be a string")

    return Scenario(
        name=name,
        phi=phi,
        points=points,
        tuples=tuples,
        leaves=tuple(leaves),
        relations=relations,
        k_range=(k_min, k_max),
        l_max=l_max,
        window=window,
        seed=seed,
        out=out,
    )


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(
                fh, parse_float=_reject_float, parse_constant=_reject_float
            )
    except OSError as exc:
        raise InputError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario is not valid JSON: {exc}") from None
    return parse_scenario(data)


def scenario_tuples(scenario):
    """All fibred tuples of a scenario in deterministic order: the single
    points first, then the multi-point tuples, as written."""
    phi = scenario.phi
    out = []
    for p in scenario.points:
        out.append((point_key(p), FibredTuple.make(phi, [p])))
    for group in scenario.tuples:
        out.append((tuple_key(group), FibredTuple.make(phi, list(group))))
    return out


def relations_for(scenario, key):
    """Resolve the relation generators for a tuple key.

    Returns None when the scenario makes no claim (heuristic mode); an
    explicit empty tuple claims the zero ideal.  The wildcard key "*"
    applies to every tuple without its own entry.
    """
    if scenario.relations is None:
        return None
    if key in scenario.relations:
        return scenario.relations[key]
    return scenario.relations.get("*")
