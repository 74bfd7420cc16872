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


# The readers: each checks one JSON shape, returns the value, and raises
# InputError naming the place; every value of a scenario passes one.

def _object(value, allowed, where, message=None, required=()):
    """value, a JSON object with every key of required and none outside
    allowed (any keys when allowed is None)."""
    if not isinstance(value, dict):
        raise InputError(message or f"{where}: expected an object")
    unknown = value.keys() - allowed if allowed is not None else ()
    if unknown:
        raise InputError(f"{where}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in value:
            raise InputError(f"{where}: missing required key {key!r}")
    return value


def _list(value, message, length=None, nonempty=False):
    """value, a JSON list of the given length, or nonempty when asked."""
    if (not isinstance(value, list) or (nonempty and not value)
            or length is not None and len(value) != length):
        raise InputError(message)
    return value


def _text(value, message, name=False):
    """value, a string (a variable name when name is set)."""
    if not isinstance(value, str) or name and not NAME_RE.fullmatch(value):
        raise InputError(message)
    return value


def _integer(value, message, least=None):
    """value, an integer, at least least when given.  JSON true and false
    arrive as bool, which Python counts as int, and are refused."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or least is not None and value < least):
        raise InputError(message)
    return value


def _point(value, m, where):
    """A point: a JSON list of m integers or rational strings."""
    return tuple(
        parse_rational(c) if isinstance(c, str) else Fraction(_integer(
            c, f"{where}: coordinates must be integers or rational strings,"
               f" got {c!r}"))
        for c in _list(value, f"{where}: expected a list of {m} coordinates",
                       length=m)
    )


def _polys(value, where, what, arity, length=None, **names):
    """The polynomials of a JSON list of polynomial texts; the refusal of a
    text by parse_poly is prefixed with its place, where[i]."""
    polys = []
    for i, text in enumerate(
            _list(value, f"{where}: expected {what}", length=length)):
        try:
            polys.append(parse_poly(text, arity, **names))
        except InputError as exc:
            raise InputError(f"{where}[{i}]: {exc}") from None
    return tuple(polys)


def _refuse_repeats(names, what):
    seen = set()
    for name in names:
        if name in seen:
            raise InputError(f"{what} {name!r} repeated")
        seen.add(name)


def target_names(n):
    return [f"y{i + 1}" for i in range(n)]


def target_aliases(n):
    return {"y": "y1"} if n == 1 else None


def parse_scenario(data):
    _object(data, _SCENARIO_KEYS, "scenario", required=("map",))
    raw_map = _object(data["map"], _MAP_KEYS, "map",
                      required=("m", "n", "components"))
    m, n = (_integer(raw_map[key], "map: m and n must be positive integers",
                     least=1) for key in ("m", "n"))
    components = _polys(
        raw_map["components"], "map.components",
        f"{n} component polynomials", m, length=n,
        aliases={"x": "x1"} if m == 1 else None,
    )
    map_name = _text(raw_map.get("name", "map"),
                     "map: 'name' must be a string")
    phi = PolyMap(map_name, components, source_arity=m)

    points = tuple(
        _point(p, m, f"points[{i}]") for i, p in enumerate(
            _list(data.get("points", []), "points: expected a list"))
    )
    tuples = tuple(
        tuple(_point(p, m, f"tuples[{i}][{j}]") for j, p in enumerate(
            _list(group, f"tuples[{i}]: expected a list of at least one"
                         " point", nonempty=True)))
        for i, group in enumerate(
            _list(data.get("tuples", []), "tuples: expected a list"))
    )
    # a one-point tuple has its point's key
    tuple_keys = ([point_key(p) for p in points]
                  + [tuple_key(g) for g in tuples])
    _refuse_repeats(tuple_keys, "scenario: tuple key")

    leaves = []
    for i, raw_leaf in enumerate(
            _list(data.get("leaves", []), "leaves: expected a list")):
        where = f"leaves[{i}]"
        _object(raw_leaf, _LEAF_KEYS, where)
        params = _list(raw_leaf.get("params"),
                       f"{where}: 'params' must be a nonempty list",
                       nonempty=True)
        for p in params:
            _text(p, f"{where}: parameter {p!r} is not a name", name=True)
        _refuse_repeats(params, f"{where}: parameter")
        pts = [
            _polys(pt, f"{where}.points[{j}]", f"{m} expressions",
                   len(params), length=m, names=params)
            for j, pt in enumerate(_list(
                raw_leaf.get("points"),
                f"{where}: 'points' must be a nonempty list", nonempty=True))
        ]
        name = _text(raw_leaf.get("name", f"leaf{i}"),
                     f"{where}: 'name' must be a string")
        leaves.append(Leaf.make(name, params, pts))

    _refuse_repeats([leaf.name for leaf in leaves], "scenario: leaf name")

    relations = None
    if "relations" in data:
        raw_rel = _object(
            data["relations"], None, "relations",
            "scenario: 'relations' must map tuple keys to generator lists",
        )
        valid = ["*", *tuple_keys, *("leaf:" + leaf.name for leaf in leaves)]
        relations = {}
        for key, gens in raw_rel.items():
            if key not in valid:
                raise InputError(
                    f"relations: key {key!r} names no point, tuple or leaf;"
                    f" valid keys: {', '.join(valid)}"
                )
            relations[key] = _polys(
                gens, f"relations[{key!r}]", "a list", n,
                names=target_names(n), aliases=target_aliases(n),
            )

    k_message = "scenario: k_range must be [k_min, k_max]"
    k_range = data.get("k_range", [1, 3])
    # an integer alone is k_max, with k_min 1
    k_min, k_max = (_integer(v, k_message) for v in (
        [1, k_range] if type(k_range) is int
        else _list(k_range, k_message, length=2)))
    l_max, seed = (_integer(data.get(label, default),
                            f"scenario: {label} must be an integer")
                   for label, default in (("l_max", 12), ("seed", 0)))
    window = _integer(data.get("window", 3),
                      "scenario: window must be an integer >= 1", least=1)
    if not (0 <= k_min <= k_max):
        raise InputError("scenario: need 0 <= k_min <= k_max")
    if k_max > l_max:
        raise InputError(f"scenario: k_max={k_max} exceeds l_max={l_max}")

    out = data.get("out")
    if out is not None:
        _text(out, "scenario: 'out' must be a string path")
    name = _text(data.get("name", map_name),
                 "scenario: 'name' must be a string")

    return Scenario(
        name=name, phi=phi, points=points, tuples=tuples,
        leaves=tuple(leaves), relations=relations, k_range=(k_min, k_max),
        l_max=l_max, window=window, seed=seed, out=out,
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
