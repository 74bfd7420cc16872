import dataclasses
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chevkit.errors import InputError
from chevkit.scenario import (
    load_scenario,
    parse_scenario,
    point_key,
    relations_for,
    scenario_tuples,
    tuple_key,
)


def _put(data, path, value):
    """Set the field of data at path, a tuple of keys and indices."""
    *outer, last = path
    for part in outer:
        data = data[part]
    data[last] = value


def cusp_data():
    return {
        "name": "cusp",
        "map": {"name": "cusp", "m": 1, "n": 2,
                "components": ["x^2", "x^3"]},
        "points": [[0], ["1/2"], [-1]],
        "tuples": [[[1], [1]]],
        "relations": {"*": ["y1^3 - y2^2"]},
        "k_range": [1, 4],
        "l_max": 11,
        "window": 2,
        "seed": 5,
    }


class TestParsing:
    def test_round_trip_fields(self):
        sc = parse_scenario(cusp_data())
        assert sc.name == "cusp"
        assert sc.phi.name == "cusp"
        assert sc.phi.source_arity == 1
        assert sc.phi.target_arity == 2
        assert sc.points == ((Fraction(0),), (Fraction(1, 2),),
                             (Fraction(-1),))
        assert sc.tuples == (((Fraction(1),), (Fraction(1),)),)
        assert sc.k_range == (1, 4)
        assert sc.l_max == 11
        assert sc.window == 2
        assert sc.seed == 5
        assert sc.out is None

    def test_frozen(self):
        sc = parse_scenario(cusp_data())
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.l_max = 20
        assert sc.l_max == 11

    def test_defaults(self):
        sc = parse_scenario({
            "map": {"m": 1, "n": 1, "components": ["x^2"]},
            "points": [[0]],
        })
        assert sc.name == "map"
        assert sc.k_range == (1, 3)
        assert sc.l_max == 12
        assert sc.window == 3
        assert sc.seed == 0
        assert sc.relations is None
        assert sc.leaves == ()

    def test_single_variable_alias(self):
        sc = parse_scenario({
            "map": {"m": 1, "n": 1, "components": ["x^2 + x1"]},
            "points": [[0]],
        })
        assert sc.phi.components[0].eval((Fraction(2),)) == Fraction(6)

    def test_many_source_variables_parse_in_linear_memory(self):
        # a parser builds a unit exponent tuple only for a name it reads,
        # so memory grows linearly in m, not with one tuple per variable
        tracemalloc.start()
        try:
            sc = parse_scenario({
                "map": {"m": 4000, "n": 2, "components": ["x1", "x4000"]},
            })
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        x1, x4000 = sc.phi.components
        assert x1.terms == {(1,) + (0,) * 3999: 1}
        assert x4000.terms == {(0,) * 3999 + (1,): 1}

    def test_k_range_shorthand(self):
        sc = parse_scenario({
            "map": {"m": 1, "n": 1, "components": ["x"]},
            "k_range": 4,
        })
        assert sc.k_range == (1, 4)

    def test_leaves(self):
        sc = parse_scenario({
            "map": {"m": 1, "n": 1, "components": ["x^2"]},
            "leaves": [{"name": "pair", "params": ["t"],
                        "points": [["t"], ["-t"]]}],
        })
        (leaf,) = sc.leaves
        assert leaf.name == "pair"
        leaf.validate(sc.phi)

    def test_leaf_param_names(self):
        # any name the polynomial parser reads is a parameter
        sc = parse_scenario({
            "map": {"m": 1, "n": 2, "components": ["x", "x^2"]},
            "leaves": [{"params": ["_t0", "S"], "points": [["_t0 - S"]]}],
        })
        assert sc.leaves[0].params == ("_t0", "S")


class TestRejection:
    def test_unknown_scenario_key(self):
        data = cusp_data()
        data["extra"] = 1
        with pytest.raises(InputError, match="unknown keys"):
            parse_scenario(data)

    def test_unknown_map_key(self):
        data = cusp_data()
        data["map"]["degree"] = 3
        with pytest.raises(InputError, match="unknown keys"):
            parse_scenario(data)

    def test_missing_map(self):
        with pytest.raises(InputError, match="'map'"):
            parse_scenario({"points": [[0]]})

    def test_component_count(self):
        data = cusp_data()
        data["map"]["components"] = ["x^2"]
        with pytest.raises(InputError, match="2 component"):
            parse_scenario(data)

    def test_float_coordinate(self):
        data = cusp_data()
        data["points"][0] = [0.5]
        with pytest.raises(InputError, match="integers or rational"):
            parse_scenario(data)

    # each bool stands where the same value as an int would parse
    @pytest.mark.parametrize("path, value", [
        (("points",), [[True]]),
        (("map", "m"), True),
        (("map", "n"), True),
        (("k_range",), [False, True]),
        (("k_range",), True),
        (("l_max",), True),
        (("window",), True),
        (("seed",), False),
    ], ids=["points", "m", "n", "k_range", "k_range_shorthand", "l_max",
            "window", "seed"])
    def test_bool_rejected(self, path, value):
        data = {"map": {"m": 1, "n": 1, "components": ["x"]},
                "points": [[0]], "k_range": [0, 1], "l_max": 1,
                "window": 1, "seed": 0}
        parse_scenario(data)
        _put(data, path, value)
        with pytest.raises(InputError):
            parse_scenario(data)

    def test_float_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "map": {"m": 1, "n": 1, "components": ["x"]},
            "points": [[0.25]],
        }))
        with pytest.raises(InputError, match="float literal"):
            load_scenario(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            load_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_k_range_order(self):
        data = cusp_data()
        data["k_range"] = [3, 1]
        with pytest.raises(InputError, match="k_min <= k_max"):
            parse_scenario(data)

    def test_k_max_over_l_max(self):
        data = cusp_data()
        data["k_range"] = [1, 12]
        with pytest.raises(InputError, match="exceeds l_max"):
            parse_scenario(data)

    def test_window_bound(self):
        data = cusp_data()
        data["window"] = 0
        with pytest.raises(InputError, match="window"):
            parse_scenario(data)

    def test_empty_tuple_group(self):
        data = cusp_data()
        data["tuples"] = [[]]
        with pytest.raises(InputError, match="at least one point"):
            parse_scenario(data)

    def test_point_arity(self):
        data = cusp_data()
        data["points"] = [[0, 0]]
        with pytest.raises(InputError, match="1 coordinates"):
            parse_scenario(data)

    def test_relations_shape(self):
        data = cusp_data()
        data["relations"] = ["y1^3 - y2^2"]
        with pytest.raises(InputError, match="tuple keys"):
            parse_scenario(data)

    @pytest.mark.parametrize("key", [
        "2/4", "O", "1", "1;-1", "leaf:", "leaf:nope", "pair", "",
    ])
    def test_relations_key_names_nothing(self, key):
        # a stray key would drop its generators without a word, or hand
        # the tuple it meant the wildcard's; keys are not normalised
        data = cusp_data()
        data["relations"] = {"*": ["y1^3 - y2^2"], key: []}
        data["leaves"] = [{"name": "pair", "params": ["t"],
                           "points": [["t^2"]]}]
        with pytest.raises(InputError) as err:
            parse_scenario(data)
        assert str(err.value) == (
            f"relations: key {key!r} names no point, tuple or leaf; valid"
            " keys: *, 0, 1/2, -1, 1;1, leaf:pair")

    def test_relations_keys_that_name_something(self):
        data = cusp_data()
        data["leaves"] = [{"name": "pair", "params": ["t"],
                           "points": [["t^2"]]}]
        data["relations"] = {"*": [], "0": [], "1/2": [], "-1": [],
                             "1;1": [], "leaf:pair": []}
        sc = parse_scenario(data)
        assert sorted(sc.relations) == sorted(data["relations"])

    @pytest.mark.parametrize("points, tuples, key", [
        ([[0], ["1/2"], [0]], [], "0"),
        ([[0], ["0/1"]], [], "0"),
        ([["1/2"]], [[["2/4"]]], "1/2"),
        ([], [[[1], [-1]], [["1"], ["-2/2"]]], "1;-1"),
    ], ids=["point", "unreduced-point", "one-point-tuple", "unreduced-tuple"])
    def test_repeated_tuple_key(self, points, tuples, key):
        # keys compare after point_key: a one-point tuple is its point
        data = cusp_data()
        data["points"], data["tuples"] = points, tuples
        with pytest.raises(InputError, match=f"tuple key '{key}' repeated"):
            parse_scenario(data)

    def test_repeated_leaf_name(self):
        leaf = {"name": "pair", "params": ["t"], "points": [["t"], ["-t"]]}
        data = cusp_data()
        data["leaves"] = [leaf, dict(leaf, points=[["t"], ["2*t"]])]
        with pytest.raises(InputError, match="leaf name 'pair' repeated"):
            parse_scenario(data)

    @pytest.mark.parametrize("params, match", [
        (["t", "t"], "parameter 't' repeated"),
        (["t", 3], "parameter 3 is not a name"),
        (["2t"], "parameter '2t' is not a name"),
        (["t s"], "parameter 't s' is not a name"),
        ([""], "parameter '' is not a name"),
        ([None], "parameter None is not a name"),
    ], ids=["repeated", "int", "digit-first", "space", "empty", "null"])
    def test_leaf_params_are_distinct_names(self, params, match):
        data = cusp_data()
        data["leaves"] = [{"params": params, "points": [["1"]]}]
        with pytest.raises(InputError, match=match):
            parse_scenario(data)

    def test_leaf_name_is_a_string(self):
        data = cusp_data()
        data["leaves"] = [{"name": ["a"], "params": ["t"],
                           "points": [["t"]]}]
        with pytest.raises(InputError, match="'name' must be a string"):
            parse_scenario(data)


# every field of a valid scenario, down to the scalars, as a path from the
# top object; the base scenario is cusp_data() with one leaf
_FIELD_PATHS = [
    ("name",), ("out",), ("map",), ("map", "name"), ("map", "m"),
    ("map", "n"), ("map", "components"), ("map", "components", 0),
    ("points",), ("points", 0), ("points", 0, 0), ("tuples",),
    ("tuples", 0), ("tuples", 0, 0), ("tuples", 0, 0, 0), ("leaves",),
    ("leaves", 0), ("leaves", 0, "name"), ("leaves", 0, "params"),
    ("leaves", 0, "params", 0), ("leaves", 0, "points"),
    ("leaves", 0, "points", 0), ("leaves", 0, "points", 0, 0),
    ("relations",), ("relations", "*"), ("relations", "*", 0),
    ("k_range",), ("k_range", 0), ("l_max",), ("window",), ("seed",),
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6,
)


def _with_leaf():
    data = cusp_data()
    data["leaves"] = [{"name": "pair", "params": ["t"], "points": [["t"]]}]
    return data


class TestMalformedShapes:
    def test_base_scenario_parses(self):
        parse_scenario(_with_leaf())

    @given(st.sampled_from(_FIELD_PATHS), _JSON_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_any_value_anywhere_parses_or_is_refused(self, path, value):
        data = _with_leaf()
        _put(data, path, value)
        try:
            parse_scenario(data)
        except InputError:
            pass

    def test_polynomial_error_names_its_field(self):
        data = cusp_data()
        data["relations"] = {"*": ["y1^3 - y2^2", "z"]}
        with pytest.raises(InputError) as err:
            parse_scenario(data)
        assert str(err.value) == "relations['*'][1]: unknown variable 'z'"


class TestKeysAndLookup:
    def test_point_and_tuple_keys(self):
        assert point_key((Fraction(1, 2), Fraction(-3))) == "1/2,-3"
        assert tuple_key([(Fraction(1),), (Fraction(-1),)]) == "1;-1"
        # unreduced input reduces
        assert point_key((Fraction(2, 4),)) == "1/2"

    def test_scenario_tuples_order(self):
        # the cusp is injective, so its only two-point tuple, (1; 1),
        # repeats a point and is refused; x -> (x^2, x^4) has (1; -1)
        data = cusp_data()
        data["map"]["components"] = ["x^2", "x^4"]
        data["tuples"] = [[[1], [-1]]]
        sc = parse_scenario(data)
        keys = [key for key, _ in scenario_tuples(sc)]
        assert keys == ["0", "1/2", "-1", "1;-1"]

    def test_repeated_point_is_refused(self):
        sc = parse_scenario(cusp_data())
        with pytest.raises(InputError, match=r"repeats the point \(1\)"):
            scenario_tuples(sc)

    def test_wildcard_relations(self):
        sc = parse_scenario(cusp_data())
        gens = relations_for(sc, "0")
        assert gens is not None and len(gens) == 1
        assert relations_for(sc, "anything") == gens

    def test_specific_key_beats_wildcard(self):
        data = cusp_data()
        data["relations"] = {"*": ["y1^3 - y2^2"], "0": []}
        sc = parse_scenario(data)
        assert relations_for(sc, "0") == ()
        assert len(relations_for(sc, "1/2")) == 1

    def test_no_relations_means_none(self):
        data = cusp_data()
        del data["relations"]
        sc = parse_scenario(data)
        assert relations_for(sc, "0") is None

    def test_key_missing_without_wildcard(self):
        data = cusp_data()
        data["relations"] = {"0": []}
        sc = parse_scenario(data)
        assert relations_for(sc, "0") == ()
        assert relations_for(sc, "1/2") is None


class TestRepositoryFixtures:
    @pytest.mark.parametrize("name", [
        "identity", "squaring", "cusp", "cone",
    ])
    def test_fixture_loads(self, name):
        root = Path(__file__).resolve().parent.parent
        sc = load_scenario(str(root / "scenarios" / f"{name}.json"))
        assert sc.phi.target_arity >= 1
        pairs = scenario_tuples(sc)
        assert pairs
        # every fixture certifies its relations for all tuples
        for key, _ in pairs:
            assert relations_for(sc, key) is not None
