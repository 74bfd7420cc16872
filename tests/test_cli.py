import hashlib
import json
from pathlib import Path

import pytest

from chevkit.cli import canonical_json, main

ROOT = Path(__file__).resolve().parent.parent
CUSP = str(ROOT / "scenarios" / "cusp.json")
SQUARING = str(ROOT / "scenarios" / "squaring.json")
IDENTITY = str(ROOT / "scenarios" / "identity.json")


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def heuristic_squaring(tmp_path, k_range, l_max):
    return write_scenario(tmp_path, {
        "name": "squaring",
        "map": {"name": "squaring", "m": 1, "n": 1, "components": ["x^2"]},
        "points": [[0]],
        "k_range": k_range,
        "l_max": l_max,
    })


class TestCanonicalJson:
    def test_shape(self):
        from fractions import Fraction
        from chevkit.censored import AtLeast
        payload = {"b": Fraction(1, 2), "a": [AtLeast(3), (1, 2)]}
        assert canonical_json(payload) == (
            '{\n  "a": [\n    {\n      "at_least": 3\n    },\n'
            '    [\n      1,\n      2\n    ]\n  ],\n  "b": "1/2"\n}\n'
        )


class TestChevalleyVerb:
    def test_cusp_table(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(["chevalley", "--scenario", CUSP, "--k-max", "3",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "map" in text and "VERIFIED" in text
        data = json.loads(out.read_text())
        assert data["verb"] == "chevalley"
        entries = data["entries"]
        assert set(entries[0]) == {"H", "k", "l", "l_stab", "map",
                                   "status", "tuple"}
        origin = {e["k"]: e for e in entries if e["tuple"] == "0"}
        assert [origin[k]["l"] for k in (1, 2, 3)] == [3, 5, 7]
        assert [origin[k]["H"] for k in (1, 2, 3)] == [3, 5, 7]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["chevalley", "--scenario", SQUARING, "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        code = main(["chevalley", "--scenario", CUSP, "--k-max", "2",
                     "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "map,tuple,k,l,H,status,l_stab"
        assert lines[1] == "cusp,0,1,3,3,VERIFIED,3"

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        path = heuristic_squaring(tmp_path, [2, 2], 3)
        code = main(["chevalley", "--scenario", path])
        assert code == 3
        text = capsys.readouterr().out
        assert ">=2" in text
        assert "inconclusive" in text

    def test_censored_csv_cell(self, tmp_path):
        path = heuristic_squaring(tmp_path, [2, 2], 3)
        csv_path = tmp_path / "t.csv"
        main(["chevalley", "--scenario", path, "--csv", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "squaring,0,2,>=2,2,INCONCLUSIVE,"

    def test_leaf_lines(self, capsys):
        code = main(["chevalley", "--scenario", SQUARING, "--k-max", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "leaf pair k=1: generic l=1" in text


class TestFitVerb:
    def test_cusp_bound(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--scenario", CUSP, "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "fitted bound: l <= 2*k + 1" in text
        data = json.loads(out.read_text())
        assert data["alpha"] == 2 and data["beta"] == 1
        assert [1, 3] in data["witnesses"]

    def test_no_certified_rows_exits_3(self, tmp_path, capsys):
        path = heuristic_squaring(tmp_path, [2, 2], 3)
        code = main(["fit", "--scenario", path])
        assert code == 3
        assert "no certified rows" in capsys.readouterr().out


class TestJetVerb:
    def test_summary(self, tmp_path, capsys):
        out = tmp_path / "jet.json"
        code = main(["jet", "--scenario", SQUARING, "--point", "0",
                     "--l-max", "2", "--out", str(out)])
        assert code == 0
        assert "rank 2, kernel dim 1" in capsys.readouterr().out
        data = json.loads(out.read_text())
        (report,) = data["jets"]
        assert (report["rows"], report["cols"]) == (3, 3)
        assert "entries" not in report

    def test_dump_matrix(self, tmp_path):
        out = tmp_path / "jet.json"
        code = main(["jet", "--scenario", SQUARING, "--point", "0",
                     "--l-max", "2", "--dump-matrix", "--out", str(out)])
        assert code == 0
        (report,) = json.loads(out.read_text())["jets"]
        assert report["entries"] == [
            ["1", "0", "0"],
            ["0", "0", "0"],
            ["0", "1", "0"],
        ]
        assert report["col_labels"] == [[0], [1], [2]]

    def test_unknown_point_key(self, capsys):
        code = main(["jet", "--scenario", SQUARING, "--point", "7/3"])
        assert code == 2
        assert "available" in capsys.readouterr().err


class TestDiagramVerb:
    def test_cusp_vertices(self, tmp_path, capsys):
        out = tmp_path / "diag.json"
        code = main(["diagram", "--scenario", CUSP, "--point", "0",
                     "--out", str(out)])
        assert code == 0
        assert "staircase vertices (0, 2)" in capsys.readouterr().out
        data = json.loads(out.read_text())
        (info,) = data["diagrams"]
        assert info["tuple"] == "0"

    def test_requires_relations(self, tmp_path):
        path = heuristic_squaring(tmp_path, [1, 2], 6)
        assert main(["diagram", "--scenario", path]) == 2

    # sha256 of (stdout, --out) bytes.  diagram is the only verb that
    # serialises canonical Subspace bases (the reduced division basis), so
    # these pins hold the exact output of the subspace canonicalisation.
    PINS = {
        "cusp": (
            "b73d591fd327ea09eed457796341c58d1c4eb1f201b6702f98e5530af5404ddb",
            "11f4e32467c124f31b7b8d37ff75ce9e7f10f09802599bfb7dcb4c27811d3027",
        ),
        "cone": (
            "a124395cb4105ccbd25ff4ffe74af86f86d4b06d9cff806fdedb34d026b9a374",
            "a4497eb22d9a158964b545424e54ad6fbf73edd9cb06d21a128b7372b264a241",
        ),
        "squaring": (
            "8cb727ff22f7dcbf9535e358e897d0d8d90433cdc3f7a8f3d7a4b68ce69313fa",
            "7a45f8c5dd6f19c7cf10d00e23050f8a1a0a2c52b0f6887837dfe2b874bf4fd8",
        ),
        "identity": (
            "ea4241055527552f65da66b075c978b7731b9e22467a2b6d053590ae1f4e5aa5",
            "5fd39a54a633196d12f40314e7ebba108464a7a8a6bffaace43a2cb64f2559c5",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_shipped_scenarios_byte_pinned(self, name, tmp_path, capsys):
        out = tmp_path / "diag.json"
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        assert main(["diagram", "--scenario", scenario,
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert (hashlib.sha256(stdout).hexdigest(),
                hashlib.sha256(out.read_bytes()).hexdigest()) == \
            self.PINS[name]


class TestNuVerb:
    def test_frozen_lines(self, capsys):
        code = main(["nu", "--scenario", CUSP, "--point", "0",
                     "--poly", "y2^2", "--poly", "y1 + y2^2",
                     "--poly", "y1^3 - y2^2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "nu(y2^2) = 3  normal form: y1^3" in text
        assert "nu(y1 + y2^2) = 1" in text
        assert "nu(y1^3 - y2^2) = >=8  normal form: 0" in text

    def test_defaults_to_first_relation_tuple(self, capsys):
        code = main(["nu", "--scenario", CUSP, "--poly", "y2^2"])
        assert code == 0
        assert "nu(y2^2) = 3" in capsys.readouterr().out

    def test_trunc_flag(self, capsys):
        code = main(["nu", "--scenario", CUSP, "--point", "0",
                     "--poly", "y2^4", "--trunc", "5"])
        assert code == 0
        assert "nu(y2^4) = >=5" in capsys.readouterr().out


class TestMuVerb:
    def test_slope_lines(self, capsys):
        code = main(["mu", "--scenario", CUSP, "--point", "0",
                     "--poly", "y2", "--l-max", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "mu probe y2 l=1: slope 1.500, bounded=True (heuristic)" in text
        assert "l=2" in text and "bounded=False" in text

    def test_certified_relation(self, capsys):
        code = main(["mu", "--scenario", CUSP, "--point", "0",
                     "--poly", "y1^3 - y2^2", "--l-max", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "bounded=True (certified)" in text

    def test_needs_single_point(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "tuples": [[[1], [-1]]],
            "k_range": [1, 2],
            "l_max": 6,
        })
        code = main(["mu", "--scenario", path, "--poly", "y"])
        assert code == 2
        assert "single-point" in capsys.readouterr().err


class TestProductVerb:
    def test_envelope(self, tmp_path, capsys):
        out = tmp_path / "prod.json"
        code = main(["product", "--scenario", CUSP, "--point", "0",
                     "--trials", "50", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "45 triples, 5 excluded" in text
        assert "envelope: nu(FG) <= 2*(nu(F)+nu(G)) + 0" in text
        data = json.loads(out.read_text())
        assert data["envelope"] == {"alpha": 2, "beta": 0}


class TestVerifyVerb:
    def test_identity_passes(self, capsys):
        code = main(["verify", "--scenario", IDENTITY])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("PASS") == 7
        assert "FAIL" not in text

    def test_corrupt_relations_exit_4(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "corrupt",
            "map": {"name": "cusp", "m": 1, "n": 2,
                    "components": ["x^2", "x^3"]},
            "points": [[0]],
            "relations": {"*": ["y1^4 - y1 y2^2"]},
            "k_range": [1, 2],
            "l_max": 8,
        })
        code = main(["verify", "--scenario", path])
        assert code == 4
        text = capsys.readouterr().out
        assert "FAIL table-construction" in text


class TestErrorPaths:
    def test_float_scenario_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "points": [[0.5]],
        })
        assert main(["chevalley", "--scenario", path]) == 2
        assert "float literal" in capsys.readouterr().err

    def test_missing_scenario_exits_2(self, tmp_path):
        assert main(["chevalley", "--scenario",
                     str(tmp_path / "nope.json")]) == 2

    def test_k_budget_checked(self, tmp_path, capsys):
        path = heuristic_squaring(tmp_path, [1, 2], 6)
        code = main(["chevalley", "--scenario", path, "--k-max", "9"])
        assert code == 2
        assert "exceeds l_max" in capsys.readouterr().err

    def test_mismatch_exits_4(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "map": {"name": "cusp", "m": 1, "n": 2,
                    "components": ["x^2", "x^3"]},
            "points": [[0]],
            "relations": {"*": ["y1^4 - y1 y2^2"]},
            "k_range": [1, 2],
            "l_max": 8,
        })
        code = main(["chevalley", "--scenario", path])
        assert code == 4
        assert "certified check failed" in capsys.readouterr().err

    def test_bad_override_values(self, tmp_path):
        path = heuristic_squaring(tmp_path, [1, 2], 6)
        assert main(["chevalley", "--scenario", path, "--l-max", "-1"]) == 2
        assert main(["chevalley", "--scenario", path, "--window", "0"]) == 2
