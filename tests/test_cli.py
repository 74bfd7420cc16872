import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import canonical_json_by_dumps
from chevkit import cli
from chevkit.censored import AtLeast
from chevkit.chevalley import VERIFIED, RelationJets
from chevkit.cli import canonical_json, main
from chevkit.experiments import CompositeOrder

ROOT = Path(__file__).resolve().parent.parent
CUSP = str(ROOT / "scenarios" / "cusp.json")
SQUARING = str(ROOT / "scenarios" / "squaring.json")
IDENTITY = str(ROOT / "scenarios" / "identity.json")
CONE = str(ROOT / "scenarios" / "cone.json")


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


def output_digests(argv, tmp_path, capsys):
    """sha256 of the (stdout, --out) bytes of one successful CLI run."""
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode()
    return (hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest())


def probe_texts(n, relation, count):
    """count nu probe texts shaped like the bench's: one to three signed
    rational multiples of monomials, a leading minus written "- ", and
    every eighth a monomial multiple of the relation; each of degree at
    most 6."""
    def mono(seed):
        e = [(seed // (j + 1) + j) % (7 // n) for j in range(n)]
        return "*".join(f"y{j + 1}" if d == 1 else f"y{j + 1}^{d}"
                        for j, d in enumerate(e) if d) or f"y{n}"

    texts = []
    for i in range(count):
        if i % 8 == 7:
            texts.append(f"({relation})*{mono(i)}")
            continue
        parts = []
        for t in range(i % 3 + 1):
            c = Fraction((i + t) % 3 + 1, (i // 3 + t) % 2 + 1)
            sign = "-" if (i + 2 * t) % 5 < 2 else "+"
            parts.append(f"{sign} {c}*{mono(3 * i + t)}")
        texts.append(" ".join(parts).lstrip("+ "))
    return texts


def readme_scenario():
    """The JSON block under README's "Scenario files" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Scenario files\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


class TestReadmeScenario:
    def test_runs(self, tmp_path, capsys):
        path = write_scenario(tmp_path, readme_scenario())
        assert main(["chevalley", "--scenario", path]) == 0
        assert capsys.readouterr().err == ""

    def test_is_the_shipped_file(self):
        shipped = json.loads(Path(SQUARING).read_text(encoding="utf-8"))
        assert readme_scenario() == shipped


# every kind of value a payload may hold; text includes non-ASCII and
# control characters
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(), st.sampled_from([float("nan"), float("inf"),
                                  float("-inf"), -0.0]),
    st.fractions(), st.builds(AtLeast, st.integers(0, 50)),
)
# int and str keys, 1 and "1" among them, which collide once made str
_KEYS = st.one_of(st.integers(-2, 2), st.sampled_from(["1", "-1", "a"]),
                  st.text(max_size=3))
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)


class TestCanonicalJson:
    def test_shape(self):
        payload = {"b": Fraction(1, 2), "a": [AtLeast(3), (1, 2)]}
        assert canonical_json(payload) == (
            '{\n  "a": [\n    {\n      "at_least": 3\n    },\n'
            '    [\n      1,\n      2\n    ]\n  ],\n  "b": "1/2"\n}\n'
        )

    @given(_PAYLOADS)
    @example({1: "int", "1": "str"})
    @example({"1": "str", 1: "int"})
    @example({"": {}, "x": [], "\u00e9\n\x00": ((), [{}])})
    @settings(max_examples=300, deadline=None)
    def test_matches_the_stdlib_encoder(self, payload):
        assert canonical_json(payload) == canonical_json_by_dumps(payload)


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
        out = tmp_path / "run.json"
        code = main(["chevalley", "--scenario", path, "--out", str(out)])
        assert code == 3
        text = capsys.readouterr().out
        assert ">=2" in text
        assert "inconclusive" in text
        # the inconclusive table is still written
        data = json.loads(out.read_text())
        assert data["verb"] == "chevalley"
        assert [e["status"] for e in data["entries"]] == ["INCONCLUSIVE"]

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
        out = tmp_path / "fit.json"
        code = main(["fit", "--scenario", path, "--out", str(out)])
        assert code == 3
        assert "no certified rows" in capsys.readouterr().out
        assert not out.exists()


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


class TestPointKeyWithLeadingMinus:
    # argparse reads a separate "-1,1" as an option string, so a key that
    # starts with "-" is written attached, --point=KEY
    def test_nu(self, tmp_path, capsys):
        out = tmp_path / "nu.json"
        assert main(["nu", "--scenario", CONE, "--point=-1,1",
                     "--poly", "y1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "nu(y1) = 0  normal form: -1 + y1\n"
        data = json.loads(out.read_text())
        assert (data["tuple"], data["center"]) == ("-1,1", ["-1"] * 3)

    def test_jet(self, capsys):
        assert main(["jet", "--scenario", CONE, "--point=-1,1",
                     "--l-max", "2"]) == 0
        assert capsys.readouterr().out == (
            "tuple -1,1: order 2 jet matrix 6x10, rank 6, kernel dim 4\n")


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
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        argv = ["diagram", "--scenario", scenario]
        assert output_digests(argv, tmp_path, capsys) == self.PINS[name]


class TestOutputPins:
    # sha256 of (stdout, --out) bytes of the threshold verbs on the shipped
    # scenarios and on the scaled runs (a case ending -l<L>-k<K> runs with
    # --l-max L --k-max K), so that any faster route to the thresholds must
    # reproduce every output byte.
    PINS = {
        "chevalley-cone": (
            "d9578ebf185649af6a51450488551f6b559795cf9acc221100340a0b9504257c",
            "f6f664bd9ebc4c84df8de070fc6c46509fd9db827d4b40db11bbb3bfb2192f0c",
        ),
        "chevalley-cusp": (
            "12bac2fe048731ac41f61c406c9f96fa9e69d19be3ab065418a556e81aee380a",
            "1209a7d7070de7b279ea60b8029e3370be1be19f23e328332f78c4674aa46b36",
        ),
        "chevalley-cone-l18-k9": (
            "c5dcd9a8ac77b6e040a1fbd3ee1fa470012d32c7d58e80b14d8bb7704ff3bb3b",
            "3ea0966c83fbec5350b190037b8879b13e84c11cb94f9e7c76799fdb1dbacb04",
        ),
        "chevalley-cusp-l16-k8": (
            "2e34ba42c831902e29efc9016ac03b163a3acf464a68d007d0526d6f1a4122d2",
            "bd65e0e35d9970ba56322ad769001389851da1b07437a6538f5345ac4b0f2dac",
        ),
        # the run whose relation echelon the closed-form H(k) replaced
        "chevalley-cusp-l48-k24": (
            "fd5c679aa3110be8c8b364f3a63f21801b28a87ece2407fd24c4f4bb5479efa8",
            "fa933318b5ff6baeeee215693eff623456f24582a4197648a4b60bc1880936e0",
        ),
        "chevalley-cusp-l32-k16": (
            "cbade976546233b654742a17f5eca31c8be08db87f4fbd843112e96f9366f7a3",
            "48a46f10af3a95f003b212985e0b6f713f74c29a86adc00b9f07c220bddd1f79",
        ),
        "chevalley-identity": (
            "71bc54256547c9f726433199d1f7a199cf51e6d74f956892e30a5ff887e13db6",
            "612eae6c0a6adc3ab221fb71c6009121a099c039fe418bccd662563956d709e0",
        ),
        "chevalley-squaring": (
            "a76c905e12eb596d66a88d64e197e23d63082fce866c4b04a6568ed56803aff0",
            "1dc1738071a727a457153be973d69032282e45cd2dddab20e2736736fb53a0b6",
        ),
        "fit-cone": (
            "fcef8396151cdfb6fbd3e932b16344f8da6ec08f7720190b26be6d95bee06ce2",
            "ced03250bacb0e16583408d95299162544fd698ce9b95fc2d4543c136aa1e80d",
        ),
        "fit-cusp": (
            "7ddad370895db0205b32ea8f30b5186f99a196d36654a2bb66e76b146eea1fb5",
            "5b3c473ab496c6206a43c6dfa70180808ddb0b43494797ac404d316197690414",
        ),
        "fit-identity": (
            "06bc86c5737adb79559c6191161a954b5f8fea843f1c05c3fb8f6b3bcddb5570",
            "ad8f832e7bafab381a8e129a68d38f2e33f1119c525c65080b79b58737babeb5",
        ),
        "fit-squaring": (
            "0464f240729f1de544bde6059d99412119d623099a5161ad7842dee1e7fd2b18",
            "04cecaaf6a1dcc10af428df408078fcd0cf7dc5415efca739cb3e381abc4652a",
        ),
        "verify-cone": (
            "93498212b370e3397d8d7cd7d1b19d5e7879bbff8ebad51cb2959228a7479179",
            "22b4bef797066424ad4f60477d4b68471030515db52b3e98ab5c5728a8190782",
        ),
        "verify-cusp": (
            "3acede170beaf70b4d236168e2a53d1a93ba5874512981ab55adfd6d110752e3",
            "133e7778ec6095c4945b7f856b9e9ac6471a5e1397b1ffa1daf5787d7b02b5a5",
        ),
        # the membership routes' column split at k = 3 and 4, 24 and 64
        # cells of them also checked by the dense wedge route
        "verify-cone-l8-k3": (
            "2611fca92677f800b826b9a6550a541310474568a0a861e6bba6972bfa12d89e",
            "587ffea5f5d2cb80bd142bf2bdc49e886b7bd954a7c945bf7758bbd5b97afc57",
        ),
        "verify-cusp-l9-k4": (
            "3f407dd1564458c2e6d87300486f3b8271a2adce814a2ce07d1ceef80e587cc0",
            "657da527dcbec46c25451ed36ee8344654fa252674e625b7093d377edbdd5e37",
        ),
        "verify-identity": (
            "89f232f5623f65ce615bb3760ad07d75d91443feab427a56b785628e43726de5",
            "582cb7b0f1d67dc451d6e3ac75910f313c2a1d630a4b80200a36a8de0c786bcf",
        ),
        "verify-squaring": (
            "806e44aa37188db2f6e5b30af50fe09ccceb29cb48e20e015dd4e2039d7f6e87",
            "04589b62e1bc129c41e3db8359b527573a1b0331d819774644a5e2540f50e1d9",
        ),
    }
    @pytest.mark.parametrize("case", sorted(PINS))
    def test_byte_pinned(self, case, tmp_path, capsys):
        verb, name, *scaled = case.split("-")
        argv = [verb, "--scenario", str(ROOT / "scenarios" / f"{name}.json")]
        if scaled:
            l_max, k_max = scaled
            argv += ["--l-max", l_max[1:], "--k-max", k_max[1:]]
        assert output_digests(argv, tmp_path, capsys) == self.PINS[case]


    # the monomial curve (x^3, x^4, x^5), whose relation ideal needs three
    # generators, so that its H(k) is counted on the relation echelon
    MONO345 = {
        "name": "mono345",
        "map": {"name": "mono345", "m": 1, "n": 3,
                "components": ["x^3", "x^4", "x^5"]},
        "points": [[0], [1], ["1/2"]],
        "relations": {"*": ["y2^2 - y1*y3", "y1^3 - y2*y3",
                            "y3^2 - y1^2*y2"]},
        "k_range": [1, 3],
        "l_max": 8,
    }
    MONO345_PINS = {
        "chevalley": (
            "3332ecb2d9b00c7dd54ebad5020ee7a71205ea5830c8ea8e5619014ca1ec4280",
            "cbf578378ce8eea2c283f5dda593f96bdaf3fa2814816cc30f2dc54248472dec",
        ),
        "verify": (
            "d87f2f260cdf55a678d58e5a27065b0ad1e735515eb2c249bb8cc622cfbf3dde",
            "603f7363c7cabe19d4e5ed1d7a594c99370dfa5b09c9c4648c4ccf13eb49793d",
        ),
    }

    @pytest.mark.parametrize("verb", sorted(MONO345_PINS))
    def test_three_generator_curve_pinned(self, verb, tmp_path, capsys):
        path = tmp_path / "mono345.json"
        path.write_text(json.dumps(self.MONO345), encoding="utf-8")
        argv = [verb, "--scenario", str(path)]
        assert output_digests(argv, tmp_path, capsys) == \
            self.MONO345_PINS[verb]


    # Osgood's map truncated at N = 4, (x1, x1 x2, x1 sum_{i<=4} (4!/i!)
    # x2^(i+1)), whose relation ideal is principal, at its singular point:
    # the staircase route reads thirty orders there
    OSGOOD4 = {
        "name": "osgood4",
        "map": {"name": "osgood4", "m": 2, "n": 3,
                "components": ["x1", "x1*x2",
                               "24*x1*x2 + 24*x1*x2^2 + 12*x1*x2^3"
                               " + 4*x1*x2^4 + x1*x2^5"]},
        "points": [[0, 0]],
        "relations": {"*": ["y1^4*y3 - 24*y1^4*y2 - 24*y1^3*y2^2"
                            " - 12*y1^2*y2^3 - 4*y1*y2^4 - y2^5"]},
        "k_range": [1, 6],
        "l_max": 30,
        "window": 3,
    }
    OSGOOD4_VERIFY_PIN = (
        "fe56cb6d53112aef91e7bf031890dc6f0b901968ddc9d9aceddff14d763fc77b",
        "2a77c418b4c47542af7e13afbbcbe89787978865a1b9e4b6d02c5bf07ac1837e",
    )

    def test_osgood_truncation_verify_pinned(self, tmp_path, capsys):
        path = tmp_path / "osgood4.json"
        path.write_text(json.dumps(self.OSGOOD4), encoding="utf-8")
        argv = ["verify", "--scenario", str(path)]
        assert output_digests(argv, tmp_path, capsys) == \
            self.OSGOOD4_VERIFY_PIN


class TestCsvPins:
    # sha256 of the --csv bytes of chevalley and fit on the shipped
    # scenarios; both verbs write the same table, so they share one pin
    PINS = {
        "cone": "5671361027a5c3fdf3261a90fb44bd04062c02c42f3cefdc93915cddb2f5b8ac",
        "cusp": "9c67837328933cae5802e64e5a433b74fad01944a1bd0e9f7f429534af7b6c5b",
        "identity":
            "908b660aab27644d2945f6048f6e3530254769a9c1e1ec2d7333718f814dab07",
        "squaring":
            "f5728931e1dd667e809d79e579b1250b81b25ae39f80cdf46fe8ced71dc0a468",
    }

    @pytest.mark.parametrize("verb", ["chevalley", "fit"])
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_csv_byte_pinned(self, verb, name, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        argv = [verb, "--scenario", scenario, "--csv", str(csv_path)]
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        assert digest == self.PINS[name]


class TestJetDumpPins:
    # sha256 of (stdout, --out) bytes of `jet --dump-matrix` on the shipped
    # scenarios: the only output that prints jet matrix entries, so these
    # pins hold the exact Fraction view of the integer jet rows
    PINS = {
        "cone": (
            "727b6a76b15d62b27ec990df8c610c84c77e63e3fd26d5a1b70df6854c56623a",
            "f18574b04640c3a8b0cdb0341da26c35d3c1affc1501ed3ad0680025a4bfe9b9",
        ),
        "cusp": (
            "520dca6123b61643aee6f889c5799a543046ff5621f37b7cbb6c4011a94fe439",
            "731cab4119f3d5d7381f9e14187934c03cc261f30f6791997dda25a336238a27",
        ),
        "identity": (
            "77b84dc249e45be98d8d7b9da4f04f6ff41d230b947f86ee1bb635626b421d3f",
            "02c68b40c9990176b2db6fd4a8a175758873463f8f5cd82d9b17e4a57e96b038",
        ),
        "squaring": (
            "23e455336835ff19108b354402201354a00763d2192a7f473b32951a5a7b1a72",
            "f14e09ecc1dee4ff33c2c3e8cb5befa705718521a7d6b936c60fbcde061f48c8",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_dump_matrix_byte_pinned(self, name, tmp_path, capsys):
        scenario = str(ROOT / "scenarios" / f"{name}.json")
        argv = ["jet", "--scenario", scenario, "--dump-matrix"]
        assert output_digests(argv, tmp_path, capsys) == self.PINS[name]


class TestProbePins:
    # sha256 of (stdout, --out) bytes of the probe verbs on the shipped
    # scenarios; nu, mu and product pick their tuple through one shared
    # selection, and every verb parses through the one module-level parser
    PINS = {
        "nu-cone": (
            "977d9bd17057299561da607ce7effb67541e72794787b7a4b4d5845ea19399ba",
            "13d6f5a06edf82eebb77beea1c085067c33e60f26f8c6c39f712d28d2d3ca4d5",
        ),
        "nu-cusp": (
            "977d9bd17057299561da607ce7effb67541e72794787b7a4b4d5845ea19399ba",
            "e2570495c0f2447e533b37a0e0dc668bb6e26c73b2ca75da33b160abfc7b74ac",
        ),
        "nu-identity": (
            "977d9bd17057299561da607ce7effb67541e72794787b7a4b4d5845ea19399ba",
            "c7afe2fbad14576cf6850d88d6aa23f07dcb492a6e844f65676cbe1e28638e6a",
        ),
        "nu-squaring": (
            "977d9bd17057299561da607ce7effb67541e72794787b7a4b4d5845ea19399ba",
            "d5df61d6d30f9be1fe745f8ad15699e6c3af916b67ca81ddd2dfdec217be0df2",
        ),
        "mu-cone": (
            "f81a9084fa5b8df844c245744eee29f6cf358e13b27325143f94736de003b7c5",
            "55889a66a981516c469b4813d747e48a768690c64d060ea24d2573473dfdfb18",
        ),
        "mu-cusp": (
            "a2c40b181f83d33a76485dfc3422491f98783d549285e6edb238ec97124b7576",
            "f6b8bd7adc8f24a21071b0f740d8595a636815e7c19bee54b987cedcf712d6b9",
        ),
        "mu-identity": (
            "f1a49638d719b7ce058aae181c6605df03772c171aabb56c8e65bbd86308850d",
            "17cff1c1ce48c12af6fa7d8784039943f849870775bbbe1cb173508636a067de",
        ),
        "mu-squaring": (
            "f8d3abab77715e7e4cd2848eb08a4d407749395f4551b95f5fe89606dc071fbf",
            "0dce6a334229b5faf8470435c1a9bfc3db745adfc17257ef008b1c22206bffed",
        ),
        "product-cone": (
            "464cfb58af23d0399adcfc85e22faf466e4db8f70520ac5b7230ab7e80ae7f19",
            "47e4f4fc0c87bc6ba2f51cb02eeaa9778861225630a747aadd920ee26bff7e71",
        ),
        "product-cusp": (
            "dcbcde01ec1aa3026c54ae1d00c6efcbc0d1629ff414ed4867aadde4114badea",
            "a7002f44fea35190e390046a3551efb283adf5222aafe0191bf778ae6ab180f0",
        ),
        "product-identity": (
            "2d2d267cb4699e3c0ee8557abffa268f4cd8ed9a3db9db32610388ddaf60a28c",
            "ad084db5adfe832c53a78e7814b5081f756dcf979fa51b7f75983c8a88106533",
        ),
        "product-squaring": (
            "2d2d267cb4699e3c0ee8557abffa268f4cd8ed9a3db9db32610388ddaf60a28c",
            "20bad8e6586e93628fbd6729ffad0fa8e8644b9b92dac2d5c0f585941293e411",
        ),
    }
    ARGS = {
        "nu": ["--poly", "y1^2"],
        "mu": ["--poly", "y1"],
        "product": ["--trials", "50"],
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_byte_pinned(self, case, tmp_path, capsys):
        verb, name = case.split("-")
        argv = [verb, "--scenario", str(ROOT / "scenarios" / f"{name}.json")]
        argv += self.ARGS[verb]
        assert output_digests(argv, tmp_path, capsys) == self.PINS[case]

    # runs of --poly flags, which main reads in one step; taken while
    # argparse still read every flag on its own
    RUN_PINS = {
        "nu-cusp-40": (
            "0b13a8c0dc9615ea68c48408031f04f016af55be79ab5965c7672fb31f05c9bb",
            "40e601125412196e43057f26516f7115e942422cf1ba8e3d254995fb1b51f7e0",
        ),
        "nu-cone-40": (
            "e16d1d89a91757edf68f8c92b987795755d444782583968bee790d47f61c9629",
            "4520934785e3813735f759bd99f423ec8e0cf1c2a6d31b6e7db9ee1be630cc54",
        ),
        "mu-cusp-3": (
            "5c8154909b8dfe825f3b62ddb27aae3d8cc660ddf0f629bc6418d0601f3e18e0",
            "62d216e091e9b8afd6b5e01e26e5429698ed4ceecbbbbb9cd727c4dafdc739ce",
        ),
    }
    RELATIONS = {"cusp": (2, "y1^3 - y2^2"), "cone": (3, "y2^2 - y1*y3")}

    @pytest.mark.parametrize("case", sorted(RUN_PINS))
    def test_poly_run_byte_pinned(self, case, tmp_path, capsys):
        verb, name, count = case.split("-")
        argv = [verb, "--scenario", str(ROOT / "scenarios" / f"{name}.json")]
        for text in probe_texts(*self.RELATIONS[name], int(count)):
            argv += ["--poly", text]
        assert output_digests(argv, tmp_path, capsys) == self.RUN_PINS[case]

    def test_parser_reuse_keeps_no_state(self, tmp_path):
        # an option given in one call must not become the next call's value
        out = tmp_path / "prod.json"
        assert main(["product", "--scenario", CUSP, "--trials", "7",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["trials"] == 7
        assert main(["product", "--scenario", CUSP, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["trials"] == 200
        # appended options start from an empty list at every call
        assert main(["nu", "--scenario", CUSP, "--poly", "y1", "--poly",
                     "y2", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["entries"]) == 2
        assert main(["nu", "--scenario", CUSP, "--poly", "y1",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["entries"]) == 1


def parse_outcome(parse, argv):
    """What parse(argv) gives: the namespace and unread list, or the exit
    code, with everything it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, unread = parse(list(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    return "parsed", vars(args), unread, out.getvalue(), err.getvalue()


# runs of --poly pairs next to the tokens that change argparse's reading:
# "--", --poly=V, the abbreviations --pol and --po, -h, values that read
# as an option or as a negative number, value-taking options just before
# a run and a trailing --poly
_VALUES = st.sampled_from(["y1", "y2^2 - y1", "-y1", "-1", "- x", "",
                           "--poly", "-h"])
_TOKENS = st.sampled_from([
    "--", "--poly=y1", "--pol", "--po", "-h", "-y1", "-1", "- x", "",
    "--poly", "--scenario", "s.json", "--trunc", "3", "--point", "0",
    "--out", "--l-max", "--seed", "2", "stray"])
_RUNS = st.lists(st.tuples(st.just("--poly"), _VALUES), min_size=1,
                 max_size=5).map(lambda pairs: [t for p in pairs for t in p])
_ARGVS = st.tuples(
    st.sampled_from(["nu", "mu", "product", "--poly"]),
    st.lists(st.one_of(_RUNS, _TOKENS.map(lambda t: [t]),
                       st.just(["--scenario", "s.json"])), max_size=6),
).map(lambda g: [g[0]] + [t for part in g[1] for t in part])


class TestPolyRun:
    # main reads a run of --poly pairs in one step; whatever argv it gets,
    # it must read what argparse reads flag by flag
    @given(_ARGVS)
    @example(["nu", "--scenario", "s.json", "--poly", "y1", "--poly", "-y1"])
    @example(["nu", "--scenario", "s", "--poly", "y1", "--", "--poly", "y"])
    @example(["mu", "--trunc", "--poly", "y1", "--poly", "- x", "--poly"])
    @example(["nu", "--poly", "", "--poly", "- x", "--pol", "y1"])
    @settings(max_examples=400, deadline=None)
    def test_reads_what_argparse_reads(self, argv):
        assert (parse_outcome(cli._parse, argv)
                == parse_outcome(cli._PARSER.parse_known_args, argv))

    def test_argparse_reads_one_pair_of_a_long_run(self, monkeypatch):
        # the console script passes no argv: main reads sys.argv itself
        texts = [f"y1^{i % 7 + 1} - y2" for i in range(480)]
        argv = ["nu", "--scenario", CUSP, "--trunc", "10"]
        for text in texts:
            argv += ["--poly", text]
        monkeypatch.setattr(sys, "argv", ["chevkit"] + argv + ["--out", "o"])
        seen = []
        parse = cli._PARSER.parse_known_args

        def spy(args):
            seen.append(args)
            return parse(args)

        monkeypatch.setattr(cli._PARSER, "parse_known_args", spy)
        args, unread = cli._parse(None)
        assert seen == [argv[:7] + ["--out", "o"]]
        assert (args.poly, args.trunc, args.out, unread) == (texts, 10, "o",
                                                            [])


class TestRichProbePins:
    # sha256 of (stdout, --out) bytes, taken before normal forms and the
    # parser moved to integer rows and term dicts: nu with p/q coefficients,
    # parenthesised powers and relation multiples, and a longer product run.
    CONE = str(ROOT / "scenarios" / "cone.json")
    CASES = {
        "mu-cusp": (["mu", "--scenario", CUSP,
                     "--poly", "y2^2 - 1/2*y1^3"], (
            "11f33dc3dd30e171e106f277b1f44ded420e5bd148045f50da514e6ce4df4e63",
            "5ecfa1e521c43c725bb5af1b4275db05ca6c9951a6241847a54717f8b5d2497b",
        )),
        "nu-cusp": (["nu", "--scenario", CUSP,
                     "--poly", "y2^2 - 1/2*y1^3", "--poly", "(y1 + 2/3 y2)^3",
                     "--poly", "-(y1^3 - y2^2)*y1 y2",
                     "--poly", "3/4 y1 y2^2 - (y2 - y1)^2"], (
            "0d834bd62187b0ccf9539b6e5dc151a0e2c15f79788f40cb8ed24dd0e482df93",
            "5c25abadcbacbd38590b809fd320f17b4f6c900af81d3a8c82b88614c3900777",
        )),
        "nu-cone": (["nu", "--scenario", CONE,
                     "--poly", "y1*y3 - 1/2 y2^2",
                     "--poly", "(y1 - 3/2 y3)^2 y2",
                     "--poly", "(y1 y3 - y2^2)*(y1 + y2)^2"], (
            "745813b069f4e57f14858a482b2df0b03429b5ba1414b5270f6e896eae5c81cb",
            "8c9d9c446d7c4092c76c8c8be29604f9431485913a4e986859ce764e95fa5e1c",
        )),
        "product-cusp": (["product", "--scenario", CUSP, "--trials", "200",
                          "--trunc", "10"], (
            "5c5e64776739c8eda2f22d7e954a54806439faf039bd2d68223ba5a933738d2f",
            "87b56347f7ded2b36cdbf1e62209c38f8523a1ef966d80d992aaf7b2e35388d2",
        )),
        "product-cone": (["product", "--scenario", CONE, "--trials", "200",
                          "--trunc", "10"], (
            "7545815188b5f70f4d1c92476b60285baaa159a0f7724bbc236f67fe20ae0076",
            "53b4f451d4444499cf9daa450c443e6aa0d20bdabf31d7d041bd6725211136db",
        )),
        # off the defaults: each probe verb builds its center, point,
        # image, trunc_degree, trials and seed keys from its own inputs
        "nu-cusp-half": (["nu", "--scenario", CUSP, "--point", "1/2",
                          "--trunc", "6", "--poly", "y2^2 - 1/2*y1^3",
                          "--poly", "y1 - 1/4",
                          "--poly", "(y2 - 1/8)^2 - 9/16*(y1 - 1/4)^2"], (
            "24ea78da21e4ff49f733c3a7a74c4925c027a7891999628cb440887774bd514a",
            "3b147634faba07ad8bc244e9d587749f3143b066c0174a7c3bf877adad6c3a84",
        )),
        "product-cone-11": (["product", "--scenario", CONE, "--point", "1,1",
                             "--seed", "3", "--trunc", "6",
                             "--trials", "40"], (
            "76bfc2ec9d9592d8aaeda1d3d728f1762bc459f4c27a5f67c871d4b70288ee3a",
            "6742c54fc735e38c2c674d0d1e70b8f98054cca10961e983cafa8539092bfd6e",
        )),
        "mu-cusp-half": (["mu", "--scenario", CUSP, "--point", "1/2",
                          "--poly", "y2 - 1/2*y1"], (
            "76092d6c466ca59dec03b587765885408f876ef00fe01069d015a1699fbc67e5",
            "c313cbf550e81448650c10a2399b24629bcf43473ff85f41e46b3971d6515cbf",
        )),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_byte_pinned(self, case, tmp_path, capsys):
        argv, pins = self.CASES[case]
        assert output_digests(argv, tmp_path, capsys) == pins


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
    def test_law_lines(self, capsys):
        # y2 pulls back to x^3 at the cusp's origin: nu 1 and l(0, 1) = 3,
        # so the law is tight there
        code = main(["mu", "--scenario", CUSP, "--point", "0",
                     "--poly", "y2", "--poly", "y2^2 - 1/2*y1^3"])
        assert code == 0
        assert capsys.readouterr().out == (
            "mu(y2): nu = 1, ord = 3, l = 3 (VERIFIED), law holds\n"
            "mu(y2^2 - 1/2*y1^3): nu = 3, ord = 6, l = 7 (VERIFIED),"
            " law holds\n")

    def test_certified_relation(self, tmp_path, capsys):
        # a relation composes to zero and lies in the ideal: its residual
        # order is censored, so the law does not apply
        out = tmp_path / "mu.json"
        code = main(["mu", "--scenario", CUSP, "--point", "0",
                     "--poly", "y1^3 - y2^2", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == (
            "mu(y1^3 - y2^2): nu = >=6, ord = -, l = -,"
            " law does not apply\n")
        (entry,) = json.loads(out.read_text())["entries"]
        assert entry == {"poly": "y1^3 - y2^2", "nu": {"at_least": 6},
                         "ord": None, "l": None, "status": None,
                         "law": None}

    def test_two_point_tuple(self, tmp_path, capsys):
        # the squaring's pair (1, -1): ord is the least over both points
        out = tmp_path / "mu.json"
        code = main(["mu", "--scenario", SQUARING, "--point=1;-1",
                     "--poly", "y - 1", "--poly", "(y - 1)^2 + (y - 1)^3",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == (
            "mu(y - 1): nu = 1, ord = 1, l = 1 (VERIFIED), law holds\n"
            "mu((y - 1)^2 + (y - 1)^3): nu = 2, ord = 2, l = 2 (VERIFIED),"
            " law holds\n")
        data = json.loads(out.read_text())
        assert (data["tuple"], data["center"]) == ("1;-1", ["1"])

    def test_needs_a_point(self, tmp_path, capsys):
        # a scenario with no points and no tuples is refused, not a crash
        path = write_scenario(tmp_path, {
            "name": "e",
            "map": {"m": 1, "n": 2, "components": ["x^2", "x^3"]},
            "relations": {"*": ["y1^3 - y2^2"]},
        })
        code = main(["mu", "--scenario", path, "--poly", "y1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: scenario supplies no relation"
                                " generators\n")

    def test_k_range_past_l_max_refused(self, capsys):
        # rows are read only at k <= l_max, so --l-max below k_max is
        # refused before any polynomial is read
        code = main(["mu", "--scenario", CUSP, "--l-max", "4",
                     "--poly", "y1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: k_max must be an int in 1..4,"
                                " got 5\n")

    def test_law_failure_exits_4(self, monkeypatch, tmp_path, capsys):
        # a VERIFIED finite row puts the k-jet of f outside the projected
        # kernel, so no real probe breaks the law; a probe past its row is
        # reported, and the payload still written
        row = RelationJets(status=VERIFIED, l_value=3, chain=range(1, 4),
                           codim=3)
        probe = CompositeOrder(nu=1, order=4, row=row)
        monkeypatch.setattr(cli, "composite_order_probe",
                            lambda engine, polys, k_range: (probe,))
        out = tmp_path / "mu.json"
        code = main(["mu", "--scenario", CUSP, "--poly", "y1",
                     "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().out == (
            "mu(y1): nu = 1, ord = 4, l = 3 (VERIFIED), law fails\n")
        assert json.loads(out.read_text())["entries"][0]["law"] is False


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

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_2(self, trials, capsys):
        code = main(["product", "--scenario", CUSP, "--trials", trials])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"trials must be an int >= 1, got {trials}" in captured.err


class TestRelationTargets:
    """diagram, nu, mu and product pick their tuple, and its relation
    ideal, through one picker, so they refuse and accept alike."""

    CUSP_MAP = {"name": "cusp", "m": 1, "n": 2,
                "components": ["x^2", "x^3"]}

    ARGV = {
        "diagram": ["diagram"],
        "nu": ["nu", "--poly", "y2^2"],
        "mu": ["mu", "--poly", "y2^2"],
        "product": ["product", "--trials", "20"],
    }

    def run(self, verb, path, *extra):
        return main(self.ARGV[verb][:1] + ["--scenario", path]
                    + self.ARGV[verb][1:] + list(extra))

    @pytest.mark.parametrize("verb", sorted(ARGV))
    def test_named_tuple_without_generators(self, verb, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "map": self.CUSP_MAP, "points": [[0], [1]],
            "relations": {"0": ["y2^2 - y1^3"]},
        })
        assert self.run(verb, path, "--point=1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: tuple 1 has no relation"
                                " generators in the scenario\n")

    @pytest.mark.parametrize("verb", sorted(ARGV))
    def test_scenario_without_generators(self, verb, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "map": self.CUSP_MAP, "points": [[0], [1]],
        })
        assert self.run(verb, path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: scenario supplies no relation"
                                " generators\n")

    def test_probes_validate_only_the_first_tuple(self, tmp_path, capsys):
        # y1 does not vanish at tuple 1's image (1, 1): the probes stop at
        # tuple 0, while diagram reads every tuple and refuses it
        path = write_scenario(tmp_path, {
            "map": self.CUSP_MAP, "points": [[0], [1]],
            "relations": {"0": ["y2^2 - y1^3"], "1": ["y1"]},
        })
        out = tmp_path / "out.json"
        for verb in ("nu", "mu", "product"):
            assert self.run(verb, path, "--out", str(out)) == 0
            assert json.loads(out.read_text())["tuple"] == "0"
        capsys.readouterr()
        assert self.run("diagram", path) == 2
        assert "does not vanish at the image point" in \
            capsys.readouterr().err


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
        out = tmp_path / "verify.json"
        code = main(["verify", "--scenario", path, "--out", str(out)])
        assert code == 4
        text = capsys.readouterr().out
        assert "FAIL table-construction" in text
        # the failed climb is named by map, tuple and k
        detail = ("RelationsMismatchError: map 'cusp', tuple 0, k=2:"
                  " projected kernels stabilized at dimension 1")
        assert text.startswith("FAIL table-construction: " + detail)
        (check,) = json.loads(out.read_text())["checks"]
        assert check["detail"].startswith(detail)


# the scenario overrides each verb reads; argparse refuses the others
READS = {
    "chevalley": ("--k-max", "--l-max", "--window", "--seed"),
    "fit": ("--k-max", "--l-max", "--window", "--seed"),
    "verify": ("--k-max", "--l-max", "--window", "--seed"),
    "jet": ("--l-max",),
    "diagram": ("--l-max",),
    "mu": ("--l-max",),
    "product": ("--seed",),
    "nu": (),
}
# override -> (value given on cusp, the table field it sets and its value)
OVERRIDES = {
    "--k-max": ("2", "k_range", [1, 2]),
    "--l-max": ("6", "l_max", 6),
    "--window": ("2", "window", 2),
    "--seed": ("1", "seed", 1),
}


class TestOverrides:
    # the probe verbs' own arguments; few product trials keep the runs quick
    EXTRA = {"nu": ["--poly", "y1"], "mu": ["--poly", "y1"],
             "product": ["--trials", "5"]}

    def argv(self, verb, flag):
        return ([verb, "--scenario", CUSP, flag, OVERRIDES[flag][0]]
                + self.EXTRA.get(verb, []))

    @pytest.mark.parametrize("verb, flag", [
        (verb, flag) for verb, reads in READS.items()
        for flag in OVERRIDES if flag not in reads
    ])
    def test_unread_override_exits_2(self, verb, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.argv(verb, flag))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} " in captured.err
        # the verb's own usage, which lists the flags it does read
        assert captured.err.startswith(f"usage: chevkit {verb} ")

    @pytest.mark.parametrize("verb, flag", [
        (verb, flag) for verb, reads in READS.items() for flag in reads
    ])
    def test_read_override_is_applied(self, verb, flag, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(self.argv(verb, flag) + ["--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert (data["verb"], data["scenario"]) == (verb, "cusp")
        if verb in ("chevalley", "fit"):
            _, field, value = OVERRIDES[flag]
            assert data[field] == value

    @pytest.mark.parametrize("verb", sorted(READS))
    def test_help_lists_only_read_overrides(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert {f for f in OVERRIDES if f in text} == set(READS[verb])


class TestErrorPaths:
    def test_float_scenario_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "points": [[0.5]],
        })
        assert main(["chevalley", "--scenario", path]) == 2
        assert "float literal" in capsys.readouterr().err

    def test_repeated_point_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "name": "squaring",
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "tuples": [[["1/2"], ["-1/2"], ["1/2"]]],
            "k_range": [1, 1],
            "l_max": 3,
        })
        assert main(["chevalley", "--scenario", path]) == 2
        assert "repeats the point (1/2)" in capsys.readouterr().err

    def test_stray_relations_key_exits_2(self, tmp_path, capsys):
        # "2/4" is not the key of point 1/2, and "O" is not 0: their
        # generators would be dropped and every row reported STABILIZED
        path = write_scenario(tmp_path, {
            "map": {"name": "cusp", "m": 1, "n": 2,
                    "components": ["x^2", "x^3"]},
            "points": [[0], ["1/2"]],
            "relations": {"2/4": ["y1^3 - y2^2"], "O": ["y1^3 - y2^2"]},
            "k_range": [1, 2],
            "l_max": 8,
        })
        for verb in ("chevalley", "verify"):
            assert main([verb, "--scenario", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "input error: relations: key '2/4' names no point, tuple or"
                " leaf; valid keys: *, 0, 1/2\n")

    def test_shared_image_message_prints_rationals(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "map": {"name": "cusp", "m": 1, "n": 2,
                    "components": ["x^2", "x^3"]},
            "tuples": [[[1], ["-2/2"]]],
        })
        for verb in ("chevalley", "verify"):
            assert main([verb, "--scenario", path]) == 2
            assert capsys.readouterr().err == (
                "input error: points do not share an image:"
                " phi(1) = (1, 1) but phi(-1) = (1, -1)\n")

    def test_repeated_tuple_key_exits_2(self, tmp_path, capsys):
        # the rows of tuple 0 would be printed three times, and verify's
        # counts would collapse the repeats
        path = write_scenario(tmp_path, {
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "points": [[0], ["1/2"], [0]],
            "tuples": [[[0]]],
            "k_range": [1, 1],
            "l_max": 3,
        })
        for verb in ("chevalley", "verify"):
            assert main([verb, "--scenario", path]) == 2
            assert ("input error: scenario: tuple key '0' repeated"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("leaves, message", [
        ([{"params": ["t", "t"], "points": [["t"], ["-t"]]}],
         "leaves[0]: parameter 't' repeated"),
        ([{"params": ["t", 3], "points": [["t"], ["-t"]]}],
         "leaves[0]: parameter 3 is not a name"),
        ([{"name": "a", "params": ["t"], "points": [["t"], ["-t"]]},
          {"name": "a", "params": ["s"], "points": [["s"], ["-s"]]}],
         "scenario: leaf name 'a' repeated"),
    ], ids=["repeated-param", "int-param", "repeated-leaf-name"])
    def test_invalid_leaf_exits_2(self, tmp_path, capsys, leaves, message):
        path = write_scenario(tmp_path, {
            "map": {"name": "squaring", "m": 1, "n": 1,
                    "components": ["x^2"]},
            "points": [[0]],
            "leaves": leaves,
            "k_range": [1, 1],
            "l_max": 3,
        })
        assert main(["chevalley", "--scenario", path]) == 2
        assert f"input error: {message}" in capsys.readouterr().err

    def test_refused_relation_exits_2_on_every_table_verb(self, tmp_path,
                                                          capsys):
        # verify refuses what the engine refuses, as chevalley and fit do,
        # rather than reporting a failed cross-check
        path = write_scenario(tmp_path, {
            "map": {"name": "cusp", "m": 1, "n": 2,
                    "components": ["x^2", "x^3"]},
            "points": [[0]],
            "relations": {"*": ["y1 - y2"]},
        })
        out = tmp_path / "out.json"
        for verb in ("chevalley", "fit", "verify"):
            assert main([verb, "--scenario", path, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "input error: tuple 0: claimed relation does not compose to"
                " zero with the map\n")
            assert not out.exists()

    # each of these ended in a Python traceback, exit 1
    @pytest.mark.parametrize("verb, path, value, message", [
        ("chevalley", ("points",), 5, "points: expected a list"),
        ("chevalley", ("tuples",), [5], "tuples[0]: expected a list"),
        ("chevalley", ("leaves",), 5, "leaves: expected a list"),
        ("chevalley", ("relations", "*"), [5],
         "relations['*'][0]: polynomial text must be a string, got 5"),
        ("chevalley", ("map", "components"), [7],
         "map.components[0]: polynomial text must be a string, got 7"),
        ("chevalley", ("leaves",),
         [{"params": ["t"], "points": [[5], ["-t"]]}],
         "leaves[0].points[0][0]: polynomial text must be a string, got 5"),
        ("fit", ("map", "name"), ["c"], "map: 'name' must be a string"),
    ], ids=["points", "tuple", "leaves", "generator", "component",
            "leaf-point", "map-name"])
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, verb, path,
                                     value, message):
        data = json.loads(Path(SQUARING).read_text(encoding="utf-8"))
        *outer, last = path
        target = data
        for part in outer:
            target = target[part]
        target[last] = value
        assert main([verb, "--scenario", write_scenario(tmp_path, data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {message}")

    def test_deeply_nested_poly_exits_2(self, capsys):
        text = "(" * 300 + "y1" + ")" * 300
        assert main(["nu", "--scenario", CUSP, "--poly", text]) == 2
        assert capsys.readouterr().err == (
            "input error: polynomial text nested too deeply\n")

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
