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


def output_digests(argv, tmp_path, capsys):
    """sha256 of the (stdout, --out) bytes of one successful CLI run."""
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode()
    return (hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(out.read_bytes()).hexdigest())


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
    # scenarios; nu and product pick their tuple through one shared
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
            "1e377d62ba5d579ed686ae54560ffdd316ca9517557adac6cb661190ae2f0fb1",
            "8130e6b6e2ad8349df1f01992c90132a8b924f0839b115a2387cba9ee7db7ad3",
        ),
        "mu-cusp": (
            "1e377d62ba5d579ed686ae54560ffdd316ca9517557adac6cb661190ae2f0fb1",
            "b6db43de0c53484e2180ad455b91e164653f4f0f5f61587b7a7f563aaae833b6",
        ),
        "mu-identity": (
            "1e377d62ba5d579ed686ae54560ffdd316ca9517557adac6cb661190ae2f0fb1",
            "63c6a9a1337d93c4bf44e1273ce56ad8aa939032ce2d321def0ab7e04885ee97",
        ),
        "mu-squaring": (
            "1e377d62ba5d579ed686ae54560ffdd316ca9517557adac6cb661190ae2f0fb1",
            "3c89f06c8405acc3cdab595d42fed1611cce959ef25b7697750fd4cb7025b1b9",
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


class TestRichProbePins:
    # sha256 of (stdout, --out) bytes, taken before normal forms and the
    # parser moved to integer rows and term dicts: nu with p/q coefficients,
    # parenthesised powers and relation multiples, and a longer product run.
    # mu-cusp's slope is a least-squares fit in floats; its --out bytes are
    # the same under every supported interpreter only because the sums are
    # correctly rounded (math.fsum), not left to each version's sum()
    CONE = str(ROOT / "scenarios" / "cone.json")
    CASES = {
        "mu-cusp": (["mu", "--scenario", CUSP,
                     "--poly", "y2^2 - 1/2*y1^3"], (
            "1dde6ef8245b189be66830f1c743cc4d54b94d23774fed2f6375f902ca894a38",
            "22fdcf279003a8571d10ac7a39e0a1656544c53e99b9d624141d50ee11e1031e",
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

    def test_needs_a_point(self, tmp_path, capsys):
        # a scenario with no points and no tuples is refused, not a crash
        path = write_scenario(tmp_path, {
            "name": "e",
            "map": {"m": 1, "n": 2, "components": ["x^2", "x^3"]},
        })
        code = main(["mu", "--scenario", path, "--poly", "y1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: growth probe needs a point;"
                                " the scenario has none\n")


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
        assert "trials must be >= 1" in captured.err


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
