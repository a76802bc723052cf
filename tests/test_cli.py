"""Command line interface: output, exit codes, JSON stability."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rgamma
from rgamma.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert err == ""
    # a JSON document reprints byte-identically
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    return code, payload


class TestSemigroupCommand:
    def test_text(self, capsys):
        code, out, err = run_cli(capsys, "semigroup", "4,6,13")
        assert code == 0
        assert "semigroup <4,6,13>" in out
        assert "conductor: 16" in out
        assert "gaps (8): 1, 2, 3, 5, 7, 9, 11, 15" in out
        assert "ambient dimension: 10" in out
        assert err == ""

    def test_json(self, capsys):
        code, payload = run_json(capsys, "semigroup", "4,6,13")
        assert code == 0
        assert payload["generators"] == [4, 6, 13]
        assert payload["conductor"] == 16
        assert payload["gaps"] == [1, 2, 3, 5, 7, 9, 11, 15]
        assert payload["ambient_dim"] == 10
        assert payload["plane_criterion"]["is_plane"] is True

    def test_non_coprime_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "semigroup", "4,6")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_generators_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "semigroup", "4,x,13")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("generators", ["0,3", "3,0", "0"])
    def test_non_positive_is_domain_error(self, capsys, generators):
        code, out, err = run_cli(capsys, "semigroup", generators)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestTemplateCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "template", "4,6,13")
        assert code == 0
        assert "x(t) = t^4 + a5*t^5 + a7*t^7 + a9*t^9 + a11*t^11 + a15*t^15" in out
        assert "variables (10): a5 a7 a9 a11 a15 b7 b9 b11 b15 c15" in out

    def test_collapsed_generator_renders_zero(self, capsys):
        code, out, _ = run_cli(capsys, "template", "2,5")
        assert code == 0
        assert "y(t) = 0" in out

    def test_json(self, capsys):
        code, payload = run_json(capsys, "template", "2,5")
        assert code == 0
        assert payload["generators"] == [
            {"lead": 2, "terms": [{"exp": 3, "var": "a3"}]},
            {"lead": 5, "terms": []},
        ]
        assert payload["variables"] == ["a3"]


class TestSdecCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "sdec", "4,6,13")
        assert code == 0
        assert "[degree 12] y^2 - x^3" in out

    def test_none_found(self, capsys):
        code, out, _ = run_cli(capsys, "sdec", "3,5")
        assert code == 0
        assert "(none)" in out

    def test_json(self, capsys):
        code, payload = run_json(capsys, "sdec", "8,9,10,11")
        assert code == 0
        assert [b["degree"] for b in payload["binomials"]] == [18, 19, 20]
        assert payload["binomials"][0]["lhs"] == [0, 2, 0, 0]
        assert payload["binomials"][0]["rhs"] == [1, 0, 1, 0]


class TestEquationsCommand:
    def test_json(self, capsys):
        code, payload = run_json(capsys, "equations", "4,6,13")
        assert code == 0
        assert len(payload["equations"]) == 1
        assert payload["equations"][0]["gap"] == 15
        elimination = payload["elimination"]
        assert elimination["affine_dim"] == 9
        assert [s["var"] for s in elimination["solved"]] == ["b9"]
        assert elimination["solved"][0]["factor"] == "-1/2"

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "equations", "9,16,19")
        assert code == 0
        assert "affine" in out
        assert "51" in out


class TestReduceCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "4,6,13", "--series", "2*t^13+t^14",
            "--point", "b7=1",
        )
        assert code == 0
        assert "step: power 13, multiplier 2, factorization (0, 0, 1)" in out
        assert "step: power 14, multiplier 1, factorization (2, 1, 0)" in out
        assert "reduced: -t^15" in out

    def test_subset(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "4,6,13", "--series", "t^13", "--subset", "0,1",
        )
        assert code == 0
        assert "reduced: t^13" in out

    def test_bad_series_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reduce", "4,6,13", "--series", "t^^3")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("subset", ["--subset=5", "--subset=-1", "--subset=,"])
    def test_bad_subset_usage_error(self, capsys, subset):
        code, out, err = run_cli(capsys, "reduce", "4,6,13", "--series", "t^8", subset)
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")
        assert "Traceback" not in err


class TestCheckCommand:
    def test_violation(self, capsys):
        code, out, _ = run_cli(capsys, "check", "4,6,13", "--point", "b7=1")
        assert code == 1
        assert "NOT in R_Γ; violated: equation(gap 15)" in out

    def test_member(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "4,6,13", "--point", "b7=1,b9=1/2"
        )
        assert code == 0
        assert "in R_Γ" in out

    def test_zero_point_default(self, capsys):
        code, out, _ = run_cli(capsys, "check", "4,6,13")
        assert code == 0

    def test_oracle_agreement_on_both_verdicts(self, capsys):
        code, payload = run_json(
            capsys, "check", "4,6,13", "--point", "b7=1", "--oracle"
        )
        assert code == 1
        assert payload["in_variety"] is False
        assert payload["oracle"] == {"in_variety": False, "agrees": True}

        code, payload = run_json(
            capsys, "check", "4,6,13", "--point", "b7=1,b9=1/2", "--oracle"
        )
        assert code == 0
        assert payload["oracle"] == {"in_variety": True, "agrees": True}

    def test_json_point_values_are_strings(self, capsys):
        _, payload = run_json(
            capsys, "check", "4,6,13", "--point", "b9=1/2"
        )
        assert payload["point"]["b9"] == "1/2"
        assert payload["point"]["a5"] == "0"

    def test_bad_point_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "4,6,13", "--point", "b7")
        assert code == 2
        assert err.startswith("usage error:")

    def test_unknown_variable_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "4,6,13", "--point", "q9=1")
        assert code == 1
        assert err.startswith("error:")


class TestPlaneCommand:
    def test_criterion_only(self, capsys):
        code, out, _ = run_cli(capsys, "plane", "4,6,13")
        assert code == 0
        assert "plane criterion: satisfied" in out

        code, out, _ = run_cli(capsys, "plane", "4,6,11")
        assert code == 1
        assert "plane criterion: not satisfied" in out
        assert "fails at generator index 2" in out

    def test_point_test(self, capsys):
        code, out, _ = run_cli(
            capsys, "plane", "4,6,13", "--point", "b7=1,b9=1/2"
        )
        assert code == 0
        assert "point test: plane (order 13, leading coefficient 2)" in out

    def test_degenerate_point(self, capsys):
        code, out, _ = run_cli(capsys, "plane", "4,6,13", "--point", "")
        assert code == 1
        assert "point test: not plane" in out

    def test_point_off_variety_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "plane", "4,6,13", "--point", "b7=1")
        assert code == 1
        assert err.startswith("error:")
        assert "gap 15" in err


class TestNormalizeCommand:
    def test_detects_semigroup(self, capsys):
        code, out, _ = run_cli(
            capsys, "normalize", "--series", "t^3+t^4+t^5;t^5", "--mod", "8"
        )
        assert code == 0
        assert "detected semigroup: <3,5> (conductor 8)" in out
        assert "x(t) = t^3 + t^4" in out
        assert "y(t) = t^5" in out

    def test_json(self, capsys):
        code, payload = run_json(
            capsys, "normalize", "--series", "t^3+t^4+t^5;t^5", "--mod", "8"
        )
        assert code == 0
        assert payload["detected_generators"] == [3, 5]
        assert payload["normal_form"] == ["t^3 + t^4", "t^5"]
        assert payload["closure_below_modulus"] == [3, 5, 6]

    def test_bad_mod_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "normalize", "--series", "t^2", "--mod", "0")
        assert code == 2
        assert err.startswith("usage error:")


class TestAnalyzeCommand:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "4,6,13")
        assert code == 0
        assert "single-binomial prediction: 9" in out
        assert "affine dimension stable" in out

    def test_json_report(self, capsys):
        code, payload = run_json(capsys, "analyze", "4,6,13", "--seed", "7")
        assert code == 0
        assert payload["elimination"]["affine_dim"] == 9
        assert payload["predicted_dim_single_binomial"] == 9
        determinism = payload["determinism"]
        assert determinism["seed"] == 7
        assert determinism["stable"] is True
        assert determinism["affine_dims"] == [9] * (determinism["shuffles"] + 1)

    def test_negative_shuffles_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "2,3", "--shuffles", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("usage error:")


class TestHarness:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_repeat_invocations_byte_identical(self, capsys):
        first = run_json(capsys, "analyze", "9,16,19", "--seed", "3")
        second = run_json(capsys, "analyze", "9,16,19", "--seed", "3")
        assert first == second

    def test_module_entry_point(self):
        # the child imports the package under test, whether installed or not
        src = str(Path(rgamma.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "rgamma.cli", "semigroup", "4,6,13"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "conductor: 16" in proc.stdout


# exit code and sha256 of stdout for every rendering path; the renderings
# are shared between subcommands, so any byte of drift in one fails here
PINNED_OUTPUTS = [
    (('semigroup', '4,6,13'), 'text', 0, 'e41bcbc9460362d0a4e5f8086762d91cdd691e103b9513ec28cdc4be68069556'),
    (('semigroup', '4,6,13'), 'json', 0, 'ca475c8c4deca2bbe313e090e4f0a7141e413dac4dcad63bbab4a740b5d15da7'),
    (('semigroup', '4,6,11'), 'text', 0, '48691a06be8c2c5e519ae2fe30a2c0860f20d2cee171f45ecc70fd7a62f5a441'),
    (('semigroup', '4,6,11'), 'json', 0, 'c4d7f1ab58627c0cf618b9831917696e34a794bb8b40b79a24860e44e0ab582f'),
    (('template', '4,6,13'), 'text', 0, '56ab6826c1dac23a6602c4a3baae6505be6910db053ea33ee90cf710ea5135b0'),
    (('template', '4,6,13'), 'json', 0, '3071bc2f17716c71a4f75e18844fc564c47cd57c7979db4263edd32686688647'),
    (('template', '2,5'), 'text', 0, 'dc1c6875793fc3aafbfe681cef3d7c76176e7f08ee85622b8aef4d4b0b74764e'),
    (('template', '2,5'), 'json', 0, '0d033b639730c89ab6c2826d4b3b40d2cad1a6325c473badef4dfdd5a0fccb98'),
    (('sdec', '8,9,10,11'), 'text', 0, 'b559028e3230eeb71b7790211ae467fb8a24ffb8048b649c31025b6d70793bea'),
    (('sdec', '8,9,10,11'), 'json', 0, '1c9d616714759da9b222b9dcd60057b38fff1f70aca867de91a6d801b21a2675'),
    (('plane', '4,6,13'), 'text', 0, '76bb589a4d68a8831687b393ad62c773fbcc83c2f470d47750bd3eeb18f4b18a'),
    (('plane', '4,6,13'), 'json', 0, '0e22039e1b19d3bb37320f1d8b29fd2b45a3629a41aaf044d84e1267e1fc8b7f'),
    (('plane', '4,6,11'), 'text', 1, '1527e5be82e31c95e2b4fccfff5296b1f72969c3e0560fa83549b23abe995314'),
    (('plane', '4,6,11'), 'json', 1, 'beaf13b56cde28aa08465de8faacfc76bd768095f98a44177be1ccb56324d120'),
    (('plane', '4,6,13', '--point', 'b7=1,b9=1/2'), 'text', 0, '7f162bb3f83ea35bea02f807eb88b1bd1555442bf04c7cfb74d46e401a81764f'),
    (('plane', '4,6,13', '--point', 'b7=1,b9=1/2'), 'json', 0, '6bca11f601df7867b4ac72848e2679e56d6ac80f923bbf33d0654e22e26ed3d4'),
    (('plane', '4,6,13', '--point', ''), 'text', 1, '328271d0faccad0884d495aa22d61d3140c6e6018177d29000b93671ad8d4418'),
    (('plane', '4,6,13', '--point', ''), 'json', 1, '3c019cfd21a676b9e28548c097f51fc50c3d1c72b7585fc48674c580a041e92f'),
    (('check', '4,6,13', '--point', 'b7=1,b9=1/2', '--oracle'), 'text', 0, '1c9ba0ea2e06862db9ada452b3c53b0600901a8bf312db4e1e9d2d8e1678b191'),
    (('check', '4,6,13', '--point', 'b7=1,b9=1/2', '--oracle'), 'json', 0, 'e397fa8be5845405eb4396e75c2baf49e8df8ddc473c3489d568c894144a3ec5'),
    (('check', '4,6,13', '--point', 'b7=1', '--oracle'), 'text', 1, 'd2740e1e429ec2094da0dfff5ad1db0a917573914164fb5c530992244176ff87'),
    (('check', '4,6,13', '--point', 'b7=1', '--oracle'), 'json', 1, '826b1796c297c7fc4d6f34f0c0d8d0846bb7b4ac2ca30808daadc0033308f1e6'),
    (('reduce', '4,6,13', '--series', '2*t^13+t^14', '--point', 'b7=1', '--subset', '0,1'), 'text', 0, '7d2de33450848dc251910df4bae6d5abbfa750e145688c83c6123a470b5fe33e'),
    (('reduce', '4,6,13', '--series', '2*t^13+t^14', '--point', 'b7=1', '--subset', '0,1'), 'json', 0, 'df449b3e4c2903f1cdc140fc6e3e9b34df1547cc18420c22b16688c746b98a7e'),
    (('analyze', '4,6,13'), 'text', 0, '34a838ec941812f5f78deb2c45ec033dafdc40cff0ae5dfb7a32e67600f9d7e9'),
    (('analyze', '4,6,13'), 'json', 0, '61e5f0bb101d4632dcdeb4168d0cf878de9ab35eb27e9bfe72ea5c4ba4179cc5'),
    (('analyze', '8,9,10,11', '--seed', '3'), 'text', 0, 'c33cdb8853f2ac19f5a2a59b845e14ed445c5ed31f70c3f006355d323b211a17'),
    (('analyze', '8,9,10,11', '--seed', '3'), 'json', 0, '014dcb16becdd4ab75038bddf13d6d86f3bf76757867ad9fc84ad8e7cc946250'),
    # the JSON digests equal swell_sha256 in bench/reference.json
    (('equations', '10,13,14,17'), 'text', 0, '7f27c786de3979a2f5477e55bb2cf3c9a54540af1f7acb3cbd403862a4c79204'),
    (('equations', '10,13,14,17'), 'json', 0, '9190d0afba98f4d9e7e37018b2ca469f765ec4b06ceeaee4557a1d528341a71a'),
    (('equations', '11,15,17'), 'text', 0, 'c5517da6820e33d48bd6cc62cdf64e96853541ff6ea692536290688e87142612'),
    (('equations', '11,15,17'), 'json', 0, '671d2eb669bbac8ef721cb97c4baf82ac6f67a83ad1c3690e0cc8dc152a723d3'),
]


@pytest.mark.parametrize("argv, fmt, code, digest", PINNED_OUTPUTS)
def test_output_bytes_pinned(capsys, argv, fmt, code, digest):
    got_code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert err == ""
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
