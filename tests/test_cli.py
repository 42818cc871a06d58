import io
import json
import re
import subprocess
import sys
import warnings

import pytest

from fermat_pdde import cli
from fermat_pdde.cli import main
from fermat_pdde.errors import EstimationError
from fermat_pdde.errors import ProblemFileError
from fermat_pdde.problemfile import load_problem


def run_cli(*argv):
    return main(list(argv))


class TestVerifyCommand:
    def test_example4_passes(self, fixtures_dir, capsys):
        code = run_cli(
            "verify", str(fixtures_dir / "example4.json"),
            "--samples", "200", "--radius", "2", "--tol", "1e-8", "--seed", "42",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_exit_codes_across_corpus(self, fixtures_dir):
        expected = {
            "example1.json": 0,
            "example2.json": 1,  # stored as inconsistent; must fail, not be hidden
            "example3.json": 0,
            "example4.json": 0,
            "example5.json": 0,
            "example6.json": 0,
            "example7.json": 0,
            "bad_poly.json": 1,
        }
        for name, code in expected.items():
            assert run_cli("verify", str(fixtures_dir / name)) == code, name

    def test_bad_poly_reports_large_residual(self, fixtures_dir, capsys):
        code = run_cli("verify", str(fixtures_dir / "bad_poly.json"))
        out = capsys.readouterr().out
        assert code == 1
        line = next(l for l in out.splitlines() if l.startswith("max_rel_residual"))
        assert float(line.split(":")[1]) > 0.1

    def test_missing_file(self, capsys):
        assert run_cli("verify", "no_such_file.json") == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "kind": }')
        assert run_cli("verify", str(bad)) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_bad_expression_reports_field_and_position(self, tmp_path, capsys):
        bad = tmp_path / "bad_expr.json"
        bad.write_text(json.dumps({
            "n": 2, "kind": "fte", "m1": 2, "c": [[1, 0], [0, 0]],
            "f": "z1 + * z2", "phi": "1",
        }))
        assert run_cli("verify", str(bad)) == 2
        err = capsys.readouterr().err
        assert "'f'" in err and "position" in err

    def test_machine_format_after_subcommand(self, fixtures_dir, capsys):
        code = run_cli("verify", str(fixtures_dir / "example4.json"), "--format", "machine")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["verdict"] == "pass"

    def test_machine_format(self, fixtures_dir, capsys):
        code = run_cli("--format", "machine", "verify", str(fixtures_dir / "example4.json"))
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["verdict"] == "pass"
        assert doc["expected_status"] == "pass"

    def test_flags_override_file_policy(self, fixtures_dir, capsys):
        code = run_cli("--format", "machine", "verify", str(fixtures_dir / "example4.json"),
                       "--samples", "50", "--seed", "7")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["policy"]["samples"] == 50
        assert doc["report"]["policy"]["seed"] == 7

    @pytest.mark.parametrize("policy", [
        {"samples": 1.5}, {"samples": "200"}, {"samples": True},
        {"seed": -1}, {"seed": 1.5},
        {"tol": float("inf")}, {"radius": float("inf")},
        {"pole_eps": -1.0}, {"pole_eps": float("inf")},
        {"radius": 10**400}, {"tol": 10**400}, {"pole_eps": 10**400},
    ])
    def test_malformed_policy_is_malformed_input(self, fixtures_dir, tmp_path, capsys, policy):
        data = json.loads((fixtures_dir / "example4.json").read_text())
        path = tmp_path / "policy.json"
        # inf is written as Infinity, 10**400 as a 401-digit integer
        path.write_text(json.dumps({**data, "policy": policy}))
        assert run_cli("verify", str(path)) == 2
        err = capsys.readouterr().err
        assert "policy" in err and next(iter(policy)) in err

    @pytest.mark.parametrize("component", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_shift_is_malformed_input(self, fixtures_dir, tmp_path, capsys, component):
        data = json.loads((fixtures_dir / "example4.json").read_text())
        data["c"][1] = [component, 0]  # written as NaN, Infinity or a 401-digit integer
        path = tmp_path / "shift.json"
        path.write_text(json.dumps(data))
        assert run_cli("verify", str(path)) == 2
        assert "c[1]" in capsys.readouterr().err

    def test_huge_dimension_is_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**_KIND_FILES["fermat"], "n": 10_000_000_000_000}))
        assert run_cli("verify", str(path)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "dimension must be at most 1000, got 10000000000000" in err

    @pytest.mark.parametrize("policy", [5, "seed", [], ["seed"], True])
    def test_policy_that_is_no_object_is_malformed_input(self, tmp_path, capsys, policy):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({**_KIND_FILES["fte"], "policy": policy}))
        assert run_cli("verify", str(path)) == 2
        assert "policy: must be an object" in capsys.readouterr().err

    def test_negative_seed_flag_is_malformed_input(self, fixtures_dir, capsys):
        assert run_cli("verify", str(fixtures_dir / "example4.json"), "--seed", "-1") == 2
        assert "seed" in capsys.readouterr().err

    def test_machine_output_is_strict_json(self, fixtures_dir, tmp_path, capsys):
        # no point survives 1/(z1-z1): the residual maxima are not numbers
        data = json.loads((fixtures_dir / "example4.json").read_text())
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({**data, "f": "1/(z1-z1)"}))
        assert run_cli("--format", "machine", "verify", str(path)) == 1

        def reject(token):
            raise ValueError(f"not standard JSON: {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["report"]["points_tested"] == 0
        assert doc["report"]["max_abs_residual"] is None
        assert doc["report"]["max_rel_residual"] is None
        assert run_cli("verify", str(path)) == 1
        assert "max_rel_residual: inf" in capsys.readouterr().out


    def test_deep_quotient_chain_gets_a_verdict(self, tmp_path):
        # z1 divided 1500 times parses flat into 1500 nested quotients; every
        # walk of the tree used to recurse once per level and end in a traceback
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"n": 2, "kind": "fte", "m1": 2, "c": [[0, 0], [0.5, 0]],
                                    "f": "z1" + "/(z2+2)" * 1500, "phi": "1"}))
        proc = subprocess.run(
            [sys.executable, "-m", "fermat_pdde", "--format", "machine", "verify", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["report"]["verdict"] in ("pass", "fail")


class TestVerifyBatch:
    """`verify FILE...`: one report per file, the worst exit code."""

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_each_report_is_its_single_file_output(self, fixtures_dir, capsys, fmt):
        paths = [str(p) for p in sorted(fixtures_dir.glob("*.json"))]
        assert len(paths) == 8
        singles = []
        for path in paths:
            code = run_cli("--format", fmt, "verify", path)
            singles.append((code, capsys.readouterr().out))
        code = run_cli("--format", fmt, "verify", *paths)
        out = capsys.readouterr().out
        assert out == "".join(text for _, text in singles)
        assert code == max(c for c, _ in singles) == 1  # example2 and bad_poly fail
        if fmt == "machine":  # JSON Lines: one document per file
            assert [json.loads(line)["file"] for line in out.splitlines()] == paths

    def test_exit_code_is_the_worst(self, fixtures_dir, tmp_path, capsys):
        ok, failing = str(fixtures_dir / "example4.json"), str(fixtures_dir / "bad_poly.json")
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"n": 2, "kind": }')
        assert run_cli("verify", ok, ok) == 0
        assert run_cli("verify", ok, failing, ok) == 1
        capsys.readouterr()
        # a malformed file reports its error and the batch goes on
        assert run_cli("verify", failing, str(malformed), ok) == 2
        out, err = capsys.readouterr()
        assert [line for line in out.splitlines() if line.startswith("file:")] == [
            f"file: {failing}", f"file: {ok}"]
        assert err.count("error:") == 1 and str(malformed) in err

    def test_malformed_flag_is_reported_once(self, fixtures_dir, capsys):
        paths = [str(fixtures_dir / "example4.json")] * 3
        assert run_cli("verify", *paths, "--seed", "-1") == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")

    def test_dash_reads_paths_from_stdin(self, fixtures_dir, monkeypatch, capsys):
        ok, failing = str(fixtures_dir / "example4.json"), str(fixtures_dir / "bad_poly.json")
        assert run_cli("--format", "machine", "verify", failing, ok, failing) == 1
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{ok}\n\n  {failing}  \n"))
        assert run_cli("--format", "machine", "verify", failing, "-") == 1
        assert capsys.readouterr().out == expected


class TestConstructCommand:
    @pytest.mark.parametrize("theorem,c", [
        ("t1-i", "14,1,3,5"),
        ("t1-ii", "0,pi*i,pi*i"),
        ("t2-i", "2,3,2,4"),
        ("t2-ii", "pi*i,2*pi*i,-pi*i,2*pi*i"),
        ("cor1", "0.6,1.1,0.9"),
        ("cor2", "0.5,1.4,0.8"),
        ("equ1", "1,1"),
        ("equ2", "1,3"),
    ])
    def test_generated_parts_verify(self, theorem, c, capsys):
        code = run_cli("--format", "machine", "construct", "--theorem", theorem,
                       "--c", c, "--gen-seed", "11")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0, doc
        assert doc["report"]["verdict"] == "pass"

    def test_output_reparses_and_verifies(self, tmp_path, capsys):
        code = run_cli("--format", "machine", "construct", "--theorem", "t1-ii",
                       "--c", "0,pi*i,pi*i", "--g", "exp(z2+z3)", "--phi", "1")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        problem_file = tmp_path / "roundtrip.json"
        problem_file.write_text(json.dumps({
            "n": 3, "kind": "fte", "m1": 2,
            "c": [[0, 0], [0, 3.141592653589793], [0, 3.141592653589793]],
            "f": doc["f"],
            "phi": "1",
        }))
        assert run_cli("verify", str(problem_file)) == 0

    @pytest.mark.parametrize("theorem,c,phi", [("cor1", "0.6,1.1,0.9", "z3^5"), ("cor2", "0.5,1.4,0.8", "z3^5"),
                                               ("equ1", "1,1", "z2^5"), ("equ2", "1,3", "1")])
    def test_phi_on_a_unit_right_side_theorem_is_malformed_input(self, capsys, theorem, c, phi):
        # these theorems fix the right side to 1: a --phi would be dropped, and a pass misread
        assert run_cli("construct", "--theorem", theorem, "--c", c, "--phi", phi) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"theorem {theorem} fixes the right side to 1" in err

    def test_explicit_example4_reproduced(self, capsys):
        code = run_cli("--format", "machine", "construct", "--theorem", "t1-ii",
                       "--c", "0,pi*i,pi*i", "--g", "exp(z2+z3)")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["max_rel_residual"] < 1e-10

    def test_tau_zero_rejected(self, capsys):
        code = run_cli("construct", "--theorem", "cor1", "--c", "1,1,-1", "--gen-seed", "3")
        assert code == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem,c", [("t1-ii", "0,pi*i,pi*i"), ("t1-i", "14,1,3,5")])
    def test_negative_generator_seed_is_malformed_input(self, capsys, theorem, c):
        assert run_cli("construct", "--theorem", theorem, "--c", c, "--gen-seed", "-1") == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("excess", [0, 1])
    def test_generated_term_count_is_bounded(self, capsys, monkeypatch, excess):
        from fermat_pdde import periodic

        terms = str(cli.MAX_GEN_TERMS + excess)
        if excess:  # refused before anything is generated
            monkeypatch.setattr(periodic, "make_periodic", None)
        code = run_cli("construct", "--theorem", "t1-ii", "--c", "0,pi*i,pi*i", "--gen-terms", terms)
        out, err = capsys.readouterr()
        if excess:
            assert code == 2 and out == ""
            assert f"--gen-terms must be at most {cli.MAX_GEN_TERMS}, got {terms}" in err
        else:
            assert code == 0 and "verdict: pass" in out

    @pytest.mark.parametrize("terms", ["-3", "0"])
    def test_generated_term_count_is_positive(self, capsys, monkeypatch, terms):
        # refused up front for form I too, whose generator takes no term count
        from fermat_pdde import periodic

        monkeypatch.setattr(periodic, "make_polynomial_quasi_periodic", None)
        code = run_cli("construct", "--theorem", "t1-i", "--c", "0,1", "--gen-terms", terms)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"--gen-terms must be at least 1, got {terms}" in err

    @pytest.mark.parametrize("theorem,c", [("t1-i", "0,1"), ("t2-i", "2,3,2,4")])
    def test_term_count_on_form_one_is_malformed_input(self, capsys, theorem, c):
        # a polynomial g part takes no term count: the flag would be dropped
        assert run_cli("construct", "--theorem", theorem, "--c", c, "--gen-terms", "3") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"theorem {theorem} generates a polynomial g part" in err

    @pytest.mark.parametrize("flag,value", [("--gen-terms", "7"), ("--gen-seed", "5")])
    def test_generator_flag_with_explicit_g_is_malformed_input(self, capsys, flag, value):
        code = run_cli("construct", "--theorem", "t1-ii", "--c", "0,pi*i,pi*i",
                       "--g", "exp(2*z2)", flag, value)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "apply to a generated g part, not to --g" in err

    def test_generator_defaults_are_two_terms_and_seed_zero(self, capsys):
        argv = ("--format", "machine", "construct", "--theorem", "t1-ii", "--c", "0,pi*i,pi*i")
        run_cli(*argv)
        default = capsys.readouterr().out
        run_cli(*argv, "--gen-seed", "0", "--gen-terms", "2")
        assert capsys.readouterr().out == default
        run_cli(*argv, "--gen-terms", "3")
        assert capsys.readouterr().out != default

    def test_dimension_mismatch(self, capsys):
        # the dimension is the length of --c; there is no --n to disagree with it
        assert run_cli("construct", "--theorem", "t1-ii", "--c", "0,1", "--n", "3") == 2
        assert "unrecognized arguments: --n 3" in capsys.readouterr().err
        assert run_cli("construct", "--theorem", "equ1", "--c", "1,2,3") == 2
        assert "kind equ1 fixes n = 2, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["t1-ii", "t2-i", "t2-ii", "cor2", "equ1", "equ2"])
    def test_one_component_shift_is_malformed_input(self, capsys, theorem):
        # the generated g part reads c2, which a one-component shift lacks
        assert run_cli("construct", "--theorem", theorem, "--c", "1") == 2
        assert f"theorem {theorem} needs a shift vector of at least 2 components, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("c,message", [
        ("0,1e400*i,pi*i", "overflows"),
        ("0,1e300*1e300*i,pi*i", "must be finite"),
    ])
    def test_non_finite_shift_is_malformed_input(self, capsys, c, message):
        assert run_cli("construct", "--theorem", "t1-ii", "--c", c) == 2
        assert message in capsys.readouterr().err


class TestOrderCommand:
    def test_expression_target(self, capsys):
        code = run_cli("--format", "machine", "order", "exp(z1+z2)", "--n", "2")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 0.85 <= doc["estimate"]["rho_hat"] <= 1.15

    def test_file_target(self, fixtures_dir, capsys):
        code = run_cli("--format", "machine", "order", str(fixtures_dir / "example1.json"))
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 1.8 <= doc["estimate"]["rho_hat"] <= 2.2

    def test_file_target_n_must_match_the_file(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "example1.json")  # n = 5
        assert run_cli("order", path, "--n", "3") == 2
        out, err = capsys.readouterr()
        assert out == "" and "--n 3 disagrees with the file's n = 5" in err
        assert run_cli("order", path, "--n", "5", "--directions", "20") == 0

    def test_expression_needs_n(self, capsys):
        assert run_cli("order", "z1^2") == 2

    def test_custom_radii(self, capsys):
        code = run_cli("--format", "machine", "order", "z1^3*z2", "--n", "2",
                       "--radii", "64,128,256,512,1024")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["estimate"]["rho_hat"] <= 0.2

    @pytest.mark.parametrize("radii", ["a,b", "4,x", "4,,8", "4,inf", "nan,8", "4,1e400", "-8,-4", "0,4",
                                       "8,4", "4", "4,4"])
    def test_malformed_radii_are_malformed_input(self, capsys, radii):
        assert run_cli("order", "z1", "--n", "1", f"--radii={radii}") == 2
        assert "--radii" in capsys.readouterr().err

    @pytest.mark.parametrize("directions", ["0", "-5"])
    def test_non_positive_directions_are_malformed_input(self, capsys, directions):
        assert run_cli("order", "z1", "--n", "1", f"--directions={directions}") == 2
        assert f"--directions must be a positive integer, got {directions}" in capsys.readouterr().err

    def test_too_many_directions_are_malformed_input(self, capsys):
        # 1e11 directions would ask numpy for hundreds of GiB
        assert run_cli("order", "z1", "--n", "1", "--directions=100000000000") == 2
        assert "--directions must be at most 100000, got 100000000000" in capsys.readouterr().err

    def test_huge_dimension_is_malformed_input(self, capsys):
        # 1e13 coordinates per point would ask numpy for tens of TiB
        assert run_cli("order", "z1", "--n", "10000000000000", "--directions", "1") == 2
        assert "dimension must be at most 1000, got 10000000000000" in capsys.readouterr().err

    def test_too_many_radii_are_malformed_input(self, capsys):
        # 10 000 radii x 100 000 directions would ask numpy for 14.9 GiB
        radii = ",".join(str(4 + k) for k in range(10_000))
        assert run_cli("order", "z1", "--n", "1", "--directions", "100000", f"--radii={radii}") == 2
        assert "--radii must hold at most 64 radii, got 10000" in capsys.readouterr().err
        radii = ",".join(str(4 + k) for k in range(64))
        assert run_cli("order", "z1", "--n", "1", f"--radii={radii}") == 0

    def test_long_sum_is_one_wide_node(self, capsys):
        # one wide sum, not 700 nested ones that overrun the recursion limit
        target = " + ".join(f"z1^{k}" for k in range(1, 701))
        code = run_cli("--format", "machine", "order", target, "--n", "1", "--radii", "1.1,1.2")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["estimate"]["radii"] == [1.1, 1.2]

    def test_too_many_values_are_malformed_input(self, capsys, monkeypatch):
        # 17 radii x 100 000 directions x 1000 coordinates would ask numpy for 25.3 GiB
        calls = []

        def estimate_order(f, n, **kw):
            calls.append((n, kw["directions"], len(kw["radii"])))
            raise EstimationError("not estimated")

        monkeypatch.setattr(cli, "estimate_order", estimate_order)
        assert run_cli("order", "z1", "--n", "1000", "--directions", "100000") == 2
        assert ("radii x directions x n must be at most 10000000, "
                "got 17 x 100000 x 1000 = 1700000000") in capsys.readouterr().err
        assert calls == []
        # 17 x 100 000 x 5 = 8.5e6, the largest estimate the package's own measurements make
        assert run_cli("order", "z1", "--n", "5", "--directions", "100000") == 1
        assert calls == [(5, 100000, 17)]

    @pytest.mark.parametrize("target, message", [
        ("(" * 400 + "z1" + ")" * 400, "nesting deeper than 200 parentheses and calls (at position 200)"),
        ("z1^" + "9" * 5000, "overflows a double (at position 3)"),
        ("z" + "1" * 5000, "variable index out of range"),
    ], ids=["nesting", "exponent", "index"])
    def test_text_past_the_parser_limits_is_malformed_input(self, capsys, target, message):
        # a RecursionError, or a ValueError from converting 5000 digits, escaped as a traceback
        assert run_cli("order", target, "--n", "1") == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_is_malformed_input(self, capsys):
        assert run_cli("order", "z1", "--n", "1", "--seed", "-3") == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["42", "7", "1"])
    @pytest.mark.parametrize("target", ["2*(z1*z2)/(1+(z1*z2)^2)", "2*exp(z1)/(1+exp(2*z1))"])
    def test_falling_max_modulus_exits_one(self, capsys, target, seed):
        # meromorphic: M(r) falls over the top fit pair, so the fit would give a negative order
        assert run_cli("order", target, "--n", "2", "--seed", seed) == 1
        out, err = capsys.readouterr()
        assert out == "" and "max modulus falls" in err

    def test_constant_exits_zero(self, capsys):
        # M(r) neither rises nor falls: order 0, not a refusal
        assert run_cli("--format", "machine", "order", "5", "--n", "1") == 0
        assert abs(json.loads(capsys.readouterr().out)["estimate"]["rho_hat"]) < 1e-12

    def test_radii_one_rounding_apart(self, capsys):
        # a least-squares line through log r and its neighbour lost half the
        # slope (0.49998) and warned that it was poorly conditioned
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("--format", "machine", "order", "exp(z1)", "--n", "1",
                           "--radii", "100,100.00000000000001") == 0
        out, err = capsys.readouterr()
        assert abs(json.loads(out)["estimate"]["rho_hat"] - 1) < 1e-9
        assert err == "" and caught == []

    def test_divisor_with_no_zeros_is_no_pole(self, capsys):
        # 1/exp(-z1) is exp(z1): entire, of order 1; exp has no zeros
        assert run_cli("--format", "machine", "order", "1/exp(-z1)", "--n", "1") == 0
        assert abs(json.loads(capsys.readouterr().out)["estimate"]["rho_hat"] - 1) < 0.01

    def test_estimation_failure_exits_one(self, capsys):
        # circles inside the pole guard of 1/z1: estimation must abort, not lie
        code = run_cli("order", "1/z1", "--n", "1", "--radii", "1e-13,2e-13")
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFermatCommand:
    def test_cos_sin(self, capsys):
        code = run_cli("--format", "machine", "fermat", "--kind", "cos-sin",
                       "--h", "z1+z2^2", "--n", "2")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["m"] == 2
        assert doc["report"]["max_rel_residual"] < 1e-12

    @pytest.mark.parametrize("radius", ["32", "64"])
    def test_quotient_by_exp_skips_no_point(self, capsys, radius):
        # h = z1*exp(z2)/exp(z2) has no poles, and no lane overflows at these
        # radii, so every point is tested
        code = run_cli("--format", "machine", "fermat", "--kind", "cos-sin",
                       "--h", "z1*exp(z2)/exp(z2)", "--n", "2", "--radius", radius)
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["points_skipped"] == 0
        assert doc["report"]["points_tested"] == 200

    def test_mobius(self, capsys):
        code = run_cli("--format", "machine", "fermat", "--kind", "mobius",
                       "--h", "z1*z2", "--n", "2")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["report"]["max_rel_residual"] < 1e-12

    def test_cubic(self, capsys):
        code = run_cli("--format", "machine", "fermat", "--kind", "cubic",
                       "--h", "z1", "--n", "1", "--samples", "150", "--radius", "1.2")
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["m"] == 3
        assert doc["report"]["max_rel_residual"] < 1e-7


    def test_huge_dimension_is_malformed_input(self, capsys):
        assert run_cli("fermat", "--kind", "cos-sin", "--h", "z1", "--n", "10000000000000") == 2
        assert "dimension must be at most 1000, got 10000000000000" in capsys.readouterr().err


def help_text(capsys, command: str) -> str:
    assert run_cli(command, "--help") == 0
    return " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal width


class TestHelp:
    """Each command's --help states the defaults that command runs with."""

    @pytest.mark.parametrize("argv", [
        ("construct", "--theorem", "t1-ii", "--c", "0,pi*i,pi*i"),
        ("fermat", "--kind", "cos-sin", "--h", "z1", "--n", "1"),
        ("fermat", "--kind", "mobius", "--h", "z1", "--n", "1"),
        ("fermat", "--kind", "cubic", "--h", "z1", "--n", "1"),
    ])
    def test_policy_defaults_are_the_ones_used(self, capsys, argv):
        text = help_text(capsys, argv[0])
        assert run_cli("--format", "machine", *argv) == 0
        used = json.loads(capsys.readouterr().out)["report"]["policy"]
        assert len(used) == 5
        for field, value in used.items():
            flag = "--" + field.replace("_", "-")
            shown = re.search(rf"{flag} \S+ [a-z -]+ \(default ([^)]*)\)", text).group(1)
            if ":" in shown:  # one default per --kind
                shown = dict(part.split(": ") for part in shown.split(", "))[argv[2]]
            assert float(shown) == value, field

    def test_construct_states_the_generated_term_bound(self, capsys):
        text = help_text(capsys, "construct")
        assert f"terms in the generated g part (default 2, 1 to {cli.MAX_GEN_TERMS})" in text

    def test_verify_names_the_file_policy_first(self, capsys):
        assert "A policy flag overrides the file's policy" in help_text(capsys, "verify")

    def test_order_defaults_are_the_ones_used(self, capsys):
        text = help_text(capsys, "order")
        assert run_cli("--format", "machine", "order", "exp(z1)", "--n", "1") == 0
        est = json.loads(capsys.readouterr().out)["estimate"]
        assert f"--directions DIRECTIONS directions per radius (default {est['directions']})" in text
        assert f"--seed SEED direction seed (default {est['seed']})" in text


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("nonsense") == 2

    def test_no_arguments(self):
        assert run_cli() == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_console_entry_point(self, fixtures_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "fermat_pdde", "verify", str(fixtures_dir / "example4.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "verdict: pass" in proc.stdout


_PI = 3.141592653589793

#: one loadable file per kind, and the fields each kind cannot do without
_KIND_FILES = {
    "fermat": {"n": 1, "kind": "fermat", "m1": 2, "f": "cos(z1)", "g": "sin(z1)"},
    "xc": {"n": 2, "kind": "xc", "m1": 2, "m2": 2, "c": [[_PI, 0], [_PI, 0]], "f": "sin(z1+z2)"},
    "xw": {"n": 2, "kind": "xw", "m1": 2, "m2": 2, "c": [[_PI, 0], [0, 0]], "f": "sin(z1)"},
    "equ1": {"n": 2, "kind": "equ1", "c": [[1, 0], [1, 0]], "f": "z1"},
    "equ2": {"n": 2, "kind": "equ2", "c": [[1, 0], [2, 0]], "f": "z1"},
    "fte": {"n": 2, "kind": "fte", "m1": 2, "c": [[1, 0], [0, 0]], "f": "z1", "phi": "1+z2"},
    "ftee": {"n": 3, "kind": "ftee", "m1": 2, "c": [[1, 0], [0, 0], [0, 0]], "f": "z1", "phi": "1+z3"},
    "fg": {
        "n": 2, "kind": "fg", "m1": 2, "m2": 1, "c": [[1, 0], [0, 0]],
        "f": "exp(z1)", "alpha": "1", "beta": "1+z2",
        "operator": [{"index": [1, 0], "coeff": "1"}, {"index": [0, 1], "coeff": "z1"}],
    },
}
_NEEDED = {
    "fermat": ("g", "m1"),
    "xc": ("c", "m1", "m2"),
    "xw": ("c", "m1", "m2"),
    "equ1": ("c",),
    "equ2": ("c",),
    "fte": ("c", "m1", "phi"),
    "ftee": ("c", "m1", "phi"),
    "fg": ("c", "m1", "m2", "operator", "alpha", "beta"),
}


class TestProblemFileLoader:
    @pytest.mark.parametrize("kind", sorted(_KIND_FILES))
    def test_every_kind_loads(self, tmp_path, kind):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_KIND_FILES[kind]))
        assert load_problem(path).problem.kind == kind

    @pytest.mark.parametrize("kind,field", [
        (kind, field) for kind in sorted(_NEEDED) for field in ("n", "kind", "f", *_NEEDED[kind])
    ])
    def test_missing_needed_field_is_malformed_input(self, tmp_path, capsys, kind, field):
        data = dict(_KIND_FILES[kind])
        del data[field]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ProblemFileError, match="^" + re.escape(f"{path}: ")):
            load_problem(path)
        assert run_cli("verify", str(path)) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("kind,field", [
        (kind, field) for kind in sorted(_NEEDED)
        for field in ("m2", "c", "alpha", "beta", "phi", "operator", "g")
        # equ1 and equ2 fix m2 = 1, so they read it
        if field not in _NEEDED[kind] and not (kind.startswith("equ") and field == "m2")
    ])
    def test_unread_field_is_malformed_input(self, tmp_path, capsys, kind, field):
        n = _KIND_FILES[kind]["n"]
        values = {"m2": 1, "c": [[1, 0]] * n, "operator": [{"index": [1] + [0] * (n - 1), "coeff": "1"}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**_KIND_FILES[kind], field: values.get(field, "2")}))
        assert run_cli("verify", str(path)) == 2
        assert f"kind {kind} does not read the field {field}" in capsys.readouterr().err

    def test_equ1_file_with_a_phi_is_malformed_input(self, tmp_path, capsys):
        # a solution of the equ1 equation, whose right side is 1: the phi
        # was ignored, and the file passed
        data = {"n": 2, "kind": "equ1", "c": [[2, 0], [1, 0]], "f": "2 - z1^2/4 + z1*z2 - 2*z2 - (z2-1)^2"}
        path = tmp_path / "equ1.json"
        path.write_text(json.dumps(data))
        assert run_cli("verify", str(path)) == 0
        path.write_text(json.dumps({**data, "phi": "z2^5"}))
        assert run_cli("verify", str(path)) == 2
        assert "kind equ1 does not read the field phi" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["equ1", "equ2"])
    def test_equ_kinds_default_their_powers(self, tmp_path, kind):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(_KIND_FILES[kind]))
        lp = load_problem(path)
        assert (lp.problem.m1, lp.problem.m2) == (2, 1)

    def test_loads_policy_and_status(self, fixtures_dir):
        lp = load_problem(fixtures_dir / "example2.json")
        assert lp.expected_status == "inconsistent"
        assert lp.policy.samples == 200
        assert lp.problem.kind == "fte"

    @pytest.mark.parametrize("f, message", [
        ("(" * 400 + "sin(z1+z2)" + ")" * 400, "nesting deeper than 200"),
        # parsed, then the derivative's Const(k) held an int no double holds
        ("z1^" + "9" * 400, "overflows a double"),
    ], ids=["nesting", "exponent"])
    def test_expression_past_the_parser_limits_is_malformed_input(self, tmp_path, capsys, f, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**_KIND_FILES["xc"], "f": f}))
        with pytest.raises(ProblemFileError, match=f"in field 'f': .*{message}"):
            load_problem(path)
        assert run_cli("verify", str(path)) == 2
        assert message in capsys.readouterr().err

    def test_integer_past_the_conversion_limit_is_malformed_json(self, tmp_path, capsys):
        # json.load raises a ValueError that is no JSONDecodeError
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**_KIND_FILES["fermat"], "n": 0}).replace('"n": 0', '"n": ' + "9" * 5000))
        with pytest.raises(ProblemFileError, match="^" + re.escape(f"{path}: invalid JSON: ")):
            load_problem(path)
        assert run_cli("verify", str(path)) == 2
        assert f"{path}: invalid JSON" in capsys.readouterr().err

    def test_bad_kind(self, tmp_path):
        f = tmp_path / "k.json"
        f.write_text(json.dumps({"n": 2, "kind": "weird", "m1": 2, "f": "z1"}))
        with pytest.raises(ProblemFileError):
            load_problem(f)

    def test_unhashable_kind(self, tmp_path):
        f = tmp_path / "k.json"
        f.write_text(json.dumps({**_KIND_FILES["fte"], "kind": ["fte"]}))
        with pytest.raises(ProblemFileError, match="unknown kind"):
            load_problem(f)

    @pytest.mark.parametrize("kind", sorted(_KIND_FILES))
    def test_malformed_operator_is_malformed_input(self, tmp_path, kind):
        # every field present is read, whether or not the kind uses it
        f = tmp_path / "op.json"
        f.write_text(json.dumps({**_KIND_FILES[kind], "operator": [{"index": [1, 0, 0, 0], "coeff": "1"}]}))
        with pytest.raises(ProblemFileError, match="does not have"):
            load_problem(f)

    def test_bad_complex_pair(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({
            "n": 2, "kind": "fte", "m1": 2, "c": [[1, 0], [0]], "f": "z1", "phi": "1",
        }))
        with pytest.raises(ProblemFileError):
            load_problem(f)

    def test_unknown_policy_key(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({
            "n": 2, "kind": "fte", "m1": 2, "c": [[1, 0], [0, 0]], "f": "z1", "phi": "1",
            "policy": {"points": 10},
        }))
        with pytest.raises(ProblemFileError):
            load_problem(f)

    def test_fg_operator_schema(self, tmp_path):
        f = tmp_path / "fg.json"
        f.write_text(json.dumps({
            "n": 2, "kind": "fg", "m1": 2, "m2": 1, "c": [[1, 0], [0, 0]],
            "f": "exp(z1)", "alpha": "1", "beta": "1+z2",
            "operator": [{"index": [1, 0], "coeff": "1"}, {"index": [0, 1], "coeff": "z1"}],
        }))
        lp = load_problem(f)
        assert lp.problem.operator is not None
        assert len(lp.problem.operator.coeffs) == 2

    def test_fg_exact_solution_verifies_end_to_end(self, tmp_path):
        f = tmp_path / "fg_exact.json"
        f.write_text(json.dumps({
            "n": 2, "kind": "fg", "m1": 1, "m2": 1, "c": [[1, 0], [0, 0]],
            "f": "z1^2", "alpha": "1", "beta": "4*z1+1",
            "operator": [{"index": [1, 0], "coeff": "1"}],
        }))
        assert run_cli("verify", str(f)) == 0

    def test_xc_sine_family_verifies_end_to_end(self, tmp_path):
        pi = 3.141592653589793
        f = tmp_path / "xc_sine.json"
        f.write_text(json.dumps({
            "n": 2, "kind": "xc", "m1": 2, "m2": 2, "c": [[pi, 0], [pi, 0]],
            "f": "sin(z1+z2)",
        }))
        assert run_cli("verify", str(f)) == 0
