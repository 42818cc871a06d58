"""What a fresh interpreter imports, the package namespace it sees, and how
a `python -m fermat_pdde` process ends.

A one-shot `verify` or `order` process pays for every module it imports,
so the package resolves most names on first access, and it skips the
interpreter's teardown.  These tests run in fresh interpreters: the test
process has imported every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the modules a command on a wp-free target needs not load
OPTIONAL = {"fermat_pdde.construct", "fermat_pdde.periodic", "fermat_pdde.elliptic"}

#: every name `from fermat_pdde import *` bound when the package imported
#: each of its modules at start, submodules included
EXPORTED = [
    "Const", "ConstructionError", "DimensionError", "EllipticContext", "EstimationError",
    "EvalError", "Expr", "GrowthEstimate", "LinearPDOperator", "LoadedProblem",
    "PDDEError", "PDDEProblem", "ParseError", "PeriodicSpec",
    "PoleHitError", "ProblemFileError", "ProblemSpecError", "SamplingPolicy", "T1Params",
    "T2Params", "Var", "VerificationReport", "apply_linear_operator", "backends",
    "check_residual", "construct", "construct_cor1", "construct_cor1_m3_control",
    "construct_cor2", "construct_fermat_pair", "construct_legacy_xw", "construct_t1",
    "construct_t2", "default_backend", "default_context", "difference",
    "directional_derivative", "elliptic", "errors", "estimate_order", "eval_batch", "expr",
    "half_periods", "load_problem", "make_periodic", "make_polynomial_quasi_periodic",
    "make_quasi_periodic", "operators", "parse", "parser", "partial", "periodic",
    "problemfile", "residual", "sample_points", "scale_terms", "shift", "tape", "to_string",
    "variables", "verify", "verify_problem",
]


def fresh(code: str, *argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter in the checkout, with its src first on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *argv], input=stdin, capture_output=True,
                          text=True, env=env, cwd=SRC.parent, timeout=120)


#: runs one CLI command as `python -m fermat_pdde` does, then prints its
#: exit code and the fermat_pdde modules loaded, as one JSON line
_CLI = """
import contextlib, io, json, sys
import fermat_pdde.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fermat_pdde.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(m for m in sys.modules if m.startswith("fermat_pdde"))}))
"""


def run_command(*argv: str) -> dict:
    proc = fresh(_CLI, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ("verify", "fixtures/example4.json"),
    ("--format", "machine", "verify", "fixtures/example1.json", "fixtures/bad_poly.json"),
    ("order", "fixtures/example4.json"),
    ("order", "exp(z1+z2)*z1", "--n", "2"),
])
def test_verify_and_order_import_no_constructor_and_no_elliptic(argv):
    out = run_command(*argv)
    assert out["code"] in (0, 1)
    assert "fermat_pdde.cli" in out["modules"]
    assert not OPTIONAL & set(out["modules"])


def test_order_refuses_wp_without_loading_elliptic():
    # the refusal comes before any point is evaluated
    out = run_command("order", "wp(z1+1)", "--n", "1", "--radii", "0.3,0.4")
    assert out["code"] == 1
    assert "fermat_pdde.verify" in out["modules"]
    assert "fermat_pdde.elliptic" not in out["modules"]


@pytest.mark.parametrize("argv, loads", [
    (("fermat", "--kind", "cubic", "--h", "z1", "--n", "1"), OPTIONAL),
    (("construct", "--theorem", "t1-ii", "--c", "0,pi*i,pi*i"),
     {"fermat_pdde.construct", "fermat_pdde.periodic"}),
])
def test_commands_that_need_them_load_them(argv, loads):
    out = run_command(*argv)
    assert out["code"] == 0
    assert loads <= set(out["modules"])


def test_import_loads_the_core_only():
    proc = fresh("import sys, fermat_pdde; print(sorted(m for m in sys.modules if m.startswith('fermat_pdde')))")
    assert proc.returncode == 0, proc.stderr
    assert eval(proc.stdout) == ["fermat_pdde", "fermat_pdde.backends", "fermat_pdde.errors",
                                 "fermat_pdde.expr", "fermat_pdde.tape"]


def test_every_exported_name_resolves():
    code = """
import json, types
import fermat_pdde as p
listed = set(dir(p))
got = {name: getattr(p, name) for name in json.loads(input())}
ns = {}
exec("from fermat_pdde import *", ns)
ns.pop("__builtins__")
print(json.dumps({
    "in_dir": sorted(listed & set(got)),
    "all": sorted(p.__all__),
    "star": sorted(ns),
    "same": sorted(k for k, v in got.items() if ns.get(k) is v),
    "modules": sorted(k for k, v in got.items() if isinstance(v, types.ModuleType)),
}))
"""
    proc = fresh(code, stdin=json.dumps(EXPORTED))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    names = sorted(EXPORTED)
    assert out["in_dir"] == out["all"] == out["star"] == out["same"] == names
    assert out["modules"] == ["backends", "construct", "elliptic", "errors", "expr", "operators",
                              "parser", "periodic", "problemfile", "tape", "verify"]


def test_unknown_name_is_an_attribute_error():
    proc = fresh("import fermat_pdde\ntry:\n    fermat_pdde.no_such_name\n"
                 "except AttributeError as err:\n    print(err)")
    assert proc.stdout.strip() == "module 'fermat_pdde' has no attribute 'no_such_name'"


def module_env() -> dict:
    """The environment of a `python -m fermat_pdde` child: stdout block-buffered, as in a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return env


def test_module_entry_point_flushes_everything_before_it_exits(capsys):
    from fermat_pdde.cli import main

    paths = sorted(str(p.relative_to(SRC.parent)) for p in (SRC.parent / "fixtures").glob("*.json"))
    argv = ["--format", "machine", "verify", *paths, "no_such_file.json"]
    proc = subprocess.run([sys.executable, "-m", "fermat_pdde", *argv], capture_output=True,
                          text=True, env=module_env(), cwd=SRC.parent, timeout=120)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err) == (2, out, err)
    assert len(out.splitlines()) == 8 and err.startswith("error: no_such_file.json")


def test_a_reader_that_goes_away_ends_the_batch_quietly():
    paths = [str(p.relative_to(SRC.parent)) for p in (SRC.parent / "fixtures").glob("example4.json")] * 40
    proc = subprocess.Popen([sys.executable, "-m", "fermat_pdde", "--format", "machine", "verify", *paths],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(), cwd=SRC.parent)
    assert json.loads(proc.stdout.readline())["report"]["verdict"] == "pass"
    proc.stdout.close()  # as `| head -1` does
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


#: the fg section of the pipeline record at the sizes CI runs
_BENCH_FG = """
import json, sys
sys.path.insert(0, "benchmarks")
import bench_pipeline as bench
json.dump(bench.fg_rung(bench.QUICK.fg, bench.QUICK.fg_repeats), sys.stdout, allow_nan=False)
"""


def test_bench_fg_rung_at_quick_sizes():
    # fresh, because the intern entries the residual adds depend on the
    # nodes the process holds already: the test process holds many
    proc = fresh(_BENCH_FG)
    assert proc.returncode == 0, proc.stderr

    def not_strict(name):
        raise ValueError(f"{name} is not strict JSON")

    rows = json.loads(proc.stdout, parse_constant=not_strict)
    assert [row["n"] for row in rows] == [3, 12]
    counts = {k: rows[1][k] for k in ("distinct_nodes", "instructions", "slots", "intern_entries")}
    assert counts == {"distinct_nodes": 98, "instructions": 91, "slots": 40, "intern_entries": 47}
    assert all(v["min"] > 0 for row in rows for v in row["ms"].values())
