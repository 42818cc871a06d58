"""Smoke test of the benchmark: every workload, briefly, untraced and traced.

    python -m pytest perfbench/tests

Each run is one cycle of the workload's ops with one set-up child, so
the whole file takes about half a minute.  Every op must agree with its
known answer, no op may raise, and each run must report exactly the
metrics BENCHMARK.json names.  The structural counts of a traced run
must repeat exactly when the same seed runs again.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from procs import WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
STRUCTURAL = ("expr.tree_nodes", "expr.distinct_nodes", "tape.instructions",
              "backends.eval_calls", "tape.tapes_per_verdict")


@pytest.fixture(autouse=True)
def one_setup_child(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def short_run(workload, trace, seed=7):
    _, report, result = run.run_benchmark(workload, seed, 0.0, trace)
    return report, result


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in BENCH["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct(workload):
    report, result = short_run(workload, trace=False)
    assert report["wrong_verdicts"] == 0
    assert report["error_rate"] == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    report, result = short_run(workload, trace=True)
    assert report["wrong_verdicts"] == 0
    assert report["error_rate"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("workload", ("corpus", "fg-ladder", "bulk-sample"))
def test_structural_counts_repeat_exactly(workload):
    first = short_run(workload, trace=True)[1]["metrics"]
    second = short_run(workload, trace=True)[1]["metrics"]
    for name in STRUCTURAL:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name
