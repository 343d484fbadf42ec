"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mabkcert import npa  # noqa: E402


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_layer_metrics_are_the_ones_the_code_computes():
    declared = [(m["name"], m["unit"], m["better"]) for m in _declared("per_layer")]
    assert declared == tracing.metric_names()
    assert [w["name"] for w in _declared("workloads")] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(workload, trace, kind):
    proc = _bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in _declared(kind)}


@pytest.mark.parametrize(
    "workload,table,key,wrong",
    [
        ("npa-certify", workloads.NPA_BOUND, True, 1.5),
        ("even-honest", workloads.HONEST_MAXIMUM, 4, 1.0),
    ],
)
def test_wrong_expected_value_trips_the_gate(
    workload, table, key, wrong, monkeypatch, capsys
):
    monkeypatch.setitem(table, key, wrong)
    monkeypatch.setattr(sys, "path", list(sys.path))
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--tiny"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_reproduce_gate_rejects_a_passing_classical_bound_verdict():
    verdicts = [{"claim": f"claim {i}", "pass": True} for i in range(35)]
    verdicts.append(
        {"claim": workloads.EXPECTED_FAILURE, "pass": True, "observed": 1.0}
    )
    outcome = workloads.ReproduceFast().check(
        (workloads.REPRODUCE_EXIT, json.dumps({"verdicts": verdicts}))
    )
    failed = [claim for claim, ok in outcome.checks if not ok]
    assert failed == [f"{workloads.EXPECTED_FAILURE}: fails with observed sqrt(2)"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(
        "--workload", "even-honest", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_see_calls_made_through_names_imported_elsewhere():
    original = npa.solve
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert npa.solve is not original
        npa.npa_upper_bound(2, True)
    assert npa.solve is original
    names = [s.name for s in tracer.spans]
    assert names.count("sdp.solve") == 1 and "mabk.mabk_expression" in names
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["sdp.iterations.l2-pc"] > 0
    assert metrics["npa.reduced_size.l2-pc"] == 29


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, None),
        tracing.Span("cli.cmd_npa", 1.0, 9.0, 0),
        tracing.Span("mabk.mabk_expression", 2.0, 3.0, 1),
        tracing.Span("mabk.mabk_expression", 2.2, 2.8, 2),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(9.0)
    assert metrics["cli.npa_s"] == pytest.approx(8.0)
    assert metrics["mabk.expression_calls"] == 2
    assert metrics["mabk.expression_s"] == pytest.approx(1.0)
    assert metrics["mabk.self_s"] == pytest.approx(1.0)
