"""The package surface that the benchmark harness in ``bench/`` relies on.

The harness wraps functions by ``(module, name)`` and primes caches through
public calls; a renamed or deleted function would break the benchmark while
every other test still passes.
"""

import importlib
import sys
from pathlib import Path

import pytest

from mabkcert import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_function_resolves_in_the_package():
    missing = [
        f"{module}.{name}"
        for module, name in tracing.TRACED
        if not callable(
            getattr(importlib.import_module(f"mabkcert.{module}"), name, None)
        )
    ]
    assert missing == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_primes(name):
    workloads.WORKLOADS[name](tiny=True).prime(1)


def test_theorem1_runs_the_traced_correlator(capsys):
    # correlators.ghz_expectation is theorem1's kernel, so the traced name
    # that correlators.expectation_calls counts does real work
    with tracing.instrumented(tracing.Tracer()) as tracer:
        code = cli.main(["theorem1", "--n", "4", "--trials", "10"])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    assert any(s.name == "correlators.ghz_expectation" for s in tracer.spans)
