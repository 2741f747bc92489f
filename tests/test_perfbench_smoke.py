"""Every benchmark workload runs at smoke size with every op and oracle passing.

The benchmark (`perfbench/`, workloads named in BENCHMARK.json) drives the CLI
and `operator.weyl_defect` in-process and checks each op's output with its
oracle.  One untimed smoke run per workload here makes a change that breaks
an op or an oracle's expectation fail the test suite, not only a later
benchmark run.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))  # the harness imports its siblings by bare name
    try:
        import harness

        yield harness
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_op(harness, workload):
    result, detail = harness.measure(workload, 7, 0, False, smoke=True)
    assert detail["failures"] == [] and detail["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
