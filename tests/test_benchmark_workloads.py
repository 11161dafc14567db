"""One pass of each benchmark workload succeeds on the package as it stands.

perfbench/workloads.py calls the package through its public names and
checks every item against a recorded answer; a change to the package's API
or answers would otherwise show only when a benchmark run fails.  One
certify_pairs pass also runs under the tracer, as a traced benchmark pass
does.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, attempted", [("verify_d4", 112), ("verify_d5", 16), ("certify_pairs", 639)])
def test_one_pass_of_each_workload_has_no_failed_item(name, attempted):
    result = load("workloads").WORKLOADS[name](1).run()
    assert result.failed == 0, result.errors
    assert result.attempted == attempted


def test_a_traced_certify_pass_has_no_failed_item():
    workloads, tracing = load("workloads"), load("tracing")
    workload = workloads.WORKLOADS["certify_pairs"](1)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        result = workload.run(lambda fn: tracer.wrap("item", fn))
    finally:
        tracer.restore()
    assert result.failed == 0, result.errors
    assert result.attempted == 639
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["enumeration.candidates"] == metrics["enumeration.kept"] > 0
    assert metrics["correspondence.obrsk_calls"] > 0
