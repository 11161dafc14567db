"""One pass of each benchmark workload succeeds on the package as it stands.

perfbench/workloads.py calls the package through its public names and
checks every item against a recorded answer; a change to the package's API
or answers would otherwise show only when a benchmark run fails.  One
certify_pairs pass and one verify_d4 pass also run under the tracer, as a
traced benchmark pass does, so a change to what the tracer wraps or reads
shows here too.
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


def traced_pass(name):
    """One seed-1 pass of the workload under the tracer: its result and
    the tracer's per-layer metrics."""
    workloads, tracing = load("workloads"), load("tracing")
    workload = workloads.WORKLOADS[name](1)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        result = workload.run(lambda fn: tracer.wrap("item", fn))
    finally:
        tracer.restore()
    return result, tracing.layer_metrics(tracer, 1.0)


def test_a_traced_certify_pass_has_no_failed_item():
    result, metrics = traced_pass("certify_pairs")
    assert result.failed == 0, result.errors
    assert result.attempted == 639
    assert metrics["enumeration.candidates"] == metrics["enumeration.kept"] > 0
    assert metrics["correspondence.obrsk_calls"] > 0


def test_a_certify_item_checks_its_image_once(monkeypatch):
    # obrsk, the inverse, classify_sign and validate_skew_symmetric all read
    # the image's skew-symmetry verdict, which is computed once: one
    # semistandard check per item, of the item's image
    import obrsk.tableaux as tableaux

    semistandard = tableaux.validate_semistandard
    checked, per_item = [], []

    def counting(b):
        checked.append(b)
        return semistandard(b)

    def spy(item):
        def counted(family, p):
            checked.clear()
            image, ok = item(family, p)
            per_item.append(len(checked) == 1 and checked[0] is image)
            return image, ok

        return counted

    monkeypatch.setattr(tableaux, "validate_semistandard", counting)
    result = load("workloads").WORKLOADS["certify_pairs"](1).run(spy)
    assert result.failed == 0, result.errors
    assert len(per_item) == 635 and all(per_item)


def test_a_traced_verify_d4_pass_has_no_failed_item():
    # the tracer reads DegreeSlice's total and dim after each slice is
    # built; the sums over the 112 triples at degrees 1 to 3 are fixed
    result, metrics = traced_pass("verify_d4")
    assert result.failed == 0, result.errors
    assert result.attempted == 112
    assert (metrics["ideal.slice_cols"], metrics["ideal.slice_rank"]) == (9296, 6388)
