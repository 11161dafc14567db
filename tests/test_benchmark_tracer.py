"""The benchmark's tracer still finds every name it patches.

perfbench/tracing.py replaces package functions by name for a traced pass;
a refactor that drops or renames one of them would otherwise fail only when
a traced benchmark run starts.
"""

import importlib.util
from pathlib import Path

import obrsk.grassmannian as grassmannian
import obrsk.ideal as ideal

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    # a class attribute as stored, so a function is not turned into a method
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_patches_existing_names_and_restore_puts_back_the_originals():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # a missing name raises here
        patches = list(tracer._patches)
        patched = {(owner, attr) for owner, attr, _ in patches}
        assert (ideal, "is_quotient_monomial") in patched
        assert (grassmannian, "enumerate_extended_chains") in patched
        for owner, attr, original in patches:
            assert current(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert current(owner, attr) is original, (owner, attr)
