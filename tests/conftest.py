import importlib
import pkgutil

import pytest

import obrsk
from obrsk.fixture import FIXTURE_BITABLEAU, FIXTURE_PAIR, FIXTURE_STEPS


@pytest.fixture
def worked_pair():
    return FIXTURE_PAIR


@pytest.fixture
def worked_bitableau():
    return FIXTURE_BITABLEAU


@pytest.fixture
def worked_steps():
    return FIXTURE_STEPS


@pytest.fixture
def package_caches():
    """Every lru_cache on the modules of the package, cleared before and
    after the test, so the test starts cold and leaves no entry behind."""
    caches = set()
    for info in pkgutil.iter_modules(obrsk.__path__):
        module = importlib.import_module(f"obrsk.{info.name}")
        caches.update(v for v in vars(module).values() if callable(getattr(v, "cache_clear", None)))
    for cache in caches:
        cache.cache_clear()
    yield caches
    for cache in caches:
        cache.cache_clear()
