from types import ModuleType

import obrsk


def test_all_names_the_public_functions_and_classes_only():
    assert "term_order" in obrsk.__all__
    assert [name for name in obrsk.__all__ if isinstance(getattr(obrsk, name), ModuleType)] == []


def test_package_holds_one_memo_per_key(package_caches):
    # the package's memos, by name: a new lru_cache must update this pin on
    # purpose
    names = sorted(f"{cache.__module__}.{cache.__qualname__}" for cache in package_caches)
    assert names == [
        "obrsk.enumeration._duality_masks",
        "obrsk.grassmannian._half",
        "obrsk.grassmannian._id_poset",
        "obrsk.grassmannian._signed_chains",
        "obrsk.grassmannian.roots_of",
        "obrsk.ideal._beta_table",
        "obrsk.ideal._shifted_columns",
        "obrsk.ideal._slice_columns",
        "obrsk.polynomials.term_order",
    ]
    assert len(package_caches) == 9
