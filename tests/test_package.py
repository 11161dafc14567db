from types import ModuleType

import obrsk


def test_all_names_the_public_functions_and_classes_only():
    assert "term_order" in obrsk.__all__
    assert [name for name in obrsk.__all__ if isinstance(getattr(obrsk, name), ModuleType)] == []
