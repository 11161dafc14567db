import ast

from mutants import MUTANTS, ROOT


def test_each_mutant_changes_one_place_and_names_a_test_that_exists():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.anchor != mutant.replacement, mutant.name
        assert (ROOT / mutant.file).read_text().count(mutant.anchor) == 1, mutant.name
        path, test = mutant.killer.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert test in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, mutant.name
