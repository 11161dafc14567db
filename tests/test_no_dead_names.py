"""Every function, class, method and property of the package has a user
outside the tests, and every name a module of the package imports is used in
that module.

A name defined in src/obrsk must appear somewhere besides its definition: as
a name in the code of src, demos or perfbench, or as a string equal to it
(the benchmark tracer patches functions by name).  The re-exports of
__init__.py, any __all__ and the tests do not count: a name that only they
reach is API the library does not run, and a definition the tests need as a
reference belongs in tests/oracles.py.  Docstrings and comments that mention
a name do not count either.  An imported name must appear in its module
outside the import statements; __init__.py re-exports what it imports, and
an import marked "# noqa" is kept on purpose.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "obrsk"
SEARCHED = ("src", "demos", "perfbench")


def defined_names(tree):
    """Module-level functions and classes, and the methods and properties of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name


def name_uses(source, skipped_lines=frozenset()):
    """How often each identifier occurs as a NAME token or as a whole string
    literal in the source, outside the skipped lines."""
    uses = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start[0] in skipped_lines:
            continue
        if tok.type == tokenize.NAME:
            uses[tok.string] += 1
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                continue
            if isinstance(value, str) and value.isidentifier():
                uses[value] += 1
    return uses


def lines_of(tree, kind):
    """The line numbers spanned by every node of the tree that kind accepts."""
    return {line for node in ast.walk(tree) if kind(node) for line in range(node.lineno, node.end_lineno + 1)}


def is_import(node):
    return isinstance(node, (ast.Import, ast.ImportFrom))


def is_all_assignment(node):
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def test_every_defined_name_is_used_somewhere_else():
    uses = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = path.read_text()
            tree = ast.parse(source)
            skipped = lines_of(tree, is_all_assignment)
            if path == PACKAGE / "__init__.py":
                skipped |= lines_of(tree, is_import)
            uses.update(name_uses(source, skipped))
    definitions = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in defined_names(ast.parse(path.read_text())):
            # dunders are called by the interpreter, not by name
            if not (name.startswith("__") and name.endswith("__")):
                definitions[name] += 1
    dead = sorted(name for name, n in definitions.items() if uses[name] <= n)
    assert dead == [], f"defined in src/obrsk but used nowhere outside the tests: {dead}"


def imported_names(tree, lines):
    """(name, line) for each name an import binds, except __future__
    features and imports whose line is marked "# noqa"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if is_import(node):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    yield (alias.asname or alias.name).split(".")[0], alias.lineno


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        uses = name_uses(source, lines_of(tree, is_import))
        for name, line in imported_names(tree, source.splitlines()):
            if not uses[name]:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == [], f"imported in src/obrsk but never used there: {unused}"
