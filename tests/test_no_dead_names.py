"""Every function, class, method and property of the package has a user
outside the tests, and every name a module of the package imports is used in
that module.

A function or class defined in src/obrsk must appear somewhere besides its
definition: as a name in the code of src, demos or perfbench, or as a string
equal to it (the benchmark tracer patches functions by name).  A method or
property must appear as an attribute, right after a dot, or as such a string:
a local variable or a function of the same name does not keep it alive.  Two
classes' members of one name still keep each other alive.  The re-exports of
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
    """(name, is_member) for each module-level function and class, and each
    method and property of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, True


def name_uses(source, skipped_lines=frozenset()):
    """How often each identifier occurs in the source, outside the skipped
    lines, as a NAME token, as a NAME token right after a dot, and as a whole
    string literal: three Counters."""
    names, attributes, strings = Counter(), Counter(), Counter()
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start[0] in skipped_lines or tok.type in (tokenize.NL, tokenize.COMMENT):
            continue
        if tok.type == tokenize.NAME:
            names[tok.string] += 1
            if previous is not None and previous.exact_type == tokenize.DOT:
                attributes[tok.string] += 1
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                value = None
            if isinstance(value, str) and value.isidentifier():
                strings[value] += 1
        previous = tok
    return names, attributes, strings


def dead_names(package_sources, searched_sources):
    """The names defined in package_sources, the sources of the package's
    modules, that searched_sources, pairs (source, lines to skip), never use
    by the rules of the module docstring, sorted."""
    names, attributes, strings = Counter(), Counter(), Counter()
    for source, skipped in searched_sources:
        for total, part in zip((names, attributes, strings), name_uses(source, skipped)):
            total.update(part)
    functions, members = Counter(), Counter()
    for source in package_sources:
        for name, is_member in defined_names(ast.parse(source)):
            # dunders are called by the interpreter, not by name
            if not (name.startswith("__") and name.endswith("__")):
                (members if is_member else functions)[name] += 1
    # each definition is a NAME token of its own, never an attribute
    definitions = functions + members
    dead = {name for name in functions if names[name] + strings[name] <= definitions[name]}
    dead.update(name for name in members if not attributes[name] + strings[name])
    return sorted(dead)


def lines_of(tree, kind):
    """The line numbers spanned by every node of the tree that kind accepts."""
    return {line for node in ast.walk(tree) if kind(node) for line in range(node.lineno, node.end_lineno + 1)}


def is_import(node):
    return isinstance(node, (ast.Import, ast.ImportFrom))


def is_all_assignment(node):
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def test_every_defined_name_is_used_somewhere_else():
    searched = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = path.read_text()
            tree = ast.parse(source)
            skipped = lines_of(tree, is_all_assignment)
            if path == PACKAGE / "__init__.py":
                skipped |= lines_of(tree, is_import)
            searched.append((source, skipped))
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    dead = dead_names(package, searched)
    assert dead == [], f"defined in src/obrsk but used nowhere outside the tests: {dead}"


def test_a_method_is_used_only_as_an_attribute_or_a_string():
    package = [
        "class A:\n    def entries(self):\n        pass\n\n    def shape(self):\n        pass\n\n"
        "    def rows(self):\n        pass\n\n\ndef helper():\n    pass\n"
    ]
    # a local variable and a function called entries, a call of A().shape,
    # and rows patched by name; helper is used by its bare name
    user = "def entries(a):\n    entries = a\n    return A().shape(), helper(), entries\n\nPATCHED = 'rows'\n"
    searched = [(package[0], frozenset()), (user, frozenset())]
    assert dead_names(package, searched) == ["entries"]
    searched.append(("A().entries()\n", frozenset()))
    assert dead_names(package, searched) == []


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
        names = name_uses(source, lines_of(tree, is_import))[0]
        for name, line in imported_names(tree, source.splitlines()):
            if not names[name]:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == [], f"imported in src/obrsk but never used there: {unused}"
