"""Every function, class, method and property of the package has a user.

A name defined in src/obrsk must appear somewhere besides its definition: as
a name in the code of src, tests, demos or perfbench, or as a string equal
to it (the benchmark tracer patches functions by name).  Docstrings and
comments that mention a name do not count as uses.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "obrsk"
SEARCHED = ("src", "tests", "demos", "perfbench")


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


def name_uses(source):
    """How often each identifier occurs as a NAME token or as a whole string
    literal in the source."""
    uses = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
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


def test_every_defined_name_is_used_somewhere_else():
    uses = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            uses.update(name_uses(path.read_text()))
    definitions = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in defined_names(ast.parse(path.read_text())):
            # dunders are called by the interpreter, not by name
            if not (name.startswith("__") and name.endswith("__")):
                definitions[name] += 1
    dead = sorted(name for name, n in definitions.items() if uses[name] <= n)
    assert dead == [], f"defined in src/obrsk but used nowhere: {dead}"
