"""Every function, class, module-level constant, method, property and
annotated class field of the package has a user outside the tests, and
every name a module of the package imports is used in that module.

A function, class or module-level constant (a name assigned at the top of a
module, __all__ aside) defined in src/obrsk must appear somewhere besides
its definition: as a name in the code of src, demos or perfbench, or as a string
equal to it (the benchmark tracer patches functions by name).  A method,
property or annotated field must appear as an attribute, right after a dot,
or as such a string, and that use must be able to reach its class: a local
variable or a function of the same name does not keep it alive, and neither
does a member of the same name of another class.  A use reaches the class
its receiver is known to be: the class of self (or cls) in a method, a
class named directly or called, a local name bound once to such a
receiver, or the class annotated on a field of a known receiver (so
self.order.format_mono reaches TermOrder, the class annotated on
SparsePoly.order).  A receiver the test cannot place, and a string, reach
every class of their own module and of the package modules it imports from.
The re-exports of __init__.py, any __all__ and the tests do not count: a
name that only they reach is API the library does not run, and a definition
the tests need as a reference belongs in tests/oracles.py.  Docstrings and
comments that mention a name do not count either.  An imported name must
appear in its module outside the import statements; __init__.py re-exports
what it imports, and an import marked "# noqa" is kept on purpose.
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
    """(name, owner) for each module-level function, class and constant,
    owner None, and for each method, property and annotated field of those
    classes, owner its class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, None
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    yield target.id, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, node.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.target.id, node.name


def name_uses(source, skipped_lines=frozenset()):
    """How often each identifier occurs in the source, outside the skipped
    lines, as a NAME token and as a whole string literal: two Counters."""
    names, strings = Counter(), Counter()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.start[0] in skipped_lines or tok.type in (tokenize.NL, tokenize.COMMENT):
            continue
        if tok.type == tokenize.NAME:
            names[tok.string] += 1
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                value = None
            if isinstance(value, str) and value.isidentifier():
                strings[value] += 1
    return names, strings


class Package:
    """The classes of the package's modules, {module: source}: where each
    is defined, the annotated class of each of their fields, and their
    members by name."""

    def __init__(self, sources):
        self.trees = {module: ast.parse(source) for module, source in sources.items()}
        self.module_of = {}  # a top-level name of a module -> that module
        self.fields = {}  # (class, field) -> the class annotated on it
        self.owners = {}  # member name -> the classes defining it
        for module, tree in self.trees.items():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    self.module_of[node.name] = module
            for name, owner in defined_names(tree):
                if owner is not None and not (name.startswith("__") and name.endswith("__")):
                    self.owners.setdefault(name, set()).add(owner)
        bodies = [node for tree in self.trees.values() for node in tree.body if isinstance(node, ast.ClassDef)]
        self.classes = {node.name for node in bodies}
        for node in bodies:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    named = {n.id for n in ast.walk(item.annotation) if isinstance(n, ast.Name)} & self.classes
                    if len(named) == 1:
                        self.fields[node.name, item.target.id] = named.pop()

    def reach(self, tree, module):
        """The classes a receiver the test cannot place may be: those of the
        module itself and of the package modules it imports from."""
        modules = {module}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("obrsk")):
                inner = (node.module or "").removeprefix("obrsk").lstrip(".")
                if inner:
                    modules.add(inner)
                else:
                    modules.update(self.module_of.get(a.name, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                modules.update(a.name.removeprefix("obrsk.") for a in node.names if a.name.startswith("obrsk."))
        return {cls for cls in self.classes if self.module_of[cls] in modules}


def single_bindings(scope, klass=None):
    """{name: value} for each name that the scope's own body, nested
    functions and classes left out, binds exactly once, by a plain
    assignment; in a method, self (or cls) is bound to its class."""
    stores, assigns, todo = Counter(), [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] += 1
        elif isinstance(node, ast.arg):
            stores[node.arg] += 1
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            assigns.append(node)
        todo.extend(ast.iter_child_nodes(node))
    bound = {node.targets[0].id: node.value for node in assigns if stores[node.targets[0].id] == 1}
    args = getattr(scope, "args", None)
    first = (args.posonlyargs + args.args)[:1] if args else []
    static = any(getattr(d, "id", None) == "staticmethod" for d in getattr(scope, "decorator_list", ()))
    if klass and first and not static:
        bound[first[0].arg] = ast.Name(klass)
    return bound


class Receivers(ast.NodeVisitor):
    """Each .name use of a member of the package in one searched module,
    with the classes it can reach."""

    def __init__(self, package, reach, skipped, tree):
        self.package, self.reach, self.skipped = package, reach, skipped
        self.uses = []  # (member name, classes it can reach)
        self.bindings = single_bindings(tree)  # of the innermost function, or the module
        self.klass = None  # the class whose body is being visited

    def visit_ClassDef(self, node):
        outer, self.klass = self.klass, node.name
        self.generic_visit(node)
        self.klass = outer

    def visit_FunctionDef(self, node):
        outer = self.bindings, self.klass
        self.bindings, self.klass = single_bindings(node, self.klass), None
        self.generic_visit(node)
        self.bindings, self.klass = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def classes_of(self, node, depth=0):
        """The classes the value of node is known to be, or None."""
        if depth > 8:
            return None
        if isinstance(node, ast.Name):
            if node.id in self.package.classes:
                return {node.id}
            value = self.bindings.get(node.id)
            return None if value is None else self.classes_of(value, depth + 1)
        if isinstance(node, ast.Call):
            return self.classes_of(node.func, depth + 1)
        if isinstance(node, ast.Attribute):
            if node.attr in self.package.classes:
                return {node.attr}
            owners = self.classes_of(node.value, depth + 1)
            fields = {self.package.fields.get((owner, node.attr)) for owner in owners or ()}
            if owners and None not in fields:
                return fields
        return None

    def visit_Attribute(self, node):
        if node.lineno not in self.skipped and node.attr in self.package.owners:
            known = self.classes_of(node.value)
            self.uses.append((node.attr, self.reach if known is None else known))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value in self.package.owners and node.lineno not in self.skipped:
            self.uses.append((node.value, self.reach))


def dead_names(package_sources, searched_sources):
    """The names defined in package_sources, {module: source}, that
    searched_sources, triples (module, source, lines to skip), never use by
    the rules of the module docstring, sorted; a member as Class.name."""
    package = Package(package_sources)
    names, strings = Counter(), Counter()
    used = set()  # (class, member)
    for module, source, skipped in searched_sources:
        for total, part in zip((names, strings), name_uses(source, skipped)):
            total.update(part)
        tree = ast.parse(source)
        receivers = Receivers(package, package.reach(tree, module), skipped, tree)
        receivers.visit(tree)
        used.update((cls, name) for name, classes in receivers.uses for cls in classes)
    functions, dead = Counter(), set()
    for tree in package.trees.values():
        for name, owner in defined_names(tree):
            if owner is None:
                functions[name] += 1
            # dunders are called by the interpreter, not by name
            elif not (name.startswith("__") and name.endswith("__")) and (owner, name) not in used:
                dead.add(f"{owner}.{name}")
    # each definition is a NAME token of its own
    definitions = functions + Counter(name for name in package.owners for _ in package.owners[name])
    dead.update(name for name in functions if names[name] + strings[name] <= definitions[name])
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
            module = path.stem if path.parent == PACKAGE else str(path.relative_to(ROOT))
            searched.append((module, source, skipped))
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    dead = dead_names(package, searched)
    assert dead == [], f"defined in src/obrsk but used nowhere outside the tests: {dead}"


def test_a_method_is_used_only_as_an_attribute_or_a_string():
    package = {
        "a": "class A:\n    def entries(self):\n        pass\n\n    def shape(self):\n        pass\n\n"
        "    def rows(self):\n        pass\n\n\ndef helper():\n    pass\n"
    }
    # a local variable and a function called entries, a call of A().shape,
    # and rows patched by name; helper is used by its bare name
    user = (
        "from obrsk.a import A, helper\n\n\ndef entries(a):\n    entries = a\n"
        "    return A().shape(), helper(), entries\n\nPATCHED = 'rows'\n"
    )
    searched = [("a", package["a"], frozenset()), ("user", user, frozenset())]
    assert dead_names(package, searched) == ["A.entries"]
    searched.append(("other", "from obrsk.a import A\n\nA().entries()\n", frozenset()))
    assert dead_names(package, searched) == []


def test_a_method_is_used_only_where_its_class_can_be_reached():
    # A and B share two member names.  part.shape() reaches A, as part is
    # bound once to a field annotated A, and x.width(), whose receiver is
    # unknown, reaches only the classes of the module the user imports from,
    # so neither keeps B's members alive, as any .shape or .width once did
    package = {
        "a": "class A:\n    def shape(self):\n        pass\n\n    def width(self):\n        pass\n",
        "b": "from .a import A\n\n\nclass B:\n    part: A\n\n    def shape(self):\n"
        "        part = self.part\n        return part.shape()\n\n    def width(self):\n        pass\n",
    }
    user = "from obrsk.a import A\n\n\ndef f(x):\n    return x.width()\n"
    searched = [(module, source, frozenset()) for module, source in package.items()]
    searched.append(("user", user, frozenset()))
    assert dead_names(package, searched) == ["B", "B.shape", "B.width"]
    # a called B, and a string where b is imported
    searched.append(("more", "from obrsk.b import B\n\nB().width()\nPATCHED = 'shape'\n", frozenset()))
    assert dead_names(package, searched) == []


def test_an_annotated_field_is_a_member_of_its_class():
    # A's fields count as its members: kind is read through a receiver of
    # class A, count is not read at all
    package = {"a": "class A:\n    kind: int\n    count: int\n"}
    user = "from obrsk.a import A\n\nA(1, 2).kind\n"
    searched = [("a", package["a"], frozenset()), ("user", user, frozenset())]
    assert dead_names(package, searched) == ["A.count"]


def test_a_module_constant_is_a_name_of_its_module():
    # a module-level assignment defines a name: LIMIT is read elsewhere,
    # UNUSED is not, and __all__ is not a constant of the module
    package = {"a": "LIMIT = 3\nUNUSED = 4\n__all__ = []\n"}
    user = "from obrsk.a import LIMIT\n\nprint(LIMIT)\n"
    searched = [("a", package["a"], frozenset()), ("user", user, frozenset())]
    assert dead_names(package, searched) == ["UNUSED"]


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
