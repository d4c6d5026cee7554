"""No public function or method exists only for tests to call, and no
error type exists that nothing handles.

Every public top-level function, class and upper-case constant in
``src/blogwatch`` must be referenced by the program itself or by the
benchmark (``pipebench/``), outside its own definition. So must every
public method of a public class there, through an attribute (``x.name``)
outside the method itself. Names that only tests use belong in the
tests. Every ``BlogwatchError`` subclass must be named in an ``except``
clause in ``src/``: a type that nothing reacts to is one more way for
the same failure to look different.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blogwatch"
CALLER_DIRS = (ROOT / "src", ROOT / "pipebench")


def _definition_names(stmt) -> list:
    """Names a top-level statement defines: a function, a class or an
    upper-case constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]


def _uses(stmt) -> set:
    """Names a statement refers to: variables, attributes and imports."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_definition_has_a_program_caller():
    # (file, names the top-level statement defines, names it uses)
    statements = []
    for path in (p for d in CALLER_DIRS for p in sorted(d.rglob("*.py"))):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path, _definition_names(stmt), _uses(stmt)))

    unused = []
    for i, (path, names, _used) in enumerate(statements):
        public = [n for n in names if path.parent == PACKAGE and not n.startswith("_")]
        for name in public:
            if not any(name in used for j, (_, _, used) in enumerate(statements) if j != i):
                unused.append(f"{path.name}:{name}")
    assert unused == [], f"public names only tests use: {unused}"


def test_every_public_method_has_a_program_caller():
    methods = []     # (file, class name, method name, first line, last line)
    attributes = []  # (file, line, attribute name)
    for path in (p for d in CALLER_DIRS for p in sorted(d.rglob("*.py"))):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.append((path, node.lineno, node.attr))
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                methods += [(path, cls.name, fn.name, fn.lineno, fn.end_lineno)
                            for fn in cls.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]

    unused = [f"{path.name}:{cls}.{name}" for path, cls, name, first, last in methods
              if not any(attr == name and not (where == path and first <= line <= last)
                         for where, line, attr in attributes)]
    assert unused == [], f"public methods only tests call: {unused}"


def test_every_error_type_is_handled_in_the_program():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    family = {"BlogwatchError"}   # the base and its subclasses, in file order
    for stmt in errors.body:
        if isinstance(stmt, ast.ClassDef) and \
                any(isinstance(b, ast.Name) and b.id in family for b in stmt.bases):
            family.add(stmt.name)
    defined = family - {"BlogwatchError"}
    handled = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                handled |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert defined, "no BlogwatchError subclass found"
    assert sorted(defined - handled) == [], "error types no except clause names"
