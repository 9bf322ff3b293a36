"""Static walks over the sources: every imported name is used, and every
optional parameter of the package is set by some caller outside the
tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/edgegap", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py"))
PACKAGE = sorted((ROOT / "src/edgegap").glob("*.py"))
CALLERS = PACKAGE + sorted(p for d in ("scripts", "perfbench")
                           for p in (ROOT / d).glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each name an import binds that the module never
    references; names listed in __all__ count as referenced."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names
                      if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_walk_flags_an_unused_import():
    tree = ast.parse("import os\nimport a.b\nfrom c import d as e, f\n"
                     "__all__ = ['f']\nos.sep\n")
    assert unused_imports(tree) == [(2, "a"), (3, "e")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for line, name in unused_imports(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _defaulted(node) -> list:
    """(position, name) of each parameter of the function node that has a
    default, position None for a keyword-only one."""
    args = node.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(pos) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs,
                                             args.kw_defaults)
               if d is not None])


def _optional_parameters(tree: ast.Module) -> list:
    """(line, function, parameter, position) of every parameter with a
    default of the functions and methods in tree.  position is the index
    of the call argument that sets it (self and cls not counted), None
    for a keyword-only one; a class's __init__ is called by the class's
    name."""
    found = []
    for scope in ast.walk(tree):
        body = getattr(scope, "body", ())
        for node in body if isinstance(body, list) else ():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(scope, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            name = (scope.name if method and node.name == "__init__"
                    else node.name)
            found += [(node.lineno, name, arg,
                       None if i is None else i - method)
                      for i, arg in _defaulted(node)]
    return found


def _arguments(tree: ast.Module) -> list:
    """(callee, key, source) of every argument of every call in tree.
    key is the keyword, the position, or "*" for a ** mapping, which may
    set any parameter; a starred argument counts as one positional
    argument, since its length is not known here.  source is (function,
    parameter) when the value is an optional parameter of the enclosing
    function passed on unchanged, else None."""
    found = []

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = {arg: node.name for _, arg in _defaulted(node)}
        if isinstance(node, ast.Call):
            f = node.func
            callee = getattr(f, "id", None) or getattr(f, "attr", None)

            def source(value):
                if isinstance(value, ast.Name) and value.id in params:
                    return params[value.id], value.id
                return None

            for i, a in enumerate(node.args):
                found.append((callee, i, source(a)))
            for kw in node.keywords:
                found.append((callee, kw.arg or "*", source(kw.value)))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, {})
    return found


def options_without_a_caller(defining, calling) -> list:
    """(label, line, function, parameter) of each optional parameter of
    the labelled trees `defining` that no call in the trees `calling`
    sets.  A call matches a function by name alone, whatever object it
    is made on.  A parameter a function only passes on to another counts
    as set only if the function's own parameter is: the walk repeats
    until nothing changes, so a chain of pass-throughs with no caller at
    its head is flagged whole."""
    options = [(label, *opt) for label, tree in defining
               for opt in _optional_parameters(tree)]
    calls = [arg for tree in calling for arg in _arguments(tree)]
    flagged = {(fn, param) for _, _, fn, param, _ in options}
    while True:
        setters = [(callee, key) for callee, key, src in calls
                   if src is None or src not in flagged]
        still = {(fn, param) for _, _, fn, param, pos in options
                 if not any(callee == fn and key in (param, pos, "*")
                            for callee, key in setters)}
        if still == flagged:
            break
        flagged = still
    return [(label, line, fn, param) for label, line, fn, param, _ in options
            if (fn, param) in flagged]


def test_walk_flags_an_option_no_call_sets():
    # f's c, and g's d and e and h's e that only pass it on, have no
    # caller; h's z is passed on from p's q, which has one
    tree = ast.parse(
        "def f(a, b=1, *, c=2):\n    return g(a, d=c)\n"
        "def g(a, d=0, e=0):\n    return h(a, e)\n"
        "def h(a, e=0, z=0):\n    pass\n"
        "def p(q=0):\n    return h(1, z=q)\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, w=0):\n        pass\n"
        "f(1, 2)\np(q=1)\nK(*[3])\nK().m(**{})\n")
    assert options_without_a_caller([("t", tree)], [tree]) == [
        ("t", 1, "f", "c"), ("t", 3, "g", "d"), ("t", 3, "g", "e"),
        ("t", 5, "h", "e")]


def test_every_optional_parameter_has_a_caller():
    # a parameter that every caller leaves at its default is a constant
    found = options_without_a_caller(
        [(path.name, ast.parse(path.read_text(encoding="utf-8")))
         for path in PACKAGE],
        [ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS])
    assert [f"{label}:{line}: {fn}({param})"
            for label, line, fn, param in found] == []
