"""Every imported name is used: a static walk over the package, the tests
and the scripts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/edgegap", "tests", "scripts")
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
