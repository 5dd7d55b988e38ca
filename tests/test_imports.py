"""Every module of the package, the tests and the demos uses each name it imports,
every name the package defines has a reader outside the tests, and only the
command line writes CSV.

``__init__.py`` files are exempt from the first check, since their imports are
the package's re-exports, and so are ``from __future__`` imports, which bind no
name.  A top-level ``def``, ``class`` or assignment of a package module has a
reader when some other statement of the package, a demo or the benchmark
(``bench/``) names it, or when ``seeco/__init__.py`` exports it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for pattern in ("src/seeco/*.py", "tests/*.py", "demos/*.py")
                 for path in ROOT.glob(pattern) if path.name != "__init__.py")
PACKAGE = sorted(ROOT.glob("src/seeco/*.py"))
READERS = sorted(path for pattern in ("demos/*.py", "bench/*.py") for path in ROOT.glob(pattern))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_there_are_modules():
    assert any(path.parent.name == "seeco" for path in MODULES)
    assert any(path.parent.name == "tests" for path in MODULES)
    assert any(path.parent.name == "demos" for path in MODULES)
    assert ROOT / "src/seeco/__init__.py" in PACKAGE
    assert any(path.parent.name == "bench" for path in READERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_only_the_cli_imports_csv():
    # the CLI writes every report; the decoder, the GA and the rest do no CSV I/O
    importers = []
    for path in sorted(ROOT.glob("src/seeco/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "csv" for m in modules):
                importers.append(path.name)
    assert importers == ["cli.py"]


def defined_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each name a top-level ``def``, ``class`` or assignment binds, with its statement."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(name.id, node) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return names


def referenced_names(node: ast.AST) -> set[str]:
    """Every name ``node`` reads, reaches as an attribute or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


@pytest.mark.parametrize("path", [path for path in PACKAGE
                                  if path.name not in ("__init__.py", "__main__.py")],
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_every_defined_name_has_a_reader(path):
    trees = {other: ast.parse(other.read_text(), filename=str(other))
             for other in PACKAGE + READERS}
    # the package's __init__ is one of the other modules, so its exports count
    read_elsewhere = set().union(*(referenced_names(tree) for other, tree in trees.items()
                                   if other != path))
    tree = trees[path]
    unread = [f"{name} (line {node.lineno})" for name, node in defined_names(tree)
              if name not in read_elsewhere
              and not any(name in referenced_names(other) for other in tree.body
                          if other is not node)]
    assert not unread, f"{path.name} defines names that only the tests read: {', '.join(unread)}"
