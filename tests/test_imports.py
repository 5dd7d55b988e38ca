"""Every module of the package, the tests and the demos uses each name it imports,
and only the command line writes CSV.

``__init__.py`` files are exempt from the first check, since their imports are
the package's re-exports, and so are ``from __future__`` imports, which bind no
name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for pattern in ("src/seeco/*.py", "tests/*.py", "demos/*.py")
                 for path in ROOT.glob(pattern) if path.name != "__init__.py")


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
