import ast
import glob
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "graphsync")
MODULES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))


def test_package_modules_are_found():
    assert "revisions.py" in map(os.path.basename, MODULES)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_check_vanishes_under_optimize(path):
    """`python -O` strips `assert` statements, so every check in the
    package raises explicitly."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"assert at lines {found}"


def _imported_names(tree):
    """(name, line) for each name an import binds, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    """An import that nothing reads is dead code; a name the package
    re-exports is listed in `__all__`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"unused imports: {unused}"
