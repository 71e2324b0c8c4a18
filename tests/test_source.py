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
