"""Rules about the library source itself."""

import ast
import pathlib

import popdiff

SRC = pathlib.Path(popdiff.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes;
    # library checks raise a PopdiffError instead
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
