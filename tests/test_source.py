"""Rules about the library source itself."""

import ast
import pathlib
import sys

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


def test_library_imports_only_stdlib_and_numpy():
    # no new dependencies: every import, nested ones included, is from the
    # standard library, numpy or popdiff itself
    allowed = set(sys.stdlib_module_names) | {"numpy", "popdiff"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []
