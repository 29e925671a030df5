"""Rules about the library source itself."""

import ast
import importlib
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


def test_guard_refusals_are_built_only_in_errors():
    # every "<formula> = <estimate> exceeds guard <limit>" refusal comes from
    # errors.too_large, so its form is written once
    found = [f"{path.relative_to(SRC)}:{i}" for path in sorted(SRC.rglob("*.py")) if path.name != "errors.py"
             for i, line in enumerate(path.read_text().splitlines(), 1) if "exceeds guard" in line]
    assert found == []


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps each (module, qualname) in TARGETS through
    # vars(owner)[attr]; a library change that drops one breaks every traced
    # benchmark run, so tier-1 reads the list (without importing the tracer)
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    assert targets
    missing = []
    for module_name, qualname in targets:
        owner = importlib.import_module(f"popdiff.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = vars(owner).get(part)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def test_numpy_random_only_in_the_zero_half_redraw():
    # numpy.random costs about 13 ms to import; every seeded draw reads PCG64
    # through popdiff._pcg64, and only _affine_membership's redraw of a
    # generator that met a zero half constructs numpy's own
    def is_numpy_random(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.random") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("numpy.random") or module == "numpy" and any(a.name == "random" for a in node.names)
        return False

    allowed, found = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        redraw = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and path.name == "counterexample.py" and fn.name == "_affine_membership"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if is_numpy_random(node):
                (allowed if id(node) in redraw else found).append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
    assert allowed  # the redraw itself is still found, so the scan sees what it looks for


def test_library_calls_no_blas():
    """popdiff reads none of numpy's BLAS entry points (linalg, dot, matmul,
    tensordot, vdot, inner, as functions or ndarray methods), which is why the
    CLI starts OpenBLAS on one thread; and popdiff/__init__.py imports
    nothing, so cli.py sets OPENBLAS_NUM_THREADS before numpy loads. `@` on
    float arrays also reaches BLAS, but which operands are float cannot be
    pinned statically: every `@` in the library is on int64 arrays."""
    blas = {"linalg", "dot", "matmul", "tensordot", "vdot", "inner"}

    def reads_blas(node):
        if isinstance(node, ast.Attribute):
            return node.attr in blas
        if isinstance(node, ast.Import):
            return any(alias.name.startswith("numpy.linalg") for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return module.startswith("numpy.linalg") or module == "numpy" and any(a.name in blas for a in node.names)
        return False

    probe = "import numpy.linalg\nfrom numpy import matmul\nnp.linalg.solve(a, b)\nx.dot(y)\n"
    assert sum(map(reads_blas, ast.walk(ast.parse(probe)))) == 4  # the scan sees each form it looks for
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path))) if reads_blas(node)]
    assert found == []
    init = ast.parse((SRC / "__init__.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(init))
