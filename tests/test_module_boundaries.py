"""Module boundaries: private names stay private, the bench tracer finds its names."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chevkern"


def private_imports(path: Path):
    """``file:line name`` for every private name imported from chevkern."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "chevkern":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append("%s:%d %s" % (path.name, node.lineno, alias.name))
    return found


def test_no_module_imports_a_sibling_private_name():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in private_imports(path)] == []


def test_bench_tracer_finds_every_name():
    # the benchmark's tracer patches chevkern names from outside; a rename in
    # src that it no longer finds raises here, and uninstall puts all back
    trace = pytest.importorskip("chevbench.trace")
    tracer = trace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.restored()


# Public names that nothing in src/ or chevbench/ calls, each kept on purpose.
UNCALLED_ALLOWED = {
    "RingHom": "public API: ring homomorphisms for users, tested in tests/test_rings.py",
    "expand_unit_product": "public API: expands a unit witness, tested in tests/test_rings.py",
    "validate_cocycle": "a correctness check users run on their own cocycles",
    "save": "public API: writes an algebra file that load reads back",
}


def _docstrings(tree):
    """ids of the docstring nodes of a module, its classes and its functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def name_uses(path: Path):
    """(name, line) for every identifier a file uses.

    Names, attributes and imported names count, and so do identifiers inside
    string constants other than docstrings (the bench tracer patches names
    given as strings).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _docstrings(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            uses.append((node.name.split(".")[-1], node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            uses.extend((word, node.lineno) for word in re.findall(r"[A-Za-z_]\w*", node.value))
    return uses


def uncalled_definitions():
    """``module.name`` for each function, class or method of src/chevkern that
    no file under src/ or chevbench/ uses outside the definition itself."""
    root = SRC.parent.parent
    files = sorted(SRC.glob("*.py")) + sorted((root / "chevbench").glob("*.py"))
    uses = {}  # name -> [(path, line)]
    for path in files:
        for name, line in name_uses(path):
            uses.setdefault(name, []).append((path, line))
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in uses.get(node.name, ())):
                found.append("%s.%s" % (path.stem, node.name))
    return sorted(found)


def test_no_definition_is_left_uncalled():
    # a name only its own tests reach is dead code; keep one only with a reason
    assert all(reason for reason in UNCALLED_ALLOWED.values())
    dead = [name for name in uncalled_definitions()
            if name.split(".")[-1] not in UNCALLED_ALLOWED]
    assert dead == []
