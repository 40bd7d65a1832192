"""Module boundaries: private names stay private, the bench tracer finds its names,
and no definition, stored field or import is left unused."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chevkern"
# the files whose uses count: the package and the benchmark that drives it
SCANNED = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "chevbench").glob("*.py"))


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


# Public names that nothing in src/ or chevbench/ calls, each kept on purpose,
# keyed ``module.name`` as uncalled_definitions() reports them.
UNCALLED_ALLOWED = {
    "rings.expand_unit_product": "acceptance criterion 4 (tests/test_acceptance.py) expands "
                                 "a unit witness with it",
    "extensions.validate_cocycle": "the check users run on their own cocycles before "
                                   "extending by them",
    "extensions.save": "FinDimAlgebra.save writes the algebra table files that --input and "
                       "FinDimAlgebra.load read",
    "steinberg.valuation": "TameSymbol's public v_p, the first half of what _split returns; "
                           "the formula oracle and the Broken symbol of "
                           "tests/test_steinberg.py call it",
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


def definitions():
    """``module.name`` for each function, class or method of src/chevkern."""
    return {"%s.%s" % (path.stem, node.name)
            for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def uncalled_definitions():
    """``module.name`` for each function, class or method of src/chevkern that
    no file under src/ or chevbench/ uses outside the definition itself."""
    uses = {}  # name -> [(path, line)]
    for path in SCANNED:
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
    # a stale entry would hide the next definition that takes its name
    assert sorted(set(UNCALLED_ALLOWED) - definitions()) == []
    assert [name for name in uncalled_definitions() if name not in UNCALLED_ALLOWED] == []


# Stored fields that nothing in src/ or chevbench/ reads, each kept on purpose.
FIELDS_ALLOWED = {
    "CommutatorCheck.lhs": "the commutator a caller inspects when ok is False; no extra work",
    "CommutatorCheck.rhs": "the formula word a caller inspects when ok is False; no extra work",
    "SymbolCheck.evaluated": "the symbol's value a caller inspects when ok is False; "
                             "no extra work",
    "LocalFactor.idempotent": "the sympy CRT-idempotent oracle in tests/test_extensions.py "
                              "reads it",
    "SingularMatrixError.determinant": "the error's payload, pinned by tests/test_kernel.py "
                                       "and tests/test_rings.py",
    "OneMinusFactorization.v": "part of the certificate 1 - ux = scalar * (1 + v * delta)",
    "UnitWitness.delta": "part of the certificate target = 1 + sum_k s_k delta^k",
}


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def stored_fields(path: Path):
    """``Class.field`` for each dataclass annotation and each ``self.x`` that
    ``__init__`` assigns, in the classes of one file."""
    found = set()
    for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and _is_dataclass(cls)):
                found.add("%s.%s" % (cls.name, stmt.target.id))
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                found.update("%s.%s" % (cls.name, node.attr) for node in ast.walk(stmt)
                             if isinstance(node, ast.Attribute)
                             and isinstance(node.ctx, ast.Store)
                             and isinstance(node.value, ast.Name) and node.value.id == "self")
    return found


def unread_fields():
    """The stored fields of src/chevkern whose name no file under src/ or
    chevbench/ loads as an attribute (keywords and strings are not reads)."""
    reads = set()
    for path in SCANNED:
        reads.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    fields = set().union(*(stored_fields(path) for path in SRC.glob("*.py")))
    return sorted(f for f in fields if f.split(".")[1] not in reads)


def test_no_stored_field_is_left_unread():
    # state no caller reads is dead weight; keep a field only with a reason
    assert all(reason for reason in FIELDS_ALLOWED.values())
    fields = set().union(*(stored_fields(path) for path in SRC.glob("*.py")))
    assert sorted(set(FIELDS_ALLOWED) - fields) == []
    assert [f for f in unread_fields() if f not in FIELDS_ALLOWED] == []


def unused_imports(path: Path):
    """``file:line name`` for every name a module imports but never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    return found


def test_no_unused_import():
    paths = sorted(SRC.glob("*.py"))
    assert [hit for path in paths for hit in unused_imports(path)] == []
