"""Module boundaries: private names stay private, the bench tracer finds its names."""

import ast
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
