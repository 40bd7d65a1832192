"""Self-tests of the benchmark (smoke sizes, run in process).

    PYTHONPATH=src python3 -m pytest chevbench/test_chevbench.py -q

Run from the repository root: the workloads read the sample files under
``data/`` by relative path, as the benchmark does in a checkout.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chevbench import run, trace, worker, workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def repo_root(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(worker, "SPAN_DIR", tmp_path)


def _worker(capsys, name, *extra):
    assert worker.main(["--workload", name, "--seed", "5", "--seconds", "0",
                        "--smoke"] + list(extra)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _chevkern_namespaces():
    """Every module, class and dict the tracer may patch, with its contents."""
    from chevkern import cli

    spaces = [cli.SUITE_RUNNERS]
    for mod in trace._chevkern_modules():
        spaces.append(mod)
        spaces += [v for v in vars(mod).values()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
    return [(ns, dict(ns if isinstance(ns, dict) else vars(ns))) for ns in spaces]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric(capsys, name):
    plain = _worker(capsys, name)
    assert plain["failed"] == 0, plain["failures"]
    metrics = run.end_to_end(plain, [plain["setup_s"]])
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())

    before = _chevkern_namespaces()
    traced = _worker(capsys, name, "--trace")
    assert traced["failed"] == 0, traced["failures"]
    assert list(traced["layers"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(m["unit"] == units[k] for k, m in traced["layers"].items())
    # after the traced sweeps every patched name is the original object again
    for ns, snapshot in before:
        now = ns if isinstance(ns, dict) else vars(ns)
        assert set(now) == set(snapshot), ns
        assert all(now[k] is v for k, v in snapshot.items()), ns


def _layers(capsys, name):
    return {k: m["value"] for k, m in _worker(capsys, name, "--trace")["layers"].items()}


def test_structural_zeros(capsys):
    assert _layers(capsys, "commutator-sweep")["kernel.matinv.calls"] == 0
    assert _layers(capsys, "group-words")["kernel.multipoly.calls"] == 0
    algebra = _layers(capsys, "algebra-structures")
    chevalley_calls = {k: v for k, v in algebra.items()
                       if k.startswith("chevalley.") and k.endswith(".calls")}
    assert chevalley_calls and not any(chevalley_calls.values())


def _failed(ctx, make_checks):
    latencies, failures, _ = worker.run_sweep(make_checks(ctx, 5, smoke=True))
    return len(failures) / len(latencies)


def test_forged_structure_constant_fails():
    from chevkern.chevalley import StructureConstants

    ctx = workloads.setup_chevalley()
    assert _failed(ctx, workloads.commutator_sweep) == 0
    golden = ctx.golden["A2"]
    table = dict(golden.table)
    key = sorted(table)[0]
    table[key] = -table[key]
    ctx.golden["A2"] = StructureConstants(golden.kind, table)
    assert _failed(ctx, workloads.commutator_sweep) > 0


def test_wrong_expected_dimension_fails():
    ctx = workloads.setup_chevalley()
    assert _failed(ctx, workloads.group_words) == 0
    ctx.lie_dim["A2"] = 9
    assert _failed(ctx, workloads.group_words) > 0


def test_wrong_derivation_dimension_fails():
    from chevkern import derivations

    algebra, points = derivations.parse_problem(workloads._problem_text(
        "X^3 - Y^2", [(Fraction(4), Fraction(8)), (Fraction(0), Fraction(0))]))
    assert workloads._check_der(derivations, algebra, points[0], 1)
    assert workloads._check_der(derivations, algebra, points[1], 2)
    assert not workloads._check_der(derivations, algebra, points[0], 2)


def test_generators_are_seeded():
    from chevbench import gen

    a = [gen.trunc_coeffs(gen.stream(3, "x"), 4) for _ in range(3)]
    b = [gen.trunc_coeffs(gen.stream(3, "x"), 4) for _ in range(3)]
    assert a == b
    word = gen.reduced_word(gen.stream(3, "w"), 6, 12, gen.nonzero_rational)
    assert all(p[0] != q[0] for p, q in zip(word, word[1:]))
    points = gen.quotient_points(gen.stream(3, "q"), (2, 1, 1))
    assert gen.expand_monic(points)[-1] == 1 and len(gen.expand_monic(points)) == 5


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "group-words", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
