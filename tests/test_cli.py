import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chevkern import cli
from chevkern.rings import TruncAlgebra, TruncElement
from chevkern.steinberg import TameSymbol


def run_main(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(args + ["--output", str(out)])
    return code, out.read_text()


def test_relations_suite_record_count(tmp_path):
    code, text = run_main(["relations", "--system", "A2", "--samples", "5",
                           "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    # 30 formal + 30 truncated commutator records + 6 additivity records
    assert payload["summary"] == {"total": 66, "failed": 0}
    assert payload["suite"] == "relations"
    assert all(r["status"] == "PASS" for r in payload["records"])


def test_all_suites_pass_and_are_deterministic(tmp_path):
    args = ["all", "--seed", "42", "--samples", "8", "--format", "json"]
    code1, text1 = run_main(args, tmp_path, "a.json")
    code2, text2 = run_main(args, tmp_path, "b.json")
    assert code1 == code2 == 0
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["summary"]["failed"] == 0
    assert payload["config"]["seed"] == 42
    assert set(payload["summary"]) == {"total", "failed"}
    assert set(payload) == {"version", "suite", "config", "records", "summary"}


def test_suite_streams_are_independent(tmp_path):
    # a suite run alone produces the same records as inside `all`
    code, alone = run_main(["units", "--seed", "7", "--format", "json"],
                           tmp_path, "alone.json")
    assert code == 0
    code, combined = run_main(["all", "--seed", "7", "--format", "json"],
                              tmp_path, "combined.json")
    assert code == 0
    alone_records = json.loads(alone)["records"]
    all_records = json.loads(combined)["records"]
    assert [r for r in all_records if "mod e^" in r["name"]
            and ("unit" in r["name"] or "factorization" in r["name"])] \
        == alone_records


def test_text_format_summary(tmp_path):
    code, text = run_main(["filtration", "--system", "C2", "--trunc", "3"],
                          tmp_path, "out.txt")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[-1].startswith("summary:")
    assert sum(1 for l in lines if l.startswith("PASS ")) > 0
    assert not any(l.startswith("FAIL ") for l in lines)


def test_derivations_input_file(tmp_path):
    problem = tmp_path / "cusp.txt"
    problem.write_text("base rational\nvars X Y\nrel X^3 - Y^2\n"
                       "point X=0 Y=0\npoint X=1 Y=1\n")
    code, text = run_main(["derivations", "--input", str(problem),
                           "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    dims = [r["detail"]["dim"] for r in payload["records"]
            if r["name"].startswith("derivations at")]
    assert dims == [2, 1]
    scan = [r for r in payload["records"] if r["name"] == "smoothness scan"]
    assert scan and scan[0]["detail"]["flagged"] == 1
    assert scan[0]["status"] == "PASS"  # a jump is a finding, not a failure


def test_number_ring_rigidity_record(tmp_path):
    problem = tmp_path / "ring.txt"
    problem.write_text("base numberring\ngen w : w^2 - 2\nvars X\n"
                       "rel X^2 - 2\npoint X=w\n")
    code, text = run_main(["derivations", "--input", str(problem),
                           "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    rig = [r for r in payload["records"] if r["name"] == "number ring rigidity"]
    assert rig and rig[0]["detail"]["rigid"] is True
    assert rig[0]["detail"]["derivative"] == "2*w"


def test_extensions_algebra_input(tmp_path):
    from chevkern.extensions import FinDimAlgebra

    table = tmp_path / "alg.txt"
    FinDimAlgebra.from_univariate_quotient([0, 0, -1, 1]).save(table)
    code, text = run_main(["extensions", "--input", str(table),
                           "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    rec = [r for r in payload["records"] if r["name"] == "decomposition of input"]
    assert rec and "K[e]/(e^2)" in rec[0]["detail"]["factors"]


def test_irrational_residue_field_is_reported_not_failed(tmp_path):
    from chevkern.extensions import FinDimAlgebra

    table = tmp_path / "alg.txt"
    FinDimAlgebra.from_univariate_quotient([-2, 0, 1]).save(table)
    code, text = run_main(["extensions", "--input", str(table),
                           "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    rec = [r for r in payload["records"] if r["name"] == "decomposition of input"]
    assert rec[0]["status"] == "PASS"
    assert rec[0]["detail"]["verdict"] == "irrational residue field"


@pytest.mark.parametrize("target", ["decompose_algebra", "reassemble"])
def test_extensions_self_check_error_is_a_fail_record(tmp_path, monkeypatch, target):
    def broken(*args):
        raise ArithmeticError("lifted idempotents are not orthogonal")

    monkeypatch.setattr(cli, target, broken)
    code, text = run_main(["extensions", "--format", "json"], tmp_path)
    assert code == 1
    records = json.loads(text)["records"]
    failed = [r for r in records if r["status"] == "FAIL"]
    # the two-generator algebra is not principal, so it never reaches reassemble
    expected = (["split quadratic", "mixed quartic", "pure truncation",
                 "two nilpotent generators"] if target == "decompose_algebra"
                else ["split quadratic", "mixed quartic", "pure truncation"])
    assert [r["name"] for r in failed] == ["decomposition of %s" % x for x in expected]
    assert all(r["detail"] == {"error": "ArithmeticError",
                               "message": "lifted idempotents are not orthogonal"}
               for r in failed)


REPO = Path(__file__).resolve().parent.parent

# sha256 of the reports, recorded from the seed code
PINNED_REPORTS = {
    ("all", "--seed", "42", "--format", "json"):
        "6174b8c8f994990ed45e71c0f9b7e298fbc0243ebbb15ad17812abc046ada68b",
    ("extensions", "--input", "data/algebra_mixed.txt", "--format", "json"):
        "8d2b4ec53f247b30fe4e691880fcf58072f112719bbccead814fd91216f7c3e8",
    ("extensions", "--input", "data/algebra_mixed.txt", "--format", "text"):
        "0a4adc6fc9f0f8f30f03c8262da51dfe17c881b551cfea30798723a95a4d1bd8",
    ("extensions", "--input", "data/algebra_two_generators.txt", "--format", "json"):
        "7079e6bfae6cc1606cc9f39871f636b479de9c2594d33cc18496657bd3373121",
    ("extensions", "--input", "data/algebra_two_generators.txt", "--format", "text"):
        "894e4f7587ffef3ebbd384d6b871fb304e65f2535ec66df68f5cd2f019f04f5a",
}


def test_pinned_report_digests(tmp_path, monkeypatch):
    # the report names its --input path, so run from the repository root
    monkeypatch.chdir(REPO)
    for args, expected in PINNED_REPORTS.items():
        out = tmp_path / "report"
        assert cli.main(list(args) + ["--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, args


def test_usage_errors():
    # argparse rejects these itself; test_exit_codes has the input errors
    with pytest.raises(SystemExit):
        cli.main(["all", "--input", "whatever.txt"])
    with pytest.raises(SystemExit):
        cli.main(["relations", "--trunc", "1"])
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])


def test_failures_flip_exit_code(tmp_path, monkeypatch):
    def broken(report, cfg, rng):
        report.add("forced failure", False, reason="injected")

    monkeypatch.setitem(cli.SUITE_RUNNERS, "units", broken)
    out = tmp_path / "fail.txt"
    assert cli.main(["units", "--output", str(out)]) == 1
    assert "FAIL forced failure" in out.read_text()


def test_units_suite_does_not_count_other_errors_as_pass(tmp_path, monkeypatch):
    # a non-unit's inverse must fail with NotAUnitError; any other error is
    # a fault of the program, not a passing check
    original = TruncElement.inverse

    def broken(x):
        if not x.is_unit():
            raise ZeroDivisionError("injected")
        return original(x)

    args = ["units", "--samples", "100", "--format", "text"]
    code, text = run_main(args, tmp_path, "ok.txt")
    assert code == 0
    assert "PASS unit criterion and inverses mod e^" in text
    monkeypatch.setattr(TruncElement, "inverse", broken)
    code, text = run_main(args, tmp_path, "broken.txt")
    assert code == 1
    assert ("FAIL unit criterion and inverses mod e^4 | error=ZeroDivisionError; "
            "message=injected; sample=") in text


def _fail_records(text):
    return [r for r in json.loads(text)["records"] if r["status"] == "FAIL"]


def test_relations_fault_is_a_fail_record_with_its_sample(tmp_path, monkeypatch):
    original = cli.verify_additivity

    def only_rational(model, alpha, s, t):
        # a fault that only truncated parameters expose
        return not isinstance(s, TruncElement) and original(model, alpha, s, t)

    monkeypatch.setattr(cli, "verify_additivity", only_rational)
    code, text = run_main(["relations", "--samples", "5", "--format", "json"], tmp_path)
    assert code == 1
    failed = _fail_records(text)
    assert len(failed) == 6  # one additivity record per root of A2
    for r in failed:
        assert r["name"].startswith("one-parameter additivity A2")
        (s, t) = r["detail"]["sample"]
        assert set(r["detail"]) == {"sample"} and "*e" in s and "*e" in t


def test_symbols_check_that_raises_is_a_fail_record(tmp_path, monkeypatch):
    def broken(model, alpha, u, v):
        raise ArithmeticError("injected")

    monkeypatch.setattr(cli, "symbol_is_central_kernel", broken)
    code, text = run_main(["symbols", "--samples", "5", "--format", "json"], tmp_path)
    assert code == 1
    failed = _fail_records(text)
    assert [r["name"].split(" (")[0] for r in failed] == ["symbol word collapses A2"] * 6
    assert all(r["detail"]["error"] == "ArithmeticError"
               and r["detail"]["message"] == "injected"
               and len(r["detail"]["sample"]) == 2 for r in failed)


def test_tame_symbol_fail_record_replays_its_sample(tmp_path, monkeypatch):
    original = TameSymbol.__call__

    def doubled(symbol, x, y):  # a fault that only a negative y exposes
        value = original(symbol, x, y)
        return value * 2 % symbol.p if Fraction(y) < 0 else value

    monkeypatch.setattr(TameSymbol, "__call__", doubled)
    code, text = run_main(["symbols", "--system", "A2", "--format", "json"], tmp_path)
    assert code == 1
    records = [r for r in json.loads(text)["records"] if r["name"].startswith("tame symbol")]
    assert all(("sample" in r["detail"]) == (r["status"] == "FAIL") for r in records)
    failed = {r["name"]: r["detail"]["sample"] for r in records if r["status"] == "FAIL"}
    replays = {
        "tame symbol p=5 relation multiplicative":
            lambda s, x, y, z: s(x, y * z) == s(x, y) * s(x, z) % s.p,
        "tame symbol p=5 derived left_one": lambda s, x: s(Fraction(1), x) == 1,
    }
    symbol = TameSymbol(5)
    for name, replay in replays.items():
        args = [Fraction(a) for a in failed[name]]
        assert [str(a) for a in args] == failed[name]
        assert replay(symbol, *args) is False  # the fault is still there


def test_units_fault_sample_replays(tmp_path, monkeypatch):
    original = TruncElement.inverse

    def wrong(x):  # a unit's inverse, off in its top coefficient
        return original(x) + x.algebra.eps(x.algebra.d - 1)

    monkeypatch.setattr(TruncElement, "inverse", wrong)
    code, text = run_main(["units", "--format", "json"], tmp_path)
    assert code == 1
    first = _fail_records(text)[0]
    assert first["name"] == "unit criterion and inverses mod e^4"
    (sample,) = first["detail"]["sample"]
    x = TruncAlgebra(4).parse(sample)
    assert str(x) == sample and x.is_unit()
    assert x * x.inverse() != x.algebra.one()  # the fault is still there
    monkeypatch.undo()
    assert x * x.inverse() == x.algebra.one()  # and it was the inverse


def test_units_self_check_error_is_a_fail_record(tmp_path, monkeypatch):
    def broken(u, x):
        raise ArithmeticError("factorization check failed")

    monkeypatch.setattr(cli, "factor_one_minus_ux", broken)
    code, text = run_main(["units", "--format", "json"], tmp_path)
    assert code == 1
    (failed,) = _fail_records(text)
    assert failed["name"] == "one-minus factorization mod e^4"
    assert failed["detail"]["error"] == "ArithmeticError"
    assert failed["detail"]["message"] == "factorization check failed"
    u, x = failed["detail"]["sample"]
    assert Fraction(u) != 0 and TruncAlgebra(4).parse(x).algebra.d == 4


def test_filtration_level_error_is_a_fail_record_not_a_usage_error(tmp_path, monkeypatch):
    def broken(g):
        raise ValueError("element is not congruent to the identity")

    monkeypatch.setattr(cli, "levi_decompose", broken)
    code, text = run_main(["filtration", "--format", "json"], tmp_path)
    assert code == 1
    (failed,) = _fail_records(text)
    assert failed["name"] == "constant-term splitting A2"
    assert failed["detail"]["error"] == "ValueError"
    assert len(failed["detail"]["sample"]) == 3  # the three root letters


def test_derivations_fault_is_a_fail_record_with_its_point(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "apply_derivation", lambda *args: Fraction(1))
    code, text = run_main(["derivations", "--format", "json"], tmp_path)
    assert code == 1
    failed = _fail_records(text)
    # the cusp has a nonzero tangent at every point
    assert [r["detail"] for r in failed] == [
        {"sample": [{"X": "0", "Y": "0"}]},
        {"sample": [{"X": "1", "Y": "1"}]},
        {"sample": [{"X": "4", "Y": "8"}]}]


def _broken_splitting(*args):
    raise ValueError("section is not a homomorphism")


def test_extensions_raise_is_a_suite_fail_record(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "product_splitting", _broken_splitting)
    code, text = run_main(["extensions", "--format", "json"], tmp_path)
    assert code == 1
    (failed,) = _fail_records(text)
    assert failed == {"name": "extensions suite", "status": "FAIL",
                      "detail": {"error": "ValueError",
                                 "message": "section is not a homomorphism"}}


def test_all_keeps_every_other_suite_after_a_fault(tmp_path, monkeypatch):
    args = ["all", "--samples", "5", "--format", "json"]
    code, clean = run_main(args, tmp_path, "clean.json")
    assert code == 0
    monkeypatch.setattr(cli, "product_splitting", _broken_splitting)
    code, text = run_main(args, tmp_path, "broken.json")
    assert code == 1
    names = [r["name"] for r in json.loads(text)["records"]]
    assert [r["name"] for r in _fail_records(text)] == ["extensions suite"]
    clean_names = [r["name"] for r in json.loads(clean)["records"]]
    # the extensions suite stops at the fault, every other record is kept
    cut = clean_names.index("obstruction blocks merged section")
    resume = clean_names.index("derivations at X=0 Y=0")
    assert names == clean_names[:cut] + ["extensions suite"] + clean_names[resume:]


@pytest.mark.parametrize("args, code", [
    (["relations", "--system", "G2"], 2),
    (["derivations", "--input", "/does/not/exist.txt"], 2),
    (["derivations", "--input", "OFF_VARIETY"], 2),
    (["symbols", "--prime", "4"], 2),
    (["units", "--system", "G2"], 0),
    (["relations", "--prime", "4"], 0),
    (["derivations", "--input", "NO_POINTS"], 2),
    # --input given to a suite that never reads it is a usage error
    (["relations", "--input", "/does/not/exist"], 2),
    (["symbols", "--input", "/does/not/exist"], 2),
    (["units", "--input", "/does/not/exist"], 2),
    (["filtration", "--input", "/does/not/exist"], 2),
    # a point that sets X twice on the cusp, where X=1 Y=1 alone lies
    (["derivations", "--input", "TWICE"], 2),
])
def test_exit_codes(tmp_path, args, code):
    problems = {"OFF_VARIETY": "point X=1 Y=2\n", "NO_POINTS": "",
                "TWICE": "point X=5 X=1 Y=1\n"}
    for name, points in problems.items():
        problem = tmp_path / name
        problem.write_text("base rational\nvars X Y\nrel X^3 - Y^2\n" + points)
        args = [str(problem) if a == name else a for a in args]
    try:
        got = cli.main(args + ["--samples", "3", "--output", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    assert got == code


def test_default_units_run_checks_a_non_unit(tmp_path, monkeypatch):
    # the default samples seldom have a zero constant coefficient, so the run
    # also inverts each sample's tail; an inverse that accepts it must fail
    original = TruncElement.inverse

    def lenient(x):
        return original(x) if x.is_unit() else x.algebra.one()

    monkeypatch.setattr(TruncElement, "inverse", lenient)
    assert cli.main(["units", "--seed", "0", "--output", str(tmp_path / "units.txt")]) == 1


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "chevkern", "units",
                           "--samples", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "summary:" in proc.stdout
