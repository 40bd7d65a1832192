import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from chevkern import chevalley, cli, extensions, rootsys
from chevkern.chevalley import build_model, perfectness_witness
from chevkern.derivations import LOCAL_VAR
from chevkern.extensions import FinDimAlgebra, TracelessMatrices, killing_form
from chevkern.kernel import Matrix
from chevkern.rings import TruncAlgebra, TruncElement
from chevkern.rootsys import Root
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


def test_derivations_suite_computes_each_relative_dimension_once(tmp_path, monkeypatch):
    # the localization check compares with the dimension the suite's loop
    # already holds, so the problem algebra's der_dim runs once per point
    calls = []
    der_dim = cli.der_dim

    def counted(algebra, point, mode="relative"):
        calls.append((LOCAL_VAR in algebra.variables, mode, sorted(point.items())))
        return der_dim(algebra, point, mode)

    monkeypatch.setattr(cli, "der_dim", counted)
    code, _ = run_main(["derivations", "--format", "json"], tmp_path)
    assert code == 0
    on_problem = [point for local, _, point in calls if not local]
    assert [dict(p) for p in on_problem] == [
        {"X": 0, "Y": 0}, {"X": 1, "Y": 1}, {"X": 4, "Y": 8}]
    # X = 1 and X = 4 lift to the localization at X, in relative mode
    assert [(mode, dict(p)["X"]) for local, mode, p in calls if local] == [
        ("relative", 1), ("relative", 4)]


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


# sha256 of `extensions --system S --seed 7 --format json`, recorded while the
# central values of CocycleExtension were still Fraction tuples
EXTENSIONS_SEED_7 = {
    "A2": "14b3326f6e0d4bfbf09d235471d002372f38193d4565001445d8b9703bdc6e6d",
    "A3": "6757fac43758a80f3ebbadc7cb868b3c73384cf942c7f612d6be4d858dadb3a3",
    "C2": "6a54ce5cb6c80e9dd16dd333c29f861cbee1539e5b7253d1d1f70ce1d25e2714",
}


@pytest.mark.parametrize("system", sorted(EXTENSIONS_SEED_7))
def test_extensions_report_at_seed_7_is_pinned(system, tmp_path):
    out = tmp_path / "report"
    args = ["extensions", "--system", system, "--seed", "7", "--format", "json"]
    assert cli.main(args + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXTENSIONS_SEED_7[system]


# sha256 of reports that run exact elimination over Q, recorded while
# kernel.row_reduce still reduced Fraction rows with Fraction arithmetic
ELIMINATION_REPORTS = {
    ("filtration", "--system", "A2", "--seed", "7", "--trunc", "6", "--format", "json"):
        "02a992fb6e28dd4cc9105b0f5bf44c023f6b850582e3b391930cec8f3f1fd776",
    ("filtration", "--system", "A3", "--seed", "7", "--trunc", "6", "--format", "json"):
        "3f54f7c638bad54221be48465a115b3bed10e512135ca1c27d0b7513466bab5f",
    ("filtration", "--system", "C2", "--seed", "7", "--trunc", "6", "--format", "json"):
        "3d0cf660faaea46a74c81bb039867d64ce9a5697451f6b7fd8605ba7d5ea60d5",
    ("extensions", "--seed", "7", "--trunc", "9", "--format", "json"):
        "4508b6c425cae9359c2a9278f6a39741734e4b85baab34d0f1ee98cfd9455f19",
    ("derivations", "--input", "data/number_ring.txt", "--format", "json"):
        "fe404680e9933187faa268842dd83d8274255cedc158b79a106b165381dcd548",
    ("derivations", "--input", "data/cusp_curve.txt", "--format", "json"):
        "acf02d634d2b22dfb0ddcc76683533f788c18663ea66d2d325f8402ce092c322",
}


@pytest.mark.parametrize("args", sorted(ELIMINATION_REPORTS), ids=" ".join)
def test_elimination_report_is_pinned(args, tmp_path, monkeypatch):
    # the derivations reports name their --input path, so run from the repository root
    monkeypatch.chdir(REPO)
    out = tmp_path / "report"
    assert cli.main(list(args) + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ELIMINATION_REPORTS[args]


def test_report_does_not_depend_on_the_order_names_were_first_used(tmp_path):
    # a fresh interpreter gives the suites' variable names their polynomial
    # slots in reverse order before the run
    args = ("all", "--seed", "42", "--format", "json")
    out = tmp_path / "report"
    script = ("from chevkern import cli\n"
              "from chevkern.kernel import MultiPoly\n"
              "for name in reversed(('X', 'Y', 's', 't', 'w', 'Zloc')):\n"
              "    MultiPoly.variable(name)\n"
              "raise SystemExit(cli.main(%r))\n" % (list(args) + ["--output", str(out)]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPO, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[args]


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


def _first_fail(text, name):
    record = next(r for r in _fail_records(text) if r["name"] == name)
    assert set(record["detail"]) == {"sample"}
    return record["detail"]["sample"]


def _splits(model, letters):
    # the check behind "constant-term splitting": g = g0 * c with g0 over Q
    g = model.word(letters)
    g0, c = chevalley.levi_decompose(g)
    algebra = g.matrix.entries[0].algebra
    embedded = Matrix(g0.matrix.nrows, g0.matrix.ncols,
                      tuple(algebra.element([x]) for x in g0.matrix.entries))
    return embedded * c.matrix == g.matrix and model.check_membership(g0)


def test_constant_term_splitting_fail_record_replays_its_sample(tmp_path, monkeypatch):
    original = chevalley.levi_decompose

    def squared(g):  # a fault that only a constant part with a negative entry exposes
        g0, c = original(g)
        return (g0, c * c) if min(g0.matrix.entries) < 0 else (g0, c)

    for module in (chevalley, cli):
        monkeypatch.setattr(module, "levi_decompose", squared)
    code, text = run_main(["filtration", "--format", "json"], tmp_path)
    assert code == 1
    sample = _first_fail(text, "constant-term splitting A2")
    letters = tuple((Root(tuple(root)), TruncAlgebra(4).parse(t)) for root, t in sample)
    assert [[list(root.coords), str(t)] for root, t in letters] == sample
    model = build_model("A2")
    assert not _splits(model, letters)  # the fault is still there
    monkeypatch.undo()
    assert _splits(model, letters)


def test_root_element_commutator_fail_record_replays_its_sample(tmp_path, monkeypatch):
    original = chevalley.h_letters

    def tripled(alpha, u):  # a fault that only a negative root exposes
        negative = next(c for c in alpha.coords if c) < 0
        return original(alpha, 3 * u if negative else u)

    monkeypatch.setattr(chevalley, "h_letters", tripled)
    code, text = run_main(["filtration", "--format", "json"], tmp_path)
    assert code == 1
    sample = _first_fail(text, "root elements are commutators A2")
    alpha, r = Root(tuple(sample[0])), Fraction(sample[1])
    assert [list(alpha.coords), str(r)] == sample
    model = build_model("A2")
    assert not perfectness_witness(model, alpha, r).ok  # the fault is still there
    monkeypatch.undo()
    assert perfectness_witness(model, alpha, r).ok


def test_pairing_fail_record_replays_its_sample(tmp_path, monkeypatch):
    original = extensions.ad_matrix

    def doubled(lie, x):  # a fault that only an x with a negative first entry exposes
        ad = original(lie, x)
        return ad.scale(2) if x.entries[0] < 0 else ad

    monkeypatch.setattr(extensions, "ad_matrix", doubled)
    code, text = run_main(["extensions", "--format", "json"], tmp_path)
    assert code == 1
    sample = _first_fail(text, "pairing equals scaled trace form")
    x, y = (Matrix.from_rows([[Fraction(v) for v in row] for row in rows]) for rows in sample)
    assert [[[str(v) for v in row] for row in m.rows()] for m in (x, y)] == sample
    lie = TracelessMatrices(2)

    def pairs():
        return killing_form(lie, x, y) == 2 * lie.n * (x * y).trace()

    assert not pairs()  # the fault is still there
    monkeypatch.undo()
    assert pairs()


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
    # relations reads its constants off the letter tables of every system (b2 is C2)
    (["relations", "--system", "A4"], 0),
    (["all", "--system", "A4"], 0),
    (["relations", "--system", "b2"], 0),
    # A_l above rootsys.MAX_RANK = 8 is refused for every suite that builds a model
    (["symbols", "--system", "A9"], 2),
    (["filtration", "--system", "A9"], 2),
    (["relations", "--system", "A9"], 2),
    (["all", "--system", "A9"], 2),
    (["filtration", "--system", "A8"], 0),
    (["units", "--system", "A9"], 0),
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


def test_prime_above_the_limit_exits_2_fast(tmp_path):
    # 2147483659 is the next prime after MAX_PRIME = 2^31 - 1
    for suite in ("symbols", "all"):
        start = time.perf_counter()
        assert cli.main([suite, "--prime", "2147483659",
                         "--output", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 0.1


def test_rank_above_the_limit_exits_2_fast(tmp_path, capsys):
    # the rank is refused before any root is built, however large it is
    assert rootsys.MAX_RANK == 8
    for suite in ("relations", "symbols", "filtration", "all"):
        for system in ("A9", "A1000000"):
            start = time.perf_counter()
            code = cli.main([suite, "--system", system, "--output", str(tmp_path / "out")])
            assert time.perf_counter() - start < 0.1
            assert code == 2
            assert "supported systems are A2 to A8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_algebra_file_token_in_exponent_notation_exits_2_fast(tmp_path, capsys):
    # Fraction would expand 1e64001 to a 212607-bit integer and the run would pass
    table = tmp_path / "algebra.txt"
    FinDimAlgebra.truncated(2).save(table)
    table.write_text(table.read_text().replace("e*e = 0 0", "e*e = 1e64001 0"))
    start = time.perf_counter()
    assert cli.main(["extensions", "--input", str(table),
                     "--output", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 0.1
    assert "line 'e*e = 1e64001 0': '1e64001' is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_trunc_above_the_parser_limit_exits_2(tmp_path, capsys):
    # a sample printed mod e^65 reads back through TruncAlgebra(65).parse; mod e^66 not
    assert cli.MAX_TRUNC == 65
    with pytest.raises(SystemExit) as exc:
        cli.main(["relations", "--trunc", "66", "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--trunc must be from 2 to 65" in capsys.readouterr().err
    assert cli.main(["units", "--trunc", "65", "--samples", "1",
                     "--output", str(tmp_path / "out")]) == 0


def test_samples_above_the_limit_exits_2_fast(tmp_path, capsys):
    # every suite is linear in --samples; the limit is refused before any draw
    assert cli.MAX_SAMPLES == 1000
    assert "1 to 1000" in " ".join(cli.build_parser().format_help().split())
    for suite in ("symbols", "units", "all"):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main([suite, "--samples", "1001", "--output", str(tmp_path / "out")])
        assert time.perf_counter() - start < 0.1
        assert exc.value.code == 2
        assert "--samples must be from 1 to 1000" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["symbols", "--samples", "0", "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert cli.main(["symbols", "--samples", "1000",
                     "--output", str(tmp_path / "out")]) == 0


def test_extensions_input_with_two_numbers_on_its_dim_line_exits_2(tmp_path):
    lines = FinDimAlgebra.truncated(2).to_lines()
    algebra = tmp_path / "algebra.txt"
    algebra.write_text("\n".join(["dim 2 3"] + lines[1:]) + "\n")
    assert cli.main(["extensions", "--input", str(algebra), "--samples", "3",
                     "--output", str(tmp_path / "out")]) == 2


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
