"""The four benchmark workloads.

A workload is a ``setup`` function, which imports chevkern and builds what
every check needs (the paid-once part a user also pays once), and a
``checks`` function, which draws the workload's inputs from the seed and
returns the fixed list of checks.  A check is one call into a public
verifying function of chevkern that yields one exact verdict; its ``run``
returns True exactly when the verdict equals the known answer.

Checks reach chevkern through module attributes (``chevalley.verify_commutator``
rather than a name imported into this file), so that the tracer's wrappers
see the calls the benchmark makes as well as those chevkern makes itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from . import gen

SYSTEMS = ("A2", "A3", "C2")
# dimension of the Lie algebra of each model: sl3, sl4 and sp4
LIE_DIM = {"A2": 8, "A3": 15, "C2": 10}
GOLDEN_REPORTS = Path(__file__).with_name("golden_reports.json")


class Context(SimpleNamespace):
    """What a workload's set-up built, plus the known answers its checks use."""

    def systems(self, smoke: bool = False):
        return SYSTEMS[:1] if smoke else SYSTEMS


@dataclass
class Check:
    kind: str  # what is checked, e.g. "verify_commutator"
    part: str  # which part of the workload it belongs to
    run: Callable[[], bool]


# ---------------------------------------------------------------------------
# commutator-sweep: structure constants and the Chevalley commutator formula

def setup_chevalley():
    from chevkern import chevalley, kernel, rings, steinberg  # noqa: F401

    return Context(models={k: chevalley.build_model(k) for k in SYSTEMS},
                   golden={k: chevalley.load_structure_constants(k) for k in SYSTEMS},
                   lie_dim=dict(LIE_DIM))


def commutator_sweep(ctx, seed: int, smoke: bool = False) -> list:
    """Criterion 1 plus the relations suite's sampled pairs.

    Over Q[s,t] and over (Q[u..])[e]/(e^2) the constants are re-inferred and
    must equal the golden table; over (Q[u..])[e]/(e^d), d = 2, 3, 4, every
    root is additive and every ordered pair satisfies the commutator formula
    with generic parameters; then every pair once more with seeded rational
    elements of Q[e]/(e^4).  The smoke size keeps A2, one inference and d = 2.
    """
    from chevkern import chevalley, kernel, rings

    rng = gen.stream(seed, "commutator-sweep")
    checks = []
    for kind in ctx.systems(smoke):
        model, golden = ctx.models[kind], ctx.golden[kind]
        checks.append(Check("infer_constants", "infer", lambda m=model, g=golden:
                            chevalley.infer_structure_constants(m) == g))
        if not smoke:
            checks.append(Check("infer_constants", "infer", lambda m=model, g=golden:
                                chevalley.infer_structure_constants(
                                    m, rings.TruncAlgebra(2, kernel.PolyDomain())) == g))
        pairs = chevalley.ordered_root_pairs(model.system)
        for d in (2,) if smoke else (2, 3, 4):
            ring = rings.TruncAlgebra(d, kernel.PolyDomain())
            s, t = ring.generic("s"), ring.generic("t")
            for alpha in model.system.roots:
                checks.append(Check("verify_additivity", "symbolic",
                                    lambda m=model, a=alpha, s=s, t=t:
                                    chevalley.verify_additivity(m, a, s, t) is True))
            for alpha, beta in pairs:
                checks.append(Check("verify_commutator", "symbolic",
                                    lambda m=model, a=alpha, b=beta, s=s, t=t, g=golden:
                                    chevalley.verify_commutator(m, a, b, s, t, g).ok is True))
        algebra = rings.TruncAlgebra(4)
        for alpha, beta in pairs:
            sc, tc = gen.trunc_coeffs(rng, 4), gen.trunc_coeffs(rng, 4)
            checks.append(Check("verify_commutator", "rational",
                                lambda m=model, a=alpha, b=beta, sc=sc, tc=tc, g=golden:
                                chevalley.verify_commutator(
                                    m, a, b, algebra.element(sc), algebra.element(tc),
                                    g).ok is True))
    return checks


# ---------------------------------------------------------------------------
# group-words: symbols, words, inverses, filtration, units, tame symbols

def group_words(ctx, seed: int, smoke: bool = False) -> list:
    """Criteria 2 to 6 plus the symbols, units and filtration suites."""
    from chevkern import chevalley, rings, steinberg

    rng = gen.stream(seed, "group-words")
    reps = 1 if smoke else 3
    checks = []

    def trunc(d, coeffs):
        return rings.TruncAlgebra(d).element(coeffs)

    for kind in ctx.systems(smoke):
        model = ctx.models[kind]
        roots = model.system.roots
        # h(u) h(v) h(uv)^-1 collapses to the identity for units u, v
        for d in (1, 2, 3, 4):
            for _ in range(2 * reps):
                alpha = rng.choice(roots)
                if d == 1:
                    u, v = gen.nonzero_rational(rng), gen.nonzero_rational(rng)
                    run = (lambda m=model, a=alpha, u=u, v=v:
                           steinberg.symbol_is_central_kernel(m, a, u, v).ok is True)
                else:
                    u = gen.trunc_coeffs(rng, d, unit=True)
                    v = gen.trunc_coeffs(rng, d, unit=True)
                    run = (lambda m=model, a=alpha, d=d, u=u, v=v:
                           steinberg.symbol_is_central_kernel(
                               m, a, trunc(d, u), trunc(d, v)).ok is True)
                checks.append(Check("symbol_word", "symbols", run))
        # e(a, r) = [h(a, 2), e(a, r/3)] at every root, over Q and Q[e]/(e^3)
        for alpha in roots:
            r = gen.rational(rng)
            rc = gen.trunc_coeffs(rng, 3)
            checks.append(Check("perfectness", "perfectness", lambda m=model, a=alpha, r=r:
                                chevalley.perfectness_witness(m, a, r).ok is True))
            checks.append(Check("perfectness", "perfectness", lambda m=model, a=alpha, rc=rc:
                                chevalley.perfectness_witness(m, a, trunc(3, rc)).ok is True))
        # reduced words: evaluation, inverse matrices and inverse words agree
        for d in (1, 2, 3):
            for _ in range(reps):
                if d == 1:
                    letters = gen.reduced_word(rng, len(roots), 6, gen.nonzero_rational)
                else:
                    letters = gen.reduced_word(
                        rng, len(roots), 6,
                        lambda r, d=d: gen.trunc_coeffs(r, d, unit=True))
                checks.append(Check("word_inverse", "words",
                                    lambda m=model, d=d, letters=letters:
                                    _check_word(steinberg, m, d, letters, trunc)))
        # congruence kernel: every level has the full Lie algebra dimension
        for d in (2, 3, 4, 5):
            checks.append(Check("congruence", "filtration", lambda m=model, k=kind, d=d:
                                _check_congruence(chevalley, m, d, ctx.lie_dim[k])))
        # g = g0 * c with g0 over Q and c = I mod e
        for d in (2, 3, 4):
            for _ in range(reps):
                letters = [(rng.choice(roots), gen.trunc_coeffs(rng, d)) for _ in range(3)]
                checks.append(Check("levi", "filtration", lambda m=model, d=d, letters=letters:
                                    _check_levi(chevalley, rings, m, d, letters)))
    for d in (2, 3, 4, 5):
        for _ in range(2 * reps):
            x = gen.trunc_coeffs(rng, d, unit=True)
            x[1] = gen.nonzero_rational(rng)
            target = [Fraction(1)] + gen.trunc_coeffs(rng, d - 1)
            checks.append(Check("unit_witness", "units", lambda d=d, x=x, target=target:
                                _check_unit_witness(rings, d, x, target)))
        for _ in range(2 * reps):
            x = gen.trunc_coeffs(rng, d)
            u = gen.nonzero_rational(rng)
            while u * x[0] == 1:
                u = gen.nonzero_rational(rng)
            checks.append(Check("one_minus_ux", "units", lambda d=d, x=x, u=u:
                                _check_one_minus(rings, d, u, x)))
    names = ("cocycle", "one_one", "inverse_inverse", "minus_shift",
             "one_minus_shift", "multiplicative")
    samples = 50 * reps
    for p in (2, 3, 5, 7):
        for name in names:
            sub = rng.randrange(1 << 30)
            checks.append(Check("tame_relation", "tame", lambda p=p, name=name, sub=sub:
                                _check_relations(steinberg, p, name, samples, sub)))
        sub = rng.randrange(1 << 30)
        checks.append(Check("tame_derived", "tame", lambda p=p, sub=sub:
                            _check_derived(steinberg, p, samples, sub)))
    return checks


def _check_word(steinberg, model, d, letters, trunc):
    roots = model.system.roots
    word = steinberg.SteinbergWord(
        [(roots[k], t if d == 1 else trunc(d, t)) for k, t in letters])
    if len(word) != len(letters):
        return False
    g = steinberg.word_eval(word, model)
    g_inv = g.inverse()
    return (g * g_inv).is_identity() and steinberg.word_eval(word.inverse(), model) == g_inv


def _check_congruence(chevalley, model, d, lie_dim):
    report = chevalley.congruence_dimension(model, d)
    return (report.per_level == (lie_dim,) * (d - 1)
            and report.total == report.expected_total == (d - 1) * lie_dim)


def _check_levi(chevalley, rings, model, d, letters):
    from chevkern.kernel import Matrix

    algebra = rings.TruncAlgebra(d)
    g = model.identity(like=algebra.one())
    for alpha, coeffs in letters:
        g = g * model.e(alpha, algebra.element(coeffs))
    g0, c = chevalley.levi_decompose(g)
    n = g.matrix.nrows
    embedded = Matrix(n, n, tuple(algebra.element([x]) for x in g0.matrix.entries))
    ok = embedded * c.matrix == g.matrix and model.check_membership(g0)
    return ok and all(x.coeff(0) == (1 if k % (n + 1) == 0 else 0)
                      for k, x in enumerate(c.matrix.entries))


def _check_unit_witness(rings, d, x_coeffs, target_coeffs):
    algebra = rings.TruncAlgebra(d)
    x = algebra.element(x_coeffs)
    target = algebra.element(target_coeffs)
    witness = rings.unit_group_witness(x, target)
    delta = x.tail()
    total = algebra.one()
    power = algebra.one()
    for s in witness.symmetric:
        power = power * delta
        total = total + power * s
    return total == target and x * x.inverse() == algebra.one()


def _check_one_minus(rings, d, u, x_coeffs):
    algebra = rings.TruncAlgebra(d)
    x = algebra.element(x_coeffs)
    fact = rings.factor_one_minus_ux(u, x)
    return algebra.one() - x * u == fact.unit * fact.scalar


def _check_relations(steinberg, p, name, samples, sub):
    (record,) = steinberg.check_symbol_relations(steinberg.TameSymbol(p), (name,),
                                                 samples=samples, seed=sub)
    # one_minus_shift skips x = 1, every other family checks every sample
    expected = record.checked <= samples if name == "one_minus_shift" else record.checked == samples
    return record.ok and record.checked > 0 and expected


def _check_derived(steinberg, p, samples, sub):
    records = steinberg.derived_symbol_identities(steinberg.TameSymbol(p),
                                                  samples=samples, seed=sub)
    return (len(records) == 4 and all(r.ok and r.checked > 0 for r in records))


# ---------------------------------------------------------------------------
# algebra-structures: central extensions, algebra decomposition, derivations

def setup_algebra():
    from chevkern import derivations, extensions  # noqa: F401

    return Context(lies={n: extensions.TracelessMatrices(n) for n in (2, 3, 4)})


def algebra_structures(ctx, seed: int, smoke: bool = False) -> list:
    """Criteria 7 to 9 plus the extensions and derivations suites."""
    from chevkern import extensions

    rng = gen.stream(seed, "algebra-structures")
    reps = 1 if smoke else 5
    checks = []
    for n, lie in sorted(ctx.lies.items()):
        if smoke and n > 3:
            continue
        groups = {}
        checks.append(Check("heisenberg_nonsplit", "heisenberg", lambda lie=lie, groups=groups:
                            _check_nonsplit(extensions, lie, groups)))
        checks.append(Check("heisenberg_split_control", "heisenberg", lambda lie=lie:
                            _check_split_control(extensions, lie)))
        for _ in range(5 * reps):
            triple = [(_coords(rng, lie.dim), _coords(rng, lie.dim), rng.randint(-4, 4))
                      for _ in range(3)]
            checks.append(Check("heisenberg_axioms", "heisenberg",
                                lambda lie=lie, groups=groups, triple=triple:
                                _check_axioms(lie, groups[lie.n], triple)))
        for _ in range(2 * reps):
            a, b = _coords(rng, lie.dim), _coords(rng, lie.dim)
            checks.append(Check("heisenberg_commutator", "heisenberg",
                                lambda lie=lie, groups=groups, a=a, b=b:
                                _check_commutator(extensions, lie, groups[lie.n], a, b)))
    for dim, patterns in sorted(gen.QUOTIENT_PATTERNS.items()):
        if smoke and dim > 4:
            continue
        for pattern in patterns:
            points = gen.quotient_points(rng, pattern)
            coeffs = gen.expand_monic(points)
            shapes = sorted((m, m) for m in pattern)
            checks.append(Check("decompose", "decompose", lambda c=coeffs, s=shapes:
                                _check_decomposition(
                                    extensions,
                                    lambda: extensions.FinDimAlgebra.from_univariate_quotient(c),
                                    s)))
    for d in (2, 3, 4, 5, 6):
        checks.append(Check("decompose", "decompose", lambda d=d:
                            _check_decomposition(
                                extensions, lambda: extensions.FinDimAlgebra.truncated(d),
                                [(d, d)])))
    checks.append(Check("decompose", "decompose", lambda:
                        _check_not_principal(
                            extensions, extensions.FinDimAlgebra.two_generator_square_zero)))
    checks.append(Check("decompose", "decompose", lambda:
                        _check_decomposition(
                            extensions,
                            lambda: extensions.FinDimAlgebra.load("data/algebra_mixed.txt"),
                            [(1, 1), (3, 3)])))
    checks.append(Check("decompose", "decompose", lambda:
                        _check_not_principal(
                            extensions,
                            lambda: extensions.FinDimAlgebra.load(
                                "data/algebra_two_generators.txt"))))
    checks.extend(_derivation_checks(rng, 2 if smoke else 5))
    return checks


def _coords(rng, dim):
    """Nonzero small integer coordinates.

    The Gram pairing skips zero coordinates, so zeros would make the cost of
    a check depend on the seed.
    """
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3)) for _ in range(dim)]


def _plain_matrix(n, coords):
    """The traceless matrix with these coordinates, as nested lists of Fractions.

    Basis order as in TracelessMatrices: E_ij for i != j row by row, then
    E_kk - E_{k+1,k+1}.
    """
    rows = [[Fraction(0)] * n for _ in range(n)]
    it = iter(coords)
    for i in range(n):
        for j in range(n):
            if i != j:
                rows[i][j] = next(it)
    for k in range(n - 1):
        c = next(it)
        rows[k][k] += c
        rows[k + 1][k + 1] -= c
    return rows


def _trace_form(n, a, b):
    """2n tr(ab), the ad-trace pairing of sl_n, computed without chevkern."""
    x, y = _plain_matrix(n, a), _plain_matrix(n, b)
    return 2 * n * sum(x[i][k] * y[k][i] for i in range(n) for k in range(n))


def _check_nonsplit(extensions, lie, groups):
    group = extensions.HeisenbergLikeGroup(lie)
    groups[lie.n] = group
    verdict = extensions.splitness_verdict(group)
    return verdict.status == "NON_SPLIT" and verdict.witness[2] != 0


def _check_split_control(extensions, lie):
    control = extensions.HeisenbergLikeGroup(lie, form=lambda x, y: Fraction(0))
    verdict = extensions.splitness_verdict(control)
    return verdict.status == "SPLIT" and verdict.section_checked == lie.dim ** 2


def _check_axioms(lie, group, triple):
    g1, g2, g3 = (group.element(lie.from_coords(a), lie.from_coords(b), c)
                  for a, b, c in triple)
    return (g1 * g2) * g3 == g1 * (g2 * g3) and (g1 * g1.inverse()).is_identity()


def _check_commutator(extensions, lie, group, a, b):
    n = lie.n
    zero = [Fraction(0)] * lie.dim
    x, y = lie.from_coords(a), lie.from_coords(b)
    comm = group.element(x, lie.from_coords(zero), 0).commutator(
        group.element(lie.from_coords(zero), y, 0))
    expected = 2 * _trace_form(n, a, b)
    g1 = group.element(x, y, 1)
    g2 = group.element(y, x, -1)
    swapped = 2 * (_trace_form(n, a, a) - _trace_form(n, b, b))
    return (comm.a.is_zero_matrix() and comm.b.is_zero_matrix() and comm.c == expected
            and extensions.heisenberg_commutator_value(group, g1, g2) == swapped)


def _check_decomposition(extensions, build, shapes):
    algebra = build()
    report = extensions.decompose_algebra(algebra)
    if sorted((f.dim, f.trunc_order) for f in report.factors) != shapes:
        return False
    check = extensions.reassemble(report)
    return check.ok and check.checked_products == algebra.dim ** 2


def _check_not_principal(extensions, build):
    report = extensions.decompose_algebra(build())
    return ([(f.principal, f.maximal_ideal_generators) for f in report.factors]
            == [(False, 2)])


# plane curves with a rational parametrization: relation, point map, and the
# parameter whose point is singular (None for smooth curves)
CURVES = {
    "cusp": ("X^3 - Y^2", lambda t: (t * t, t ** 3)),
    "circle": ("X^2 + Y^2 - 1", lambda t: ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))),
    "line": ("X + Y - 3", lambda t: (t, 3 - t)),
}


def _problem_text(relation, points):
    lines = ["base rational", "vars X Y", "rel " + relation]
    lines += ["point X=%s Y=%s" % (x, y) for x, y in points]
    return "\n".join(lines) + "\n"


def _derivation_checks(rng, count):
    from chevkern import derivations

    checks = []
    for name, (relation, param) in CURVES.items():
        points = [param(t) for t in gen.curve_parameters(rng, count)]
        if name == "cusp":
            points.append((Fraction(0), Fraction(0)))
        text = _problem_text(relation, points)
        parsed = {}
        checks.append(Check("parse_problem", "derivations",
                            lambda text=text, points=points, parsed=parsed:
                            _check_parse(derivations, text, points, parsed)))
        for x, y in points:
            expected = 2 if (x, y) == (0, 0) else 1
            checks.append(Check("der_dim", "derivations",
                                lambda parsed=parsed, p={"X": x, "Y": y}, e=expected:
                                _check_der(derivations, parsed["algebra"], p, e)))
            if x != 0:
                checks.append(Check("localize", "derivations",
                                    lambda parsed=parsed, p={"X": x, "Y": y}, e=expected:
                                    _check_localized(derivations, parsed["algebra"], p, e)))
    # Q(w)[X]/(X^2 - 2) with w^2 = 2: X = +-w are smooth points where the
    # relation already fixes X, so no derivation survives in either mode
    checks.append(Check("number_ring", "derivations",
                        lambda: _check_number_ring_file(derivations)))
    ring = SimpleNamespace(generator="w", minpoly=(-2, 0, 1))
    for _ in range(count):
        value = rng.randint(-9, 9)
        checks.append(Check("number_ring", "derivations", lambda v=value:
                            _check_free_number_ring(derivations, ring, v)))
    return checks


def _check_parse(derivations, text, points, parsed):
    algebra, got = derivations.parse_problem(text)
    parsed["algebra"] = algebra
    return (len(algebra.relations) == 1
            and [(p["X"], p["Y"]) for p in got] == [tuple(pt) for pt in points])


def _check_der(derivations, algebra, point, expected):
    report = derivations.der_dim(algebra, point)
    if report.dim != expected or len(report.tangent_basis) != expected:
        return False
    return all(derivations.apply_derivation(algebra, point, v, f) == 0
               for v in report.tangent_basis for f in algebra.relations)


def _check_localized(derivations, algebra, point, expected):
    from chevkern import kernel

    x = kernel.MultiPoly.variable("X")
    local = derivations.localize(algebra, x)
    lifted = derivations.extend_point(algebra, x, point)
    return derivations.der_dim(local, lifted).dim == expected


def _check_number_ring_file(derivations):
    algebra, points = derivations.parse_problem(Path("data/number_ring.txt").read_text())
    return len(points) == 2 and all(
        derivations.der_dim(algebra, p, mode=mode).dim == 0
        for p in points for mode in ("relative", "absolute"))


def _check_free_number_ring(derivations, ring, value):
    # Z[w][X] with no relations: X is free in both modes, w is pinned by w^2 = 2
    base = derivations.BaseRing("numberring", generator=ring.generator, minpoly=ring.minpoly)
    algebra = derivations.PresentedAlgebra(base, ("X",), ())
    return (derivations.der_dim(algebra, {"X": value}, mode="absolute").dim == 1
            and derivations.der_dim(algebra, {"X": value}).dim == 1)


# ---------------------------------------------------------------------------
# cli-reports: the command users run, in process

def setup_cli():
    from chevkern import cli  # noqa: F401

    return Context()


def run_cli(argv):
    """Run ``chevkern <argv>`` in process; returns (exit code, report text)."""
    from chevkern import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def pinned_invocations():
    """The invocations whose report digests are pinned in golden_reports.json."""
    runs = [("all", "--seed", "42", "--format", "json")]
    for suite, path in (("extensions", "data/algebra_mixed.txt"),
                        ("extensions", "data/algebra_two_generators.txt"),
                        ("derivations", "data/cusp_curve.txt"),
                        ("derivations", "data/number_ring.txt")):
        for fmt in ("text", "json"):
            runs.append((suite, "--input", path, "--format", fmt))
    return runs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_reports(ctx, seed: int, smoke: bool = False) -> list:
    """Every suite for A2, A3 and C2 in text and JSON over seeded report seeds,
    the input files, and ``all --seed 42 --format json`` twice."""
    rng = gen.stream(seed, "cli-reports")
    golden = json.loads(GOLDEN_REPORTS.read_text())
    checks = []
    seeds = [rng.randrange(1 << 20) for _ in range(1 if smoke else 2)]
    for report_seed, system, suite in itertools.product(
            seeds, ctx.systems(smoke), ("relations", "symbols", "units", "filtration",
                             "extensions", "derivations")):
        argv = [suite, "--system", system, "--seed", str(report_seed), "--samples", "5"]
        text_run = {}
        checks.append(Check("cli_text", "suites", lambda argv=argv, text_run=text_run:
                            _check_text(argv, text_run)))
        checks.append(Check("cli_json", "suites", lambda argv=argv, text_run=text_run:
                            _check_json(argv, text_run)))
    for argv in pinned_invocations():
        if argv[0] == "all":
            continue
        checks.append(Check("cli_pinned", "pinned", lambda argv=argv:
                            _check_pinned(argv, golden)))
    first = {}
    for _ in range(2):
        checks.append(Check("cli_all", "pinned", lambda first=first:
                            _check_all(golden, first)))
    return checks


def _text_records(text):
    return [tuple(line.split(" | ", 1)[0].split(" ", 1))
            for line in text.splitlines()[2:-1]]


def _check_text(argv, text_run):
    code, text = run_cli(argv + ["--format", "text"])
    text_run["text"] = text
    return code == 0 and text.endswith(" checks, 0 failed\n") and len(_text_records(text)) > 0


def _check_json(argv, text_run):
    code, text = run_cli(argv + ["--format", "json"])
    payload = json.loads(text)
    records = [(r["status"], r["name"]) for r in payload["records"]]
    return (code == 0 and payload["summary"]["failed"] == 0
            and payload["summary"]["total"] == len(records) > 0
            and all(status == "PASS" for status, _ in records)
            and records == _text_records(text_run.get("text", "")))


def _check_pinned(argv, golden):
    code, text = run_cli(argv)
    return code == 0 and digest(text) == golden[" ".join(argv)]


def _check_all(golden, first):
    argv = pinned_invocations()[0]
    code, text = run_cli(argv)
    first.setdefault("text", text)
    return code == 0 and text == first["text"] and digest(text) == golden[" ".join(argv)]


WORKLOADS = {
    "commutator-sweep": (setup_chevalley, commutator_sweep),
    "group-words": (setup_chevalley, group_words),
    "algebra-structures": (setup_algebra, algebra_structures),
    "cli-reports": (setup_cli, cli_reports),
}
