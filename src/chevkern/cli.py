"""Command line runner for the verification suites.

Each suite replays a family of exact checks and emits one PASS/FAIL record
per check.  Reports are deterministic: no timestamps, stable ordering, and a
per-suite random stream seeded from --seed, so two runs with the same
arguments produce byte-identical output.

    chevkern relations --system C2 --trunc 4
    chevkern symbols --prime 5 --samples 50
    chevkern derivations --input cusp.txt --format json
    chevkern all --seed 42
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import zlib
from fractions import Fraction
from operator import add, neg
from pathlib import Path

from . import __version__
from .chevalley import (
    build_model,
    congruence_dimension,
    levi_decompose,
    load_structure_constants,
    ordered_root_pairs,
    perfectness_witness,
    verify_additivity,
    verify_commutator,
)
from .derivations import (
    apply_derivation,
    der_dim,
    extend_point,
    localize,
    number_ring_rigidity,
    parse_problem,
    smoothness_scan,
)
from .extensions import (
    CocycleExtension,
    FinDimAlgebra,
    GroupOps,
    HeisenbergLikeGroup,
    IdempotentLiftingError,
    TracelessMatrices,
    commutator_lift_invariance,
    decompose_algebra,
    killing_form,
    product_splitting,
    reassemble,
    splitness_verdict,
)
from .kernel import MAX_PARSE_DEGREE, Matrix, MultiPoly, NotAUnitError, is_zero
from .rings import TruncAlgebra, factor_one_minus_ux, unit_group_witness
from .rootsys import Root
from .steinberg import (
    NONSYMPLECTIC_RELATIONS,
    SYMPLECTIC_RELATIONS,
    TameSymbol,
    check_symbol_relations,
    derived_symbol_identities,
    symbol_is_central_kernel,
)

# the largest truncation order whose printed elements TruncAlgebra.parse reads back
MAX_TRUNC = MAX_PARSE_DEGREE + 1
# the most random samples per family; every suite's cost is linear in it
MAX_SAMPLES = 1000

DEFAULT_PROBLEM = """\
base rational
vars X Y
rel X^3 - Y^2
point X=0 Y=0
point X=1 Y=1
point X=4 Y=8
"""


def _plain(value):
    """Coerce detail values into deterministic JSON-friendly data."""
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, Root):  # its coordinates, which Root(tuple(...)) reads back
        return list(value.coords)
    if isinstance(value, Matrix):  # its rows, which Matrix.from_rows reads back
        return [_plain(row) for row in value.rows()]
    return str(value)


class Report:
    def __init__(self, suite: str, config: dict):
        self.suite = suite
        self.config = dict(config)
        self.records = []

    def add(self, name: str, ok: bool, **detail):
        self.records.append({
            "name": name,
            "status": "PASS" if ok else "FAIL",
            "detail": {k: _plain(v) for k, v in sorted(detail.items())},
        })

    def check(self, name: str, draws, test, **detail):
        """One record for ``test(*sample)`` over samples drawn beforehand: PASS
        with ``detail``, or FAIL at the first sample that the test rejects or
        raises on, with that ``sample`` and the exception's ``error`` and
        ``message``."""
        for sample in draws:
            try:
                if test(*sample):
                    continue
                raised = {}
            except Exception as exc:
                raised = {"error": type(exc).__name__, "message": str(exc)}
            self.add(name, False, sample=sample, **raised)
            return
        self.add(name, True, **detail)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["status"] == "FAIL")

    def payload(self) -> dict:
        return {
            "version": __version__,
            "suite": self.suite,
            "config": self.config,
            "records": self.records,
            "summary": {"total": len(self.records), "failed": self.failed},
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"

    def to_text(self) -> str:
        lines = ["suite %s (version %s)" % (self.suite, __version__),
                 "config: " + " ".join("%s=%s" % (k, v)
                                       for k, v in sorted(self.config.items()))]
        for r in self.records:
            detail = "; ".join("%s=%s" % (k, v) for k, v in r["detail"].items())
            line = "%s %s" % (r["status"], r["name"])
            if detail:
                line += " | " + detail
            lines.append(line)
        lines.append("summary: %d checks, %d failed" % (len(self.records), self.failed))
        return "\n".join(lines) + "\n"


def _suite_rng(seed: int, suite: str) -> random.Random:
    return random.Random(seed ^ zlib.crc32(suite.encode("utf-8")))


def _rat(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _draw_until(draw, accept):
    x = draw()
    while not accept(x):
        x = draw()
    return x


def _nonzero_rat(rng) -> Fraction:
    return _draw_until(lambda: _rat(rng), bool)


def _trunc_elem(algebra: TruncAlgebra, rng, unit=False):
    coeffs = [_rat(rng) for _ in range(algebra.d)]
    if unit and coeffs[0] == 0:
        coeffs[0] = _nonzero_rat(rng)
    return algebra.element(coeffs)


def _root_name(root) -> str:
    return "(" + ",".join(str(c) for c in root.coords) + ")"


# ---------------------------------------------------------------------------
# suites: runners read what load_inputs built on cfg, and draw every sample
# before checking, so no check reads the suite's random stream

def run_relations(report: Report, cfg, rng):
    model, constants = cfg.model, cfg.constants
    kind = model.system.kind
    s, t = MultiPoly.variable("s"), MultiPoly.variable("t")
    algebra = TruncAlgebra(cfg.trunc)
    for alpha, beta in ordered_root_pairs(model.system):
        chk = verify_commutator(model, alpha, beta, s, t, constants)
        report.add("commutator %s [%s, %s] formal" %
                   (kind, _root_name(alpha), _root_name(beta)),
                   chk.ok,
                   constants=["N(%d,%d)=%d" % u for u in chk.used])
        st = _trunc_elem(algebra, rng)
        tt = _trunc_elem(algebra, rng)
        chk2 = verify_commutator(model, alpha, beta, st, tt, constants)
        report.add("commutator %s [%s, %s] mod e^%d" %
                   (kind, _root_name(alpha), _root_name(beta), cfg.trunc),
                   chk2.ok, s=str(st), t=str(tt))
    k = max(3, cfg.samples // 5)
    for alpha in model.system.roots:
        draws = ([(_rat(rng), _rat(rng)) for _ in range(k)]
                 + [(_trunc_elem(algebra, rng), _trunc_elem(algebra, rng)) for _ in range(3)])
        report.check("one-parameter additivity %s %s" % (kind, _root_name(alpha)),
                     draws, lambda a, b: verify_additivity(model, alpha, a, b),
                     samples=k + 3)


def run_symbols(report: Report, cfg, rng):
    model = cfg.model
    algebra = TruncAlgebra(cfg.trunc)
    k = max(3, cfg.samples // 5)
    for alpha in model.system.roots:
        draws = ([(_nonzero_rat(rng), _nonzero_rat(rng)) for _ in range(k)]
                 + [(_trunc_elem(algebra, rng, unit=True), _trunc_elem(algebra, rng, unit=True))
                    for _ in range(3)])
        report.check("symbol word collapses %s %s" %
                     (model.system.kind, _root_name(alpha)), draws,
                     lambda u, v: symbol_is_central_kernel(model, alpha, u, v).ok,
                     samples=k + 3)
    names = (SYMPLECTIC_RELATIONS if model.system.family == "C"
             else NONSYMPLECTIC_RELATIONS)
    report.add("relation set for %s" % model.system.kind, True,
               relations=list(names))
    relations = check_symbol_relations(cfg.symbol, names, cfg.samples, cfg.seed)
    derived = derived_symbol_identities(cfg.symbol, cfg.samples, cfg.seed)
    for kind, rec in [("relation", r) for r in relations] + [("derived", r) for r in derived]:
        # a failure is (name, *witness); its witness replays as the sample
        witness = {"sample": rec.failures[0][1:]} if rec.failures else {}
        report.add("tame symbol p=%d %s %s" % (cfg.prime, kind, rec.name), rec.ok,
                   checked=rec.checked, failures=[str(f) for f in rec.failures[:3]],
                   **witness)


def _inverse_refused(x) -> bool:
    """True when inverting ``x`` raises NotAUnitError."""
    try:
        x.inverse()
    except NotAUnitError:
        return True
    return False


def _inverts(x) -> bool:
    """A unit has an inverse, a non-unit and the tail of any x refuse one."""
    is_unit = x.is_unit()
    good = (x * x.inverse()) == x.algebra.one() if is_unit else _inverse_refused(x)
    # the tail has constant coefficient 0, so every sample also checks a non-unit
    return good and _inverse_refused(x.tail()) and is_unit == (x.coeff(0) != 0)


def _factors_one_minus(u, x) -> bool:
    fact = factor_one_minus_ux(u, x)
    return x.algebra.one() - x * u == fact.unit * fact.scalar


def run_units(report: Report, cfg, rng):
    algebra = TruncAlgebra(cfg.trunc)
    d = cfg.trunc
    draws = [(_trunc_elem(algebra, rng),) for _ in range(cfg.samples)]
    report.check("unit criterion and inverses mod e^%d" % d, draws, _inverts,
                 checked=cfg.samples)

    draws = [(_draw_until(lambda: _trunc_elem(algebra, rng, unit=True),
                          lambda x: x.coeff(1) != 0),
              algebra.one() + algebra.eps(1) * _trunc_elem(algebra, rng))
             for _ in range(cfg.samples)]
    # unit_group_witness self-checks by re-expansion and raises on a mismatch
    report.check("unit group witnesses mod e^%d" % d, draws,
                 lambda x, target: unit_group_witness(x, target) is not None,
                 produced=cfg.samples)

    draws = [(_nonzero_rat(rng), _trunc_elem(algebra, rng)) for _ in range(cfg.samples)]
    # the factorization needs 1 - u*x0 to be a unit of Q
    factorable = [(u, x) for u, x in draws if u * x.coeff(0) != 1]
    report.check("one-minus factorization mod e^%d" % d, factorable,
                 _factors_one_minus, factored=len(factorable),
                 skipped=len(draws) - len(factorable))


def run_filtration(report: Report, cfg, rng):
    model = cfg.model
    fr = congruence_dimension(model, cfg.trunc)
    for level, dim in enumerate(fr.per_level, start=1):
        report.add("congruence level %d of %s mod e^%d" %
                   (level, model.system.kind, cfg.trunc),
                   dim == fr.lie_dim, dim=dim, expected=fr.lie_dim)
    report.add("congruence total %s mod e^%d" % (model.system.kind, cfg.trunc),
               fr.total == fr.expected_total,
               total=fr.total, expected=fr.expected_total)

    algebra = TruncAlgebra(cfg.trunc)

    def splits(*letters):
        g = model.word(letters)
        g0, c = levi_decompose(g)
        embedded = Matrix(g0.matrix.nrows, g0.matrix.ncols,
                          tuple(algebra.element([x]) for x in g0.matrix.entries))
        return embedded * c.matrix == g.matrix and model.check_membership(g0)

    draws = [tuple((rng.choice(model.system.roots), _trunc_elem(algebra, rng))
                   for _ in range(3))
             for _ in range(max(3, cfg.samples // 5))]
    report.check("constant-term splitting %s" % model.system.kind, draws, splits)

    draws = [(alpha, _nonzero_rat(rng)) for alpha in model.system.roots]
    report.check("root elements are commutators %s" % model.system.kind, draws,
                 lambda alpha, r: perfectness_witness(model, alpha, r).ok,
                 scaling="s=2")


def run_extensions(report: Report, cfg, rng):
    lie = TracelessMatrices(2)
    draws = [(lie.random_element(rng), lie.random_element(rng))
             for _ in range(max(3, cfg.samples // 5))]
    report.check("pairing equals scaled trace form", draws,
                 lambda x, y: killing_form(lie, x, y) == 2 * lie.n * (x * y).trace())

    verdict = splitness_verdict(HeisenbergLikeGroup(lie))
    central = verdict.witness[2] if verdict.witness else None
    report.add("twisted product detected", verdict.status == "NON_SPLIT",
               status=verdict.status, central_witness=central)
    verdict0 = splitness_verdict(HeisenbergLikeGroup(lie, form=lambda a, b: Fraction(0)))
    report.add("zero pairing splits", verdict0.status == "SPLIT",
               status=verdict0.status, section_checked=verdict0.section_checked)

    # the additive group of 2x2 integer matrices [[a, b], [c, d]] as tuples (a, b, c, d)
    ops = GroupOps(mul=lambda g, h: tuple(map(add, g, h)), inv=lambda g: tuple(map(neg, g)),
                   identity=(0, 0, 0, 0))
    ext = CocycleExtension(ops, lambda g, h: (g[0] * h[3] - g[1] * h[2],))
    g, h = (1, 2, 0, -1), (0, 1, 3, 1)
    shifts = [(Fraction(0),), (Fraction(2),), (Fraction(-1, 2),)]
    inv = commutator_lift_invariance(ext, g, h, shifts)
    report.add("commutator independent of lifts", inv.ok,
               center=inv.commutator_center, checked=inv.checked)

    # integer samples of the two factors of Q^2; an int is a rational
    pair_ops = GroupOps(mul=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                        inv=lambda x: (-x[0], -x[1]), identity=(0, 0))
    s1 = [(a, 0) for a in range(-2, 3)]
    s2 = [(0, b) for b in range(-2, 3)]
    ext_obs = CocycleExtension(pair_ops, lambda x, y: (x[0] * y[1],))
    rep = product_splitting(ext_obs, ext_obs.element, ext_obs.element, s1, s2)
    report.add("obstruction blocks merged section",
               (not rep.split) and bool(rep.psi_additive_ok),
               witness=rep.witness[2] if rep.witness else None)
    ext_ok = CocycleExtension(pair_ops, lambda x, y: (x[0] * y[1] + x[1] * y[0],))
    rep2 = product_splitting(ext_ok, ext_ok.element, ext_ok.element, s1, s2)
    report.add("sections merge when obstruction vanishes", rep2.split,
               section_checked=rep2.section_checked)

    if cfg.input:
        algebras = [("input", cfg.input_algebra)]
    else:
        algebras = [
            ("split quadratic", FinDimAlgebra.from_univariate_quotient([0, -1, 1])),
            ("mixed quartic", FinDimAlgebra.from_univariate_quotient([0, 0, 0, -1, 1])),
            ("pure truncation", FinDimAlgebra.truncated(cfg.trunc)),
            ("two nilpotent generators", FinDimAlgebra.two_generator_square_zero()),
        ]
    for label, algebra in algebras:
        name = "decomposition of %s" % label
        try:
            decomposition = decompose_algebra(algebra)
            check = reassemble(decomposition) if decomposition.all_principal else None
        except IdempotentLiftingError as exc:
            report.add(name, True, verdict="irrational residue field", message=str(exc))
            continue
        except ArithmeticError as exc:
            # a self-check inside the decomposition or the reassembly failed
            report.add(name, False, error=type(exc).__name__, message=str(exc))
            continue
        detail = {
            "radical_dim": decomposition.radical_dim,
            "factors": decomposition.describe(),
        }
        if check is None:
            report.add(name, True, verdict="maximal ideal not principal", **detail)
        else:
            report.add(name, check.ok, reassembled=" (+) ".join(map(repr, check.factors)), **detail)


def run_derivations(report: Report, cfg, rng):
    algebra, points = cfg.problem
    dims = []  # the relative dimension at each point, in order
    for point in points:
        rep = der_dim(algebra, point, mode="relative")
        dims.append(rep.dim)
        pname = " ".join("%s=%s" % (k, point[k]) for k in sorted(point)) or "the base point"
        report.check("derivations at %s" % pname, [(point,)],
                     lambda p: len(rep.tangent_basis) == rep.dim and all(
                         is_zero(apply_derivation(algebra, p, tangent, f))
                         for tangent in rep.tangent_basis for f in algebra.relations),
                     dim=rep.dim, mode="relative")
        if algebra.field is not None:
            rep_abs = der_dim(algebra, point, mode="absolute")
            report.add("absolute derivations at %s" % pname,
                       len(rep_abs.tangent_basis) == rep_abs.dim,
                       dim=rep_abs.dim, mode="absolute")
    scan = smoothness_scan(algebra, points)
    verdict = ("dimension jump at %d point(s)" % len(scan.flagged)
               if scan.flagged else "uniform")
    report.add("smoothness scan", True, min_dim=scan.min_dim,
               flagged=len(scan.flagged), verdict=verdict)

    if algebra.base.kind == "numberring":
        rig = number_ring_rigidity(algebra.base)
        report.add("number ring rigidity", rig.absolute_dim in (0, 1),
                   rigid=rig.rigid, derivative=str(rig.derivative_value))

    if algebra.variables:
        hvar = algebra.variables[0]
        h = MultiPoly.variable(hvar)
        loc = localize(algebra, h)
        # a point where h vanishes has no lift to the localization
        lifts = [(p, extend_point(algebra, h, p)) for p in points if not is_zero(p[hvar])]
        report.check("localization keeps dimensions (inverting %s)" % hvar, lifts,
                     lambda point, lifted:
                         der_dim(loc, lifted).dim == dims[points.index(point)],
                     checked=len(lifts), skipped=len(points) - len(lifts))


SUITE_RUNNERS = {
    "relations": run_relations,
    "symbols": run_symbols,
    "units": run_units,
    "filtration": run_filtration,
    "extensions": run_extensions,
    "derivations": run_derivations,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chevkern",
        description="Exact verification suites for Chevalley group kernels "
                    "and related structures.")
    parser.add_argument("suite", choices=(*SUITE_RUNNERS, "all"))
    parser.add_argument("--system", default="A2",
                        help="root system label, e.g. A2, A3, C2 (default A2)")
    parser.add_argument("--trunc", type=int, default=4, metavar="D",
                        help="truncation order D of K[e]/(e^D), 2 to %d (default 4)" % MAX_TRUNC)
    parser.add_argument("--prime", type=int, default=5,
                        help="prime for the tame symbol (default 5)")
    parser.add_argument("--samples", type=int, default=25,
                        help="random samples per family, 1 to %d (default 25)" % MAX_SAMPLES)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all random streams (default 0)")
    parser.add_argument("--input", default=None, metavar="PATH",
                        help="problem or algebra file for the derivations and "
                             "extensions suites")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the report here instead of stdout")
    return parser


def load_inputs(cfg, suites) -> None:
    """Build what the selected suites read; OSError/ValueError on bad input."""
    if {"relations", "symbols", "filtration"} & set(suites):
        cfg.model = build_model(cfg.system)
    if "relations" in suites:
        # read off the Lie bracket of the model's letter tables, for every system
        cfg.constants = load_structure_constants(cfg.model.system.kind)
    if "symbols" in suites:
        cfg.symbol = TameSymbol(cfg.prime)
    if "extensions" in suites and cfg.input:
        cfg.input_algebra = FinDimAlgebra.load(cfg.input)
    if "derivations" in suites:
        text = Path(cfg.input).read_text() if cfg.input else DEFAULT_PROBLEM
        algebra, points = parse_problem(text)
        if not points:
            raise ValueError("the problem has no point line")
        for point in points:
            algebra.check_point(point)
        cfg.problem = (algebra, points)


def main(argv=None) -> int:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    if not 2 <= cfg.trunc <= MAX_TRUNC:
        parser.error("--trunc must be from 2 to %d" % MAX_TRUNC)
    if not 1 <= cfg.samples <= MAX_SAMPLES:
        parser.error("--samples must be from 1 to %d" % MAX_SAMPLES)
    if cfg.input and cfg.suite not in ("extensions", "derivations"):
        parser.error("--input only applies to the extensions and derivations suites")

    suites = list(SUITE_RUNNERS) if cfg.suite == "all" else [cfg.suite]
    try:
        load_inputs(cfg, suites)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    config = {"system": cfg.system, "trunc": cfg.trunc, "prime": cfg.prime,
              "samples": cfg.samples, "seed": cfg.seed,
              "input": cfg.input or ""}
    report = Report(cfg.suite, config)
    for suite in suites:
        try:
            SUITE_RUNNERS[suite](report, cfg, _suite_rng(cfg.seed, suite))
        except Exception as exc:
            # a check that raised is a failure of that suite, not a usage error
            report.add("%s suite" % suite, False,
                       error=type(exc).__name__, message=str(exc))

    out = report.to_json() if cfg.format == "json" else report.to_text()
    if cfg.output:
        Path(cfg.output).write_text(out)
    else:
        sys.stdout.write(out)
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
