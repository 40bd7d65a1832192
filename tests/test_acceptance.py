"""Acceptance gate: ten exact criteria, one printed PASS/FAIL line each.

Run with

    python3 -m pytest tests/test_acceptance.py -v -s

Every comparison is exact (no tolerances); each criterion also enforces its
runtime budget on this machine.
"""

import itertools
import random
import time
from fractions import Fraction

from chevkern.chevalley import (
    build_model,
    congruence_dimension,
    graded_piece,
    infer_structure_constants,
    load_structure_constants,
    ordered_root_pairs,
    perfectness_witness,
    verify_additivity,
    verify_commutator,
)
from chevkern.cli import _nonzero_rat, _rat, _trunc_elem, main as cli_main
from chevkern.derivations import (
    BaseRing,
    PresentedAlgebra,
    der_dim,
    extend_point,
    localize,
)
from chevkern.extensions import (
    FinDimAlgebra,
    HeisenbergLikeGroup,
    TracelessMatrices,
    decompose_algebra,
    heisenberg_commutator_value,
    reassemble,
    splitness_verdict,
)
from chevkern.kernel import Matrix, MultiPoly, PolyDomain
from chevkern.rings import TruncAlgebra, expand_unit_product, factor_one_minus_ux
from chevkern.steinberg import (
    TameSymbol,
    check_symbol_relations,
    derived_symbol_identities,
    symbol_is_central_kernel,
)

SYSTEMS = ("A2", "A3", "C2")


def _verdict(num: int, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %2d %s (%.2fs, budget %gs, %.0f%% used): %s"
          % (num, status, elapsed, budget, 100 * elapsed / budget, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)
    assert elapsed < budget, ("criterion %d exceeded its %gs budget (%.2fs)"
                              % (num, budget, elapsed))


def test_criterion_01_chevalley_relations():
    start = time.perf_counter()
    ok = True
    pairs = 0
    for kind in SYSTEMS:
        model = build_model(kind)
        golden = load_structure_constants(kind)
        # constants re-inferred from scratch over Q and over dual numbers
        ok = ok and (infer_structure_constants(model) == golden)
        ok = ok and (infer_structure_constants(
            model, TruncAlgebra(2, PolyDomain())) == golden)
        # the recorded constants verify symbolically over Q[e]/(e^d), d = 2,3,4
        for d in (2, 3, 4):
            ring = TruncAlgebra(d, PolyDomain())
            s, t = ring.generic("s"), ring.generic("t")
            for alpha in model.system.roots:
                ok = ok and verify_additivity(model, alpha, s, t)
            for alpha, beta in ordered_root_pairs(model.system):
                ok = ok and verify_commutator(model, alpha, beta, s, t, golden).ok
                pairs += 1
    _verdict(1, ok, time.perf_counter() - start, 10,
             "additivity at every root plus %d symbolic commutator pair "
             "checks over truncated rings for %s, constants identical "
             "across rings" % (pairs, "/".join(SYSTEMS)))


def test_criterion_02_symbol_kernel():
    start = time.perf_counter()
    rng = random.Random(20)
    models = [build_model("A2"), build_model("C2")]
    checked = 0
    ok = True
    # 110 rational pairs and 30 pairs per truncation order 2, 3, 4
    pair_sets = [[(_nonzero_rat(rng), _nonzero_rat(rng)) for _ in range(110)]]
    for d in (2, 3, 4):
        algebra = TruncAlgebra(d)
        pair_sets.append([(_trunc_elem(algebra, rng, unit=True),
                           _trunc_elem(algebra, rng, unit=True))
                          for _ in range(30)])
    for pairs in pair_sets:
        for u, v in pairs:
            for model in models:
                alpha = rng.choice(model.system.roots)
                ok = ok and symbol_is_central_kernel(model, alpha, u, v).ok
            checked += 1
    _verdict(2, ok and checked >= 200, time.perf_counter() - start, 5,
             "%d unit pairs; symbol words collapse to the identity in both "
             "matrix models over Q and all truncations d <= 4" % checked)


def test_criterion_03_symbol_relations():
    start = time.perf_counter()
    names = ("cocycle", "one_one", "inverse_inverse", "minus_shift",
             "one_minus_shift", "multiplicative")
    ok = True
    total = 0
    for p in (2, 3, 5, 7):
        symbol = TameSymbol(p)
        for rec in check_symbol_relations(symbol, names, samples=500, seed=3 * p):
            ok = ok and rec.ok
            total += rec.checked
        for rec in derived_symbol_identities(symbol, samples=500, seed=7 * p):
            ok = ok and rec.ok
            total += rec.checked
    _verdict(3, ok, time.perf_counter() - start, 5,
             "tame symbol at p=2,3,5,7: six relation families plus derived "
             "identities, %d checks" % total)


def test_criterion_04_footnote_identities():
    start = time.perf_counter()
    ok = True
    # product expansion with formal coefficients u_1 .. u_{d-1}
    for d in range(2, 7):
        ring = TruncAlgebra(d, PolyDomain())
        us = [MultiPoly.variable("u%d" % i) for i in range(1, d)]
        product = expand_unit_product(ring.eps(1), us)
        for k in range(d):
            # coefficient of delta^k is the k-th elementary symmetric poly
            elementary = MultiPoly.constant(1 if k == 0 else 0)
            for combo in itertools.combinations(us, k) if k else ():
                term = MultiPoly.constant(1)
                for u in combo:
                    term = term * u
                elementary = elementary + term
            ok = ok and (product.coeff(k) == elementary)
    # 1 - ux = (1 - u x0)(1 + v delta) on 100 random instances
    rng = random.Random(40)
    algebra = TruncAlgebra(4)
    done = 0
    while done < 100:
        u = _nonzero_rat(rng)
        x = _trunc_elem(algebra, rng)
        if u * x.coeff(0) == 1:
            continue  # scalar part would not be a unit
        fact = factor_one_minus_ux(u, x)
        ok = ok and (algebra.one() - x * u == fact.unit * fact.scalar)
        done += 1
    _verdict(4, ok, time.perf_counter() - start, 5,
             "symmetric-function expansion symbolic for d=2..6 and 100 exact "
             "one-minus factorizations")


def test_criterion_05_filtration():
    start = time.perf_counter()
    model = build_model("A2")
    rng = random.Random(50)
    ok = True
    for d in (2, 3, 4):
        fr = congruence_dimension(model, d)
        ok = ok and fr.ok and fr.expected_total == (d - 1) * 8
        algebra = TruncAlgebra(d)
        for s in range(1, d):
            for _ in range(5):
                a1 = rng.choice(model.system.roots)
                a2 = rng.choice(model.system.roots)
                c1 = model.e(a1, algebra.eps(s) * _rat(rng))
                c2 = model.e(a2, algebra.eps(s) * _rat(rng))
                piece = graded_piece(c1 * c2, s)
                ok = ok and (piece == graded_piece(c1, s) + graded_piece(c2, s))
                ok = ok and model.in_lie_algebra(piece)
    _verdict(5, ok, time.perf_counter() - start, 5,
             "graded pieces lie in the 8-dimensional algebra, add up, and "
             "every level has full dimension for d=2,3,4")


def test_criterion_06_perfectness():
    start = time.perf_counter()
    rng = random.Random(60)
    algebra = TruncAlgebra(3)
    ok = True
    per_ring = 0
    for kind in SYSTEMS:
        model = build_model(kind)
        for alpha in model.system.roots:
            for _ in range(9):
                ok = ok and perfectness_witness(model, alpha, _rat(rng)).ok
                ok = ok and perfectness_witness(
                    model, alpha, _trunc_elem(algebra, rng)).ok
                per_ring += 1
    _verdict(6, ok and per_ring >= 50 * len(SYSTEMS),
             time.perf_counter() - start, 2,
             "e(a, r) = [h(a, 2), e(a, r/3)] at every root of %s, %d random r "
             "per ring (Q and dual numbers of order 3)"
             % ("/".join(SYSTEMS), per_ring))


def test_criterion_07_heisenberg_counterexample():
    start = time.perf_counter()
    rng = random.Random(70)
    ok = True
    for n in (2, 3):
        lie = TracelessMatrices(n)
        grp = HeisenbergLikeGroup(lie)

        def rand(grp=grp, lie=lie):
            return grp.element(lie.random_element(rng), lie.random_element(rng),
                               Fraction(rng.randint(-4, 4)))

        for _ in range(500):
            g1, g2, g3 = rand(), rand(), rand()
            ok = ok and ((g1 * g2) * g3 == g1 * (g2 * g3))
            ok = ok and (g1 * g1.inverse()).is_identity()
        for _ in range(50):
            a = lie.random_element(rng)
            b = lie.random_element(rng)
            zero = Matrix.zero(n, n)
            comm = grp.element(a, zero, 0).commutator(grp.element(zero, b, 0))
            ok = ok and comm.a.is_zero_matrix() and comm.b.is_zero_matrix()
            ok = ok and comm.c == 2 * grp.form(a, b)
            g1, g2 = rand(), rand()
            ok = ok and g1.commutator(g2).c == heisenberg_commutator_value(grp, g1, g2)
        ok = ok and splitness_verdict(grp).status == "NON_SPLIT"
        control = HeisenbergLikeGroup(lie, form=lambda x, y: Fraction(0))
        ok = ok and splitness_verdict(control).status == "SPLIT"
    report = decompose_algebra(FinDimAlgebra.two_generator_square_zero())
    factor = report.factors[0]
    ok = ok and (not factor.principal) and factor.maximal_ideal_generators == 2
    _verdict(7, ok, time.perf_counter() - start, 5,
             "twisted central products over traceless 2x2 and 3x3 matrices: "
             "500 axiom triples each, central commutator 2f(a,b), NON-SPLIT "
             "with split control; two-nilpotent-generator algebra is "
             "NOT-PRINCIPAL with dim m/m^2 = 2")


def test_criterion_08_algebra_decomposition():
    start = time.perf_counter()
    ok = True
    # X^2 = X: two reduced points
    rep = decompose_algebra(FinDimAlgebra.from_univariate_quotient([0, -1, 1]))
    ok = ok and sorted((f.dim, f.trunc_order) for f in rep.factors) == [(1, 1), (1, 1)]
    ok = ok and reassemble(rep).ok
    # X^3 = 0: one fat point of order 3
    rep = decompose_algebra(FinDimAlgebra.truncated(3))
    ok = ok and [(f.dim, f.trunc_order) for f in rep.factors] == [(3, 3)]
    ok = ok and reassemble(rep).ok
    # mixed four-dimensional example with full round trip
    mixed = FinDimAlgebra.from_univariate_quotient([0, 0, 0, -1, 1])
    rep = decompose_algebra(mixed)
    ok = ok and sorted((f.dim, f.trunc_order) for f in rep.factors) == [(1, 1), (3, 3)]
    check = reassemble(rep)
    ok = ok and check.ok and check.checked_products == mixed.dim ** 2
    _verdict(8, ok, time.perf_counter() - start, 5,
             "split quadratic -> two points, cube -> one fat point, mixed "
             "quartic -> both, with the multiplication table reconstructed "
             "through the isomorphism")


def test_criterion_09_derivations():
    start = time.perf_counter()
    X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
    ok = True
    cusp = PresentedAlgebra(BaseRing("rational"), ("X", "Y"), (X ** 3 - Y ** 2,))
    ok = ok and der_dim(cusp, {"X": 0, "Y": 0}).dim == 2
    smooth = [{"X": t * t, "Y": t ** 3}
              for t in (Fraction(1), Fraction(2), Fraction(-2),
                        Fraction(3), Fraction(1, 2))]
    ok = ok and all(der_dim(cusp, p).dim == 1 for p in smooth)
    circle = PresentedAlgebra(BaseRing("rational"), ("X", "Y"),
                              (X ** 2 + Y ** 2 - 1,))
    circle_points = []
    for t in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)):
        den = 1 + t * t
        circle_points.append({"X": (1 - t * t) / den, "Y": 2 * t / den})
    ok = ok and all(der_dim(circle, p).dim == 1 for p in circle_points)
    line = PresentedAlgebra(BaseRing("rational"), ("X", "Y"), (X + Y - 3,))
    line_points = [{"X": t, "Y": 3 - t} for t in range(-2, 3)]
    ok = ok and all(der_dim(line, p).dim == 1 for p in line_points)
    # polynomials over quadratic integers: one absolute derivation
    ring = BaseRing("numberring", generator="w", minpoly=(-2, 0, 1))
    over_ring = PresentedAlgebra(ring, ("X",), ())
    ok = ok and der_dim(over_ring, {"X": 7}, mode="absolute").dim == 1
    # localization leaves all dimensions unchanged
    for alg, pts in ((cusp, smooth), (circle, circle_points), (line, line_points)):
        loc = localize(alg, X)
        for p in pts:
            if p["X"] == 0:
                continue
            lifted = extend_point(alg, X, p)
            ok = ok and der_dim(loc, lifted).dim == der_dim(alg, p).dim
    _verdict(9, ok, time.perf_counter() - start, 5,
             "dimension 2 at the bad point of the cuspidal cubic, 1 at five "
             "smooth points, 1 on circle and line, 1 absolute over quadratic "
             "integers, all stable under inverting a coordinate")


def test_criterion_10_deterministic_reports(tmp_path):
    start = time.perf_counter()
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = cli_main(["all", "--seed", "42", "--format", "json",
                      "--output", str(out1)])
    code2 = cli_main(["all", "--seed", "42", "--format", "json",
                      "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = (code1 == 0) and (code2 == 0) and identical
    _verdict(10, ok, time.perf_counter() - start, 30,
             "two seeded full runs exited 0 with byte-identical JSON reports")
