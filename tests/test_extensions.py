import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from chevkern.extensions import (
    AlgebraAxiomError,
    CocycleError,
    CocycleExtension,
    FinDimAlgebra,
    GroupOps,
    HeisenbergLikeGroup,
    IdempotentLiftingError,
    TracelessMatrices,
    _minpoly_on_block,
    _QuotientView,
    ad_matrix,
    commutator_lift_invariance,
    decompose_algebra,
    heisenberg_commutator_value,
    killing_form,
    product_splitting,
    reassemble,
    splitness_verdict,
)
from chevkern.kernel import Matrix, pdivmod, rref

DATA = Path(__file__).resolve().parent.parent / "data"


def sl2():
    return TracelessMatrices(2)


def E(n, i, j):
    return Matrix.from_rows([[1 if (a, b) == (i, j) else 0 for b in range(n)]
                             for a in range(n)])


H2 = Matrix.from_rows([[1, 0], [0, -1]])


# ---------------------------------------------------------------------------
# trace form / Killing form

def test_killing_form_hand_values_sl2():
    lie = sl2()
    e, f = E(2, 0, 1), E(2, 1, 0)
    # frozen: ad-trace pairing on sl2 gives <e,f> = 4 and <h,h> = 8
    assert killing_form(lie, e, f) == 4
    assert killing_form(lie, H2, H2) == 8
    assert killing_form(lie, e, e) == 0
    assert killing_form(lie, e, H2) == 0


def test_killing_form_equals_scaled_trace_form():
    rng = random.Random(7)
    for n in (2, 3):
        lie = TracelessMatrices(n)
        for _ in range(15):
            x = lie.random_element(rng)
            y = lie.random_element(rng)
            assert killing_form(lie, x, y) == 2 * n * (x * y).trace()


def test_killing_form_invariance():
    # <[x,y],z> = <x,[y,z]>
    rng = random.Random(11)
    lie = sl2()
    for _ in range(20):
        x, y, z = (lie.random_element(rng) for _ in range(3))
        lhs = killing_form(lie, lie.bracket(x, y), z)
        rhs = killing_form(lie, x, lie.bracket(y, z))
        assert lhs == rhs


def test_ad_matrix_respects_bracket():
    rng = random.Random(3)
    lie = sl2()
    for _ in range(10):
        x, y = lie.random_element(rng), lie.random_element(rng)
        lhs = ad_matrix(lie, lie.bracket(x, y))
        rhs = ad_matrix(lie, x) * ad_matrix(lie, y) - ad_matrix(lie, y) * ad_matrix(lie, x)
        assert lhs == rhs


def test_coords_roundtrip_and_membership():
    rng = random.Random(19)
    lie = TracelessMatrices(3)
    for _ in range(20):
        x = lie.random_element(rng)
        assert lie.contains(x)
        assert lie.from_coords(lie.coords(x)) == x
    with pytest.raises(ValueError):
        lie.coords(Matrix.identity(3))


def test_from_coords_rejects_wrong_coordinate_count():
    lie = TracelessMatrices(3)
    coords = [Fraction(k) for k in range(1, lie.dim + 1)]
    assert lie.coords(lie.from_coords(coords)) == tuple(coords)
    with pytest.raises(ValueError):
        lie.from_coords(coords[:-1])
    with pytest.raises(ValueError):
        lie.from_coords(coords + [Fraction(1)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_default_pairing_equals_killing_form(n):
    lie = TracelessMatrices(n)
    form = HeisenbergLikeGroup(lie).form
    basis = lie.basis()
    ads = [ad_matrix(lie, b) for b in basis]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            # trace(ad x ad y), killing_form's definition, with ad cached
            assert form(x, y) == (ads[i] * ads[j]).trace()
    assert form(basis[0], basis[-1]) == killing_form(lie, basis[0], basis[-1])
    rng = random.Random(100 + n)
    for _ in range(20):
        x, y = lie.random_element(rng), lie.random_element(rng)
        assert form(x, y) == killing_form(lie, x, y)


# ---------------------------------------------------------------------------
# Heisenberg-like groups

def test_heisenberg_group_axioms():
    rng = random.Random(23)
    lie = sl2()
    grp = HeisenbergLikeGroup(lie)

    def rand():
        return grp.element(lie.random_element(rng), lie.random_element(rng),
                           Fraction(rng.randint(-5, 5)))

    for _ in range(15):
        g1, g2, g3 = rand(), rand(), rand()
        assert (g1 * g2) * g3 == g1 * (g2 * g3)
        assert (g1 * g1.inverse()).is_identity()
        assert (g1.inverse() * g1).is_identity()
        assert g1 * grp.identity() == g1


def test_heisenberg_commutator_is_central():
    rng = random.Random(29)
    lie = sl2()
    grp = HeisenbergLikeGroup(lie)
    for _ in range(10):
        g1 = grp.element(lie.random_element(rng), lie.random_element(rng),
                         Fraction(rng.randint(-5, 5)))
        g2 = grp.element(lie.random_element(rng), lie.random_element(rng),
                         Fraction(rng.randint(-5, 5)))
        comm = g1.commutator(g2)
        assert comm.a.is_zero_matrix() and comm.b.is_zero_matrix()
        assert comm.c == heisenberg_commutator_value(grp, g1, g2)


def test_heisenberg_commutator_hand_witness():
    # frozen: with a = (e, 0, 0) and b = (0, f, 0) the commutator is (0, 0, 8)
    lie = sl2()
    grp = HeisenbergLikeGroup(lie)
    zero = Matrix.zero(2, 2)
    g1 = grp.element(E(2, 0, 1), zero, 0)
    g2 = grp.element(zero, E(2, 1, 0), 0)
    comm = g1.commutator(g2)
    assert comm.a.is_zero_matrix() and comm.b.is_zero_matrix()
    assert comm.c == 8


def test_splitness_nonsplit_for_killing_pairing():
    grp = HeisenbergLikeGroup(sl2())
    verdict = splitness_verdict(grp)
    assert verdict.status == "NON_SPLIT"
    g1, g2, central = verdict.witness
    # replay the witness
    comm = g1.commutator(g2)
    assert comm.c == central != 0


def test_splitness_split_for_zero_pairing():
    grp = HeisenbergLikeGroup(sl2(), form=lambda x, y: Fraction(0))
    verdict = splitness_verdict(grp)
    assert verdict.status == "SPLIT"
    assert verdict.section_checked == 9  # all basis pairs of sl2 x sl2


# ---------------------------------------------------------------------------
# cocycle extensions

def _matrix_group():
    zero = Matrix.zero(2, 2)
    return GroupOps(mul=lambda g, h: g + h, inv=lambda g: -g, identity=zero)


def _matrix_cocycle(g, h):
    return (g.entry(0, 0) * h.entry(1, 1) - g.entry(0, 1) * h.entry(1, 0),)


def _rand_mat(rng):
    return Matrix.from_rows([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])


def test_cocycle_extension_group_axioms():
    ext = CocycleExtension(_matrix_group(), _matrix_cocycle)
    rng = random.Random(31)
    triples = [tuple(_rand_mat(rng) for _ in range(3)) for _ in range(20)]
    assert ext.validate_cocycle(triples)
    for g, h, k in triples:
        x = ext.element(g, (Fraction(rng.randint(-3, 3)),))
        y = ext.element(h, (Fraction(rng.randint(-3, 3)),))
        z = ext.element(k)
        assert (x * y) * z == x * (y * z)
        assert (x * x.inverse()).is_identity()
        assert (x.inverse() * x).is_identity()


def test_cocycle_must_be_normalized():
    ops = _matrix_group()
    with pytest.raises(CocycleError):
        CocycleExtension(ops, lambda g, h: (Fraction(1),))


def test_cocycle_identity_violation_detected():
    # not biadditive in the second argument: fails the cocycle identity
    ext = CocycleExtension(_matrix_group(),
                           lambda g, h: (g.entry(0, 0) * h.entry(1, 1) ** 2,))
    bad = (Matrix.from_rows([[1, 0], [0, 1]]),
           Matrix.from_rows([[0, 0], [0, 1]]),
           Matrix.from_rows([[0, 0], [0, 1]]))
    with pytest.raises(CocycleError):
        ext.validate_cocycle([bad])


def test_commutator_lift_invariance():
    ext = CocycleExtension(_matrix_group(), _matrix_cocycle)
    g = Matrix.from_rows([[1, 2], [0, -1]])
    h = Matrix.from_rows([[0, 1], [3, 1]])
    shifts = [(Fraction(0),), (Fraction(1),), (Fraction(-7, 2),)]
    report = commutator_lift_invariance(ext, g, h, shifts)
    assert report.ok
    assert report.checked == 9
    # for an abelian base the commutator center is c(g,h) - c(h,g)
    expected = _matrix_cocycle(g, h)[0] - _matrix_cocycle(h, g)[0]
    assert report.commutator_center == (expected,)


def _pair_group():
    zero = (Fraction(0), Fraction(0))
    return GroupOps(mul=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                    inv=lambda x: (-x[0], -x[1]), identity=zero)


def _factor_samples():
    samples1 = [(Fraction(a), Fraction(0)) for a in range(-2, 3)]
    samples2 = [(Fraction(0), Fraction(b)) for b in range(-2, 3)]
    return samples1, samples2


def test_product_splitting_obstructed():
    # cocycle pairs the two factors: the obstruction ab appears
    ext = CocycleExtension(_pair_group(), lambda x, y: (x[0] * y[1],))
    s1, s2 = _factor_samples()
    report = product_splitting(ext, ext.element, ext.element, s1, s2)
    assert not report.split
    assert report.psi_additive_ok
    a, b, psi = report.witness
    assert psi == (a[0] * b[1],) and psi != (0,)


def test_product_splitting_non_additive_obstruction():
    # psi(a, b) = a b^2 is not additive in b
    ext = CocycleExtension(_pair_group(), lambda x, y: (x[0] * y[1] ** 2,))
    s1, s2 = _factor_samples()
    report = product_splitting(ext, ext.element, ext.element, s1, s2)
    assert not report.split
    assert report.psi_additive_ok is False
    assert report.psi_checked == len(s1) * len(s2)


def test_product_splitting_merges_sections():
    # symmetric cross terms cancel in the commutator: sections merge
    ext = CocycleExtension(_pair_group(),
                           lambda x, y: (x[0] * y[1] + x[1] * y[0],))
    s1, s2 = _factor_samples()
    report = product_splitting(ext, ext.element, ext.element, s1, s2)
    assert report.split
    assert report.witness is None
    assert report.section_checked == len(s1) ** 2 * len(s2) ** 2


def test_product_splitting_rejects_bad_section():
    ext = CocycleExtension(_pair_group(), lambda x, y: (x[0] * y[0],))
    s1, s2 = _factor_samples()
    # the identity lift is not a homomorphism over factor 1 here
    with pytest.raises(ValueError):
        product_splitting(ext, ext.element, ext.element, s1, s2)


# ---------------------------------------------------------------------------
# finite-dimensional algebras

def test_algebra_axiom_validation():
    # u*v = 1 (nonassociative with the rest) must be rejected
    z = (0, 0, 0)
    e0 = (1, 0, 0)
    e1 = (0, 1, 0)
    e2 = (0, 0, 1)
    with pytest.raises(AlgebraAxiomError):
        FinDimAlgebra(("1", "u", "v"),
                      ((e0, e1, e2), (e1, z, e0), (e2, e0, z)), e0)
    # noncommutative tensor
    with pytest.raises(AlgebraAxiomError):
        FinDimAlgebra(("1", "u", "v"),
                      ((e0, e1, e2), (e1, z, e0), (e2, z, z)), e0)
    # wrong unit
    with pytest.raises(AlgebraAxiomError):
        FinDimAlgebra(("1", "u", "v"),
                      ((e0, e1, e2), (e1, z, z), (e2, z, z)), e1)


def _associativity_failures(tensor):
    """Brute force: every basis triple with (b_i b_j) b_k != b_i (b_j b_k)."""
    n = len(tensor)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = [sum(Fraction(tensor[i][j][l]) * tensor[l][k][m] for l in range(n))
                       for m in range(n)]
                rhs = [sum(Fraction(tensor[j][k][l]) * tensor[i][l][m] for l in range(n))
                       for m in range(n)]
                if lhs != rhs:
                    out.append((i, j, k))
    return out


def _assert_validation_matches_brute_force(names, tensor, unit):
    failures = _associativity_failures(tensor)
    if not failures:
        FinDimAlgebra(names, tensor, unit)
        return False
    with pytest.raises(AlgebraAxiomError, match="not associative") as info:
        FinDimAlgebra(names, tensor, unit)
    named = tuple(int(t) for t in re.findall(r"-?\d+", str(info.value)))
    assert named in failures
    return True


@pytest.mark.parametrize("seed", range(18))
def test_associativity_check_matches_brute_force(seed):
    # Q[X]/(f) of dimension 3-5 with 0, 1 or 2 commutative perturbations
    # outside the unit row, so only associativity can fail
    rng = random.Random(seed)
    dim = 3 + seed % 3
    perturbations = seed // 3 % 3
    base = FinDimAlgebra.from_univariate_quotient(
        [rng.randint(-2, 2) for _ in range(dim)] + [1])
    tensor = [[list(row) for row in plane] for plane in base.tensor]
    for _ in range(perturbations):
        i, j, k = rng.randrange(1, dim), rng.randrange(1, dim), rng.randrange(dim)
        delta = rng.choice((-2, -1, 1, 2))
        tensor[i][j][k] += delta
        if i != j:
            tensor[j][i][k] += delta
    raised = _assert_validation_matches_brute_force(base.names, tensor, base.unit)
    assert raised == (perturbations != 0)


def test_associativity_failure_seen_only_from_a_larger_first_index():
    # basis 1, u, v, w with v^2 = u, u^2 = w and all other products of u, v, w
    # zero: (v v) u = w but (u v) v = 0.  The only (b_i b_j) b_k off its value
    # at the sorted triple is (2, 2, 1), which has i > k.
    e = [tuple(int(i == k) for i in range(4)) for k in range(4)]
    z = (0,) * 4
    tensor = (
        (e[0], e[1], e[2], e[3]),
        (e[1], e[3], z, z),
        (e[2], z, e[1], z),
        (e[3], z, z, z),
    )
    assert sorted(_associativity_failures(tensor)) == [(1, 2, 2), (2, 2, 1)]
    assert _assert_validation_matches_brute_force(("1", "u", "v", "w"), tensor, e[0])


def test_univariate_quotient_table():
    # Q[X]/(X^2 - X): X*X = X
    alg = FinDimAlgebra.from_univariate_quotient([0, -1, 1])
    x = alg.basis_vector(1)
    assert alg.mult(x, x) == x
    # Q[X]/(X^3): X * X^2 = 0
    alg3 = FinDimAlgebra.truncated(3)
    assert alg3.mult(alg3.basis_vector(1), alg3.basis_vector(2)) == alg3.zero()


@pytest.mark.parametrize("coeffs", [
    [3, 1], [0, 0, 1], [0, -1, 1], [-2, 0, 1], [1, -3, 0, 2, 1],
    [Fraction(1, 2), 0, -7, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1],
])
def test_univariate_quotient_table_matches_per_entry_reduction(coeffs):
    alg = FinDimAlgebra.from_univariate_quotient(coeffs)
    f = tuple(Fraction(c) for c in coeffs)
    n = len(f) - 1
    for i in range(n):
        for j in range(n):
            _, rem = pdivmod((Fraction(0),) * (i + j) + (Fraction(1),), f)
            assert alg.tensor[i][j] == rem + (Fraction(0),) * (n - len(rem))


def test_decompose_split_quadratic():
    alg = FinDimAlgebra.from_univariate_quotient([0, -1, 1])  # X^2 = X
    report = decompose_algebra(alg)
    assert report.radical_dim == 0
    assert sorted(f.dim for f in report.factors) == [1, 1]
    assert all(f.principal and f.trunc_order == 1 for f in report.factors)
    # idempotents are X and 1 - X
    assert sorted(f.idempotent for f in report.factors) == [
        (Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))]
    check = reassemble(report)
    assert check.ok


def test_decompose_three_rational_points():
    # (X-1)(X-2)(X-3) = X^3 - 6X^2 + 11X - 6
    alg = FinDimAlgebra.from_univariate_quotient([-6, 11, -6, 1])
    report = decompose_algebra(alg)
    assert report.radical_dim == 0
    assert [f.dim for f in report.factors] == [1, 1, 1]
    total = alg.zero()
    for f in report.factors:
        assert alg.mult(f.idempotent, f.idempotent) == f.idempotent
        total = tuple(a + b for a, b in zip(total, f.idempotent))
    assert total == alg.unit


def test_decompose_pure_truncation():
    alg = FinDimAlgebra.truncated(3)
    report = decompose_algebra(alg)
    assert report.radical_dim == 2
    assert len(report.factors) == 1
    f = report.factors[0]
    assert f.principal and f.trunc_order == 3 and f.dim == 3
    check = reassemble(report)
    assert check.ok
    assert "(e^3)" in repr(check.sum_algebra)


def test_decompose_mixed_quartic():
    # X^3 (X - 1): a cube point and a reduced point
    alg = FinDimAlgebra.from_univariate_quotient([0, 0, 0, -1, 1])
    report = decompose_algebra(alg)
    assert report.radical_dim == 2
    assert sorted((f.dim, f.trunc_order) for f in report.factors) == [(1, 1), (3, 3)]
    assert report.all_principal
    assert set(f.describe() for f in report.factors) == {"K[e]/(e^1)", "K[e]/(e^3)"}
    check = reassemble(report)
    assert check.ok
    assert check.checked_products == 16


def test_decompose_newton_lift_hand_idempotent():
    # Q[X]/(X^2 (X - 1)): the lifted idempotent at the reduced point is X^2
    alg = FinDimAlgebra.from_univariate_quotient([0, 0, -1, 1])
    report = decompose_algebra(alg)
    ids = sorted(f.idempotent for f in report.factors)
    assert ids == [(Fraction(0), Fraction(0), Fraction(1)),
                   (Fraction(1), Fraction(0), Fraction(-1))]


def test_decompose_not_principal():
    alg = FinDimAlgebra.two_generator_square_zero()
    report = decompose_algebra(alg)
    assert report.radical_dim == 2
    assert len(report.factors) == 1
    f = report.factors[0]
    assert not f.principal
    assert f.maximal_ideal_generators == 2
    assert "NOT-PRINCIPAL" in report.describe()
    with pytest.raises(ValueError):
        reassemble(report)


def _cube_factor_report():
    # X^3 (X - 1): factors K[e]/(e^1) and K[e]/(e^3)
    report = decompose_algebra(FinDimAlgebra.from_univariate_quotient([0, 0, 0, -1, 1]))
    k = next(i for i, f in enumerate(report.factors) if f.trunc_order == 3)
    return report, k


def test_reassemble_rejects_swapped_generator_powers():
    report, k = _cube_factor_report()
    assert reassemble(report).ok
    e, g, g2 = report.factors[k].basis
    report.factors[k] = dataclasses.replace(report.factors[k], basis=(e, g2, g))
    check = reassemble(report)
    assert check.ok is False
    assert check.checked_products == 16


def test_reassemble_rejects_short_factor_basis():
    report, k = _cube_factor_report()
    report.factors[k] = dataclasses.replace(report.factors[k],
                                            basis=report.factors[k].basis[:-1])
    with pytest.raises(ArithmeticError):
        reassemble(report)


def test_reassemble_rejects_dependent_factor_basis():
    report, k = _cube_factor_report()
    e, g, _ = report.factors[k].basis
    report.factors[k] = dataclasses.replace(report.factors[k], basis=(e, g, g))
    with pytest.raises(ArithmeticError):
        reassemble(report)


def _expand(points):
    """Ascending coefficients of prod (X - r)^m over (r, m) pairs."""
    coeffs = [Fraction(1)]
    for r, m in points:
        for _ in range(m):
            coeffs = [(coeffs[k - 1] if k else 0) - r * (coeffs[k] if k < len(coeffs) else 0)
                      for k in range(len(coeffs) + 1)]
    return coeffs


@pytest.mark.parametrize("points", [
    [(0, 2), (1, 3)],
    [(0, 1), (2, 3), (-1, 2)],
    [(0, 4), (1, 1), (3, 2)],
    [(0, 2), (1, 2), (-1, 2), (2, 2)],
])
def test_reassemble_round_trip_univariate_quotients(points):
    alg = FinDimAlgebra.from_univariate_quotient(_expand(points))
    report = decompose_algebra(alg)
    assert sorted(f.trunc_order for f in report.factors) == sorted(m for _, m in points)
    check = reassemble(report)
    assert check.ok
    assert check.checked_products == alg.dim ** 2


def _dense_trace_gram(alg):
    """trace(L_i L_j) from dense left-multiplication matrices."""
    n = alg.dim
    left = [Matrix.from_rows([[alg.tensor[i][j][k] for j in range(n)] for k in range(n)])
            for i in range(n)]
    return Matrix.from_rows([[(left[i] * left[j]).trace() for j in range(n)]
                             for i in range(n)])


def _reversed_basis(alg):
    """The same algebra with its basis listed in reverse order."""
    n = alg.dim
    p = list(reversed(range(n)))
    tensor = [[[alg.tensor[p[i]][p[j]][p[k]] for k in range(n)] for j in range(n)]
              for i in range(n)]
    return FinDimAlgebra([alg.names[i] for i in p], tensor, [alg.unit[i] for i in p])


TRACE_FORM_ALGEBRAS = {
    "algebra_mixed": lambda: FinDimAlgebra.load(DATA / "algebra_mixed.txt"),
    "algebra_two_generators": lambda: FinDimAlgebra.load(DATA / "algebra_two_generators.txt"),
    "truncated_5": lambda: FinDimAlgebra.truncated(5),
    "split_2_3": lambda: FinDimAlgebra.from_univariate_quotient(_expand([(0, 2), (1, 3)])),
    "split_1_3_2": lambda: FinDimAlgebra.from_univariate_quotient(
        _expand([(0, 1), (2, 3), (-1, 2)])),
    # the complement of the radical is then not a leading run of basis vectors
    "split_2_3_reversed": lambda: _reversed_basis(
        FinDimAlgebra.from_univariate_quotient(_expand([(0, 2), (1, 3)]))),
}


@pytest.mark.parametrize("name", sorted(TRACE_FORM_ALGEBRAS))
def test_trace_form_equals_dense_products(name):
    alg = TRACE_FORM_ALGEBRAS[name]()
    assert alg.trace_form() == _dense_trace_gram(alg)


@pytest.mark.parametrize("name", sorted(TRACE_FORM_ALGEBRAS))
def test_quotient_view_section_and_radical(name):
    alg = TRACE_FORM_ALGEBRAS[name]()
    _, _, rad_basis = rref(_dense_trace_gram(alg))
    view = _QuotientView(alg, list(rad_basis))
    assert view.dim == alg.dim - len(rad_basis)
    zero = (Fraction(0),) * view.dim
    for t in range(view.dim):
        q = tuple(Fraction(int(s == t)) for s in range(view.dim))
        assert view.project(view.lift(q)) == q
    for r in rad_basis:
        assert view.project(r) == zero
    # the cached projections of the basis vectors of the algebra
    assert view.basis_projections == tuple(view.project(alg.basis_vector(k))
                                           for k in range(alg.dim))


def _independent(vectors) -> bool:
    sympy = pytest.importorskip("sympy")
    if not vectors:
        return True
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                      for v in vectors])
    return m.rank() == len(vectors)


@pytest.mark.parametrize("name", ["split_2_3", "split_1_3_2", "split_2_3_reversed"])
def test_minpoly_on_block_is_the_minimal_annihilator(name):
    alg = TRACE_FORM_ALGEBRAS[name]()
    _, _, rad_basis = rref(alg.trace_form())
    view = _QuotientView(alg, list(rad_basis))
    u = view.unit()
    zero = (Fraction(0),) * view.dim
    for p in view.basis_projections:
        y = view.mult(u, p)
        poly = _minpoly_on_block(view, u, y)
        assert poly[-1] == 1
        powers = [u]
        for _ in range(len(poly) - 1):
            powers.append(view.mult(powers[-1], y))
        # poly(y) u = 0, and no lower degree annihilates: u, ..., u y^(deg-1)
        # are independent
        total = zero
        for c, v in zip(poly, powers):
            total = view.scale_add(c, v, total)
        assert total == zero
        assert _independent(powers[:-1])


def test_decompose_irrational_residue_field():
    for coeffs in ([1, 0, 1], [-2, 0, 1]):  # X^2 + 1 and X^2 - 2
        alg = FinDimAlgebra.from_univariate_quotient(coeffs)
        with pytest.raises(IdempotentLiftingError):
            decompose_algebra(alg)


def test_decompose_irrational_with_nilpotents():
    # (X^2 - 2)^2: radical is seen first, then the residue field blocks
    alg = FinDimAlgebra.from_univariate_quotient([4, 0, -4, 0, 1])
    with pytest.raises(IdempotentLiftingError):
        decompose_algebra(alg)


def test_algebra_file_roundtrip():
    alg = FinDimAlgebra.from_univariate_quotient([0, 0, 0, -1, 1])
    text = "\n".join(alg.to_lines())
    back = FinDimAlgebra.parse(text)
    assert back.names == alg.names
    assert back.tensor == alg.tensor
    assert back.unit == alg.unit


def test_algebra_parse_errors():
    good = FinDimAlgebra.truncated(2)
    lines = good.to_lines()
    with pytest.raises(ValueError):
        FinDimAlgebra.parse("\n".join(lines[1:]))  # missing dim
    with pytest.raises(ValueError):
        FinDimAlgebra.parse("\n".join(lines[:-1]))  # missing one product
    broken = lines[:-1] + [lines[-1] + " 7"]  # wrong vector length
    with pytest.raises(ValueError):
        FinDimAlgebra.parse("\n".join(broken))


@pytest.mark.parametrize("extra", [
    "e*e = 1 0",   # a second product line for e*e
    "dim 3",       # a second dim line
    "w*w = 5 5",   # a product of names outside the basis
])
def test_algebra_parse_rejects_contradictory_lines(extra):
    # each is an error naming its line, neither ignored nor an override
    lines = FinDimAlgebra.truncated(2).to_lines()
    with pytest.raises(ValueError, match=re.escape(repr(extra))):
        FinDimAlgebra.parse("\n".join(lines + [extra]))
