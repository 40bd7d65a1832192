import dataclasses
import itertools
import random
import re
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from chevkern import cli
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
    ad_matrix,
    commutator_lift_invariance,
    decompose_algebra,
    heisenberg_commutator_value,
    killing_form,
    product_splitting,
    reassemble,
    splitness_verdict,
)
from chevkern.kernel import MAX_PARSE_BITS, DomainMismatchError, Matrix, cleared, pdivmod, rref
from chevkern.rings import TruncAlgebra

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


def test_traceless_basis_order():
    # off-diagonal units in row order, then the diagonal steps E_kk - E_k+1,k+1
    assert sl2().basis() == (E(2, 0, 1), E(2, 1, 0), H2)
    for n in (3, 4):
        lie = TracelessMatrices(n)
        for k, b in enumerate(lie.basis()):
            assert lie.coords(b) == tuple(int(i == k) for i in range(lie.dim))


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


# as Matrix.from_rows and TruncAlgebra.element do, the extension inputs refuse
# a float or a string instead of reading it through Fraction
_NOT_RATIONAL = [0.5, 1.0, "1/2"]


@pytest.mark.parametrize("bad", _NOT_RATIONAL)
def test_from_coords_refuses_floats_and_strings(bad):
    lie = sl2()
    with pytest.raises(DomainMismatchError):
        lie.from_coords([bad, 1, 2])
    assert lie.from_coords([Fraction(1, 2), 1, 2]).entry(0, 1) == Fraction(1, 2)


@pytest.mark.parametrize("bad", _NOT_RATIONAL)
def test_heisenberg_element_refuses_floats_and_strings(bad):
    grp = HeisenbergLikeGroup(sl2())
    zero = Matrix.zero(2, 2)
    with pytest.raises(DomainMismatchError):
        grp.element(zero, zero, bad)
    assert grp.element(zero, zero, Fraction(1, 4)).c == Fraction(1, 4)


@pytest.mark.parametrize("n", [2, 3])
def test_heisenberg_element_checks_shape_and_traces(n):
    grp = HeisenbergLikeGroup(TracelessMatrices(n))
    zero = Matrix.zero(n, n)
    # traceless over a common denominator of a and b together
    a = Matrix.from_rows([[Fraction(1, 2) if i == j == 0 else Fraction(-1, 2) if i == j == 1
                           else Fraction(i - j, 3) for j in range(n)] for i in range(n)])
    b = Matrix.from_rows([[Fraction(1, 3) if i == j == 0 else Fraction(-1, 3) if i == j == n - 1
                           else int(j == i + 1) for j in range(n)] for i in range(n)])
    assert grp.element(a, b, 0).a == a and grp.element(b, a, 0).b == a
    not_traceless = a + E(n, 0, 0) * Fraction(1, 6)
    wrong_shape = Matrix.zero(n + 1, n + 1)
    for args in ((not_traceless, b), (a, not_traceless), (wrong_shape, zero),
                 (zero, Matrix.zero(n, n + 1))):
        with pytest.raises(ValueError, match="components must lie in the algebra"):
            grp.element(*args, 0)
    # a non-rational entry is a domain error even where the trace would vanish
    floats = Matrix(n, n, tuple(0.5 if k == 0 else -0.5 if k == n + 1 else 0
                                for k in range(n * n)))
    with pytest.raises(DomainMismatchError):
        grp.element(floats, zero, 0)


@pytest.mark.parametrize("bad", _NOT_RATIONAL)
def test_fin_dim_algebra_refuses_floats_and_strings(bad):
    with pytest.raises(DomainMismatchError):
        FinDimAlgebra(["1"], [[[bad]]], [1])
    with pytest.raises(DomainMismatchError):
        FinDimAlgebra(["1"], [[[1]]], [bad])
    assert FinDimAlgebra(["1"], [[[1]]], [Fraction(1)]).unit == (1,)


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
    zero = Matrix.zero(2, 2)

    def rand():
        return grp.element(lie.random_element(rng), lie.random_element(rng),
                           Fraction(rng.randint(-5, 5)))

    for _ in range(15):
        g1, g2, g3 = rand(), rand(), rand()
        assert (g1 * g2) * g3 == g1 * (g2 * g3)
        assert (g1 * g1.inverse()).is_identity()
        assert (g1.inverse() * g1).is_identity()
        assert g1 * grp.element(zero, zero, 0) == g1


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


def test_splitness_inconclusive_for_a_pairing_that_is_not_bilinear():
    # f(x, y) = x01 * x10 vanishes on every basis pair of sl2 but is quadratic
    # in x, so only the section sweep sees that the group law is not split
    grp = HeisenbergLikeGroup(sl2(), form=lambda x, y: x.entry(0, 1) * x.entry(1, 0))
    verdict = splitness_verdict(grp)
    assert verdict.status == "INCONCLUSIVE"
    assert verdict.witness == (E(2, 0, 1), E(2, 1, 0))
    assert verdict.section_checked == 0


def _reference_mul(f, g1, g2):
    """(a1 + a2, b1 + b2, c1 + c2 + f(a1, b2) - f(a2, b1)) on Matrix values."""
    (a1, b1, c1), (a2, b2, c2) = g1, g2
    return a1 + a2, b1 + b2, c1 + c2 + f(a1, b2) - f(a2, b1)


def _reference_inv(g):
    a, b, c = g
    return -a, -b, -c


def _fraction_parts(g):
    assert all(type(v) is Fraction for v in g.a.entries + g.b.entries)
    return g.a, g.b, g.c


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("pairing", ["default", "user"])
def test_heisenberg_layout_matches_reference_law(n, pairing):
    lie = TracelessMatrices(n)
    if pairing == "default":
        grp, f = HeisenbergLikeGroup(lie), lambda x, y: killing_form(lie, x, y)
    else:
        def f(x, y):  # bilinear, not symmetric, with a non-integral coefficient
            return x.entry(0, 1) * y.entry(1, 1) - Fraction(1, 3) * x.entry(1, 0) * y.entry(0, 0)

        grp = HeisenbergLikeGroup(lie, form=f)
    rng = random.Random(31 + n)

    def rand():
        a, b = ([Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(lie.dim)]
                for _ in range(2))
        return grp.element(lie.from_coords(a), lie.from_coords(b),
                           Fraction(rng.randint(-6, 6), rng.randint(1, 6)))

    zero = Matrix.zero(n, n)
    identity = grp.element(zero, zero, 0)
    dens = set()
    for _ in range(12):
        g1, g2, g3 = rand(), rand(), rand()
        r1, r2 = _fraction_parts(g1), _fraction_parts(g2)
        prod = g1 * g2
        dens.add(prod.den)
        assert _fraction_parts(prod) == _reference_mul(f, r1, r2)
        assert _fraction_parts(g1.inverse()) == _reference_inv(r1)
        expected = _reference_mul(f, _reference_mul(f, _reference_mul(f, r1, r2),
                                                    _reference_inv(r1)), _reference_inv(r2))
        assert _fraction_parts(g1.commutator(g2)) == expected
        # equal elements reached by different routes
        for left, right in (((g1 * g2) * g3, g1 * (g2 * g3)),
                            (g1 * g1.inverse(), identity),
                            (grp.element(prod.a, prod.b, prod.c), prod)):
            assert left == right and hash(left) == hash(right)
    assert max(dens) > 1  # the lcm and lowest-terms paths ran


def test_bench_tracer_keeps_heisenberg_results():
    # the tracer wraps group.form after __init__; products of a default-pairing
    # group do not go through form, and the results stay the same either way
    trace = pytest.importorskip("chevbench.trace")
    lie = TracelessMatrices(3)
    rng = random.Random(37)
    draws = [(lie.random_element(rng), lie.random_element(rng), rng.randint(-4, 4))
             for _ in range(8)]

    def run():
        grp = HeisenbergLikeGroup(lie)
        gs = [grp.element(a, b, c) for a, b, c in draws]
        products = [g * h for g, h in zip(gs, gs[1:])]
        forms = [grp.form(g.a, h.b) for g, h in zip(gs, products)]
        control = HeisenbergLikeGroup(lie, form=lambda x, y: Fraction(0))
        return products, forms, splitness_verdict(grp), splitness_verdict(control)

    plain = run()
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["extensions.form"] > 0 and tracer.calls["extensions.heisenberg_mul"] > 0
    assert tracer.restored()
    assert not hasattr(HeisenbergLikeGroup(lie).form, "__wrapped__")


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
    ops = _matrix_group()
    ext = CocycleExtension(ops, _matrix_cocycle)
    one = ext.element(ops.identity)
    rng = random.Random(31)
    triples = [tuple(_rand_mat(rng) for _ in range(3)) for _ in range(20)]
    assert ext.validate_cocycle(triples)
    for g, h, k in triples:
        x = ext.element(g, (Fraction(rng.randint(-3, 3)),))
        y = ext.element(h, (Fraction(rng.randint(-3, 3)),))
        z = ext.element(k)
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == one
        assert x.inverse() * x == one


def test_cocycle_must_be_normalized():
    ops = _matrix_group()
    with pytest.raises(CocycleError):
        CocycleExtension(ops, lambda g, h: (Fraction(1),))
    with pytest.raises(CocycleError):
        CocycleExtension(ops, lambda g, h: (Fraction(0), Fraction(1)))
    # the central dimension is the length of c(e, e); any other length is refused
    ext = CocycleExtension(ops, lambda g, h: (Fraction(0),) * (2 if g.is_zero_matrix() else 1))
    assert ext.element(ops.identity).z == (0, 0)
    with pytest.raises(CocycleError, match="wrong length"):
        ext.element(E(2, 0, 1)) * ext.element(E(2, 0, 1))


def test_cocycle_identity_violation_detected():
    # not biadditive in the second argument: fails the cocycle identity
    ext = CocycleExtension(_matrix_group(),
                           lambda g, h: (g.entry(0, 0) * h.entry(1, 1) ** 2,))
    bad = (Matrix.from_rows([[1, 0], [0, 1]]),
           Matrix.from_rows([[0, 0], [0, 1]]),
           Matrix.from_rows([[0, 0], [0, 1]]))
    with pytest.raises(CocycleError):
        ext.validate_cocycle([bad])


def test_cocycle_bare_int_values_become_fractions():
    # a cocycle may return a bare int: it is wrapped and made a Fraction
    ops = GroupOps(mul=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                   inv=lambda x: (-x[0], -x[1]), identity=(0, 0))
    bare = CocycleExtension(ops, lambda x, y: x[0] * y[1])
    exact = CocycleExtension(ops, lambda x, y: (Fraction(x[0] * y[1]),))
    rng = random.Random(7)
    points = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(6)]
    triples = [(g, h, k) for g in points[:2] for h in points[2:4] for k in points[4:]]
    assert bare.validate_cocycle(triples) and exact.validate_cocycle(triples)
    for g in points:
        for h in points:
            z = (bare.element(g) * bare.element(h)).z
            assert [type(v) for v in z] == [Fraction]
            assert z == (exact.element(g) * exact.element(h)).z
            assert bare.element(g) * bare.element(h) == bare.element(ops.mul(g, h), z)
            assert bare.element(g).commutator(bare.element(h)).z == \
                exact.element(g).commutator(exact.element(h)).z
    bad = CocycleExtension(ops, lambda x, y: x[0] * y[1] ** 2)
    with pytest.raises(CocycleError):
        bad.validate_cocycle([((1, 0), (0, 1), (0, 1))])


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


def test_central_value_of_the_wrong_length_is_refused():
    # element() checks z as _c checks a cocycle value; * used to drop extra coordinates
    ext = CocycleExtension(_matrix_group(), _matrix_cocycle)
    g, h = E(2, 0, 1), E(2, 1, 0)
    for z in ((1, 2), ()):
        with pytest.raises(CocycleError, match="wrong length"):
            ext.element(g, z)
    assert ext.element(g, 3).z == ext.element(g, (Fraction(3),)).z == (Fraction(3),)
    with pytest.raises(CocycleError, match="wrong length"):
        commutator_lift_invariance(ext, g, h, [(Fraction(0),), (Fraction(1), Fraction(2))])


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


def _mixed_rat(rng):
    # an int or a Fraction with denominator 1..6
    if rng.random() < 0.3:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


# bilinear cocycles, so 2-cocycles of the additive groups, with m = 1 and m = 2
_LAYOUT_CASES = {
    ("pair", 1): lambda x, y: (Fraction(1, 2) * x[0] * y[1] - Fraction(1, 3) * x[1] * y[0],),
    ("pair", 2): lambda x, y: (x[0] * y[0], Fraction(5, 6) * x[1] * y[1] - x[0] * y[1]),
    ("matrix", 1): lambda g, h: (Fraction(1, 4) * g.entry(0, 1) * h.entry(1, 0),),
    ("matrix", 2): lambda g, h: (g.entry(0, 0) * h.entry(1, 1) - g.entry(0, 1) * h.entry(1, 0),
                                 Fraction(1, 6) * g.entry(1, 0) * h.entry(0, 0)),
}


def _reference_central(cocycle, g, h):
    val = cocycle(g, h)
    return tuple(Fraction(v) for v in (val if isinstance(val, tuple) else (val,)))


def _canonical(x):
    """The (g, z) of x, after checking that its central part is in lowest terms."""
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int for v in x.nums)
    assert gcd(x.den, *x.nums) == 1
    assert any(x.nums) or x.den == 1
    assert all(type(v) is Fraction for v in x.z)
    return x.g, x.z


@pytest.mark.parametrize("group, m", sorted(_LAYOUT_CASES))
def test_cocycle_layout_matches_reference_law(group, m):
    # the int central layout against the group law on Fraction tuples
    cocycle = _LAYOUT_CASES[group, m]
    ops = _pair_group() if group == "pair" else _matrix_group()
    ext = CocycleExtension(ops, cocycle)
    rng = random.Random(41 + m)

    def base():
        if group == "pair":
            return _mixed_rat(rng), _mixed_rat(rng)
        return Matrix.from_rows([[_mixed_rat(rng) for _ in range(2)] for _ in range(2)])

    def ref_mul(x, y):
        (g1, z1), (g2, z2) = x, y
        c = _reference_central(cocycle, g1, g2)
        return ops.mul(g1, g2), tuple(a + b + w for a, b, w in zip(z1, z2, c))

    def ref_inv(x):
        g, z = x
        ginv = ops.inv(g)
        return ginv, tuple(-a - w for a, w in zip(z, _reference_central(cocycle, g, ginv)))

    identity = ext.element(ops.identity)
    assert _canonical(identity) == (ops.identity, (0,) * m)
    dens = set()
    for _ in range(15):
        gs = [base() for _ in range(3)]
        zs = [tuple(_mixed_rat(rng) for _ in range(m)) for _ in range(3)]
        x1, x2, x3 = (ext.element(g, z) for g, z in zip(gs, zs))
        r1, r2 = [(g, tuple(map(Fraction, z))) for g, z in zip(gs, zs)][:2]
        assert _canonical(x1) == r1
        prod = x1 * x2
        dens.add(prod.den)
        assert _canonical(prod) == ref_mul(r1, r2)
        assert _canonical(x1.inverse()) == ref_inv(r1)
        expected = ref_mul(ref_mul(ref_mul(r1, r2), ref_inv(r1)), ref_inv(r2))
        assert _canonical(x1.commutator(x2)) == expected
        # == agrees with the reference on equal and on different elements
        for left, right in (((x1 * x2) * x3, x1 * (x2 * x3)),
                            (x1 * x1.inverse(), identity),
                            (x1.inverse() * x1, identity),
                            (ext.element(*ref_mul(r1, r2)), prod)):
            assert left == right
        assert (x1 * x2 == x2 * x1) == (ref_mul(r1, r2) == ref_mul(r2, r1))
        assert ext.element(gs[0], tuple(v + 1 for v in zs[0])) != x1
        assert (ext.element(gs[1], zs[0]) == x1) == (gs[1] == gs[0])
    assert max(dens) > 1  # the lcm and lowest-terms paths ran


@pytest.mark.parametrize("bad", [0.1, 1.0, True])
def test_float_or_bool_central_value_is_refused(bad):
    # a float or bool is not read through as_integer_ratio, as QQ.coerce refuses it
    ops = _pair_group()
    message = "cannot coerce %s into Q" % type(bad).__name__
    with pytest.raises(DomainMismatchError, match=message):
        CocycleExtension(ops, lambda x, y: (bad,))
    ext = CocycleExtension(ops, lambda x, y: (bad if x[0] else 0,))
    one, other = ext.element((Fraction(1), Fraction(0))), ext.element((Fraction(0), Fraction(1)))
    with pytest.raises(DomainMismatchError, match=message):
        one * other
    with pytest.raises(DomainMismatchError, match=message):
        one.inverse()
    for z in (bad, (bad,)):
        with pytest.raises(DomainMismatchError, match=message):
            ext.element(ops.identity, z)
    with pytest.raises(CocycleError, match="wrong length"):
        ext.element(ops.identity, (0, bad))


def test_product_splitting_on_int_samples_makes_no_fraction_operations(monkeypatch):
    # the extensions suite's two splitting examples, on integer samples of Z^2
    ops = GroupOps(mul=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                   inv=lambda x: (-x[0], -x[1]), identity=(0, 0))
    s1 = [(a, 0) for a in range(-2, 3)]
    s2 = [(0, b) for b in range(-2, 3)]
    cocycles = (lambda x, y: (x[0] * y[1],), lambda x, y: (x[0] * y[1] + x[1] * y[0],))
    counts = {}
    for name in ("__add__", "__mul__", "__hash__"):
        original = getattr(Fraction, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    reports = []
    for cocycle in cocycles:
        ext = CocycleExtension(ops, cocycle)
        reports.append(product_splitting(ext, ext.element, ext.element, s1, s2))
    made = dict(counts)
    # the counters do see the same run over Fraction samples
    ext = CocycleExtension(_pair_group(), cocycles[0])
    control = product_splitting(ext, ext.element, ext.element, *_factor_samples())
    monkeypatch.undo()
    assert made == {}
    assert all(counts[name] > 0 for name in ("__add__", "__mul__", "__hash__"))
    assert reports[0] == control and not control.split and control.psi_additive_ok
    assert [type(v) for v in reports[0].witness[2]] == [Fraction]
    assert reports[1].split and reports[1].section_checked == len(s1) ** 2 * len(s2) ** 2


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
    # the zero ring, where 1 = 0
    with pytest.raises(AlgebraAxiomError, match="dimension 0"):
        FinDimAlgebra([], (), ())


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


def _denominator(tensor):
    return lcm(*(Fraction(c).denominator for plane in tensor for row in plane for c in row))


def _rational_quotient(rng, dim):
    """Q[X]/(f), f monic with coefficients over denominators 1 to 3, f(0) = +-1/2 or +-1/3."""
    return FinDimAlgebra.from_univariate_quotient(
        [Fraction(rng.choice((-1, 1)), rng.randint(2, 3))]
        + [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim - 1)] + [1])


@pytest.mark.parametrize("seed", range(18))
def test_associativity_check_matches_brute_force_on_rational_tables(seed):
    # as above on a rational Q[X]/(f), each perturbation over its own
    # denominator 5 or 7, so the table's common denominator is past 1
    rng = random.Random(seed)
    dim = 3 + seed % 3
    perturbations = seed // 3 % 3
    base = _rational_quotient(rng, dim)
    tensor = [[list(row) for row in plane] for plane in base.tensor]
    for q in (5, 7)[:perturbations]:
        i, j, k = rng.randrange(1, dim), rng.randrange(1, dim), rng.randrange(dim)
        delta = Fraction(rng.choice((-2, -1, 1, 2)), q)
        tensor[i][j][k] += delta
        if i != j:
            tensor[j][i][k] += delta
    assert _denominator(tensor) > 1
    raised = _assert_validation_matches_brute_force(base.names, tensor, base.unit)
    assert raised == (perturbations != 0)


def _rational_vector(rng, n):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.8
                 else Fraction(0) for _ in range(n))


def test_mult_matches_the_tensor_sums():
    # mult against sum over i, j of x_i y_j c[i][j][k], in Fractions
    rng = random.Random(7)
    big = 2**1024 * (2**1023 + 1)
    algebras = [_rational_quotient(rng, dim) for dim in (1, 2, 4, 6, 8)] + [
        FinDimAlgebra.truncated(4), FinDimAlgebra.two_generator_square_zero(),
        FinDimAlgebra.load(DATA / "algebra_mixed.txt"),
        FinDimAlgebra.from_univariate_quotient([Fraction(-1, big), Fraction(3, big), 0, 1])]
    for alg in algebras:
        n = alg.dim
        for _ in range(6):
            x, y = _rational_vector(rng, n), _rational_vector(rng, n)
            want = tuple(sum((x[i] * y[j] * alg.tensor[i][j][k]
                              for i in range(n) for j in range(n)), Fraction(0))
                         for k in range(n))
            got = alg.mult(x, y)
            assert got == want and all(type(c) is Fraction for c in got)


def _odd_denominator_table(n=8):
    """The lines of a commutative table with unit b0 whose product b_i b_j, i, j > 0,
    has every coordinate 1/d for its own odd 2048-bit d = 2^2047 + 2r + 1."""
    names = ["b%d" % k for k in range(n)]
    lines = ["dim %d" % n, "basis " + " ".join(names),
             "unit " + " ".join(["1"] + ["0"] * (n - 1))]
    for i, j in itertools.product(range(n), repeat=2):
        if min(i, j) == 0:
            tail = " ".join(str(int(k == max(i, j))) for k in range(n))
        else:
            tail = " ".join(["1/%d" % (2**2047 + 2 * (min(i, j) * n + max(i, j)) + 1)] * n)
        lines.append("%s*%s = %s" % (names[i], names[j], tail))
    return lines


def test_common_denominator_past_the_bit_limit_is_refused_fast(tmp_path, capsys):
    # each part is within the parser's limit; the lcm of two passes it, and the
    # constructor stops there, before any product is formed
    text = "\n".join(_odd_denominator_table()) + "\n"
    message = "common denominator passes MAX_PARSE_BITS = %d bits" % MAX_PARSE_BITS
    start = time.perf_counter()
    with pytest.raises(AlgebraAxiomError, match=message):
        FinDimAlgebra.parse(text)
    assert time.perf_counter() - start < 0.1
    rows = [[Fraction(t) for t in line.split("= ")[1].split()] for line in text.splitlines()[3:]]
    tensor = [rows[i * 8:(i + 1) * 8] for i in range(8)]
    start = time.perf_counter()
    with pytest.raises(AlgebraAxiomError, match=message):
        FinDimAlgebra(["b%d" % k for k in range(8)], tensor, [1] + [0] * 7)
    assert time.perf_counter() - start < 0.1
    table = tmp_path / "algebra.txt"
    table.write_text(text)
    start = time.perf_counter()
    assert cli.main(["extensions", "--input", str(table),
                     "--output", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 0.1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_common_denominator_of_exactly_the_bit_limit_is_accepted():
    # X^3 = X/a + 1/b with a = 2^1024 and b odd: the common denominator is a*b
    for b, accepted in ((2**1023 + 1, True), (2**1024 + 1, False)):
        coeffs = [Fraction(-1, b), Fraction(-1, 2**1024), 0, 1]
        assert (2**1024 * b).bit_length() == MAX_PARSE_BITS + (not accepted)
        if not accepted:
            with pytest.raises(AlgebraAxiomError, match="MAX_PARSE_BITS"):
                FinDimAlgebra.from_univariate_quotient(coeffs)
            continue
        alg = FinDimAlgebra.from_univariate_quotient(coeffs)
        assert _denominator(alg.tensor) == 2**1024 * b
        x = alg.basis_vector(1)
        assert alg.mult(alg.mult(x, x), x) == (Fraction(1, b), Fraction(1, 2**1024), 0)
        assert alg.trace_form().entry(0, 0) == 3


def test_univariate_quotient_table():
    # Q[X]/(X^2 - X): X*X = X
    alg = FinDimAlgebra.from_univariate_quotient([0, -1, 1])
    x = alg.basis_vector(1)
    assert alg.mult(x, x) == x
    # Q[X]/(X^3): X * X^2 = 0
    alg3 = FinDimAlgebra.truncated(3)
    assert alg3.mult(alg3.basis_vector(1), alg3.basis_vector(2)) == (Fraction(0),) * alg3.dim


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
    total = (Fraction(0),) * alg.dim
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
    assert check.factors == (TruncAlgebra(3),)


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
    assert [g.d for g in check.factors] == [f.trunc_order for f in report.factors]


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
def test_each_factor_is_local_over_the_radical(name):
    # e rad(A) has codimension 1 in eA for every factor idempotent e, and
    # these parts of the radical add up to the kernel of the dense trace form
    alg = TRACE_FORM_ALGEBRAS[name]()
    _, _, rad_basis = rref(_dense_trace_gram(alg))
    report = decompose_algebra(alg)
    assert report.radical_dim == len(rad_basis)
    for f in report.factors:
        ideal = [alg.mult(f.idempotent, r) for r in rad_basis]
        assert _rank(ideal) == f.dim - 1
        assert _rank([alg.mult(f.idempotent, alg.basis_vector(k))
                      for k in range(alg.dim)]) == f.dim
    assert sum(f.dim - 1 for f in report.factors) == len(rad_basis)


def _rank(vectors) -> int:
    sympy = pytest.importorskip("sympy")
    if not vectors:
        return 0
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v]
                         for v in vectors]).rank()


def _independent(vectors) -> bool:
    return _rank(vectors) == len(vectors)


def _pair(vec) -> tuple:
    """vec as the (den, ints) pair the decomposition holds: ints over den > 0, lowest terms."""
    den, nums = cleared(vec)
    return den, tuple(nums)


def _vector(pair) -> tuple:
    den, nums = pair
    return tuple(Fraction(v, den) for v in nums)


@pytest.mark.parametrize("name", ["split_2_3", "split_1_3_2", "split_2_3_reversed"])
def test_minpoly_on_block_is_the_minimal_annihilator(name):
    # the helper takes and returns (den, ints) pairs; its powers are read as Fractions
    alg = TRACE_FORM_ALGEBRAS[name]()
    zero = (Fraction(0),) * alg.dim
    blocks = [alg.unit] + [f.idempotent for f in decompose_algebra(alg).factors]
    for e in blocks:
        for k in range(alg.dim):
            y = alg.mult(e, alg.basis_vector(k))
            poly, pairs = _minpoly_on_block(alg, _pair(e), _pair(y))
            powers = [_vector(p) for p in pairs]
            # b_k acts on eA as e b_k does
            assert _minpoly_on_block(alg, _pair(e), _pair(alg.basis_vector(k))) == (poly, pairs)
            assert poly[-1] == 1
            assert len(powers) == len(poly)
            expected = [e]
            for _ in range(len(poly) - 1):
                expected.append(alg.mult(expected[-1], y))
            assert powers == expected
            # poly(y) e = 0, and no lower degree annihilates: e, ..., e y^(deg-1)
            # are independent
            total = zero
            for c, v in zip(poly, powers):
                total = tuple(c * a + b for a, b in zip(v, total))
            assert total == zero
            assert _independent(powers[:-1])


def _cli_algebras(monkeypatch, tmp_path):
    """The algebras the extensions suite decomposes, recorded from a run of it."""
    seen = []

    def recorded(algebra):
        seen.append(algebra)
        return decompose_algebra(algebra)

    monkeypatch.setattr(cli, "decompose_algebra", recorded)
    assert cli.main(["extensions", "--output", str(tmp_path / "report.txt")]) == 0
    monkeypatch.undo()
    return seen


def test_decomposition_and_reassembly_run_on_cleared_vectors(monkeypatch, tmp_path):
    # the public mult builds Fractions; the decomposition and the reassembly use
    # the int product on (den, ints) pairs alone
    algebras = _cli_algebras(monkeypatch, tmp_path)
    assert len(algebras) == 4
    algebras += [FinDimAlgebra.load(DATA / "algebra_mixed.txt"),
                 FinDimAlgebra.from_univariate_quotient(_expand([(0, 1), (2, 3), (-1, 2)]))]
    calls = []
    mult = FinDimAlgebra.mult

    def counted(self, x, y):
        calls.append(self)
        return mult(self, x, y)

    monkeypatch.setattr(FinDimAlgebra, "mult", counted)
    reports = [decompose_algebra(alg) for alg in algebras]
    checks = [reassemble(report) for report in reports if report.all_principal]
    monkeypatch.undo()
    assert calls == []
    assert len(checks) == 5 and all(check.ok for check in checks)
    # the counter does see the public product
    monkeypatch.setattr(FinDimAlgebra, "mult", counted)
    algebras[0].mult(algebras[0].unit, algebras[0].unit)
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(TRACE_FORM_ALGEBRAS))
def test_local_factors_hold_fractions_in_idempotent_order(name):
    report = decompose_algebra(TRACE_FORM_ALGEBRAS[name]())
    for f in report.factors:
        assert all(type(c) is Fraction for c in f.idempotent)
        assert all(type(c) is Fraction for v in f.basis for c in v)
        assert len(f.basis) == f.dim
    idempotents = [f.idempotent for f in report.factors]
    assert idempotents == sorted(idempotents)


def test_int_product_is_the_cleared_public_product_in_lowest_terms():
    rng = random.Random(13)
    algebras = [_rational_quotient(rng, dim) for dim in (1, 3, 5)] + [
        FinDimAlgebra.truncated(4), FinDimAlgebra.two_generator_square_zero(),
        FinDimAlgebra.load(DATA / "algebra_mixed.txt")]
    for alg in algebras:
        for _ in range(20):
            x, y = _rational_vector(rng, alg.dim), _rational_vector(rng, alg.dim)
            # the operands need not be in lowest terms
            s, t = rng.randint(1, 6), rng.randint(1, 6)
            (dx, xs), (dy, ys) = _pair(x), _pair(y)
            den, nums = alg._times((dx * s, tuple(v * s for v in xs)),
                                   (dy * t, tuple(v * t for v in ys)))
            assert den > 0 and gcd(den, *nums) == 1
            assert type(nums) is tuple and all(type(v) is int for v in nums)
            assert (den, nums) == _pair(alg.mult(x, y))


def test_decompose_irrational_residue_field():
    for coeffs in ([1, 0, 1], [-2, 0, 1]):  # X^2 + 1 and X^2 - 2
        alg = FinDimAlgebra.from_univariate_quotient(coeffs)
        with pytest.raises(IdempotentLiftingError):
            decompose_algebra(alg)


def test_decompose_irrational_residue_field_of_large_discriminant_is_fast():
    # X^2 - pq for two 13-digit primes: the rational root search is bounded
    p, q = 1000000000039, 1000000000061
    start = time.perf_counter()
    with pytest.raises(IdempotentLiftingError):
        decompose_algebra(FinDimAlgebra.from_univariate_quotient([-p * q, 0, 1]))
    assert time.perf_counter() - start < 0.1


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


@pytest.mark.parametrize("dim_line", ["dim 2 3", "dim 2 2"])
def test_algebra_parse_rejects_a_dim_line_with_two_numbers(dim_line):
    lines = FinDimAlgebra.truncated(2).to_lines()
    assert lines[0] == "dim 2"
    with pytest.raises(ValueError, match=re.escape(repr(dim_line))):
        FinDimAlgebra.parse("\n".join([dim_line] + lines[1:]))


@pytest.mark.parametrize("token", [
    "1e64001", "1e-64001", "2.5e99999",  # exponent notation would expand 10^k
    "%d/3" % 2**2048, "3/%d" % 2**2048,  # a part of 2049 bits
    "1/0", "1.5", "+1", "1_000", "01",  # not in the form str(Fraction) writes
], ids=["1e64001", "1e-64001", "2.5e99999", "big-num", "big-den", "1/0", "1.5", "+1",
        "1_000", "01"])
@pytest.mark.parametrize("line", ["unit", "product"])
def test_algebra_parse_refuses_a_token_fast(token, line):
    # each refusal names its line and the bit limit, before any Fraction is built
    lines = FinDimAlgebra.truncated(2).to_lines()
    k = 2 if line == "unit" else len(lines) - 1
    lines[k] = lines[k].rsplit(" ", 1)[0] + " " + token
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape("line %r: %r" % (lines[k], token))
                       + ".* %d bits" % MAX_PARSE_BITS):
        FinDimAlgebra.parse("\n".join(lines))
    assert time.perf_counter() - start < 0.1


def test_algebra_parse_reads_parts_up_to_the_bit_limit():
    big = 2**MAX_PARSE_BITS - 1
    lines = FinDimAlgebra.truncated(2).to_lines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " -%d/%d" % (big, big - 2)
    assert FinDimAlgebra.parse("\n".join(lines)).tensor[1][1][1] == Fraction(-big, big - 2)


def test_algebra_save_refuses_what_load_refuses(tmp_path):
    # the constructor takes a 2101-bit coefficient, which parse refuses: save
    # refuses it too, with the message load gives for the table written out
    c = 2**2100 + 1
    path = tmp_path / "big.txt"
    with pytest.raises(ValueError) as saved:
        FinDimAlgebra.from_univariate_quotient([c, 0, 1]).save(path)
    assert not path.exists()
    path.write_text("dim 2\nbasis 1 X\nunit 1 0\n1*1 = 1 0\n1*X = 0 1\nX*1 = 0 1\n"
                    "X*X = %d 0\n" % -c)
    with pytest.raises(ValueError) as loaded:
        FinDimAlgebra.load(path)
    assert str(saved.value) == str(loaded.value)
    assert str(saved.value).endswith("parts of at most %d bits" % MAX_PARSE_BITS)


def test_algebra_save_refuses_a_value_past_the_digit_limit(tmp_path):
    # str() of a part over 4300 digits raises; save names the part's size instead
    path = tmp_path / "huge.txt"
    with pytest.raises(ValueError, match=re.escape(
            "line 'X*X = <16610-bit-part> 0': '<16610-bit-part>' is not an integer or "
            "a/b with parts of at most %d bits" % MAX_PARSE_BITS)):
        FinDimAlgebra.from_univariate_quotient([10**5000 + 1, 0, 1]).save(path)
    assert not path.exists()


def test_decompose_names_what_blocks_two_gaussian_residue_fields():
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2): the CRT idempotents are
    # rational, but both residue fields are Q(i)
    alg = FinDimAlgebra.from_univariate_quotient((4, 0, 0, 0, 1))
    with pytest.raises(IdempotentLiftingError) as info:
        decompose_algebra(alg)
    assert str(info.value) == (
        "a part of the algebra has a residue algebra of dimension 4 over Q but no "
        "residue field Q: each of its residue fields is a proper extension of Q")


def _oracle_quotients():
    """Seeded f = prod (X - r)^m, every third one times an irreducible quadratic."""
    rng = random.Random(20261018)
    quadratics = [(1, 0, 1), (-2, 0, 1), (2, 2, 1), (1, 1, 1), (Fraction(-1, 3), 0, 1)]
    cases = []
    for index in range(24):
        candidates = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2)]
        roots = sorted(set(rng.sample(candidates, rng.randint(1, 3))))
        factors = [((-r, 1), rng.randint(1, 3)) for r in roots]
        if index % 3 == 0:
            factors.append((rng.choice(quadratics), rng.randint(1, 2)))
        cases.append(factors)
    return cases


@pytest.mark.parametrize("factors", _oracle_quotients(),
                         ids=["f%d" % i for i in range(len(_oracle_quotients()))])
def test_decompose_matches_sympy_factorization(factors):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = sympy.Integer(1)
    for coeffs, m in factors:
        f *= sum(sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x ** i
                 for i, c in enumerate(coeffs)) ** m
    f = sympy.Poly(sympy.expand(f), x, domain="QQ")
    n = f.degree()
    alg = FinDimAlgebra.from_univariate_quotient(
        [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())])
    _, oracle = sympy.factor_list(f.as_expr(), x)
    if any(sympy.degree(p, x) > 1 for p, _ in oracle):
        with pytest.raises(IdempotentLiftingError):
            decompose_algebra(alg)
        return
    report = decompose_algebra(alg)
    assert sorted((fac.dim, fac.trunc_order) for fac in report.factors) == sorted(
        (m, m) for _, m in oracle)
    # the CRT idempotent of (x - r)^m: 1 mod (x - r)^m, 0 mod the cofactor
    expected = []
    for p, m in oracle:
        part = sympy.Poly(p ** m, x, domain="QQ")
        rest = sympy.quo(f, part)
        _, t, _ = sympy.gcdex(part, rest)
        crt = sympy.rem(t * rest, f)
        coeffs = list(reversed(crt.all_coeffs())) + [0] * n
        expected.append(tuple(Fraction(int(c.p), int(c.q))
                              for c in map(sympy.Rational, coeffs[:n])))
    assert sorted(fac.idempotent for fac in report.factors) == sorted(expected)
