import random
import time
from fractions import Fraction as Q

import pytest

from chevkern.kernel import (
    DomainMismatchError,
    Matrix,
    MultiPoly,
    NotAUnitError,
    NumberField,
    QQ,
    PolyDomain,
    SingularMatrixError,
    UnassignedVariableError,
    as_ring_element,
    domain_key,
    is_zero,
    one_like,
    parse_polynomial,
    poly_eval,
    rational_roots,
    ring_inv,
    ring_of,
    row_reduce,
    rref,
    scalar_into,
    zero_like,
)
from chevkern.rings import SumAlgebra, TruncAlgebra


# --- row reduction ---------------------------------------------------------

def test_rref_single_row():
    m = Matrix.from_rows([[3, -2]])
    reduced, rank, basis = rref(m)
    assert rank == 1
    assert reduced.rows() == [[Q(1), Q(-2, 3)]]
    assert len(basis) == 1
    # the kernel is the line through (2, 3)
    v = basis[0]
    assert 3 * v[0] == 2 * v[1] and v != (Q(0), Q(0))


def test_rref_hand_worked():
    # oracle worked by hand: rows (1,2,3), (2,4,6), (1,0,1)
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, rank, basis = rref(m)
    assert rank == 2
    assert reduced.rows()[0] == [Q(1), Q(0), Q(1)]
    assert reduced.rows()[1] == [Q(0), Q(1), Q(1)]
    assert reduced.rows()[2] == [Q(0), Q(0), Q(0)]
    assert len(basis) == 1
    x, y, z = basis[0]
    # kernel vector satisfies both original rows
    assert x + 2 * y + 3 * z == 0
    assert x + z == 0


def test_rank_plus_nullity_random():
    rng = random.Random(101)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(nc)]
                              for _ in range(nr)])
        _, rank, basis = rref(m)
        assert rank + len(basis) == nc
        # every basis vector really is in the kernel
        for v in basis:
            for i in range(nr):
                s = sum((m.entry(i, j) * v[j] for j in range(nc)), Q(0))
                assert s == 0


def test_rref_rejects_non_field_entries():
    s = MultiPoly.variable("s")
    m = Matrix.from_rows([[s, s]])
    with pytest.raises(DomainMismatchError):
        rref(m)


# --- inverses --------------------------------------------------------------

def _random_unimodular(rng, n):
    m = Matrix.identity(n)
    for _ in range(2 * n + 3):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        shear = [[Q(1) if a == b else Q(0) for b in range(n)] for a in range(n)]
        shear[i][j] = Q(rng.randint(-3, 3))
        m = m * Matrix.from_rows(shear)
    return m


def test_matinv_roundtrip_unimodular():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = _random_unimodular(rng, n)
        assert (m * m.inv()).is_identity()
        assert (m.inv() * m).is_identity()


def test_matinv_unipotent_symbolic():
    s = MultiPoly.variable("s")
    m = Matrix.from_rows([[1, s], [0, 1]])
    inv = m.inv()
    assert inv == Matrix.from_rows([[1, -s], [0, 1]])
    assert (m * inv).is_identity()


def test_matinv_singular_rational():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as err:
        m.inv()
    assert err.value.determinant == 0


def test_det_hand_values():
    assert Matrix.from_rows([[1, 2], [3, 4]]).det() == -2
    assert Matrix.from_rows([[2, 0, 1], [1, 1, 0], [0, 3, 1]]).det() == 5
    assert Matrix.identity(6).det() == 1


def test_det_multiplicative_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert (a * b).det() == a.det() * b.det()


def test_matmul_shapes_and_transpose():
    a = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
    b = Matrix.from_rows([[1, 0], [0, 1], [1, 1]])
    ab = a * b
    assert ab.rows() == [[Q(4), Q(5)], [Q(10), Q(11)]]
    assert a.transpose().rows() == [[Q(1), Q(4)], [Q(2), Q(5)], [Q(3), Q(6)]]
    with pytest.raises(ValueError):
        b * b


def test_matrix_rejects_mixed_domains():
    K = NumberField("w", (-2, 0, 1))
    s = MultiPoly.variable("s")
    with pytest.raises(DomainMismatchError):
        Matrix.from_rows([[K.generator(), s]])
    # plain rationals DO lift into a single larger domain at construction
    m = Matrix.from_rows([[Q(1), s]])
    assert isinstance(m.entry(0, 0), MultiPoly)


# --- number fields ---------------------------------------------------------

def test_number_field_sqrt2():
    K = NumberField("w", (-2, 0, 1))
    w = K.generator()
    assert w * w == K.from_rational(2)
    a = K.element((3, 1))     # 3 + w
    b = K.element((3, -1))    # 3 - w
    assert a * b == K.from_rational(7)
    assert (a * a.inverse()) == K.one()


def test_number_field_inverse_roundtrip_random():
    K = NumberField("w", (-2, 0, 1))
    rng = random.Random(5)
    for _ in range(100):
        a = K.element((Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9))))
        if a.is_zero():
            continue
        assert a * a.inverse() == K.one()
        assert a / a == K.one()


def test_number_field_associativity_random():
    K = NumberField("c", (-2, 0, 0, 1))   # c^3 = 2
    rng = random.Random(6)
    for _ in range(80):
        xs = [K.element((rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)))
              for _ in range(3)]
        a, b, c = xs
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c


def test_number_field_rejects_rational_root():
    with pytest.raises(ValueError):
        NumberField("u", (-4, 0, 1))   # x^2 - 4 = (x-2)(x+2)
    with pytest.raises(ValueError):
        NumberField("u", (0, 0, 1))    # x^2 has root 0


def test_number_field_rational_root_screen_is_fast():
    # the root search divides the constant term up to its square root only
    start = time.perf_counter()
    NumberField("w", (-100000007, 0, 1))
    assert time.perf_counter() - start < 0.1
    for minpoly in ((-4, 0, 1), (0, 0, 1)):
        with pytest.raises(ValueError):
            NumberField("u", minpoly)


def test_rational_roots_hand_values():
    # 2 X^3 + 5 X^2 - 3 X = X (2X - 1)(X + 3)
    assert rational_roots((Q(0), Q(-3), Q(5), Q(2))) == [Q(-3), Q(0), Q(1, 2)]
    assert rational_roots((Q(-2), Q(0), Q(1))) == []
    assert rational_roots((Q(1, 3), Q(1, 2))) == [Q(-2, 3)]
    assert rational_roots((Q(7),)) == []


def test_number_field_cross_field_mix_fails():
    K = NumberField("w", (-2, 0, 1))
    L = NumberField("v", (-3, 0, 1))
    with pytest.raises(DomainMismatchError):
        K.generator() + L.generator()
    with pytest.raises(DomainMismatchError):
        K.generator() + Q(1)


def test_number_field_matrix_inverse():
    K = NumberField("w", (-2, 0, 1))
    w = K.generator()
    m = Matrix.from_rows([[K.one(), w], [w, K.from_rational(3)]])
    # det = 3 - 2 = 1
    inv = m.inv()
    assert (m * inv).is_identity()


# --- multivariate polynomials ----------------------------------------------

def test_poly_basic_identity():
    X, Y = MultiPoly.variables_in("X", "Y")
    assert ((X + Y) ** 2 - X ** 2 - 2 * X * Y - Y ** 2).is_zero()


def test_poly_distributivity_random():
    rng = random.Random(11)
    names = ("a", "b", "c")

    def rand_poly():
        gens = MultiPoly.variables_in(*names)
        p = MultiPoly.constant(rng.randint(-3, 3), names)
        for _ in range(rng.randint(1, 4)):
            t = MultiPoly.constant(rng.randint(-3, 3), names)
            for g in gens:
                t = t * g ** rng.randint(0, 2)
            p = p + t
        return p

    for _ in range(60):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p


def test_poly_alignment_across_variable_sets():
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    p = x + y
    assert p.coefficient({"x": 1}) == 1
    assert p.coefficient({"y": 1}) == 1
    assert x * y == y * x
    assert (x + y) - y == x


def test_poly_eval_and_missing_variable():
    p = parse_polynomial("X^3 - Y^2")
    assert poly_eval(p, {"X": Q(2), "Y": Q(1)}) == 7
    assert poly_eval(p, {"X": Q(0), "Y": Q(0)}) == 0
    with pytest.raises(UnassignedVariableError) as err:
        poly_eval(p, {"X": Q(1)})
    assert "Y" in str(err.value)


def test_poly_eval_into_number_field():
    K = NumberField("w", (-2, 0, 1))
    p = parse_polynomial("X^2 - 2")
    assert poly_eval(p, {"X": K.generator()}).is_zero()


def test_poly_derivative():
    p = parse_polynomial("X^3 - Y^2 + 5*X*Y")
    assert p.derivative("X") == parse_polynomial("3*X^2 + 5*Y")
    assert p.derivative("Y") == parse_polynomial("-2*Y + 5*X")
    assert p.derivative("Z").is_zero()


def test_poly_derivative_product_rule_random():
    rng = random.Random(13)
    X, Y = MultiPoly.variables_in("X", "Y")

    def rand_poly():
        p = MultiPoly.constant(0, ("X", "Y"))
        for _ in range(4):
            p = p + rng.randint(-3, 3) * X ** rng.randint(0, 3) * Y ** rng.randint(0, 2)
        return p

    for _ in range(40):
        p, q = rand_poly(), rand_poly()
        lhs = (p * q).derivative("X")
        rhs = p.derivative("X") * q + p * q.derivative("X")
        assert lhs == rhs


def test_poly_not_a_unit():
    X = MultiPoly.variable("X")
    with pytest.raises(NotAUnitError):
        X ** -1
    # a nonzero constant is a unit of Q[X]
    two = MultiPoly.constant(2, ("X",))
    assert two ** -3 == MultiPoly.constant(Q(1, 8), ("X",))
    with pytest.raises(NotAUnitError):
        MultiPoly.constant(0, ("X",)) ** -1


def test_parse_polynomial_rejects_bad_syntax():
    with pytest.raises(ValueError):
        parse_polynomial("__import__('os')")
    with pytest.raises(ValueError):
        parse_polynomial("X(1)")
    with pytest.raises(ValueError):
        parse_polynomial("X + ", variables=("X",))
    with pytest.raises(ValueError):
        parse_polynomial("X + Z", variables=("X", "Y"))


def test_parse_polynomial_rationals():
    p = parse_polynomial("X/2 + 1/3")
    assert poly_eval(p, {"X": Q(1)}) == Q(5, 6)


# --- row_reduce and its callers against sympy ------------------------------

def _sympy():
    return pytest.importorskip("sympy")


def _to_sympy(rows):
    sympy = _sympy()
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def _seeded_columns(rng, nrows, ncols):
    """Random columns over Q with zero, repeated and dependent ones mixed in."""
    cols = []
    for _ in range(ncols):
        kind = rng.randrange(5)
        if kind == 0 or not cols:
            col = [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nrows)]
        elif kind == 1:
            col = [Q(0)] * nrows
        elif kind == 2:
            col = list(rng.choice(cols))
        elif kind == 3:
            a, b = rng.choice(cols), rng.choice(cols)
            c = Q(rng.randint(-3, 3), rng.randint(1, 2))
            col = [x + c * y for x, y in zip(a, b)]
        else:
            col = [Q(rng.randint(-1, 1)) for _ in range(nrows)]
        cols.append(col)
    return [[col[i] for col in cols] for i in range(nrows)]


@pytest.mark.parametrize("seed", range(12))
def test_row_reduce_matches_sympy_rref(seed):
    rng = random.Random(seed)
    rows = _seeded_columns(rng, rng.randint(1, 6), rng.randint(1, 7))
    expected, expected_pivots = _to_sympy(rows).rref()
    work = [list(r) for r in rows]
    pivots = row_reduce(work, len(rows[0]))
    assert pivots == list(expected_pivots)
    assert _to_sympy(work) == expected


@pytest.mark.parametrize("seed", range(12))
def test_row_reduce_pivots_only_in_the_leading_block(seed):
    rng = random.Random(100 + seed)
    rows = _seeded_columns(rng, rng.randint(1, 6), rng.randint(2, 7))
    k = rng.randint(1, len(rows[0]) - 1)
    _, expected_pivots = _to_sympy([r[:k] for r in rows]).rref()
    work = [list(r) for r in rows]
    assert row_reduce(work, k) == list(expected_pivots)
    # the augmented block rides along: [A | B] becomes P [A | B] for an
    # invertible P, with P A the reduced form of A
    assert _to_sympy([r[:k] for r in work]) == _to_sympy([r[:k] for r in rows]).rref()[0]
    rank = _to_sympy(rows).rank()
    assert _to_sympy(work).rank() == rank == _to_sympy(work + rows).rank()


def _random_invertible(rng, n, entry):
    while True:
        m = Matrix.from_rows([[entry() for _ in range(n)] for _ in range(n)])
        if not is_zero(m.det()):
            return m


@pytest.mark.parametrize("seed", range(6))
def test_field_inverse_over_q_and_number_field(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(1, 4)
    m = _random_invertible(rng, n, lambda: Q(rng.randint(-5, 5), rng.randint(1, 3)))
    assert (m * m.inv()).is_identity()
    assert _to_sympy(m.inv().rows()) == _to_sympy(m.rows()).inv()
    K = NumberField("w", (-2, 0, 1))
    mk = _random_invertible(rng, n, lambda: K.element((rng.randint(-3, 3),
                                                       rng.randint(-3, 3))))
    assert (mk * mk.inv()).is_identity()
    assert (mk.inv() * mk).is_identity()


def test_field_inverse_singular_raises():
    K = NumberField("w", (-2, 0, 1))
    w = K.generator()
    singular = [
        Matrix.from_rows([[1, 2, 3], [4, 5, 6], [5, 7, 9]]),
        Matrix.from_rows([[0, 0], [0, 0]]),
        # the last row is the first plus w times the second
        Matrix.from_rows([[K.one(), w, K.zero()],
                          [w, K.one(), K.from_rational(3)],
                          [K.one() + w * w, w + w, w * K.from_rational(3)]]),
    ]
    for m in singular:
        assert is_zero(m.det())
        with pytest.raises(SingularMatrixError):
            m.inv()


# --- det and the inverse over rings that are not fields ------------------------

def _reference_det(rows, one):
    """Cofactor expansion along the first row, one sub-matrix per cofactor."""
    if not rows:
        return one
    acc = one - one
    for j, a in enumerate(rows[0]):
        sub = _reference_det([r[:j] + r[j + 1:] for r in rows[1:]], one)
        acc = acc + (a * sub if j % 2 == 0 else -(a * sub))
    return acc


def _reference_inverse(rows, one):
    """The adjugate over the determinant, each cofactor from its own sub-matrix."""
    n = len(rows)
    dinv = ring_inv(_reference_det(rows, one))

    def cofactor(i, j):
        c = _reference_det([r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i], one)
        return c if (i + j) % 2 == 0 else -c

    return Matrix.from_rows([[cofactor(j, i) * dinv for j in range(n)] for i in range(n)])


def _random_element(ring, rng):
    if isinstance(ring, SumAlgebra):
        return ring.element([_random_element(f, rng) for f in ring.factors])
    if isinstance(ring, TruncAlgebra):
        return ring.element([_random_element(ring.base, rng) for _ in range(ring.d)])
    if ring == QQ:
        return Q(rng.randint(-2, 2))
    if isinstance(ring, NumberField):
        return ring.element([rng.randint(-2, 2) for _ in range(ring.degree)])
    return ring.coerce(rng.randint(-2, 2)) + MultiPoly.variable(
        rng.choice(ring.variables)) * rng.randint(-1, 1)


def _ring_cases():
    """(ring, a non-unit of it), over rings whose inverse takes the adjugate."""
    st = PolyDomain("s", "t")
    s, _ = MultiPoly.variables_in("s", "t")
    r2 = TruncAlgebra(2, NumberField("r", (-2, 0, 1)))
    F = TruncAlgebra(2)
    S = SumAlgebra([F, TruncAlgebra(3), TruncAlgebra(1)])
    return [pytest.param(TruncAlgebra(d), TruncAlgebra(d).eps() if d > 1 else Q(0),
                         id="Q[e]/(e^%d)" % d) for d in range(1, 5)] + [
        pytest.param(st, s, id="Q[s,t]"),
        pytest.param(TruncAlgebra(2, st), TruncAlgebra(2, st).element([s, 1]),
                     id="Q[s,t][e]/(e^2)"),
        pytest.param(r2, r2.eps(), id="Q(r2)[e]/(e^2)"),
        pytest.param(S, S.element([F.one(), TruncAlgebra(3).eps(), TruncAlgebra(1).one()]),
                     id="SumAlgebra"),
    ]


@pytest.mark.parametrize("ring, non_unit", _ring_cases())
def test_det_and_ring_inverse_match_a_cofactor_reference(ring, non_unit):
    assert not ring.is_field()
    rng = random.Random(repr(ring))
    one, zero = ring.one(), ring.zero()
    for n in range(1, 6):
        rows = [[_random_element(ring, rng) for _ in range(n)] for _ in range(n)]
        assert Matrix.from_rows(rows).det() == _reference_det(rows, one)
        # unit lower times upper with unit diagonal: the determinant is a unit
        lower = Matrix.from_rows([[_random_element(ring, rng) if j < i
                                   else one if j == i else zero
                                   for j in range(n)] for i in range(n)])
        upper = Matrix.from_rows([[_random_element(ring, rng) if j > i
                                   else ring.coerce(rng.choice((1, -1, 2))) if j == i
                                   else zero for j in range(n)] for i in range(n)])
        g = lower * upper
        g_inv = g.inv()
        assert g.det() == _reference_det(g.rows(), one)
        assert g_inv == _reference_inverse(g.rows(), one)
        assert (g * g_inv).is_identity() and (g_inv * g).is_identity()
        # a row scaled by a non-unit makes the determinant a non-unit
        scaled = g.rows()
        scaled[0] = [x * non_unit for x in scaled[0]]
        singular = Matrix.from_rows(scaled)
        with pytest.raises(SingularMatrixError) as err:
            singular.inv()
        assert err.value.determinant == _reference_det(scaled, one) == singular.det()


def test_ring_inverse_builds_only_its_result(monkeypatch):
    # det and every cofactor come from one table of minors: no sub-matrix
    T = TruncAlgebra(3)
    rng = random.Random(5)
    g = Matrix.from_rows([[_random_element(T, rng) for _ in range(4)] for _ in range(4)])
    built = []
    init = Matrix.__init__

    def counting_init(self, *args):
        built.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    g.det()
    assert built == []
    g.inv()
    assert built == [(4, 4)]


# --- the ring protocol behind the generic helpers ---------------------------

def _protocol_cases():
    """(element x, its descriptor, zero, one, image of 3/2, x^-1, a non-unit)."""
    XY = ("X", "Y")
    X, _ = MultiPoly.variables_in(*XY)
    K = NumberField("w", (-2, 0, 1))
    w = K.generator()
    A = TruncAlgebra(3)
    x0, _ = MultiPoly.variables_in("x0", "x1")
    P = TruncAlgebra(2, PolyDomain("x0", "x1"))
    N = TruncAlgebra(2, K)
    F1, F2 = TruncAlgebra(2), TruncAlgebra(1)
    S = SumAlgebra([F1, F2])
    return [
        pytest.param(Q(2, 3), QQ, Q(0), Q(1), Q(3, 2), Q(3, 2), Q(0),
                     id="Fraction"),
        pytest.param(MultiPoly(XY, {(0, 0): 2}), PolyDomain(*XY), MultiPoly(XY, {}),
                     MultiPoly(XY, {(0, 0): 1}), MultiPoly(XY, {(0, 0): Q(3, 2)}),
                     MultiPoly(XY, {(0, 0): Q(1, 2)}), X + 1, id="MultiPoly"),
        # (1 + w)(w - 1) = w^2 - 1 = 1
        pytest.param(K.element((1, 1)), NumberField("w", (-2, 0, 1)), K.element((0, 0)),
                     K.element((1, 0)), K.element((Q(3, 2), 0)), K.element((-1, 1)),
                     K.element((0, 0)), id="NumberFieldElement"),
        pytest.param(A.element([1, 1]), TruncAlgebra(3, QQ), A.element([0, 0, 0]),
                     A.element([1, 0, 0]), A.element([Q(3, 2), 0, 0]),
                     A.element([1, -1, 1]), A.element([0, 1]), id="Trunc-QQ"),
        # (2 + x0 e)(1/2 - x0/4 e) = 1 mod e^2
        pytest.param(P.element([2, x0]), TruncAlgebra(2, PolyDomain()), P.element([0, 0]),
                     P.element([1, 0]), P.element([Q(3, 2), 0]),
                     P.element([Q(1, 2), x0 * Q(-1, 4)]), P.element([x0, 1]),
                     id="Trunc-PolyDomain"),
        # (w + e)^-1 = 1/w - e/w^2 = w/2 - e/2
        pytest.param(N.element([w, 1]), TruncAlgebra(2, NumberField("w", (-2, 0, 1))),
                     N.element([K.element((0, 0))] * 2),
                     N.element([K.element((1, 0)), K.element((0, 0))]),
                     N.element([K.element((Q(3, 2), 0)), K.element((0, 0))]),
                     N.element([K.element((0, Q(1, 2))), K.element((Q(-1, 2), 0))]),
                     N.eps(), id="Trunc-NumberField"),
        pytest.param(S.element([F1.element([1, 1]), F2.element([2])]),
                     SumAlgebra([TruncAlgebra(2), TruncAlgebra(1)]),
                     S.element([F1.element([0, 0]), F2.element([0])]),
                     S.element([F1.element([1, 0]), F2.element([1])]),
                     S.element([F1.element([Q(3, 2), 0]), F2.element([Q(3, 2)])]),
                     S.element([F1.element([1, -1]), F2.element([Q(1, 2)])]),
                     S.element([F1.element([1, 0]), F2.element([0])]), id="SumElement"),
    ]


@pytest.mark.parametrize("x, key, zero, one, three_halves, inverse, non_unit",
                         _protocol_cases())
def test_ring_protocol_by_hand(x, key, zero, one, three_halves, inverse, non_unit):
    assert domain_key(x) == key and hash(domain_key(x)) == hash(key)
    for got, want in ((zero_like(x), zero), (one_like(x), one),
                      (scalar_into(Q(3, 2), x), three_halves)):
        assert got == want and type(got) is type(want)
        if isinstance(x, MultiPoly):
            assert got.variables == x.variables
    assert is_zero(zero) and not is_zero(x)
    assert ring_inv(x) == inverse and x * ring_inv(x) == one
    with pytest.raises(NotAUnitError):
        ring_inv(non_unit)


def test_ring_protocol_on_ints_and_non_elements():
    assert as_ring_element(5) == Q(5) and type(as_ring_element(5)) is Q
    # an int is a rational: its inverse stays exact
    assert ring_of(2) is QQ and ring_inv(2) == Q(1, 2) and type(ring_inv(2)) is Q
    for helper in (domain_key, zero_like, ring_inv, as_ring_element):
        with pytest.raises(DomainMismatchError):
            helper(object())
