import operator
import random
import time
from fractions import Fraction as Q
from math import gcd

import pytest

from chevkern.kernel import (
    MAX_EXPONENT,
    MAX_FIELD_DEGREE,
    MAX_PARSE_BITS,
    MAX_PARSE_DEGREE,
    MAX_PARSE_TERMS,
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
    cleared_row_reduce,
    domain_key,
    is_zero,
    one_like,
    parse_polynomial,
    pmul,
    poly_eval,
    rational_roots,
    ring_inv,
    ring_of,
    ring_pow,
    row_reduce,
    rref,
    scalar_into,
    zero_like,
)
from chevkern.rings import TruncAlgebra


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
    # the root search costs polynomial time in the coefficients' bit size
    start = time.perf_counter()
    NumberField("w", (-100000007, 0, 1))
    assert time.perf_counter() - start < 0.1
    for minpoly in ((-4, 0, 1), (0, 0, 1)):
        with pytest.raises(ValueError):
            NumberField("u", minpoly)


def test_number_field_rejects_degree_above_the_limit():
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2) has no rational root
    for minpoly in ((4, 0, 0, 0, 1), (-2, 0, 0, 0, 1), (1, 1, 1, 1, 1, 1)):
        with pytest.raises(ValueError, match="limit %d" % MAX_FIELD_DEGREE):
            NumberField("w", minpoly)


@pytest.mark.parametrize("seed", range(4))
def test_number_field_accepts_exactly_the_irreducible_polynomials(seed):
    # oracle: for degree <= 3 NumberField accepts m exactly when sympy finds
    # m irreducible over Q
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(9100 + seed)
    verdicts = set()
    for _ in range(60):
        degree = rng.randint(1, MAX_FIELD_DEGREE)
        minpoly = tuple(rng.randint(-6, 6) for _ in range(degree)) + (1,)
        try:
            NumberField("w", minpoly)
            accepted = True
        except ValueError:
            accepted = False
        irreducible = sympy.Poly(list(reversed(minpoly)), x).is_irreducible
        assert accepted == irreducible, minpoly
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_rational_roots_hand_values():
    # 2 X^3 + 5 X^2 - 3 X = X (2X - 1)(X + 3)
    assert rational_roots((Q(0), Q(-3), Q(5), Q(2))) == [Q(-3), Q(0), Q(1, 2)]
    assert rational_roots((Q(-2), Q(0), Q(1))) == []
    assert rational_roots((Q(1, 3), Q(1, 2))) == [Q(-2, 3)]
    assert rational_roots((Q(7),)) == []


# 13-digit primes p, q: trial division up to sqrt(pq) never finished on X^2 - pq
P13, Q13 = 1000000000039, 1000000000061


def test_rational_roots_of_large_coefficients_are_fast():
    cases = [
        ((-P13 * Q13, 0, 1), []),
        ((-1000003 * 1000033, 0, 1), []),
        ((P13 * Q13, -(P13 + Q13), 1), [Q(P13), Q(Q13)]),
        ((Q13, -P13), [Q(Q13, P13)]),
    ]
    for poly, roots in cases:
        start = time.perf_counter()
        assert rational_roots(tuple(Q(c) for c in poly)) == roots
        assert time.perf_counter() - start < 0.1, poly
    start = time.perf_counter()
    NumberField("w", (-P13 * Q13, 0, 1))
    assert time.perf_counter() - start < 0.1


def _rational_roots_case(rng):
    """c * prod (X - a/b)^m * q^k with q an irreducible quadratic, degree <= 11."""
    quadratic = (Q(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)),
                 Q(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)), Q(1))
    k = rng.randint(0, 2)
    poly = (Q(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)),)
    for _ in range(k):
        poly = pmul(poly, quadratic)
    while len(poly) < 12 and rng.random() < 0.8:
        root = Q(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        for _ in range(min(rng.randint(1, 3), 12 - len(poly))):
            poly = pmul(poly, (-root, Q(1)))
    return poly, quadratic, k


@pytest.mark.parametrize("seed", range(4))
def test_rational_roots_match_sympy(seed):
    # oracle: the linear factors of sympy's factorization over Q
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(4400 + seed)
    for _ in range(12):
        poly, quadratic, k = _rational_roots_case(rng)
        if k and not sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                 for c in reversed(quadratic)], x).is_irreducible:
            continue
        f = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                        for c in reversed(poly)], x, domain="QQ")
        expected = sorted(Q(str(-g.nth(0) / g.nth(1))) for g, _ in f.factor_list()[1]
                          if g.degree() == 1)
        assert rational_roots(poly) == expected, poly


def test_number_field_cross_field_mix_fails():
    K = NumberField("w", (-2, 0, 1))
    L = NumberField("v", (-3, 0, 1))
    with pytest.raises(DomainMismatchError):
        K.generator() + L.generator()
    with pytest.raises(DomainMismatchError):
        K.generator() + Q(1)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul],
                         ids=["add", "sub", "mul"])
def test_number_field_and_polynomial_refuse_each_other_in_both_orders(op):
    # the number field element refuses the polynomial from either side
    w = NumberField("w", (-2, 0, 1)).generator()
    s = MultiPoly.variable("s")
    for a, b in ((w, s), (s, w)):
        with pytest.raises(DomainMismatchError, match="number field element with MultiPoly"):
            op(a, b)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1/2"])
def test_number_field_element_refuses_floats_and_strings(bad):
    # as NumberField.coerce and Matrix.from_rows do
    K = NumberField("w", (-2, 0, 1))
    with pytest.raises(DomainMismatchError):
        K.element((bad, Q(3, 2)))
    with pytest.raises(DomainMismatchError):
        K.element((0, bad))
    assert K.element((Q(1, 2), 1)) == K.from_rational(Q(1, 2)) + K.generator()


def test_number_field_matrix_inverse():
    K = NumberField("w", (-2, 0, 1))
    w = K.generator()
    m = Matrix.from_rows([[K.one(), w], [w, K.from_rational(3)]])
    # det = 3 - 2 = 1
    inv = m.inv()
    assert (m * inv).is_identity()


# --- multivariate polynomials ----------------------------------------------

def test_poly_basic_identity():
    X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")
    assert ((X + Y) ** 2 - X ** 2 - 2 * X * Y - Y ** 2).is_zero()


def test_poly_distributivity_random():
    rng = random.Random(11)
    names = ("a", "b", "c")

    def rand_poly():
        gens = [MultiPoly.variable(n) for n in names]
        p = MultiPoly.constant(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 4)):
            t = MultiPoly.constant(rng.randint(-3, 3))
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
    # integral coefficients come out as Fractions, so division stays exact
    s = MultiPoly.variable("s")
    c = s.coefficient({"s": 1})
    assert type(c) is Q and c / 3 == Q(1, 3)
    assert type(s.coefficient({"t": 1})) is Q
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
    X, Y = MultiPoly.variable("X"), MultiPoly.variable("Y")

    def rand_poly():
        p = MultiPoly.constant(0)
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
    two = MultiPoly.constant(2)
    assert two ** -3 == MultiPoly.constant(Q(1, 8))
    with pytest.raises(NotAUnitError):
        MultiPoly.constant(0) ** -1


def test_exponent_above_the_slot_limit_raises_fast():
    # each exponent has a fixed slot whose top bit is a guard: no spill into a neighbour
    assert MAX_EXPONENT == 2**31 - 1
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="limit %d" % MAX_EXPONENT):
        x ** 2**31
    assert time.perf_counter() - start < 0.1
    top = x ** MAX_EXPONENT
    assert len(top.terms) == 1 and top.coefficient({"x": MAX_EXPONENT}) == 1
    with pytest.raises(OverflowError, match="limit %d" % MAX_EXPONENT):
        top * x
    assert (top * y).coefficient({"x": MAX_EXPONENT, "y": 1}) == 1
    assert x.coefficient({"x": 2**40}) == 0 and x.coefficient({"x": -1}) == 0


def test_parse_polynomial_rejects_bad_syntax():
    with pytest.raises(ValueError):
        parse_polynomial("__import__('os')")
    with pytest.raises(ValueError):
        parse_polynomial("X(1)")
    with pytest.raises(ValueError):
        parse_polynomial("X + ", variables=("X",))
    with pytest.raises(ValueError):
        parse_polynomial("X + Z", variables=("X", "Y"))
    # a bool is not an integer literal
    for text in ("X + True", "X^True", "X^3 - Y^2 + True - 1", "False"):
        with pytest.raises(ValueError, match="disallowed syntax"):
            parse_polynomial(text)


def test_parse_polynomial_rejects_a_power_above_the_degree_cap_fast():
    # the cap is checked before a power is expanded, so each rejection is immediate
    for text in ("(X+1)^2000", "((X+1)^8)^9", "2^(10^10)", "X^%d" % (MAX_PARSE_DEGREE + 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_DEGREE):
            parse_polynomial(text)
        assert time.perf_counter() - start < 0.1, text
    assert parse_polynomial("X^%d" % MAX_PARSE_DEGREE).degree() == MAX_PARSE_DEGREE
    assert parse_polynomial("(X*Y)^8 - 2^6").degree() == 16


def test_parse_polynomial_rejects_a_power_or_product_above_the_term_limit_fast():
    # the bound is checked before expanding: a power of a k-term polynomial
    # has at most C(n + k - 1, k - 1) terms, a product at most len(a) * len(b)
    for text in ("(X+Y+Z)^64", "(X+Y+Z+W)^30", "(X+Y+Z+W+V)^12*(X+Y+Z+W+V)^12",
                 "(X+Y+Z+W+V)^6*(X+Y+Z+W+V)^4"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_TERMS):
            parse_polynomial(text)
        assert time.perf_counter() - start < 0.1, text
    # the largest powers of X + Y + Z and of five variables under the limit
    assert len(parse_polynomial("(X+Y+Z)^43").terms) == 990
    assert len(parse_polynomial("(X+Y+Z+W+V)^10").terms) == 1001
    assert parse_polynomial("(X-X)^5 + 0^0") == 1


def test_parse_polynomial_rejects_a_power_or_product_above_the_coefficient_limit_fast():
    # p^n is bounded by n * (p's largest numerator or denominator bit size +
    # ceil(lg terms)), a product by the sum of its factors' bounds; both are
    # checked before expanding
    big = (10**40 + 1, 10**40 + 3, 10**40 + 7)
    for text in ("(X/%d + Y/%d + 1/%d)^43" % big,
                 "(X/%d + 1)^16" % 2**127,
                 "(X/%d + 1)^9 * (Y/%d + 1)^9" % (2**127, 2**127),
                 "%d^2" % 2**1500):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_BITS):
            parse_polynomial(text)
        assert time.perf_counter() - start < 0.1, text
    # the same shapes under the limit still parse
    assert len(parse_polynomial("(X/%d + Y/%d + 1/%d)^15" % big).terms) == 136
    assert parse_polynomial("(X/%d + 1)^15" % 2**127).degree() == 15
    assert parse_polynomial("%d^2" % 2**1000) == 2**2000


def test_parse_polynomial_rationals():
    p = parse_polynomial("X/2 + 1/3")
    assert poly_eval(p, {"X": Q(1)}) == Q(5, 6)


def test_parse_polynomial_raises_a_rational_base_through_an_integer_one():
    # (X/3 + Y/5 + 1/7)^43 is 105^-43 (35X + 21Y + 15)^43: the power multiplies
    # ints only, and equals the power taken over the rationals
    text = "(X/3+Y/5+1/7)^43"
    start = time.perf_counter()
    got = parse_polynomial(text)
    assert time.perf_counter() - start < 0.15
    want = parse_polynomial("X/3+Y/5+1/7") ** 43
    assert got == want and got.variables == want.variables
    assert all(type(got.terms[e]) is type(c) for e, c in want.terms.items())
    assert parse_polynomial("(X/2 - 3)^2 - 1/4") == parse_polynomial("X^2/4 - 3*X + 35/4")


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


def _reference_row_reduce(rows, ncols):
    """Gauss-Jordan on Fraction arithmetic, the generic loop of row_reduce
    written for Q: the reference for the int path."""
    nrows = len(rows)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = Q(1) / rows[r][col]
        prow = rows[r] = [x * pv for x in rows[r]]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(col)
    return pivots


def _mixed_rows(rng):
    """(rows, ncols): a leading block with zero, negative-pivot and dependent
    rows, beside an augmented block that the dependent rows still reach."""
    def entry():
        v = rng.randint(-5, 5)
        return v if rng.randrange(3) == 0 else Q(v, rng.randint(1, 4))

    nrows, ncols, extra = rng.randint(2, 7), rng.randint(1, 6), rng.randint(0, 3)
    rows = []
    for _ in range(nrows):
        kind = rng.randrange(4)
        if kind == 0 or not rows:
            lead = [entry() for _ in range(ncols)]
            lead[0] = -abs(lead[0]) - 1   # a negative pivot
        elif kind == 1:
            lead = [0] * ncols
        else:   # a combination of two earlier rows
            a, b = rng.choice(rows), rng.choice(rows)
            c = Q(rng.randint(-3, 3), rng.randint(1, 3))
            lead = [x + c * y for x, y in zip(a[:ncols], b[:ncols])]
        rows.append(lead + [entry() for _ in range(extra)])
    if rng.randrange(2):
        rows.append([0] * (ncols + extra))
    return rows, ncols


@pytest.mark.parametrize("seed", range(40))
def test_rational_row_reduce_matches_the_fraction_loop(seed):
    rng = random.Random(900 + seed)
    rows, ncols = _mixed_rows(rng)
    expected = [list(r) for r in rows]
    expected_pivots = _reference_row_reduce(expected, ncols)
    work = [list(r) for r in rows]
    assert row_reduce(work, ncols) == expected_pivots
    assert work == expected
    assert all(type(x) is Q for row in work for x in row)
    # the int elimination itself: rows over a positive denominator in lowest
    # terms, and its input left as it was
    before = [list(r) for r in rows]
    pivots, held = cleared_row_reduce(rows, ncols)
    assert rows == before and pivots == expected_pivots
    for (d, nums), row in zip(held, expected):
        assert d > 0 and gcd(d, *nums) == 1
        assert [Q(a, d) for a in nums] == row


def test_rational_row_reduce_cases_reach_every_branch():
    # besides the negative first pivot every case has, the seeds above include
    # rows past the rank that keep nonzero augmented entries, and zero rows
    past_rank = zero_row = 0
    for seed in range(40):
        rows, ncols = _mixed_rows(random.Random(900 + seed))
        work = [list(r) for r in rows]
        rank = len(row_reduce(work, ncols))
        past_rank += any(any(row[ncols:]) for row in work[rank:])
        zero_row += any(not any(row) for row in rows)
    assert past_rank and zero_row


def test_row_reduce_refuses_a_bool_entry():
    for rows in ([[True, Q(1)], [Q(2), Q(3)]], [[Q(1), Q(0)], [Q(0), False]]):
        with pytest.raises(DomainMismatchError):
            row_reduce([list(r) for r in rows], 2)


def test_number_field_rows_reduce_through_the_generic_loop(monkeypatch):
    from chevkern import kernel

    def refuse(rows, ncols):
        raise AssertionError("number-field rows reached the int elimination")

    monkeypatch.setattr(kernel, "cleared_row_reduce", refuse)
    K = NumberField("w", (-2, 0, 1))
    w, one, zero = K.generator(), K.one(), K.zero()
    # by hand: row 1 - row 0 / w is (0, 0, w / 2), so column 1 has no pivot
    m = Matrix.from_rows([[w, K.from_rational(2), one], [one, w, w]])
    reduced, rank, basis = rref(m)
    assert rank == 2
    assert reduced.rows() == [[one, w, zero], [zero, zero, one]]
    assert basis == [(-w, one, zero)]
    # det [[w, 1], [1, w]] = w^2 - 1 = 1, so the inverse is the adjugate
    square = Matrix.from_rows([[w, one], [one, w]])
    assert square.inv().rows() == [[w, -one], [-one, w]]


def test_rational_row_reduce_makes_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(77)
    rows = [[Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(7)] for _ in range(6)]
    counts = {"__mul__": 0, "__sub__": 0, "__truediv__": 0}
    for name in counts:
        def counted(self, other, name=name, method=getattr(Q, name)):
            counts[name] += 1
            return method(self, other)
        monkeypatch.setattr(Q, name, counted)
    pivots = row_reduce([list(r) for r in rows], 6)
    assert pivots == [0, 1, 2, 3, 4, 5]
    assert counts == {"__mul__": 0, "__sub__": 0, "__truediv__": 0}
    # control: the Fraction loop on the same rows is seen by the counters
    assert _reference_row_reduce([list(r) for r in rows], 6) == pivots
    assert all(counts.values())


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
    if isinstance(ring, TruncAlgebra):
        return ring.element([_random_element(ring.base, rng) for _ in range(ring.d)])
    if ring == QQ:
        return Q(rng.randint(-2, 2))
    return ring.coerce(rng.randint(-2, 2)) + MultiPoly.variable(
        rng.choice(("s", "t"))) * rng.randint(-1, 1)


def _ring_cases():
    """(ring, a non-unit of it), over rings whose inverse takes the adjugate."""
    st = PolyDomain()
    s = MultiPoly.variable("s")
    return [pytest.param(TruncAlgebra(d), TruncAlgebra(d).eps() if d > 1 else Q(0),
                         id="Q[e]/(e^%d)" % d) for d in range(1, 5)] + [
        pytest.param(st, s, id="Q[s,t]"),
        pytest.param(TruncAlgebra(2, st), TruncAlgebra(2, st).element([s, 1]),
                     id="Q[s,t][e]/(e^2)"),
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
    X = MultiPoly.variable("X")
    K = NumberField("w", (-2, 0, 1))
    A = TruncAlgebra(3)
    x0 = MultiPoly.variable("x0")
    P = TruncAlgebra(2, PolyDomain())
    return [
        pytest.param(Q(2, 3), QQ, Q(0), Q(1), Q(3, 2), Q(3, 2), Q(0),
                     id="Fraction"),
        pytest.param(MultiPoly.constant(2), PolyDomain(), MultiPoly.constant(0),
                     MultiPoly.constant(1), MultiPoly.constant(Q(3, 2)),
                     MultiPoly.constant(Q(1, 2)), X + 1, id="MultiPoly"),
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


@pytest.mark.parametrize("x, zero", [(0, True), (5, False), (Q(0), True), (Q(-2, 3), False)],
                         ids=["0", "5", "Fraction(0)", "-2/3"])
def test_is_zero_on_rationals(x, zero):
    # an int is a rational (ring_of(5) is QQ), so is_zero reads it as one
    assert is_zero(x) is zero


@pytest.mark.parametrize("value", [True, 0.5, "x"], ids=["True", "float", "str"])
def test_is_zero_refuses_what_is_not_an_element(value):
    # the same domain error that ring_of and QQ.coerce raise for these values
    with pytest.raises(DomainMismatchError):
        is_zero(value)


def test_ring_protocol_on_ints_and_non_elements():
    assert as_ring_element(5) == Q(5) and type(as_ring_element(5)) is Q
    # an int is a rational: its inverse stays exact
    assert ring_of(2) is QQ and ring_inv(2) == Q(1, 2) and type(ring_inv(2)) is Q
    for helper in (domain_key, zero_like, ring_inv, as_ring_element):
        with pytest.raises(DomainMismatchError):
            helper(object())


@pytest.mark.parametrize("value", [True, False, 0.5, "1/2", object()],
                         ids=["True", "False", "float", "str", "object"])
def test_ring_of_and_qq_coerce_refuse_what_is_not_a_rational(value):
    # a rational is an object of type exactly Fraction or int: a bool is not
    # one, at any entry point that takes a rational
    x = MultiPoly.variable("x")
    for take in (ring_of, QQ.coerce, PolyDomain().coerce, MultiPoly.constant,
                 NumberField("w", (-2, 0, 1)).coerce, TruncAlgebra(2, PolyDomain()).coerce,
                 as_ring_element, lambda c: x + c, lambda c: c + x, lambda c: x - c):
        with pytest.raises(DomainMismatchError):
            take(value)


class _Counted:
    """An integer that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


class _CountedIntegers:
    """The descriptor of ``_Counted``, enough for ``one_like``."""

    def one(self):
        return _Counted(1)


_Counted.ring = _CountedIntegers()


def test_ring_pow_squares_only_while_bits_remain():
    # right-to-left binary powering: floor(lg n) squarings plus
    # popcount(n) - 1 products into the result
    for n in range(1, 65):
        _Counted.products = 0
        assert ring_pow(_Counted(3), n).value == 3 ** n
        assert _Counted.products == n.bit_length() - 1 + bin(n).count("1") - 1, n
    _Counted.products = 0
    assert ring_pow(_Counted(3), 0).value == 1 and _Counted.products == 0
