"""Ring axioms of K[e]/(e^d) as properties, over Q and over Q[s, u], d = 1..5,
equal values hashing alike, and the int layout over Q against Fraction
arithmetic, d = 1..6 and 65."""

import random
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from chevkern.kernel import QQ, MultiPoly, NotAUnitError, PolyDomain, is_zero
from chevkern.rings import TruncAlgebra

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
P = PolyDomain()
MONOMIALS = st.sampled_from([MultiPoly.variable(v) ** k for v in ("s", "u") for k in (1, 2)])
POLYS = st.lists(st.tuples(RATIONALS, MONOMIALS), max_size=3).map(
    lambda terms: sum((c * m for c, m in terms), P.zero()))
SCALARS = {QQ: RATIONALS, P: POLYS}

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def elements(draw, count):
    """``count`` elements of one K[e]/(e^d), with K and d drawn too."""
    base = draw(st.sampled_from([QQ, P]))
    algebra = TruncAlgebra(draw(st.integers(1, 5)), base)
    coeffs = st.lists(SCALARS[base], min_size=algebra.d, max_size=algebra.d)
    if base == P:  # a constant x0, so that a nonzero one is a unit of Q[s, u]
        coeffs = st.tuples(RATIONALS, coeffs).map(lambda cs: [cs[0]] + cs[1][1:])
    return [algebra.element(draw(coeffs)) for _ in range(count)]


@PROPERTY
@given(elements(3))
def test_trunc_ring_axioms(xyz):
    x, y, z = xyz
    one = x.algebra.one()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert one * x == x == x * one


@PROPERTY
@given(elements(1))
def test_trunc_inverse_exactly_for_units(xs):
    (x,) = xs
    if not is_zero(x.coeff(0)):
        assert x * x.inverse() == x.algebra.one()
    else:
        with pytest.raises(NotAUnitError):
            x.inverse()


@PROPERTY
@given(elements(2), RATIONALS)
def test_trunc_equal_values_hash_alike(xz, c):
    # y from the same algebra by another route, or the constant that x equals
    x, z = xz
    A = x.algebra
    pairs = [(x, z), (x, (x + z) - z), (x, x * A.one()), (A.coerce(c), c)]
    x0 = A.element([x.coeff(0)])
    pairs += [(x0, x.coeff(0)), (x0 - x0, 0)]
    if not A.rational:
        pairs += [(A.coerce(c), MultiPoly.constant(c)), (A.element([MultiPoly.constant(c)]), c)]
    assert all(p == q for p, q in pairs[1:])
    for p, q in pairs:
        if p == q:
            assert hash(p) == hash(q)


# --- the layout over Q: int numerators over one positive denominator ----------

def canonical(x):
    """x, after checking that it is in lowest terms over Q (zero over 1)."""
    assert len(x.nums) == x.algebra.d
    assert all(type(n) is int for n in x.nums) and type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.nums) == 1
    return x


def fraction_product(a, b):
    d = len(a)
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(d))


def fraction_inverse(a):
    b = [1 / a[0]]
    for k in range(1, len(a)):
        b.append(-sum((a[i] * b[k - i] for i in range(1, k + 1)), Fraction(0)) / a[0])
    return tuple(b)


def check_against_fractions(algebra, xs, ys):
    """Every result of element, +, -, *, inverse and tail is canonical and equals
    the same operation run on the Fractions of ``coeffs``."""
    x, y = canonical(algebra.element(xs)), canonical(algebra.element(ys))
    a, b = x.coeffs, y.coeffs
    assert a == tuple(map(Fraction, xs)) + (Fraction(0),) * (algebra.d - len(xs))
    assert all(type(c) is Fraction for c in a) and a == tuple(map(x.coeff, range(algebra.d)))
    assert canonical(x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert canonical(x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert canonical(-x).coeffs == tuple(-p for p in a)
    assert canonical(x * y).coeffs == fraction_product(a, b)
    assert canonical(x.tail()).coeffs == (Fraction(0),) + a[1:]
    for z, c in ((x, a), (y, b)):
        if c[0]:
            assert canonical(z.inverse()).coeffs == fraction_inverse(c)
        else:
            with pytest.raises(NotAUnitError):
                z.inverse()


@PROPERTY
@given(st.integers(1, 6), st.data())
def test_trunc_layout_over_q_is_canonical_and_matches_fractions(d, data):
    coeffs = st.lists(RATIONALS, max_size=d)
    check_against_fractions(TruncAlgebra(d), data.draw(coeffs), data.draw(coeffs))


def test_trunc_layout_over_q_at_order_65():
    rng = random.Random(65)

    def draw():
        return [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(65)]

    xs, ys = draw(), draw()
    xs[0] = -abs(xs[0]) or Fraction(-1, 7)
    check_against_fractions(TruncAlgebra(65), xs, ys)


@PROPERTY
@given(st.sampled_from([2, 3, 4, 5, 6, 65]), st.data())
def test_trunc_equal_values_from_two_routes_are_equal_and_hash_alike(d, data):
    A = TruncAlgebra(d)
    pairs = [(A.element([Fraction(1, 2), 1]).tail(), A.eps())]
    x0 = data.draw(RATIONALS.filter(lambda c: c < 0))
    rest = data.draw(st.lists(RATIONALS, max_size=min(d, 6) - 1))
    x = A.element([x0] + rest)
    pairs.append((x.inverse(), A.element(fraction_inverse(x.coeffs))))
    pairs.append(((x + A.eps()) - A.eps(), x))
    for p, q in pairs:
        assert canonical(p) == canonical(q) and hash(p) == hash(q)
