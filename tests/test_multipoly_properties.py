"""MultiPoly arithmetic as properties: canonical results that agree with sympy,
over overlapping variable tuples, printing and hashing that do not depend on the
order of the names, and TruncElement products over Q[...]."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from chevkern.kernel import MultiPoly, PolyDomain
from chevkern.rings import TruncAlgebra

VARIABLE_TUPLES = [(), ("X",), ("Y", "X"), ("X", "Y", "Z")]
COEFFICIENTS = st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3, max_denominator=2))

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


def build(variables, terms):
    """The sum of c * prod(v^k) over the (exponent tuple, c) items of terms."""
    p = MultiPoly.constant(0)
    for e, c in terms.items():
        term = MultiPoly.constant(c)
        for v, k in zip(variables, e):
            term = term * MultiPoly.variable(v) ** k
        p = p + term
    return p


@st.composite
def polys(draw):
    """A MultiPoly over one of the tuples; zero coefficients may be drawn."""
    variables = draw(st.sampled_from(VARIABLE_TUPLES))
    exponents = st.tuples(*[st.integers(0, 1)] * len(variables))
    return build(variables, draw(st.dictionaries(exponents, COEFFICIENTS, max_size=4)))


def assert_canonical(p):
    for c in p.terms.values():
        assert type(c) in (int, Fraction) and c != 0, p.terms
        assert type(c) is int or c.denominator != 1, p.terms


def to_sympy(sympy, p):
    if isinstance(p, (int, Fraction)):
        return sympy.Rational(p.numerator, p.denominator)
    # repr writes c*X^2*Y terms, which sympy reads once ^ is **
    return sympy.sympify(repr(p).replace("^", "**"))


@PROPERTY
@given(polys(), st.one_of(polys(), COEFFICIENTS), st.integers(0, 6))
def test_arithmetic_is_canonical_and_matches_sympy(a, b, n):
    sympy = pytest.importorskip("sympy")
    x, y = to_sympy(sympy, a), to_sympy(sympy, b)
    for got, want in ((a + b, x + y), (b + a, y + x), (a - b, x - y), (b - a, y - x),
                      (a + a, x + x), ((a + b) - b, x), (a * b, x * y), (b * a, y * x),
                      (-a, -x), (a ** n, x ** n)):
        assert_canonical(got)
        assert sympy.expand(to_sympy(sympy, got) - sympy.expand(want)) == 0


@PROPERTY
@given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), COEFFICIENTS, max_size=5))
def test_one_polynomial_in_two_name_orders_prints_hashes_and_compares_alike(terms):
    # two copies of three names that no other test uses, first used in opposite orders
    first, second = ("a_1", "b_1", "c_1"), ("a_2", "b_2", "c_2")
    for v in first + second[::-1]:
        MultiPoly.variable(v)
    flipped = {e[::-1]: c for e, c in reversed(list(terms.items()))}
    for names in (first, second):
        p, q = build(names, terms), build(names[::-1], flipped)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert repr(build(first, terms)) == repr(build(second, terms)).replace("_2", "_1")


def schoolbook(x, y):
    """x * y in K[e]/(e^d) with every output slot started at zero."""
    d = x.algebra.d
    out = [x.algebra.base.zero()] * d
    for i in range(d):
        for j in range(d - i):
            out[i + j] = out[i + j] + x.coeffs[i] * y.coeffs[j]
    return tuple(out)


@PROPERTY
@given(st.integers(1, 4), st.data())
def test_trunc_products_over_polynomials_match_the_schoolbook(d, data):
    algebra = TruncAlgebra(d, PolyDomain())
    coeffs = st.lists(polys(), min_size=d, max_size=d)
    x = algebra.element(data.draw(coeffs))
    y = algebra.element(data.draw(coeffs))
    product = x * y
    assert product.coeffs == schoolbook(x, y)
    for c in product.coeffs:
        assert_canonical(c)
