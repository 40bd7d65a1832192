"""Ring axioms of K[e]/(e^d) as properties, over Q and over Q(sqrt 2), d = 1..5."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from chevkern.kernel import QQ, NotAUnitError, NumberField, is_zero
from chevkern.rings import TruncAlgebra

K = NumberField("w", (-2, 0, 1))
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
SCALARS = {QQ: RATIONALS, K: st.tuples(RATIONALS, RATIONALS).map(K.element)}

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def elements(draw, count):
    """``count`` elements of one K[e]/(e^d), with K and d drawn too."""
    base = draw(st.sampled_from([QQ, K]))
    algebra = TruncAlgebra(draw(st.integers(1, 5)), base)
    coeffs = st.lists(SCALARS[base], min_size=algebra.d, max_size=algebra.d)
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
