import itertools
import random
import re
from fractions import Fraction as Q

import pytest

from chevkern.cli import _rat
from chevkern.kernel import (
    MAX_PARSE_DEGREE,
    QQ,
    DomainMismatchError,
    Matrix,
    MultiPoly,
    NotAUnitError,
    NumberField,
    PolyDomain,
    SingularMatrixError,
)
from chevkern.rings import (
    OneMinusFactorization,
    TruncAlgebra,
    expand_unit_product,
    factor_one_minus_ux,
    unit_group_witness,
)


# --- arithmetic ---------------------------------------------------------------

def test_trunc_hand_products():
    A2 = TruncAlgebra(2)
    A3 = TruncAlgebra(3)
    one_plus = A2.one() + A2.eps()
    one_minus = A2.one() - A2.eps()
    assert one_plus * one_minus == A2.one()
    p3 = A3.one() + A3.eps()
    m3 = A3.one() - A3.eps()
    assert p3 * m3 == A3.one() - A3.eps(2)
    assert A3.eps() * A3.eps(2) == A3.zero()


def test_trunc_inverse_d4():
    A = TruncAlgebra(4)
    x = A.one() + A.eps()
    assert x.inverse() == A.element([1, -1, 1, -1])
    assert x * x.inverse() == A.one()


def test_trunc_inverse_roundtrip_random():
    rng = random.Random(31)
    for d in range(2, 7):
        A = TruncAlgebra(d)
        for _ in range(40):
            coeffs = [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]
            if coeffs[0] == 0:
                coeffs[0] = Q(1)
            x = A.element(coeffs)
            assert x * x.inverse() == A.one()
            assert x.inverse() * x == A.one()


def _geometric_inverse(x):
    """Reference inverse (1 - n + n^2 - ...) / x0 with n = (x - x0) / x0."""
    A = x.algebra
    inv0 = A.element([A.base.inv(x.coeff(0))])
    n = x.tail() * inv0
    acc = power = A.one()
    for _ in range(1, A.d):
        power = power * -n
        acc = acc + power
    return acc * inv0


def test_trunc_inverse_matches_geometric_series():
    rng = random.Random(43)
    s, t = MultiPoly.variable("s"), MultiPoly.variable("t")

    def rat():
        return Q(rng.randint(-5, 5), rng.randint(1, 4))

    def nonzero():
        return rat() or Q(1)

    # (base, a draw of a coefficient, a draw of a unit of the base)
    draws = (
        (QQ, rat, nonzero),
        (PolyDomain(), lambda: rat() + rat() * s + rat() * t * t, nonzero),
    )
    for base, draw, unit in draws:
        for d in range(1, 7):
            A = TruncAlgebra(d, base=base)
            for _ in range(6):
                x = A.element([unit()] + [draw() for _ in range(d - 1)])
                inv = x.inverse()
                assert inv == _geometric_inverse(x)
                assert x * inv == A.one()
            bad = A.element([base.zero()] + [draw() for _ in range(d - 1)])
            with pytest.raises(NotAUnitError, match="^constant coefficient 0 is not a unit, "
                                                    "element .* has no inverse$"):
                bad.inverse()
    A = TruncAlgebra(3, base=PolyDomain())
    with pytest.raises(NotAUnitError, match="^constant coefficient s is not a unit"):
        A.element([s, 1]).inverse()


def test_unit_criterion_exhaustive_small():
    A = TruncAlgebra(3)
    vals = [Q(0), Q(1), Q(-1), Q(2)]
    for c0, c1, c2 in itertools.product(vals, repeat=3):
        x = A.element([c0, c1, c2])
        if c0 != 0:
            assert x.is_unit()
            assert x * x.inverse() == A.one()
        else:
            assert not x.is_unit()
            with pytest.raises(NotAUnitError):
                x.inverse()


def test_trunc_ring_axioms_random():
    rng = random.Random(37)
    A = TruncAlgebra(5)
    for _ in range(60):
        xs = [A.element([Q(rng.randint(-4, 4)) for _ in range(5)]) for _ in range(3)]
        x, y, z = xs
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_trunc_mismatched_order_rejected():
    x = TruncAlgebra(2).one()
    y = TruncAlgebra(3).one()
    with pytest.raises(DomainMismatchError):
        x + y
    with pytest.raises(DomainMismatchError):
        x * y


@pytest.mark.parametrize("base, shown", [
    (NumberField("w", (-2, 0, 1)), "NumberField('w', [-2, 0, 1])"),
    (TruncAlgebra(2), "QQ[e]/(e^2)"),
    (object(), "<object object at 0x"),
], ids=["NumberField", "TruncAlgebra", "object"])
def test_trunc_algebra_refuses_other_bases(base, shown):
    # each element has one of two layouts: ints over one denominator over QQ,
    # one packed MultiPoly over a PolyDomain
    with pytest.raises(DomainMismatchError, match="^truncated algebras are over QQ or a "
                                                  "PolyDomain, not " + re.escape(shown)):
        TruncAlgebra(2, base)


def test_trunc_algebra_refuses_an_order_that_is_not_a_positive_int():
    # a float would fail only at the first product, and a bool is not a number here
    for d in (2.0, True, 0):
        with pytest.raises(ValueError, match="^truncation order must be an int of at least 1, "
                                             "not %s$" % re.escape(repr(d))):
            TruncAlgebra(d)


def test_equal_values_hash_equal_across_types():
    # Python's contract: x == y implies hash(x) == hash(y)
    one = TruncAlgebra(3).one()
    assert one == 1 and len({one, 1}) == 1
    assert MultiPoly.constant(1) == 1 and hash(MultiPoly.constant(1)) == hash(1)
    assert MultiPoly({}) == 0 and hash(MultiPoly({})) == hash(0)
    x = MultiPoly.variable("x")
    y = TruncAlgebra(3, PolyDomain()).element([x])
    assert y == x and hash(y) == hash(x)
    half = TruncAlgebra(3, PolyDomain()).coerce(Q(1, 2))
    assert half == Q(1, 2) and len({half, Q(1, 2), MultiPoly.constant(Q(1, 2))}) == 1


def test_trunc_serialization_roundtrip():
    A = TruncAlgebra(3)
    x = A.element([1, 0, Q(3, 2)])
    assert str(x) == "1 + 0*e + 3/2*e^2"
    assert A.parse(str(x)) == x
    assert A.parse("1 + e") == A.one() + A.eps()
    with pytest.raises(ValueError):
        A.parse("e^3")


def test_trunc_parse_replays_cli_samples():
    # the CLI's FAIL records print samples with str(); parse must read them back
    rng = random.Random(11)
    for d in range(2, 7):
        A = TruncAlgebra(d)
        for _ in range(20):
            x = A.element([_rat(rng) for _ in range(d)])
            assert A.parse(str(x)) == x
    x = TruncAlgebra(3).element([Q(-7, 9), Q(-1, 2), Q(-3)])
    assert str(x) == "-7/9 + -1/2*e + -3*e^2"
    assert TruncAlgebra(3).parse(str(x)) == x


def test_trunc_parse_reaches_the_parser_degree_limit():
    # README promises replay for d up to 65: e^64 is the parser's top degree
    rng = random.Random(65)
    A = TruncAlgebra(MAX_PARSE_DEGREE + 1)
    x = A.element([_rat(rng) for _ in range(A.d)])
    assert A.parse(str(x)) == x
    with pytest.raises(ValueError, match="limit %d" % MAX_PARSE_DEGREE):
        TruncAlgebra(MAX_PARSE_DEGREE + 2).parse("1 + e^%d" % (MAX_PARSE_DEGREE + 1))


def test_trunc_parse_over_a_polynomial_base_names_the_free_variable():
    # parse reads what str writes over Q; a base variable is not e
    with pytest.raises(ValueError, match="s0"):
        TruncAlgebra(3, PolyDomain()).parse("s0 + e")


def test_trunc_matrix_singular_determinant_is_eps():
    A = TruncAlgebra(2)
    e = A.eps()
    m = Matrix.from_rows([[e, A.zero()], [A.zero(), A.one()]])
    with pytest.raises(SingularMatrixError) as err:
        m.inv()
    assert err.value.determinant == e


def test_trunc_matrix_inverse_geometric():
    A = TruncAlgebra(4)
    e = A.eps()
    m = Matrix.from_rows([[A.one() + e, e], [A.zero(), A.one() - e]])
    inv = m.inv()
    assert (m * inv).is_identity()
    assert (inv * m).is_identity()


# --- unit-group witnesses --------------------------------------------------------

def test_unit_witness_d2_hand():
    A = TruncAlgebra(2)
    x = A.one() + A.eps()
    target = A.element([1, 5])
    w = unit_group_witness(x, target)
    assert w.symmetric == (Q(5),)


def test_unit_witness_random_roundtrip():
    rng = random.Random(41)
    for d in range(2, 7):
        A = TruncAlgebra(d)
        for _ in range(25):
            xc = [Q(1)] + [Q(rng.randint(-5, 5)) for _ in range(d - 1)]
            if xc[1] == 0:
                xc[1] = Q(2)
            x = A.element(xc)
            tc = [Q(1)] + [Q(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(d - 1)]
            target = A.element(tc)
            w = unit_group_witness(x, target)
            # independent recomputation: powers of delta summed with the s_k
            total = A.one()
            power = A.one()
            for s in w.symmetric:
                power = power * w.delta
                total = total + power * A.element([s])
            assert total == target


def test_unit_witness_preconditions():
    A = TruncAlgebra(3)
    with pytest.raises(ValueError):
        unit_group_witness(A.one() + A.eps(2), A.one())   # x1 = 0
    with pytest.raises(NotAUnitError):
        unit_group_witness(A.eps(), A.one())              # x not a unit
    with pytest.raises(ValueError):
        unit_group_witness(A.one() + A.eps(), A.element([2, 0, 0]))  # target != 1 mod e


def test_unit_product_symbolic_identity():
    # product of (1 + u_i e) equals 1 + sum of elementary symmetric e_k(u) e^k,
    # checked with formal coefficients u_i for every order 2..6
    for d in range(2, 7):
        names = ["u%d" % i for i in range(1, d)]
        A = TruncAlgebra(d, base=PolyDomain())
        us = [MultiPoly.variable(n) for n in names]
        lhs = expand_unit_product(A.eps(), us)
        # independent oracle: combinatorial elementary symmetric functions
        coeffs = [MultiPoly.constant(1)]
        for k in range(1, d):
            total = MultiPoly.constant(0)
            for combo in itertools.combinations(us, k):
                prod = MultiPoly.constant(1)
                for u in combo:
                    prod = prod * u
                total = total + prod
            coeffs.append(total)
        assert lhs == A.element(coeffs)


def test_factor_one_minus_ux_hand():
    A = TruncAlgebra(2)
    x = A.one() + A.eps()
    f = factor_one_minus_ux(2, x)
    assert isinstance(f, OneMinusFactorization)
    assert f.scalar == Q(-1)
    assert f.v == Q(2)
    assert f.unit == A.element([1, 2])


def test_factor_one_minus_ux_random():
    rng = random.Random(43)
    for d in range(2, 6):
        A = TruncAlgebra(d)
        for _ in range(30):
            x = A.element([Q(rng.randint(-4, 4)) for _ in range(d)])
            u = Q(rng.randint(-5, 5))
            if 1 - u * x.coeff(0) == 0:
                with pytest.raises(NotAUnitError):
                    factor_one_minus_ux(u, x)
                continue
            f = factor_one_minus_ux(u, x)
            lhs = A.one() - x * A.element([u])
            assert A.element([f.scalar]) * f.unit == lhs
            assert f.v == -u / f.scalar


def test_polynomial_takes_a_truncated_element_on_its_right():
    # MultiPoly leaves another ring's element to its reflected method
    A = TruncAlgebra(2, base=PolyDomain())
    s, e = MultiPoly.variable("s"), A.eps(1)
    assert s + e == e + s
    assert s * e == e * s
    assert s - e == -(e - s)
    with pytest.raises(DomainMismatchError):
        s + TruncAlgebra(2).eps(1)


def test_a_bool_is_not_a_truncated_scalar():
    # a bool is no rational, so it compares unequal as it does with a MultiPoly
    x = TruncAlgebra(3).one()
    assert (x == True) is False and (x != True) is True  # noqa: E712
    assert (MultiPoly.constant(1) == True) is False  # noqa: E712
    assert x == 1 and x == Q(1)
    for combine in (lambda c: x * c, lambda c: x + c, lambda c: c * x, lambda c: c + x):
        with pytest.raises(DomainMismatchError):
            combine(True)


def test_a_product_over_q_makes_no_fraction_operations(monkeypatch):
    # the product runs on int numerators over one denominator
    A = TruncAlgebra(4)
    x = A.element([Q(-2, 3), Q(1, 2), 5, Q(7, 4)])
    y = A.element([3, Q(1, 7), Q(-2, 5), 0])
    counts = {}
    for name in ("__add__", "__mul__", "__new__"):
        original = getattr(Q, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(Q, name, staticmethod(counted) if name == "__new__" else counted)
    product = x * y
    made = dict(counts)
    Q(1, 2) * Q(1, 3)  # the counters do see a Fraction product
    monkeypatch.undo()
    assert made == {}
    assert counts["__mul__"] == 1 and counts["__new__"] >= 1
    assert product.coeffs == (Q(-2), Q(59, 42), Q(3221, 210), Q(807, 140))


def test_generic_elements_need_poly_base():
    with pytest.raises(DomainMismatchError):
        TruncAlgebra(3).generic("x")
    A = TruncAlgebra(2, base=PolyDomain())
    g = A.generic("x")
    assert g.coeff(0) == MultiPoly.variable("x0")
    assert g.coeff(1) == MultiPoly.variable("x1")
