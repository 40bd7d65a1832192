"""Truncated elements over a polynomial base: one MultiPoly with e in the
reserved slot, against the nested layout, a tuple of d MultiPoly coefficients
with truncated convolution, kept here as the reference law."""

import random
from fractions import Fraction

import pytest

from chevkern import kernel
from chevkern.chevalley import (
    build_model,
    load_structure_constants,
    ordered_root_pairs,
    verify_commutator,
)
from chevkern.kernel import (
    EPS_NAME,
    MAX_EXPONENT,
    QQ,
    DomainMismatchError,
    MultiPoly,
    NotAUnitError,
    PolyDomain,
    parse_polynomial,
)
from chevkern.rings import TruncAlgebra, TruncElement

P = PolyDomain()


# --- the reference law: the nested layout on tuples of MultiPoly --------------

def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def ref_mul(a, b):
    d = len(a)
    out = [None] * d
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j in range(d - i):
            y = b[j]
            if y.is_zero():
                continue
            k = i + j
            out[k] = x * y if out[k] is None else out[k] + x * y
    return tuple(P.zero() if c is None else c for c in out)


def ref_inverse(a):
    inv0 = P.inv(a[0])
    b = [inv0]
    for k in range(1, len(a)):
        acc = a[1] * b[k - 1]
        for i in range(2, k + 1):
            acc = acc + a[i] * b[k - i]
        b.append(-inv0 * acc)
    return tuple(b)


def ref_str(a):
    parts = []
    for k, c in enumerate(a):
        parts.append(str(c) if k == 0 else "%s*e" % (c,) if k == 1 else "%s*e^%d" % (c, k))
    return " + ".join(parts)


# --- seeded draws ----------------------------------------------------------------

NAMES = ("e", "s", "u")  # a base variable literally named e keeps working


def draw_poly(rng, names):
    """A polynomial in ``names`` with 0 to 3 terms and small rational coefficients;
    about one draw in four is zero."""
    if rng.random() < 0.25:
        return P.zero()
    p = P.zero()
    for _ in range(rng.randint(1, 3)):
        term = MultiPoly.constant(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for name in names:
            term = term * MultiPoly.variable(name) ** rng.randint(0, 2)
        p = p + term
    return p


def draw_coeffs(rng, d, names, unit=False):
    cs = [draw_poly(rng, names) for _ in range(d)]
    if unit:
        cs[0] = MultiPoly.constant(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
    return tuple(cs)


def check(algebra, x, a):
    """x is an element of ``algebra`` whose coefficients are the tuple a."""
    assert type(x) is TruncElement and x.algebra == algebra
    assert x.coeffs == a and tuple(map(x.coeff, range(algebra.d))) == a
    assert all(type(c) is MultiPoly for c in x.coeffs)
    assert x.is_zero() == all(c.is_zero() for c in a)
    assert str(x) == ref_str(a)
    assert EPS_NAME not in str(x) and EPS_NAME not in repr(x)
    assert all(EPS_NAME not in c.variables and EPS_NAME not in repr(c) for c in x.coeffs)
    assert x == algebra.element(a) and hash(x) == hash(algebra.element(a))
    assert x.order() == next((k for k, c in enumerate(a) if not c.is_zero()), algebra.d)


CASES = [(d, n, seed) for d in range(1, 6) for n in (1, 2, 3) for seed in range(6)]


def draw_case(d, n, seed):
    """Two coefficient tuples in n of the names, the second with a unit x0."""
    rng = random.Random(1000 * d + 10 * n + seed)
    names = NAMES[:n] if seed % 2 else NAMES[-n:]
    return draw_coeffs(rng, d, names), draw_coeffs(rng, d, names, unit=True)


@pytest.mark.parametrize("d,n,seed", CASES)
def test_packed_layout_matches_the_nested_reference(d, n, seed):
    algebra = TruncAlgebra(d, P)
    a, b = draw_case(d, n, seed)
    x, y = algebra.element(a), algebra.element(b)
    check(algebra, x, a)
    check(algebra, y, b)
    check(algebra, x + y, ref_add(a, b))
    check(algebra, x - y, ref_sub(a, b))
    check(algebra, -x, ref_neg(a))
    check(algebra, x * y, ref_mul(a, b))
    check(algebra, y * x, ref_mul(b, a))
    check(algebra, x * x, ref_mul(a, a))
    check(algebra, x.tail(), (P.zero(),) + a[1:])
    check(algebra, y.inverse(), ref_inverse(b))
    check(algebra, y * y.inverse(), (P.one(),) + (P.zero(),) * (d - 1))
    # equal values by different routes are equal and hash alike
    for p, q in ((x * y, y * x), ((x + y) - y, x), (x - x, algebra.zero()),
                 (-(-x), x), (y * y.inverse(), algebra.one())):
        assert p == q and hash(p) == hash(q)
    assert (x == y) == (a == b)
    if a[0].is_constant() and not a[0].is_zero():
        check(algebra, x.inverse(), ref_inverse(a))
    else:
        with pytest.raises(NotAUnitError):
            x.inverse()


def test_packed_layout_cases_reach_every_branch():
    # zero slots, zero elements, a nonconstant x0, and products whose terms pass e^d
    seen = {"zero slot": 0, "zero element": 0, "nonunit": 0, "truncated": 0}
    for d, n, seed in CASES:
        a, b = draw_case(d, n, seed)
        seen["zero slot"] += any(c.is_zero() for c in a)
        seen["zero element"] += all(c.is_zero() for c in a)
        seen["nonunit"] += not (a[0].is_constant() and not a[0].is_zero())
        seen["truncated"] += any(not a[i].is_zero() and not b[j].is_zero()
                                 for i in range(d) for j in range(d) if i + j >= d)
    assert all(seen.values()), seen


def test_coeff_reads_each_slot_without_e():
    A = TruncAlgebra(4, P)
    s, e = MultiPoly.variable("s"), MultiPoly.variable("e")
    x = A.element([s, 0, e * s, 3])
    assert x.coeff(0) == s and x.coeff(1) == 0 and x.coeff(2) == e * s and x.coeff(3) == 3
    assert x.coeff(-1) == 3 and x.coeffs == (s, 0, e * s, 3)
    with pytest.raises(IndexError):
        x.coeff(4)
    assert x.order() == 0 and x.tail().order() == 2 and A.zero().order() == 4
    assert A.eps(3).order() == 3 and (A.eps(2) * s).order() == 2


@pytest.mark.parametrize("base", [QQ, P], ids=["Q", "Q[...]"])
def test_order_is_the_first_nonzero_coefficient_on_every_layout(base):
    A = TruncAlgebra(4, base)
    two = base.coerce(2)
    assert A.zero().order() == 4 and A.one().order() == 0
    for k in range(4):
        assert A.element([0] * k + [two]).order() == k
        assert (A.eps(3) + (A.eps(k) if k else A.one())).order() == k
    assert (A.one() - A.one()).order() == 4 and A.eps(2).tail().order() == 2


# --- the reserved slot and the exponent guard ------------------------------------

def test_a_coefficient_with_the_reserved_variable_is_refused():
    A = TruncAlgebra(3, P)
    r = MultiPoly.variable(EPS_NAME)
    s = MultiPoly.variable("s")
    for c in (r, s * r + 1, r ** 2):
        with pytest.raises(DomainMismatchError, match="reserved variable e'"):
            A.element([0, c])
        with pytest.raises(DomainMismatchError, match="reserved variable e'"):
            A.eps() * c  # a bare MultiPoly is lifted through element
    # a base variable named e is an ordinary variable
    e = MultiPoly.variable("e")
    x = A.element([e, e * e])
    assert x.coeff(0) == e and x.coeff(1).variables == ("e",) and str(x) == "e + e^2*e + 0*e^2"


@pytest.mark.parametrize("text", ["e'", "s*e'", "e' + 1", "e'^2"])
def test_the_reserved_name_cannot_be_parsed(text):
    with pytest.raises(ValueError):
        parse_polynomial(text)
    with pytest.raises(ValueError):
        parse_polynomial(text, variables=(EPS_NAME, "s"))


def test_packed_product_past_max_exponent_raises_the_multipoly_error():
    half = MultiPoly.variable("u") ** ((MAX_EXPONENT + 1) // 2)
    with pytest.raises(OverflowError) as plain:
        half * half
    assert str(MAX_EXPONENT) in str(plain.value)
    A = TruncAlgebra(3, P)
    x = A.element([half, 1])
    with pytest.raises(OverflowError) as packed:
        x * x
    assert str(packed.value) == str(plain.value)
    u = MultiPoly.variable("u")
    top = A.element([u ** MAX_EXPONENT, 1])
    assert (top * A.eps()).coeff(1) == u ** MAX_EXPONENT  # an exponent at the limit is kept
    with pytest.raises(OverflowError) as packed:
        top * A.element([u])
    assert str(packed.value) == str(plain.value)


# --- constants and equality --------------------------------------------------------

def _typed_terms(x):
    return {m: (type(c), c) for m, c in x.nums.terms.items()}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_constants_are_the_elements_that_element_builds(d):
    A = TruncAlgebra(d, P)
    pairs = [(A.coerce(c), A.element([c]))
             for c in (0, 1, -1, 3, Fraction(1, 2), Fraction(4, 2))]
    pairs += [(A.one(), A.element([1])), (A.zero(), A.element([]))]
    for direct, built in pairs:
        assert direct == built and _typed_terms(direct) == _typed_terms(built)
        assert direct.algebra is A and direct.den == 1
    assert _typed_terms(A.coerce(Fraction(4, 2))) == {0: (int, 2)}
    assert _typed_terms(A.coerce(Fraction(1, 2))) == {0: (Fraction, Fraction(1, 2))}
    assert A.zero().nums.terms == {} and A.coerce(0).nums.terms == {}


def test_poly_domain_constants():
    assert P.one() == MultiPoly.constant(1) and _typed_terms(TruncAlgebra(1, P).one()) == {
        0: (int, 1)}
    assert P.one().terms == {0: 1} and type(P.one().terms[0]) is int
    assert P.zero() == MultiPoly({}) and P.zero().terms == {}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("value, message", [
    (True, "cannot coerce bool into Q"),
    (1.5, "cannot coerce float into Q"),
    ("1", "cannot coerce str into Q"),
    (MultiPoly.variable(EPS_NAME) + 1, "a coefficient uses the reserved variable e'"),
], ids=["bool", "float", "str", "reserved"])
def test_constants_of_other_types_keep_their_refusal(d, value, message):
    A = TruncAlgebra(d, P)
    for build in (A.coerce, lambda v: A.element([v])):
        with pytest.raises(DomainMismatchError) as refused:
            build(value)
        assert str(refused.value) == message


def test_equality_answers_on_every_kind_of_operand():
    A, B, C = TruncAlgebra(3, P), TruncAlgebra(3, P), TruncAlgebra(2, P)
    Q, R = TruncAlgebra(3), TruncAlgebra(3)
    half = Fraction(1, 2)
    cases = [
        # within one algebra
        (A.one(), A.one(), True), (A.one(), A.zero(), False),
        (A.generic("s"), A.generic("s"), True), (A.generic("s"), A.generic("t"), False),
        (A.coerce(half), A.element([half]), True), (A.eps(), A.eps(2), False),
        (Q.coerce(half), Q.coerce(Fraction(1, 3)), False),
        (Q.coerce(half), Q.element([half]), True),
        # equal algebras that are distinct objects
        (A.one(), B.one(), True), (A.generic("s"), B.generic("s"), True),
        (A.eps(), B.eps(2), False), (Q.one(), R.one(), True),
        (Q.element([1, half]), R.element([1, half]), True), (Q.eps(), R.one(), False),
        # different d, and different bases
        (A.one(), C.one(), False), (A.zero(), C.zero(), False), (Q.one(), A.one(), False),
        # ints, Fractions and MultiPolys
        (A.one(), 1, True), (A.coerce(3), 3, True), (A.one(), 2, False),
        (A.coerce(half), half, True), (A.one(), Fraction(1), True), (A.zero(), 0, True),
        (A.one(), MultiPoly.constant(1), True), (A.element([MultiPoly.variable("s0")]),
                                                 MultiPoly.variable("s0"), True),
        (A.generic("s"), MultiPoly.variable("s0"), False), (Q.one(), 1, True),
        (Q.coerce(half), half, True), (A.one(), True, False), (A.one(), "1", False),
    ]
    for x, y, equal in cases:
        assert (x == y, y == x, x != y, y != x) == (equal, equal, not equal, not equal), (x, y)
    # sums across equal algebras mix, across different d they are refused
    assert A.one() + B.one() == A.coerce(2) and A.eps() * B.eps() == A.eps(2)
    with pytest.raises(DomainMismatchError, match="do not mix"):
        A.one() + C.one()


# --- the work done ------------------------------------------------------------------

def count_calls(monkeypatch, cls, names, counts, key):
    for name in names:
        original = cls.__dict__[name]

        def counted(*args, _original=original):
            counts[key] += 1
            return _original(*args)

        monkeypatch.setattr(cls, name, counted)


def test_symbolic_commutators_make_no_multipoly_products(monkeypatch):
    model, constants = build_model("A2"), load_structure_constants("A2")
    algebra = TruncAlgebra(3, P)
    s, t = algebra.generic("s"), algebra.generic("t")
    ps, pt = MultiPoly.variable("s0"), MultiPoly.variable("t0")
    counts = {"poly mul": 0, "poly add": 0, "trunc sum": 0}
    count_calls(monkeypatch, MultiPoly, ("__mul__", "__rmul__"), counts, "poly mul")
    count_calls(monkeypatch, MultiPoly, ("__add__", "__radd__"), counts, "poly add")
    count_calls(monkeypatch, TruncElement, ("__add__", "__radd__", "__sub__", "__rsub__"),
                counts, "trunc sum")
    pairs = ordered_root_pairs(model.system)
    assert len(pairs) == 30
    for alpha, beta in pairs:
        assert verify_commutator(model, alpha, beta, s, t, constants).ok
    assert counts["poly mul"] == 0
    assert counts["trunc sum"] > 0
    assert counts["poly add"] <= counts["trunc sum"]
    # the control: on plain polynomials the same checks are seen by the counters
    for key in counts:
        counts[key] = 0
    for alpha, beta in pairs:
        assert verify_commutator(model, alpha, beta, ps, pt, constants).ok
    assert counts["poly mul"] > 0 and counts["poly add"] > 0 and counts["trunc sum"] == 0


def test_reserved_slot_is_public_in_kernel():
    # the layout belongs to kernel: e^k is the monomial k, read back with EPS_MASK
    assert kernel.EPS_NAME == "e'" and not EPS_NAME.isidentifier()
    assert MultiPoly.variable(EPS_NAME).terms == {1: 1}
    assert all(m & kernel.EPS_MASK == 0 for m in MultiPoly.variable("s").terms)


def test_commutator_checks_build_no_constant_through_element(monkeypatch):
    # a constant of a polynomial-base algebra is built in one step, not
    # through element -> PolyDomain.coerce -> MultiPoly.constant
    counts = {"element": 0, "constant": 0}
    count_calls(monkeypatch, TruncAlgebra, ("element",), counts, "element")
    constant = MultiPoly.constant

    def counted_constant(value):
        counts["constant"] += 1
        return constant(value)

    monkeypatch.setattr(MultiPoly, "constant", staticmethod(counted_constant))
    algebra = TruncAlgebra(2, P)
    s, t = algebra.generic("s"), algebra.generic("t")
    for kind, first_only in (("A2", True), ("C2", False)):
        model, constants = build_model(kind), load_structure_constants(kind)
        pairs = [(a, b) for a, b in ordered_root_pairs(model.system)
                 if not first_only or model.string(a, b)][:1 if first_only else None]
        counts.update(element=0, constant=0)
        for alpha, beta in pairs:
            assert verify_commutator(model, alpha, beta, s, t, constants).ok
        assert counts == {"element": 0, "constant": 0}, kind
    # the control: the counters see a constant built through element
    algebra.element([1])
    assert counts == {"element": 1, "constant": 1}
