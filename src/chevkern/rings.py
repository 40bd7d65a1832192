"""Truncated polynomial algebras K[e]/(e^d) over K = Q or K = Q[...], and friends.

An element is a coefficient vector (x0, ..., x_{d-1}) in K; multiplication is
truncated convolution.  An element is a unit exactly when x0 is a unit of K,
and the inverse comes coefficient by coefficient from x * x^-1 = 1.  Each base
has one layout.  Over Q the vector is int numerators over one positive
denominator in lowest terms, the layout of FLINT's ``fmpq_poly``; ``coeffs``
and ``coeff(k)`` still give ``Fraction``s.  Over Q[...] the element is one
``MultiPoly`` sum_k x_k e^k, with e in the reserved slot ``kernel.EPS_NAME``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .kernel import (
    EPS_MASK,
    EPS_NAME,
    QQ,
    DomainMismatchError,
    MultiPoly,
    NotAUnitError,
    PolyDomain,
    cleared,
    exponent_guard,
    is_zero,
    parse_polynomial,
    ring_pow,
)


class TruncAlgebra:
    """The algebra K[e]/(e^d) over the base domain QQ or a PolyDomain."""

    def __init__(self, d: int, base=QQ):
        if type(d) is not int or d < 1:
            raise ValueError("truncation order must be an int of at least 1, not %r" % (d,))
        self.rational = base == QQ  # int numerators over one denominator, else one MultiPoly
        if not (self.rational or isinstance(base, PolyDomain)):
            raise DomainMismatchError("truncated algebras are over QQ or a PolyDomain, not %r"
                                      % (base,))
        self.d = d
        self.base = base

    def element(self, coeffs: Sequence) -> "TruncElement":
        cs = [self.base.coerce(c) for c in coeffs]
        if len(cs) > self.d:
            raise ValueError("expected at most %d coefficients, got %d" % (self.d, len(cs)))
        if not self.rational:
            if any(m & EPS_MASK for c in cs for m in c.terms):
                raise DomainMismatchError("a coefficient uses the reserved variable " + EPS_NAME)
            return TruncElement(self, MultiPoly({m + k: v for k, c in enumerate(cs)
                                                 for m, v in c.terms.items()}))
        return self.from_cleared(*cleared(cs))

    def from_cleared(self, den: int, nums: Sequence) -> "TruncElement":
        """The element nums[k] / den over Q, from ints over den > 0 in lowest terms."""
        if not self.rational:
            raise DomainMismatchError("cleared coefficients are for an algebra over QQ")
        return TruncElement(self, tuple(nums) + (0,) * (self.d - len(nums)), den)

    def coerce(self, c) -> "TruncElement":
        if not self.rational and (type(c) is int or type(c) is Fraction):  # a rational constant
            return TruncElement(self, MultiPoly({0: c}))
        return self.element([c])

    def zero(self) -> "TruncElement":
        if self.rational:
            return TruncElement(self, (0,) * self.d)
        return TruncElement(self, MultiPoly({}))

    def one(self) -> "TruncElement":
        return TruncElement(self, (1,) + (0,) * (self.d - 1)) if self.rational else self.coerce(1)

    def inv(self, x: "TruncElement") -> "TruncElement":
        return x.inverse()

    def is_field(self):
        return False

    def eps(self, power: int = 1) -> "TruncElement":
        """The nilpotent generator e^power (zero once power reaches d)."""
        if power < 1:
            raise ValueError("power must be positive")
        if power >= self.d:
            return self.zero()
        return self.element([0] * power + [1])

    def generic(self, prefix: str) -> "TruncElement":
        """Element with formal polynomial coefficients prefix0..prefix{d-1}.

        Only meaningful over a polynomial base domain.
        """
        if self.rational:
            raise DomainMismatchError("generic elements need a polynomial base domain")
        return self.element([MultiPoly.variable("%s%d" % (prefix, k))
                             for k in range(self.d)])

    def parse(self, text: str) -> "TruncElement":
        """Read back ``x0 + x1*e + x2*e^2`` with rational x_k, as ``str`` writes it."""
        p = parse_polynomial(text, variables=("e",))
        if p.degree() >= self.d:
            raise ValueError("term of order >= %d in %r" % (self.d, text))
        return self.element([p.coefficient({"e": k}) for k in range(self.d)])

    def __eq__(self, other):
        return self is other or (isinstance(other, TruncAlgebra)
                                 and self.d == other.d and self.base == other.base)

    def __hash__(self):
        return hash(("TruncAlgebra", self.d, self.base))

    def __repr__(self):
        return "%s[e]/(e^%d)" % (self.base, self.d)


class TruncElement:
    """Element of K[e]/(e^d) with coefficients nums[k] / den: over Q ints with
    gcd(den, *nums) == 1 and den > 0 (1 for zero); over a polynomial base
    ``nums`` is one MultiPoly of degree below d in e, over den == 1."""

    __slots__ = ("algebra", "nums", "den")

    def __init__(self, algebra: TruncAlgebra, nums: tuple, den: int = 1):
        self.algebra = algebra
        self.nums = nums
        self.den = den

    @property
    def ring(self) -> TruncAlgebra:
        return self.algebra

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self.coeff, range(self.algebra.d)))

    def _check(self, other):
        if not isinstance(other, TruncElement):
            raise DomainMismatchError(
                "cannot combine truncated element with %s" % type(other).__name__)
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise DomainMismatchError(
                "elements of %s and %s do not mix" % (self.algebra, other.algebra))

    def _lift(self, other):
        if type(other) is TruncElement:
            return other
        if type(other) is int or type(other) is Fraction:  # not a bool
            return self.algebra.coerce(other)
        if isinstance(other, MultiPoly) and not self.algebra.rational:
            return self.algebra.element([other])
        return other

    def _reduced(self, nums, den: int) -> "TruncElement":
        """The element nums / den over Q, brought to lowest terms."""
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        return TruncElement(self.algebra, nums, den)

    def _linear(self, other, sign: int) -> "TruncElement":
        """self + sign * other over Q, on ints over the lcm of the denominators."""
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return self._reduced(tuple(a * sa + b * sb for a, b in zip(self.nums, other.nums)), den)

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        if self.algebra.rational:
            return self._linear(other, 1)
        return TruncElement(self.algebra, self.nums + other.nums)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        self._check(other)
        if self.algebra.rational:
            return self._linear(other, -1)
        return TruncElement(self.algebra, self.nums - other.nums)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if self.algebra.rational:
            return TruncElement(self.algebra, tuple(-a for a in self.nums), self.den)
        return TruncElement(self.algebra, -self.nums)

    def __mul__(self, other):
        other = self._lift(other)
        self._check(other)
        d = self.algebra.d
        ys = other.nums
        if self.algebra.rational:
            acc = [0] * d
            for i, a in enumerate(self.nums):
                if a:
                    for j in range(d - i):
                        acc[i + j] += a * ys[j]
            return self._reduced(tuple(acc), self.den * other.den)
        # one pass over pairs of terms, skipping those of degree d or more in e
        xs = [(m, c, m & EPS_MASK) for m, c in self.nums.terms.items()]
        terms = {}
        for m2, c2 in ys.terms.items():
            room = d - (m2 & EPS_MASK)
            for m1, c1, k1 in xs:
                if k1 < room:
                    m = m1 + m2
                    terms[m] = terms.get(m, 0) + c1 * c2
        exponent_guard(terms)
        return TruncElement(self.algebra, MultiPoly(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ring_pow(self, n)

    def __truediv__(self, other):
        other = self._lift(other)
        self._check(other)
        return self * other.inverse()

    def coeff(self, k: int):
        if self.algebra.rational:
            return Fraction(self.nums[k], self.den)
        k = range(self.algebra.d)[k]
        return MultiPoly({m - k: c for m, c in self.nums.terms.items() if m & EPS_MASK == k})

    def tail(self) -> "TruncElement":
        """The nilpotent part x - x0."""
        if self.algebra.rational:
            return self._reduced((0,) + self.nums[1:], self.den)
        return TruncElement(self.algebra, MultiPoly(
            {m: c for m, c in self.nums.terms.items() if m & EPS_MASK}))

    def order(self) -> int:
        """The least k with x_k nonzero, or d for zero."""
        d = self.algebra.d
        if self.algebra.rational:
            return next((k for k, n in enumerate(self.nums) if n), d)
        return min((m & EPS_MASK for m in self.nums.terms), default=d)

    def is_zero(self) -> bool:
        if self.algebra.rational:
            return not any(self.nums)
        return not self.nums.terms

    def is_unit(self) -> bool:
        if self.algebra.rational:
            return self.nums[0] != 0
        try:
            self.algebra.base.inv(self.coeff(0))
            return True
        except NotAUnitError:
            return False

    def inverse(self) -> "TruncElement":
        """Inverse by the recurrence b_0 = 1/x_0,
        b_k = -(1/x_0) (x_1 b_{k-1} + ... + x_k b_0), about d^2/2 base
        products; needs an invertible constant coefficient.  Over Q it runs on the
        ints e_k = b_k n_0^d / den: e_0 = n_0^(d-1), e_k = -(n_1 e_{k-1} + ... + n_k e_0) / n_0."""
        x = self.nums if self.algebra.rational else self.coeffs
        d, n0 = self.algebra.d, x[0]
        if self.algebra.rational and n0:
            e = [n0 ** (d - 1)]
            for k in range(1, d):
                e.append(-sum(x[i] * e[k - i] for i in range(1, k + 1)) // n0)
            q = e[0] * n0
            s = self.den if q > 0 else -self.den
            return self._reduced(tuple(s * c for c in e), abs(q))
        try:
            inv0 = self.algebra.base.inv(n0)
        except NotAUnitError:
            raise NotAUnitError(
                "constant coefficient %s is not a unit, element %s has no inverse"
                % (self.coeff(0), self)) from None
        neg_inv0 = -inv0
        b = [inv0]
        for k in range(1, d):
            acc = x[1] * b[k - 1]
            for i in range(2, k + 1):
                acc = acc + x[i] * b[k - i]
            b.append(neg_inv0 * acc)
        return self.algebra.element(b)

    def __eq__(self, other):
        if type(other) is TruncElement and other.algebra is self.algebra:
            return self.nums == other.nums and self.den == other.den
        other = self._lift(other)
        if not isinstance(other, TruncElement):
            return NotImplemented
        return self.algebra == other.algebra and self.nums == other.nums and self.den == other.den

    def __hash__(self):  # that of the int, Fraction or MultiPoly it equals, if any
        if self.algebra.rational and not any(self.nums[1:]):
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den) if self.algebra.rational else self.nums)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("%s*e" % (c,))
            else:
                parts.append("%s*e^%d" % (c, k))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# unit-group structure

@dataclass(frozen=True)
class UnitWitness:
    """Certificate that target = 1 + s1*delta + ... + s_{d-1}*delta^{d-1}."""

    delta: TruncElement
    symmetric: tuple


def unit_group_witness(x: TruncElement, target: TruncElement) -> UnitWitness:
    """Express ``target`` (a unit congruent to 1) in terms of delta = tail of x.

    Solves target = 1 + sum_k s_k delta^k by forward substitution (the system
    is triangular because delta^k starts at order k with leading coefficient
    x1^k), then re-verifies the expansion directly.
    """
    algebra = x.algebra
    if target.algebra != algebra:
        raise DomainMismatchError("witness target lives in a different algebra")
    d = algebra.d
    if d < 2:
        raise ValueError("unit-group witnesses need truncation order at least 2")
    if not x.is_unit():
        raise NotAUnitError("base point %s is not a unit" % x)
    x1 = x.coeff(1)
    if is_zero(x1):
        raise ValueError("tail of %s has zero linear coefficient" % x)
    one = algebra.base.one()
    if target.coeff(0) != one:
        raise ValueError("target %s is not congruent to 1" % target)
    delta = x.tail()
    powers = [algebra.one()]
    for _ in range(1, d):
        powers.append(powers[-1] * delta)
    symmetric = []
    for j in range(1, d):
        acc = target.coeff(j)
        for k in range(1, j):
            acc = acc - symmetric[k - 1] * powers[k].coeff(j)
        lead = powers[j].coeff(j)
        symmetric.append(acc * algebra.base.inv(lead))
    # direct re-expansion check
    total = algebra.one()
    for k, s in enumerate(symmetric, start=1):
        total = total + powers[k] * algebra.element([s])
    if total != target:
        raise ArithmeticError("witness re-expansion failed: %s != %s" % (total, target))
    return UnitWitness(delta=delta, symmetric=tuple(symmetric))


def expand_unit_product(delta: TruncElement, us: Sequence) -> TruncElement:
    """The product of (1 + u_i * delta) over the given base scalars u_i."""
    algebra = delta.algebra
    total = algebra.one()
    for u in us:
        total = total * (algebra.one() + delta * algebra.element([u]))
    return total


@dataclass(frozen=True)
class OneMinusFactorization:
    """1 - u*x = scalar * (1 + v*delta) with delta the tail of x."""

    scalar: object
    v: object
    unit: TruncElement


def factor_one_minus_ux(u, x: TruncElement) -> OneMinusFactorization:
    """Factor 1 - u*x as (1 - u*x0) * (1 + v*delta) with v = -u/(1 - u*x0).

    Needs 1 - u*x0 to be a unit of the base domain.
    """
    algebra = x.algebra
    u = algebra.base.coerce(u)
    x0 = x.coeff(0)
    scalar = algebra.base.one() - u * x0
    try:
        inv_scalar = algebra.base.inv(scalar)
    except NotAUnitError:
        raise NotAUnitError("1 - u*x0 = %s is not a unit" % (scalar,)) from None
    v = -u * inv_scalar
    unit = algebra.one() + x.tail() * algebra.element([v])
    # direct check of the factorization
    lhs = algebra.one() - x * algebra.element([u])
    if algebra.element([scalar]) * unit != lhs:
        raise ArithmeticError("factorization check failed for u=%s, x=%s" % (u, x))
    return OneMinusFactorization(scalar=scalar, v=v, unit=unit)
