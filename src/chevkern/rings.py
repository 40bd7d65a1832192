"""Truncated polynomial algebras K[e]/(e^d) and friends.

An element is a coefficient vector (x0, ..., x_{d-1}) in a base domain K;
multiplication is truncated convolution.  Over a field base an element is a
unit exactly when its constant coefficient x0 is nonzero, and the inverse
comes coefficient by coefficient from x * x^-1 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .kernel import (
    QQ,
    DomainMismatchError,
    MultiPoly,
    NotAUnitError,
    PolyDomain,
    is_zero,
    parse_polynomial,
    poly_eval,
    ring_pow,
)


class TruncAlgebra:
    """The algebra K[e]/(e^d) over a base domain descriptor."""

    def __init__(self, d: int, base=QQ):
        if d < 1:
            raise ValueError("truncation order must be at least 1")
        self.d = d
        self.base = base

    def element(self, coeffs: Sequence) -> "TruncElement":
        cs = [self.base.coerce(c) for c in coeffs]
        if len(cs) > self.d:
            raise ValueError("expected at most %d coefficients, got %d" % (self.d, len(cs)))
        cs += [self.base.zero()] * (self.d - len(cs))
        return TruncElement(self, tuple(cs))

    def coerce(self, c) -> "TruncElement":
        return self.element([c])

    def zero(self) -> "TruncElement":
        return self.element([])

    def one(self) -> "TruncElement":
        return self.coerce(1)

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
        cs = [self.base.zero()] * self.d
        cs[power] = self.base.one()
        return TruncElement(self, tuple(cs))

    def generic(self, prefix: str) -> "TruncElement":
        """Element with formal polynomial coefficients prefix0..prefix{d-1}.

        Only meaningful over a polynomial base domain.
        """
        if not isinstance(self.base, PolyDomain):
            raise DomainMismatchError("generic elements need a polynomial base domain")
        return self.element([MultiPoly.variable("%s%d" % (prefix, k))
                             for k in range(self.d)])

    def parse(self, text: str) -> "TruncElement":
        """Parse ``x0 + x1*e + x2*e^2`` style text into an element."""
        # over a polynomial base, free names become base polynomial variables
        names = None if isinstance(self.base, PolyDomain) else ("e",)
        p = parse_polynomial(text, variables=names)
        coeffs = [self._coerce_coeff(_coefficient_in(p, "e", k)) for k in range(self.d)]
        # reject terms of order >= d
        for e, _ in p.terms.items():
            if "e" in p.variables and e[p.variables.index("e")] >= self.d:
                raise ValueError("term of order >= %d in %r" % (self.d, text))
        return self.element(coeffs)

    def _coerce_coeff(self, q: MultiPoly):
        if isinstance(self.base, PolyDomain):
            return q
        if q.is_constant():
            return self.base.coerce(q.constant_value())
        raise ValueError("coefficient %s is not a base-domain value" % q)

    def __eq__(self, other):
        return (isinstance(other, TruncAlgebra)
                and self.d == other.d and self.base == other.base)

    def __hash__(self):
        return hash(("TruncAlgebra", self.d, self.base))

    def __repr__(self):
        return "%s[e]/(e^%d)" % (self.base, self.d)


def _coefficient_in(p: MultiPoly, var: str, k: int) -> MultiPoly:
    if var not in p.variables:
        return p if k == 0 else MultiPoly(p.variables, {})
    i = p.variables.index(var)
    rest = tuple(v for v in p.variables if v != var)
    terms = {}
    for e, c in p.terms.items():
        if e[i] != k:
            continue
        ne = tuple(x for j, x in enumerate(e) if j != i)
        terms[ne] = terms.get(ne, Fraction(0)) + c
    return MultiPoly(rest, terms)


class TruncElement:
    """Element of K[e]/(e^d); immutable coefficient tuple."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: TruncAlgebra, coeffs: tuple):
        self.algebra = algebra
        self.coeffs = coeffs

    @property
    def ring(self) -> TruncAlgebra:
        return self.algebra

    def _check(self, other):
        if not isinstance(other, TruncElement):
            raise DomainMismatchError(
                "cannot combine truncated element with %s" % type(other).__name__)
        if other.algebra != self.algebra:
            raise DomainMismatchError(
                "elements of %s and %s do not mix" % (self.algebra, other.algebra))

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return self.algebra.coerce(other)
        if isinstance(other, MultiPoly) and isinstance(self.algebra.base, PolyDomain):
            return self.algebra.element([other])
        return other

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        return TruncElement(self.algebra,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        self._check(other)
        return TruncElement(self.algebra,
                            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncElement(self.algebra, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._lift(other)
        self._check(other)
        d = self.algebra.d
        zero = self.algebra.base.zero()
        out = [zero] * d
        for i, a in enumerate(self.coeffs):
            if is_zero(a):
                continue
            for j in range(d - i):
                b = other.coeffs[j]
                if is_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return TruncElement(self.algebra, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ring_pow(self, n)

    def __truediv__(self, other):
        other = self._lift(other)
        self._check(other)
        return self * other.inverse()

    def coeff(self, k: int):
        return self.coeffs[k]

    def tail(self) -> "TruncElement":
        """The nilpotent part x - x0."""
        zero = self.algebra.base.zero()
        return TruncElement(self.algebra, (zero,) + self.coeffs[1:])

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs)

    def is_unit(self) -> bool:
        x0 = self.coeffs[0]
        if self.algebra.base.is_field():
            return not is_zero(x0)
        try:
            self.algebra.base.inv(x0)
            return True
        except NotAUnitError:
            return False

    def inverse(self) -> "TruncElement":
        """Inverse by the recurrence b_0 = 1/x_0,
        b_k = -(1/x_0) (x_1 b_{k-1} + ... + x_k b_0), about d^2/2 base
        products; needs an invertible constant coefficient."""
        x = self.coeffs
        try:
            inv0 = self.algebra.base.inv(x[0])
        except NotAUnitError:
            raise NotAUnitError(
                "constant coefficient %s is not a unit, element %s has no inverse"
                % (x[0], self)) from None
        neg_inv0 = -inv0
        b = [inv0]
        for k in range(1, self.algebra.d):
            acc = x[1] * b[k - 1]
            for i in range(2, k + 1):
                acc = acc + x[i] * b[k - i]
            b.append(neg_inv0 * acc)
        return TruncElement(self.algebra, tuple(b))

    def __eq__(self, other):
        other = self._lift(other)
        if not isinstance(other, TruncElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

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
# direct sums

class SumAlgebra:
    """Finite direct sum of truncated algebras, componentwise operations."""

    def __init__(self, factors: Sequence[TruncAlgebra]):
        if not factors:
            raise ValueError("a direct sum needs at least one factor")
        self.factors = tuple(factors)

    def element(self, components: Sequence[TruncElement]) -> "SumElement":
        comps = tuple(components)
        if len(comps) != len(self.factors):
            raise ValueError("expected %d components" % len(self.factors))
        for c, f in zip(comps, self.factors):
            if not isinstance(c, TruncElement) or c.algebra != f:
                raise DomainMismatchError("component does not match factor %s" % (f,))
        return SumElement(self, comps)

    def coerce(self, c) -> "SumElement":
        return SumElement(self, tuple(f.coerce(c) for f in self.factors))

    def zero(self) -> "SumElement":
        return self.coerce(0)

    def one(self) -> "SumElement":
        return self.coerce(1)

    def inv(self, x: "SumElement") -> "SumElement":
        return x.inverse()

    def is_field(self):
        return False

    def __eq__(self, other):
        return isinstance(other, SumAlgebra) and self.factors == other.factors

    def __hash__(self):
        return hash(("SumAlgebra", self.factors))

    def __repr__(self):
        return " (+) ".join(repr(f) for f in self.factors)


class SumElement:
    __slots__ = ("algebra", "components")

    def __init__(self, algebra: SumAlgebra, components: tuple):
        self.algebra = algebra
        self.components = components

    @property
    def ring(self) -> SumAlgebra:
        return self.algebra

    def _check(self, other):
        if isinstance(other, (int, Fraction)):
            return self.algebra.coerce(other)
        if not isinstance(other, SumElement) or other.algebra != self.algebra:
            raise DomainMismatchError("direct-sum elements from different algebras")
        return other

    def __add__(self, other):
        other = self._check(other)
        return SumElement(self.algebra, tuple(a + b for a, b in
                                              zip(self.components, other.components)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return SumElement(self.algebra, tuple(a - b for a, b in
                                              zip(self.components, other.components)))

    def __neg__(self):
        return SumElement(self.algebra, tuple(-a for a in self.components))

    def __mul__(self, other):
        other = self._check(other)
        return SumElement(self.algebra, tuple(a * b for a, b in
                                              zip(self.components, other.components)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return SumElement(self.algebra, tuple(a ** n for a in self.components))

    def inverse(self) -> "SumElement":
        return SumElement(self.algebra, tuple(a.inverse() for a in self.components))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.components)

    def is_unit(self) -> bool:
        return all(a.is_unit() for a in self.components)

    def __eq__(self, other):
        try:
            other = self._check(other)
        except DomainMismatchError:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash((self.algebra, self.components))

    def __repr__(self):
        return "(" + " | ".join(str(c) for c in self.components) + ")"


# ---------------------------------------------------------------------------
# ring homomorphisms out of polynomial rings

class RelationNotPreservedError(ValueError):
    """Raised when a declared source relation does not map to zero."""


class RingHom:
    """Evaluation homomorphism Q[g1, ..., gn] -> R given by generator images.

    Optional relations (polynomials in the generators, e.g. defining
    polynomials of ring generators) are checked to map to zero at
    construction, so the map really factors through the quotient.  Values
    are computed by ``kernel.poly_eval`` in the one domain of the images.
    """

    def __init__(self, generators: Sequence[str], images: dict, relations: Sequence = ()):
        self.generators = tuple(generators)
        self.images = dict(images)
        for g in self.generators:
            if g not in self.images:
                raise ValueError("no image for generator %r" % g)
        self.relations = tuple(
            parse_polynomial(r, variables=self.generators) if isinstance(r, str) else r
            for r in relations)
        for r in self.relations:
            img = self.apply(r)
            if not is_zero(img):
                raise RelationNotPreservedError(
                    "relation %s maps to %s, not zero" % (r, img))

    def apply(self, p):
        if isinstance(p, str):
            p = parse_polynomial(p, variables=self.generators)
        # adding the zero polynomial in the generators binds every image, so
        # even a constant lands in the target ring
        return poly_eval(p + MultiPoly(self.generators, {}), self.images)


# ---------------------------------------------------------------------------
# unit-group structure

@dataclass(frozen=True)
class UnitWitness:
    """Certificate that target = 1 + s1*delta + ... + s_{d-1}*delta^{d-1}.

    ``poly_coeffs`` are descending coefficients of the monic polynomial
    z^{d-1} - s1 z^{d-2} + ... + (-1)^{d-1} s_{d-1}; the s_k are the
    elementary symmetric functions of its roots, so the target is the product
    of (1 + u_i delta) over those roots.
    """

    delta: TruncElement
    symmetric: tuple
    poly_coeffs: tuple

    def polynomial_str(self) -> str:
        d = len(self.poly_coeffs)
        parts = []
        for i, c in enumerate(self.poly_coeffs):
            deg = d - 1 - i
            if deg == 0:
                parts.append(str(c))
            elif deg == 1:
                parts.append("%s*z" % (c,))
            else:
                parts.append("%s*z^%d" % (c, deg))
        return " + ".join(parts)


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
    x1 = x.coeffs[1]
    if is_zero(x1):
        raise ValueError("tail of %s has zero linear coefficient" % x)
    one = algebra.base.one()
    if target.coeffs[0] != one:
        raise ValueError("target %s is not congruent to 1" % target)
    delta = x.tail()
    powers = [algebra.one()]
    for _ in range(1, d):
        powers.append(powers[-1] * delta)
    symmetric = []
    for j in range(1, d):
        acc = target.coeffs[j]
        for k in range(1, j):
            acc = acc - symmetric[k - 1] * powers[k].coeffs[j]
        lead = powers[j].coeffs[j]
        symmetric.append(acc * algebra.base.inv(lead))
    # direct re-expansion check
    total = algebra.one()
    for k, s in enumerate(symmetric, start=1):
        total = total + powers[k] * algebra.element([s])
    if total != target:
        raise ArithmeticError("witness re-expansion failed: %s != %s" % (total, target))
    coeffs = [one]
    sign = -1
    for s in symmetric:
        coeffs.append(s if sign > 0 else -s)
        sign = -sign
    return UnitWitness(delta=delta, symmetric=tuple(symmetric), poly_coeffs=tuple(coeffs))


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
    x0 = x.coeffs[0]
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
