"""Exact arithmetic core: rationals, number fields, polynomials, matrices.

Every domain here is exact.  Elements of different domains never mix
implicitly; converting a rational into a bigger ring is always an explicit
call (``field.from_rational``, ``poly_eval``, ...).  Matrices require all
entries to live in one domain and complain loudly otherwise.  Any element
reaches the descriptor of its ring in one step through ``ring_of``.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import reduce
from itertools import count
from math import comb, gcd, lcm
from operator import or_
from typing import Iterable, Sequence


class DomainMismatchError(TypeError):
    """Raised when elements of different exact domains are combined."""


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix whose determinant is not a unit."""

    def __init__(self, message, determinant=None):
        super().__init__(message)
        self.determinant = determinant


class NotAUnitError(ValueError):
    """Raised when a ring element has no multiplicative inverse."""


class UnassignedVariableError(ValueError):
    """Raised when polynomial evaluation misses a variable binding."""


# ---------------------------------------------------------------------------
# univariate polynomials over Q, ascending coefficient tuples

def ptrim(cs):
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    n = max(len(a), len(b))
    return ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pscale(a, c):
    if c == 0:
        return ()
    return tuple(x * c for x in a)


def pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out)


def pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b) and ptrim(r):
        r = list(ptrim(r))
        if len(r) < len(b):
            break
        c = r[-1] / lead
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[d + i] -= c * y
        r = r[:-1]
    return ptrim(q), ptrim(r)


def pxgcd(a, b):
    # returns (g, s, t) with s*a + t*b = g
    r0, r1 = a, b
    s0, s1 = (Fraction(1),), ()
    t0, t1 = (), (Fraction(1),)
    while r1:
        q, r = pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(pmul(q, s1)))
        t0, t1 = t1, _padd(t0, _pneg(pmul(q, t1)))
    return r0, s0, t0


def _pneg(a):
    return tuple(-x for x in a)


def peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def is_prime(p: int) -> bool:
    """Primality by trial division up to the square root."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def psquarefree(a):
    """The squarefree part a / gcd(a, a') of a nonconstant polynomial."""
    g, r = a, tuple(i * c for i, c in enumerate(a))[1:]
    while r:
        g, r = r, pdivmod(g, r)[1]
    return pdivmod(a, tuple(c / g[-1] for c in g))[0]


def cleared(vec) -> tuple:
    """(d, ints) with vec = ints / d, d the lcm of vec's denominators."""
    pairs = [c.as_integer_ratio() for c in vec]
    d = lcm(*[q for _, q in pairs])
    return d, [p * (d // q) for p, q in pairs]


def draw_below(getrandbits, n: int) -> int:
    """``random.Random.randrange(n)`` from the same stream, draw for draw: the
    first ``getrandbits(k)`` below n, k = n.bit_length()."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _horner_mod(cs, x, m):
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def rational_roots(poly):
    """All rational roots of a polynomial with Fraction coefficients, sorted.

    In time polynomial in the bit size (Cohen, GTM 138, 3.5-3.6): the
    squarefree part f, cleared of denominators with leading coefficient a,
    scales to the monic g(Y) = a^(n-1) f(Y/a), whose integer roots a*x, x a
    root of f, lie below the Cauchy bound B.  Each root of g modulo the first
    prime p where all are simple lifts by Newton's iteration modulo p^k > 2B
    to the one integer root it can be, kept if it is one.
    """
    poly = ptrim(poly)
    if len(poly) <= 1:
        return []
    f = psquarefree(poly)
    _, ints = cleared(f)
    n, a = len(ints) - 1, ints[-1]
    g = [c * a ** (n - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 1 + max(abs(c) for c in g[:-1])
    for p in filter(is_prime, count(2)):
        residues = [r for r in range(p) if _horner_mod(g, r, p) == 0]
        if all(_horner_mod(dg, r, p) for r in residues):
            break
    roots = []
    for r in residues:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _horner_mod(g, r, m) * pow(_horner_mod(dg, r, m), -1, m)) % m
        x = Fraction(r if 2 * r <= m else r - m, a)
        if peval(f, x) == 0:
            roots.append(x)
    return sorted(roots)


# ---------------------------------------------------------------------------
# number fields

MAX_FIELD_DEGREE = 3


class NumberField:
    """Field Q(w) for w a root of a monic integer polynomial with no rational root.

    The defining polynomial is given by its integer coefficients in ascending
    order, e.g. ``(-2, 0, 1)`` for w^2 - 2.  The no-rational-root screen is a
    complete irreducibility proof only up to degree 3, so higher degrees are
    rejected.  The field is its own ring descriptor (see ``ring_of``).
    """

    def __init__(self, name: str, minpoly: Sequence[int]):
        coeffs = tuple(int(c) for c in minpoly)
        if len(coeffs) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if len(coeffs) - 1 > MAX_FIELD_DEGREE:
            raise ValueError("defining polynomial of degree %d is above the limit %d"
                             % (len(coeffs) - 1, MAX_FIELD_DEGREE))
        self.name = name
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self._minpoly_q = tuple(Fraction(c) for c in coeffs)
        if self.degree >= 2:
            roots = rational_roots(self._minpoly_q)
            if roots:
                raise ValueError(
                    "defining polynomial has rational root %s, not irreducible" % roots[0])

    def element(self, coords: Iterable) -> "NumberFieldElement":
        cs = tuple(QQ.coerce(c) for c in coords)
        if len(cs) != self.degree:
            raise ValueError("expected %d coordinates, got %d" % (self.degree, len(cs)))
        return NumberFieldElement(self, cs)

    def _reduce(self, poly: tuple) -> "NumberFieldElement":
        _, rem = pdivmod(poly, self._minpoly_q)
        return NumberFieldElement(self, rem + (Fraction(0),) * (self.degree - len(rem)))

    def from_rational(self, q) -> "NumberFieldElement":
        return self.element((Fraction(q),) + (Fraction(0),) * (self.degree - 1))

    def zero(self) -> "NumberFieldElement":
        return self.from_rational(0)

    def one(self) -> "NumberFieldElement":
        return self.from_rational(1)

    def coerce(self, x) -> "NumberFieldElement":
        if type(x) is int or type(x) is Fraction:  # a bool is not a rational
            return self.from_rational(x)
        if isinstance(x, NumberFieldElement) and x.field == self:
            return x
        raise DomainMismatchError("cannot coerce %s into Q(%s)" % (type(x).__name__, self.name))

    def inv(self, x) -> "NumberFieldElement":
        return self.coerce(x).inverse()

    def is_field(self):
        return True

    def generator(self) -> "NumberFieldElement":
        cs = [Fraction(0)] * self.degree
        cs[1 if self.degree > 1 else 0] = Fraction(1)
        if self.degree == 1:
            # w = -a0 when m = x + a0
            return self.from_rational(-self.minpoly[0])
        return self.element(cs)

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.name == other.name and self.minpoly == other.minpoly)

    def __hash__(self):
        return hash((self.name, self.minpoly))

    def __repr__(self):
        return "NumberField(%r, %r)" % (self.name, list(self.minpoly))


class NumberFieldElement:
    """Element of a NumberField, stored as coordinates in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        self.field = field
        self.coords = coords

    @property
    def ring(self) -> NumberField:
        return self.field

    def _check(self, other):
        if not isinstance(other, NumberFieldElement):
            raise DomainMismatchError(
                "cannot combine number field element with %s; convert explicitly"
                % type(other).__name__)
        if other.field != self.field:
            raise DomainMismatchError(
                "elements of %s and %s do not mix" % (self.field.name, other.field.name))

    def __add__(self, other):
        self._check(other)
        return NumberFieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return NumberFieldElement(
            self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return NumberFieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other):
        self._check(other)
        prod = pmul(ptrim(self.coords), ptrim(other.coords))
        return self.field._reduce(prod)

    # a reflected call has a left operand that is no element here, and _check refuses it
    __radd__, __rsub__, __rmul__ = __add__, __sub__, __mul__

    def inverse(self) -> "NumberFieldElement":
        a = ptrim(self.coords)
        if not a:
            raise NotAUnitError("zero has no inverse in %s" % self.field.name)
        g, s, _ = pxgcd(a, self.field._minpoly_q)
        if len(g) != 1:
            raise NotAUnitError(
                "gcd with the defining polynomial is not constant; field is not a field")
        return self.field._reduce(_pscale(s, 1 / g[0]))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        return ring_pow(self, n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, NumberFieldElement):
            return self.field == other.field and self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coords))

    def __repr__(self):
        w = self.field.name
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*%s" % (c, w))
            else:
                parts.append("%s*%s^%d" % (c, w, i))
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# multivariate polynomials over Q

# Every variable name owns one fixed slot of _SLOT_BITS bits in a packed
# monomial, an int, from its first use on.  The top bit of each slot is a
# guard: a product that sets it raises instead of spilling into the next slot.
# Slot 0 is reserved for EPS_NAME, the e of rings.TruncAlgebra over polynomials,
# a name no parsed polynomial can have: e^k is the monomial k, and m & EPS_MASK
# is the degree in e of a monomial m.
_SLOT_BITS = 32
EPS_MASK = _SLOT_MASK = (1 << _SLOT_BITS) - 1
MAX_EXPONENT = (1 << (_SLOT_BITS - 1)) - 1
EPS_NAME = "e'"
_SLOTS = {EPS_NAME: 0}  # name -> bit offset of its slot, in order of first use
_GUARDS = 1 << (_SLOT_BITS - 1)  # the guard bit of every slot in _SLOTS


def exponent_guard(monomials) -> None:
    """Raise OverflowError when some packed monomial has an exponent past MAX_EXPONENT."""
    if reduce(or_, monomials, 0) & _GUARDS:
        raise OverflowError("an exponent of the product exceeds the limit %d" % MAX_EXPONENT)


class MultiPoly:
    """Multivariate polynomial over Q in canonical form.

    ``terms`` maps packed monomials to nonzero rational coefficients.  All
    polynomials share one variable order, so a product of two monomials is one
    int addition and no two polynomials need aligning.  ``variables`` and
    ``repr`` sort the names, so no printed text depends on the order in which
    names were first used.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        # integral coefficients are kept as plain ints (exact and fast);
        # int and Fraction compare and hash consistently
        self.terms = {}
        for e, c in terms.items():
            if c == 0:
                continue
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            self.terms[e] = c

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value) -> "MultiPoly":
        return MultiPoly({0: QQ.coerce(value)})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        global _GUARDS
        if name not in _SLOTS:
            _SLOTS[name] = len(_SLOTS) * _SLOT_BITS
            _GUARDS |= 1 << (_SLOTS[name] + _SLOT_BITS - 1)
        return MultiPoly._canonical({1 << _SLOTS[name]: 1})

    @staticmethod
    def _canonical(terms: dict) -> "MultiPoly":
        """A result whose terms are canonical already: no zero, no integral Fraction."""
        p = object.__new__(MultiPoly)
        p.terms = terms
        return p

    @property
    def variables(self) -> tuple:
        """The names that occur in some term, sorted."""
        used = reduce(or_, self.terms, 0)
        return tuple(sorted(v for v, shift in _SLOTS.items() if used >> shift & _SLOT_MASK))

    def _exponents(self) -> tuple:
        """The sorted names, and each term as (its exponent of each name, coefficient)."""
        names = self.variables
        shifts = [_SLOTS[v] for v in names]
        return names, [(tuple(e >> s & _SLOT_MASK for s in shifts), c)
                       for e, c in self.terms.items()]

    @property
    def ring(self) -> "PolyDomain":
        return _POLY_RING

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if not s:
                del terms[e]
            elif type(s) is Fraction and s.denominator == 1:
                terms[e] = s.numerator
            else:
                terms[e] = s
        return MultiPoly._canonical(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly._canonical({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        exponent_guard(terms)
        return MultiPoly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ring_pow(self, n)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return Fraction(next(iter(self.terms.values()), 0))

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(ks) for ks, _ in self._exponents()[1])

    def coefficient(self, monomial: dict) -> Fraction:
        e = 0
        for v, k in monomial.items():
            if k and not (v in _SLOTS and 0 < k <= MAX_EXPONENT):
                return Fraction(0)  # no term has this monomial
            e += k << _SLOTS.get(v, 0)
        return Fraction(self.terms.get(e, 0))

    def derivative(self, var: str) -> "MultiPoly":
        if var not in _SLOTS:
            return MultiPoly({})
        shift = _SLOTS[var]
        terms = {}
        for e, c in self.terms.items():
            k = e >> shift & _SLOT_MASK
            if k:
                terms[e - (1 << shift)] = c * k
        return MultiPoly(terms)

    def __eq__(self, other):
        if type(other) is int or type(other) is Fraction:
            other = MultiPoly.constant(other)
        elif type(other) is not MultiPoly:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:  # a constant hashes as the rational it equals
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        names, rows = self._exponents()
        parts = []
        # graded lexicographic in the sorted names, highest first
        for ks, c in sorted(rows, key=lambda r: (sum(r[0]), r[0]), reverse=True):
            factors = [v if k == 1 else "%s^%d" % (v, k) for v, k in zip(names, ks) if k]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("%s*%s" % (c, "*".join(factors)))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _operand(x):
    """x as a MultiPoly, or None for another ring's element so that its reflected
    method runs; anything that is not a ring element is a DomainMismatchError."""
    if type(x) is MultiPoly:
        return x
    if type(x) is int or type(x) is Fraction:  # a bool is not a rational
        return MultiPoly.constant(x)
    ring_of(x)
    return None


def poly_eval(p: MultiPoly, point: dict):
    """Evaluate ``p`` at ``point``, a map name -> value.

    All values must lie in one exact domain, the target; rational coefficients
    are carried into it explicitly, so this is the canonical evaluation map
    Q[X1..Xn] -> target ring.
    """
    names, rows = p._exponents()
    missing = [v for v in names if v not in point]
    if missing:
        raise UnassignedVariableError("no value assigned to variable %r" % missing[0])
    rings = {ring_of(v) for v in point.values()}
    if len(rings) > 1:
        raise DomainMismatchError("point values live in different domains")
    ring = rings.pop() if rings else QQ
    acc = None
    for ks, c in rows:
        term = ring.coerce(c)
        for v, k in zip(names, ks):
            if k:
                term = term * point[v] ** k
        acc = term if acc is None else acc + term
    return ring.zero() if acc is None else acc


# ---------------------------------------------------------------------------
# expression parsing (input files)

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.Div)
# the largest total degree a parsed power may expand to
MAX_PARSE_DEGREE = 64
# the most terms a parsed power or product may expand to
MAX_PARSE_TERMS = 1024
# the largest coefficient size a parsed power or product may reach, in bits:
# n * _coefficient_bits(p) for p^n, the sum over both factors for a product
MAX_PARSE_BITS = 2048


def _coefficient_bits(p: "MultiPoly") -> int:
    """The bit size of p's largest numerator or denominator plus ceil(lg terms)."""
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)
    return bits + max(len(p.terms) - 1, 0).bit_length()


def parse_polynomial(text: str, variables=None) -> MultiPoly:
    """Parse an integer/rational polynomial expression like ``X^3 - Y^2``.

    ``^`` means exponentiation.  Only +, -, *, /, integer literals and
    variable names are allowed; division must be by a nonzero integer.
    """
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError("cannot parse polynomial %r: %s" % (text, exc)) from None

    def check_bits(bits, what):
        if bits > MAX_PARSE_BITS:
            raise ValueError("%s of coefficients up to %d bits exceeds the limit %d in %r"
                             % (what, bits, MAX_PARSE_BITS, text))

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            left, right = build(node.left), build(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                terms = len(left.terms) * len(right.terms)
                if terms > MAX_PARSE_TERMS:
                    raise ValueError("product of %d terms exceeds the limit %d in %r"
                                     % (terms, MAX_PARSE_TERMS, text))
                check_bits(_coefficient_bits(left) + _coefficient_bits(right), "product")
                return left * right
            if isinstance(node.op, ast.Pow):
                if not isinstance(right, MultiPoly) or not right.is_constant():
                    raise ValueError("exponent must be a constant in %r" % text)
                n = right.constant_value()
                if n.denominator != 1 or n < 0:
                    raise ValueError("exponent must be a nonnegative integer in %r" % text)
                # a constant's exponent counts as its degree, so 2^(10^10) stops here too
                degree = max(left.degree(), 1) * int(n)
                if degree > MAX_PARSE_DEGREE:
                    raise ValueError("power of degree %d exceeds the limit %d in %r"
                                     % (degree, MAX_PARSE_DEGREE, text))
                # p^n has at most as many terms as there are monomials of
                # degree n in k = len(p.terms) variables
                k = len(left.terms)
                terms = comb(int(n) + k - 1, k - 1) if k else 0
                if terms > MAX_PARSE_TERMS:
                    raise ValueError("power of up to %d terms exceeds the limit %d in %r"
                                     % (terms, MAX_PARSE_TERMS, text))
                check_bits(int(n) * _coefficient_bits(left), "power")
                # the power of L * left, with L the lcm of its denominators,
                # multiplies ints only; one scale by L^-n brings it back
                scale = lcm(*(c.denominator for c in left.terms.values()))
                if scale == 1:
                    return left ** int(n)
                return (left * scale) ** int(n) * Fraction(1, scale ** int(n))
            # division: by a nonzero constant only
            if not isinstance(right, MultiPoly) or not right.is_constant():
                raise ValueError("division only by constants in %r" % text)
            c = right.constant_value()
            if c == 0:
                raise ValueError("division by zero in %r" % text)
            return left * (1 / c)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            return -inner if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.Name):
            if variables is not None and node.id not in variables:
                raise ValueError("unknown variable %r in %r" % (node.id, text))
            return MultiPoly.variable(node.id)
        if isinstance(node, ast.Constant) and type(node.value) is int:  # not a bool
            return MultiPoly.constant(node.value)
        raise ValueError("disallowed syntax in polynomial %r" % text)

    return build(tree)


# ---------------------------------------------------------------------------
# generic ring-element helpers

def ring_of(x):
    """The ring descriptor of an element: QQ for a rational, that is an object of
    type exactly ``Fraction`` or ``int`` (not a ``bool``), ``x.ring`` otherwise.

    A descriptor has ``zero()``, ``one()``, ``coerce(c)`` for a rational c,
    ``inv(x)`` and ``is_field()``, and is its own identity: two elements
    share a domain exactly when their descriptors are equal.  QQ, PolyDomain,
    NumberField and TruncAlgebra implement it.
    """
    if type(x) is Fraction or type(x) is int:
        return QQ
    try:
        return x.ring
    except AttributeError:
        raise DomainMismatchError("unsupported element type %s" % type(x).__name__) from None


def domain_key(x):
    """A hashable tag of the exact domain an element lives in: its descriptor."""
    return ring_of(x)


def zero_like(x):
    return ring_of(x).zero()


def one_like(x):
    return ring_of(x).one()


def scalar_into(c, sample):
    """Carry a rational scalar into the domain of ``sample`` (explicit map)."""
    return ring_of(sample).coerce(c)


def is_zero(x) -> bool:
    if type(x) is Fraction or type(x) is int:
        return x == 0
    try:
        return x.is_zero()
    except AttributeError:
        raise DomainMismatchError("unsupported element type %s" % type(x).__name__) from None


def ring_inv(x):
    """Multiplicative inverse in the element's own domain, or NotAUnitError."""
    return ring_of(x).inv(x)


def ring_pow(x, n: int):
    """x**n by right-to-left binary powering: floor(lg n) squarings and
    popcount(n) - 1 further products; a negative n inverts x through ring_inv first."""
    if n < 0:
        x, n = ring_inv(x), -n
    if n == 0:
        return one_like(x)
    while not n & 1:
        x = x * x
        n >>= 1
    result = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            result = result * x
        n >>= 1
    return result


def as_ring_element(x):
    """Normalize plain integers to Fraction; pass ring elements through (a bool is neither)."""
    if type(x) is int:
        return Fraction(x)
    ring_of(x)  # rejects anything that is not a ring element
    return x


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """Immutable dense matrix over a single exact domain.

    Entries are stored row-major.  Construction normalizes plain integers to
    Fraction and rejects mixed domains.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: tuple):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(as_ring_element(x) for x in r)
        rings = {ring_of(x) for x in flat}
        if len(rings) == 2 and QQ in rings:
            # integer/rational literals lift into the one larger domain present
            ring = next(r for r in rings if r != QQ)
            flat = [ring.coerce(x) if isinstance(x, Fraction) else x for x in flat]
        elif len(rings) > 1:
            raise DomainMismatchError("matrix entries live in different domains")
        return Matrix(len(rows), ncols, tuple(flat))

    @staticmethod
    def identity(n: int, like=None) -> "Matrix":
        like = Fraction(1) if like is None else as_ring_element(like)
        one, zero = one_like(like), zero_like(like)
        return Matrix(n, n, tuple(one if i == j else zero
                                  for i in range(n) for j in range(n)))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        """The rational zero matrix."""
        return Matrix(nrows, ncols, (Fraction(0),) * (nrows * ncols))

    def entry(self, i: int, j: int):
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def rows(self):
        return [list(self.row(i)) for i in range(self.nrows)]

    def __add__(self, other):
        self._shape_check(other, same=True)
        return Matrix(self.nrows, self.ncols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._shape_check(other, same=True)
        return Matrix(self.nrows, self.ncols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return Matrix(self.nrows, self.ncols, tuple(-a for a in self.entries))

    def _shape_check(self, other, same=False):
        if not isinstance(other, Matrix):
            raise DomainMismatchError("expected a matrix, got %s" % type(other).__name__)
        if same and (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        if not same and self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            other = as_ring_element(other)
            return Matrix(self.nrows, self.ncols,
                          tuple(a * other for a in self.entries))
        self._shape_check(other)
        n, m, p = self.nrows, self.ncols, other.ncols
        out = []
        zero = None
        for i in range(n):
            ri = self.entries[i * m:(i + 1) * m]
            for j in range(p):
                acc = None
                for k in range(m):
                    a = ri[k]
                    if is_zero(a):
                        continue
                    b = other.entries[k * p + j]
                    if is_zero(b):
                        continue
                    prod = a * b
                    acc = prod if acc is None else acc + prod
                if acc is None:
                    if zero is None:
                        # an empty sum is zero of the product's domain: the
                        # larger one when a factor is over Q, as in from_rows
                        a = self.entries[0]
                        zero = zero_like(other.entries[0] if isinstance(a, Fraction) else a)
                    acc = zero
                out.append(acc)
        return Matrix(n, p, tuple(out))

    def __rmul__(self, other):
        other = as_ring_element(other)
        return Matrix(self.nrows, self.ncols, tuple(other * a for a in self.entries))

    def scale(self, c):
        c = as_ring_element(c)
        return Matrix(self.nrows, self.ncols, tuple(a * c for a in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows,
                      tuple(self.entry(i, j)
                            for j in range(self.ncols) for i in range(self.nrows)))

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        acc = self.entry(0, 0)
        for i in range(1, self.nrows):
            acc = acc + self.entry(i, i)
        return acc

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        one = one_like(self.entries[0])
        for i in range(self.nrows):
            for j in range(self.ncols):
                e = self.entry(i, j)
                if i == j:
                    if e != one:
                        return False
                elif not is_zero(e):
                    return False
        return True

    def is_zero_matrix(self) -> bool:
        return all(is_zero(e) for e in self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))

    def __repr__(self):
        return "Matrix(%s)" % "; ".join(
            ", ".join(str(x) for x in self.row(i)) for i in range(self.nrows))

    # -- determinant / inverse ----------------------------------------------

    def det(self):
        """Determinant by memoized cofactor expansion; division-free, any domain."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        full = (1 << self.nrows) - 1
        return self._minor(full, full, {})

    def _minor(self, rows, cols, memo):
        """Determinant of the submatrix on bitmasks ``rows`` and ``cols``.

        Expands along the first row of ``rows``, columns in order; ``memo``
        keeps each minor by its masks, for all callers that share it.
        """
        if not rows:
            return one_like(self.entries[0])
        got = memo.get((rows, cols))
        if got is not None:
            return got
        first = (rows & -rows).bit_length() - 1
        rest = rows & (rows - 1)
        acc = None
        sign = 1
        for j in range(self.ncols):
            bit = 1 << j
            if not (cols & bit):
                continue
            a = self.entry(first, j)
            if not is_zero(a):
                sub = self._minor(rest, cols & ~bit, memo)
                term = a * sub if sign > 0 else -(a * sub)
                acc = term if acc is None else acc + term
            sign = -sign
        acc = zero_like(self.entries[0]) if acc is None else acc
        memo[(rows, cols)] = acc
        return acc

    def inv(self) -> "Matrix":
        """Inverse over the entry domain.

        Gauss-Jordan over a field; over another ring, the adjugate over the
        determinant, with the determinant and every cofactor read from one
        table of minors.  Fails with SingularMatrixError carrying the
        determinant when the determinant is not a unit of the domain.
        """
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        if ring_of(self.entries[0]).is_field():
            # Gauss-Jordan on [M | I] leaves [I | M^-1] when M is invertible
            one, zero = one_like(self.entries[0]), zero_like(self.entries[0])
            work = [list(self.row(i)) + [one if i == j else zero for j in range(n)]
                    for i in range(n)]
            if len(row_reduce(work, n)) < n:
                raise SingularMatrixError(
                    "determinant %s is not a unit" % (zero,), determinant=zero)
            return Matrix(n, n, tuple(x for row in work for x in row[n:]))
        full = (1 << n) - 1
        memo = {}
        d = self._minor(full, full, memo)
        try:
            dinv = ring_inv(d)
        except NotAUnitError:
            raise SingularMatrixError(
                "determinant %s is not a unit" % (d,), determinant=d) from None
        # entry (i, j) of the adjugate is the (j, i) cofactor
        out = []
        for i in range(n):
            for j in range(n):
                c = self._minor(full & ~(1 << j), full & ~(1 << i), memo)
                out.append((c if (i + j) % 2 == 0 else -c) * dinv)
        return Matrix(n, n, tuple(out))


def row_reduce(rows: list, ncols: int) -> list:
    """Gauss-Jordan elimination in place over an exact field; returns the pivots.

    ``rows`` is a list of rows (lists), reduced to reduced row echelon form
    in place.  Pivots are sought in the first ``ncols`` columns only; later
    columns ride along as an augmented block.  Row i of the result has a 1
    in column ``pivots[i]``, where every other row has a 0, and a column is a
    pivot exactly when it is independent of the columns before it.  Over Q
    (every entry exactly an ``int`` or a ``Fraction``) the elimination runs on
    ints, ``cleared_row_reduce``, and the rows come back as ``Fraction``s.
    """
    if all(type(x) is Fraction or type(x) is int for row in rows for x in row):
        pivots, held = cleared_row_reduce(rows, ncols)
        rows[:] = [[Fraction(a, d) for a in nums] for d, nums in held]
        return pivots
    nrows = len(rows)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if not is_zero(rows[i][col])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = ring_inv(rows[r][col])
        prow = rows[r] = [x * pv for x in rows[r]]
        for i in range(nrows):
            f = rows[i][col]
            if i != r and not is_zero(f):
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(col)
    return pivots


def cleared_row_reduce(rows, ncols: int):
    """``row_reduce`` over Q on ints, leaving ``rows`` as it is: (pivots, held).

    ``held`` is the reduced form, row i held as (d, nums): ints over d > 0 in
    lowest terms, the ``cleared`` layout.  A pivot row y is held over its
    pivot's numerator p, so it has a 1 at its pivot, and eliminating with it
    takes x over d to p * x - x[col] * y over p * d, then one gcd pass.
    """
    held = [cleared(row) for row in rows]
    nrows = len(held)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if held[i][1][col]), None)
        if pivot is None:
            continue
        held[r], held[pivot] = held[pivot], held[r]
        y = held[r][1]
        g = gcd(*y) if y[col] > 0 else -gcd(*y)
        p, y = y[col] // g, [b // g for b in y]
        held[r] = (p, y)
        for i in range(nrows):
            d, x = held[i]
            f = x[col]
            if i != r and f:
                x = [p * a - f * b for a, b in zip(x, y)]
                g = gcd(p * d, *x)
                held[i] = (p * d // g, [a // g for a in x])
        pivots.append(col)
    return pivots, held


def rref(m: Matrix):
    """Reduced row echelon form over an exact field domain.

    Returns ``(reduced, rank, nullspace_basis)`` where the nullspace basis is
    a list of coordinate tuples spanning the right kernel.
    """
    if not ring_of(m.entries[0]).is_field():
        raise DomainMismatchError("row reduction needs entries from an exact field")
    ncols = m.ncols
    one = one_like(m.entries[0])
    zero = zero_like(m.entries[0])
    work = m.rows()
    pivots = row_reduce(work, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -work[i][fc]
        basis.append(tuple(vec))
    reduced = Matrix(m.nrows, ncols, tuple(x for row in work for x in row))
    return reduced, len(pivots), basis


# ring descriptors ---------------------------------------------------------
# NumberField above and TruncAlgebra in ``rings`` are the others.

class RationalDomain:
    """Descriptor for the base field Q."""

    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if type(x) is Fraction:
            return x
        if type(x) is int:
            return Fraction(x)
        raise DomainMismatchError("cannot coerce %s into Q" % type(x).__name__)

    def inv(self, x):
        if x == 0:
            raise NotAUnitError("zero is not a unit")
        return _ONE / x

    def is_field(self):
        return True

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash("RationalDomain")

    def __repr__(self):
        return "QQ"


QQ = RationalDomain()
_ONE = Fraction(1)


class PolyDomain:
    """Descriptor for Q[...], the polynomials in every variable name; any two
    compare equal."""

    def zero(self):
        return MultiPoly({})

    def one(self):
        return MultiPoly._canonical({0: 1})

    def coerce(self, x):
        return x if type(x) is MultiPoly else MultiPoly.constant(x)

    def inv(self, x):
        x = self.coerce(x)
        if x.is_constant() and not x.is_zero():
            return MultiPoly.constant(1 / x.constant_value())
        raise NotAUnitError("polynomial %s is not a unit" % x)

    def is_field(self):
        return False

    def __eq__(self, other):
        return isinstance(other, PolyDomain)

    def __hash__(self):
        return hash("PolyDomain")

    def __repr__(self):
        return "Q[...]"


_POLY_RING = PolyDomain()  # the one descriptor that MultiPoly.ring returns
