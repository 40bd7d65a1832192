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
from math import lcm
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


def rational_roots(poly):
    """All rational roots of a polynomial with Fraction coefficients, sorted.

    A root p/q in lowest terms has p dividing the lowest nonzero and q the
    leading coefficient of the integer multiple of ``poly``; divisors are
    found by trial division up to the square root.
    """
    poly = ptrim(poly)
    if len(poly) <= 1:
        return []
    denom = lcm(*[c.denominator for c in poly])
    ints = [int(c * denom) for c in poly]
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        while ints[0] == 0:
            ints = ints[1:]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(m):
        out = set()
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.update((d, m // d))
            d += 1
        return sorted(out)

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and peval(poly, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# number fields

class NumberField:
    """Field Q(w) for w a root of a monic integer polynomial with no rational root.

    The defining polynomial is given by its integer coefficients in ascending
    order, e.g. ``(-2, 0, 1)`` for w^2 - 2.  For degree <= 3 the no-rational-root
    screen is a complete irreducibility proof; beyond that irreducibility is the
    caller's contract.  The field is its own ring descriptor (see ``ring_of``).
    """

    def __init__(self, name: str, minpoly: Sequence[int]):
        coeffs = tuple(int(c) for c in minpoly)
        if len(coeffs) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
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
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != self.degree:
            raise ValueError("expected %d coordinates, got %d" % (self.degree, len(cs)))
        return NumberFieldElement(self, cs)

    def from_rational(self, q) -> "NumberFieldElement":
        return self.element((Fraction(q),) + (Fraction(0),) * (self.degree - 1))

    def zero(self) -> "NumberFieldElement":
        return self.from_rational(0)

    def one(self) -> "NumberFieldElement":
        return self.from_rational(1)

    def coerce(self, x) -> "NumberFieldElement":
        if isinstance(x, (int, Fraction)):
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
        _, rem = pdivmod(prod, self.field._minpoly_q)
        return self.field.element(
            tuple(rem[i] if i < len(rem) else Fraction(0) for i in range(self.field.degree)))

    def inverse(self) -> "NumberFieldElement":
        a = ptrim(self.coords)
        if not a:
            raise NotAUnitError("zero has no inverse in %s" % self.field.name)
        g, s, _ = pxgcd(a, self.field._minpoly_q)
        if len(g) != 1:
            raise NotAUnitError(
                "gcd with the defining polynomial is not constant; field is not a field")
        inv = _pscale(s, 1 / g[0])
        _, rem = pdivmod(inv, self.field._minpoly_q)
        return self.field.element(
            tuple(rem[i] if i < len(rem) else Fraction(0) for i in range(self.field.degree)))

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

class MultiPoly:
    """Multivariate polynomial over Q in canonical form.

    Terms are stored as a map from exponent tuples to nonzero rational
    coefficients.  Binary operations align variable lists by union, so
    polynomials declared over different variable sets combine freely.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: tuple, terms: dict):
        self.variables = variables
        # integral coefficients are kept as plain ints (exact and fast);
        # int and Fraction compare and hash consistently
        self.terms = {}
        for e, c in terms.items():
            if c == 0:
                continue
            if isinstance(c, Fraction) and c.denominator == 1:
                c = c.numerator
            self.terms[e] = c

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, variables: tuple = ()) -> "MultiPoly":
        c = Fraction(value)
        zero = (0,) * len(variables)
        return MultiPoly(variables, {zero: c} if c != 0 else {})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    @staticmethod
    def variables_in(*names: str):
        """Generators sharing one variable tuple (keeps alignment cheap)."""
        vs = tuple(names)
        gens = []
        for i in range(len(vs)):
            e = [0] * len(vs)
            e[i] = 1
            gens.append(MultiPoly(vs, {tuple(e): Fraction(1)}))
        return gens

    @property
    def ring(self) -> "PolyDomain":
        """Q[variables], one descriptor per variable tuple."""
        ring = _POLY_RINGS.get(self.variables)
        if ring is None:
            ring = _POLY_RINGS[self.variables] = PolyDomain(*self.variables)
        return ring

    # -- alignment -----------------------------------------------------------

    def _aligned(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.variables)
        if not isinstance(other, MultiPoly):
            raise DomainMismatchError(
                "cannot combine polynomial with %s" % type(other).__name__)
        if self.variables == other.variables:
            return self, other
        merged = tuple(dict.fromkeys(self.variables + other.variables))
        return self._remap(merged), other._remap(merged)

    def _remap(self, merged):
        if merged == self.variables:
            return self
        pos = [merged.index(v) for v in self.variables]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(merged)
            for p, k in zip(pos, e):
                ne[p] = k
            terms[tuple(ne)] = c
        return MultiPoly(merged, terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MultiPoly(a.variables, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        a, b = self._aligned(other)
        if not a.terms or not b.terms:
            return MultiPoly(a.variables, {})
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ring_pow(self, n)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return Fraction(next(iter(self.terms.values()), 0))

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, monomial: dict) -> Fraction:
        e = tuple(monomial.get(v, 0) for v in self.variables)
        for v in monomial:
            if v not in self.variables and monomial[v] != 0:
                return Fraction(0)
        return self.terms.get(e, Fraction(0))

    def derivative(self, var: str) -> "MultiPoly":
        if var not in self.variables:
            return MultiPoly(self.variables, {})
        i = self.variables.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return MultiPoly(self.variables, terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other, self.variables)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        # hash ignores unused variables so it matches alignment-based equality
        used = [i for i in range(len(self.variables))
                if any(e[i] for e in self.terms)]
        names = tuple(self.variables[i] for i in used)
        items = frozenset(
            (tuple(e[i] for i in used), c) for e, c in self.terms.items())
        return hash((names, items))

    def _sorted_terms(self):
        # graded lexicographic, highest first
        return sorted(self.terms.items(), key=lambda ec: (-sum(ec[0]), tuple(-k for k in ec[0])))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            factors = []
            for v, k in zip(self.variables, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append("%s^%d" % (v, k))
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


def poly_eval(p: MultiPoly, point: dict):
    """Evaluate ``p`` at ``point``, a map name -> value.

    All values must lie in one exact domain; rational coefficients are carried
    into that domain explicitly, so this is the canonical evaluation map
    Q[X1..Xn] -> target ring.
    """
    missing = [v for v in p.variables
               if v not in point and any(e[p.variables.index(v)] for e in p.terms)]
    if missing:
        raise UnassignedVariableError("no value assigned to variable %r" % missing[0])
    values = [point.get(v) for v in p.variables]
    ring = None
    for v in values:
        if v is None:
            continue
        if ring is None:
            ring = ring_of(v)
        elif ring_of(v) != ring:
            raise DomainMismatchError("point values live in different domains")
    if ring is None:
        ring = QQ
    acc = None
    for e, c in p.terms.items():
        term = ring.coerce(c)
        for v, k in zip(values, e):
            if k == 0:
                continue
            v = Fraction(v) if isinstance(v, int) else v
            term = term * (v ** k)
        acc = term if acc is None else acc + term
    return ring.zero() if acc is None else acc


# ---------------------------------------------------------------------------
# expression parsing (input files)

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.Div)


def parse_polynomial(text: str, variables=None) -> MultiPoly:
    """Parse an integer/rational polynomial expression like ``X^3 - Y^2``.

    ``^`` means exponentiation.  Only +, -, *, /, integer literals and
    variable names are allowed; division must be by a nonzero integer.
    """
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError("cannot parse polynomial %r: %s" % (text, exc)) from None

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
                return left * right
            if isinstance(node.op, ast.Pow):
                if not isinstance(right, MultiPoly) or not right.is_constant():
                    raise ValueError("exponent must be a constant in %r" % text)
                n = right.constant_value()
                if n.denominator != 1 or n < 0:
                    raise ValueError("exponent must be a nonnegative integer in %r" % text)
                return left ** int(n)
            # division: by a nonzero constant only
            if not isinstance(right, MultiPoly) or not right.is_constant():
                raise ValueError("division only by constants in %r" % text)
            c = right.constant_value()
            if c == 0:
                raise ValueError("division by zero in %r" % text)
            return left * Fraction(1, 1) * (1 / c)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            return -inner if isinstance(node.op, ast.USub) else inner
        if isinstance(node, ast.Name):
            if variables is not None and node.id not in variables:
                raise ValueError("unknown variable %r in %r" % (node.id, text))
            return MultiPoly.variable(node.id)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return MultiPoly.constant(node.value)
        raise ValueError("disallowed syntax in polynomial %r" % text)

    return build(tree)


# ---------------------------------------------------------------------------
# generic ring-element helpers

def ring_of(x):
    """The ring descriptor of an element: QQ for a rational, ``x.ring`` otherwise.

    A descriptor has ``zero()``, ``one()``, ``coerce(c)`` for a rational c,
    ``inv(x)`` and ``is_field()``, and is its own identity: two elements
    share a domain exactly when their descriptors are equal.  QQ, PolyDomain,
    NumberField, TruncAlgebra and SumAlgebra implement it.
    """
    if isinstance(x, (Fraction, int)):
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
    return x == 0 if isinstance(x, Fraction) else x.is_zero()


def ring_inv(x):
    """Multiplicative inverse in the element's own domain, or NotAUnitError."""
    return ring_of(x).inv(x)


def ring_pow(x, n: int):
    """x**n by repeated squaring; a negative n inverts x through ring_inv first."""
    if n < 0:
        x, n = ring_inv(x), -n
    result = one_like(x)
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


def as_ring_element(x):
    """Normalize plain integers to Fraction; pass ring elements through."""
    if isinstance(x, int):
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
    def zero(nrows: int, ncols: int, like=None) -> "Matrix":
        like = Fraction(0) if like is None else as_ring_element(like)
        z = zero_like(like)
        return Matrix(nrows, ncols, (z,) * (nrows * ncols))

    def entry(self, i: int, j: int):
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.ncols:(i + 1) * self.ncols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.ncols + j] for i in range(self.nrows))

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
    pivot exactly when it is independent of the columns before it.
    """
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
# NumberField above and TruncAlgebra, SumAlgebra in ``rings`` are the others.

class RationalDomain:
    """Descriptor for the base field Q."""

    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
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
    """Descriptor for Q[x1, x2, ...]; any two compare equal, whatever their variables."""

    def __init__(self, *variables: str):
        self.variables = tuple(variables)
        self.name = "Q[%s]" % ", ".join(self.variables)

    def zero(self):
        return MultiPoly(self.variables, {})

    def one(self):
        return MultiPoly.constant(1, self.variables)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return MultiPoly.constant(x, self.variables)
        if isinstance(x, MultiPoly):
            return x
        raise DomainMismatchError("cannot coerce %s into %s" % (type(x).__name__, self.name))

    def inv(self, x):
        x = self.coerce(x)
        if x.is_constant() and not x.is_zero():
            return MultiPoly.constant(1 / x.constant_value(), x.variables)
        raise NotAUnitError("polynomial %s is not a unit" % x)

    def is_field(self):
        return False

    def __eq__(self, other):
        return isinstance(other, PolyDomain)

    def __hash__(self):
        return hash("PolyDomain")

    def __repr__(self):
        return self.name


_POLY_RINGS = {}  # variable tuple -> PolyDomain, for MultiPoly.ring
