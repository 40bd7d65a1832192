"""Central extensions and finite-dimensional commutative algebra structure.

Three layers:

* the trace-form pairing on traceless matrices (Killing form via ad-traces)
  and the Heisenberg-like group V = g x g x K whose group law twists the
  central coordinate by f(a1, b2) - f(a2, b1);
* generic central extensions of a group by K^m given by a 2-cocycle, with
  lift-independence of commutators and the obstruction homomorphism that
  decides when sections over two direct factors merge into one;
* decomposition of a finite-dimensional commutative unital Q-algebra into
  local factors, reported as truncated polynomial rings K[e]/(e^d) when the
  maximal ideal is principal.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Callable, Optional, Sequence

from .kernel import (
    MAX_PARSE_BITS,
    DomainMismatchError,
    Matrix,
    QQ,
    SingularMatrixError,
    cleared,
    cleared_row_reduce,
    draw_below,
    pdivmod,
    pmul,
    ptrim,
    pxgcd,
    rational_roots,
    rref,
)
from .rings import TruncAlgebra


# ---------------------------------------------------------------------------
# traceless matrices and the Killing form

class TracelessMatrices:
    """The Lie algebra of traceless n x n rational matrices."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.dim = n * n - 1
        self._basis = tuple(self.from_coords([int(i == k) for i in range(self.dim)])
                            for k in range(self.dim))

    def basis(self):
        return self._basis

    def contains(self, x: Matrix) -> bool:
        return (x.nrows == x.ncols == self.n) and x.trace() == 0

    def coords(self, x: Matrix) -> tuple:
        """Coordinates in the basis (E_ij for i != j, then diagonal steps)."""
        if not self.contains(x):
            raise ValueError("matrix is not traceless of size %d" % self.n)
        n = self.n
        out = [x.entry(i, j) for i in range(n) for j in range(n) if i != j]
        partial = Fraction(0)
        for k in range(n - 1):
            partial += x.entry(k, k)
            out.append(partial)
        return tuple(out)

    def from_coords(self, coords: Sequence) -> Matrix:
        cs = [QQ.coerce(c) for c in coords]
        if len(cs) != self.dim:
            raise ValueError("expected %d coordinates, got %d" % (self.dim, len(cs)))
        n = self.n
        # diagonal entry k is c_k - c_{k-1} for the steps E_kk - E_{k+1,k+1}
        steps = [Fraction(0)] + cs[n * n - n:] + [Fraction(0)]
        off = iter(cs)
        return Matrix(n, n, tuple(steps[i + 1] - steps[i] if i == j else next(off)
                                  for i in range(n) for j in range(n)))

    def bracket(self, x: Matrix, y: Matrix) -> Matrix:
        return x * y - y * x

    def random_element(self, rng) -> Matrix:  # coordinates drawn as randint(-3, 3) draws them
        return self.from_coords([draw_below(rng.getrandbits, 7) - 3 for _ in range(self.dim)])


def ad_matrix(lie: TracelessMatrices, x: Matrix) -> Matrix:
    """The matrix of ad(x) = [x, -] in the chosen basis."""
    cols = [lie.coords(lie.bracket(x, b)) for b in lie.basis()]
    return Matrix.from_rows([[cols[j][i] for j in range(lie.dim)]
                             for i in range(lie.dim)])


def killing_form(lie: TracelessMatrices, x: Matrix, y: Matrix) -> Fraction:
    """trace(ad x ad y); for these algebras it equals 2n * trace(xy)."""
    return (ad_matrix(lie, x) * ad_matrix(lie, y)).trace()


# ---------------------------------------------------------------------------
# Heisenberg-like groups

class HeisenbergLikeGroup:
    """Set g x g x K with product twisting the center by f(a1,b2) - f(a2,b1).

    The commutator of two elements is central with value
    2 (f(a1, b2) - f(a2, b1)), so the group is abelian exactly when the
    pairing f vanishes identically.
    """

    def __init__(self, lie: TracelessMatrices, form: Optional[Callable] = None):
        self.lie = lie
        self._int_pairing = form is None  # products pair ints even if form is replaced later
        if form is None:
            # killing_form through its identity 2n * tr(xy), on members of
            # the algebra (element() checks membership)
            def form(x, y):
                (dx, xs), (dy, ys) = cleared(x.entries), cleared(y.entries)
                return Fraction(_trace_pairing(lie.n, xs, ys), dx * dy)
        self.form = form

    def element(self, a: Matrix, b: Matrix, c) -> "HeisenbergElement":
        n = self.lie.n
        if not (a.nrows == a.ncols == b.nrows == b.ncols == n):
            raise ValueError("components must lie in the algebra")
        den, nums = cleared([QQ.coerce(v) for v in a.entries + b.entries])
        # both traces from the numerators at the diagonal positions of a and b
        nn = n * n
        if sum(nums[0:nn:n + 1]) or sum(nums[nn::n + 1]):
            raise ValueError("components must lie in the algebra")
        return HeisenbergElement(self, den, tuple(nums), QQ.coerce(c), a, b)


@functools.cache
def _transposed(n: int, yo: int) -> tuple:
    return tuple(yo + k * n + i for i in range(n) for k in range(n))


def _trace_pairing(n: int, xs, ys, yo: int = 0) -> int:
    """2n * sum x_ik y_ki on row-major ints, y read from offset yo of ys."""
    return 2 * n * sum([x * ys[k] for x, k in zip(xs, _transposed(n, yo))])


def _lowest(den: int, nums: tuple) -> tuple:
    """(den, nums) divided by gcd(den, *nums)."""
    g = gcd(den, *nums)
    if g == 1:
        return den, nums
    return den // g, tuple([v // g for v in nums])


def _add_vectors(d1: int, x: tuple, d2: int, y: tuple) -> tuple:
    """x/d1 + y/d2, for int vectors x and y, as (den, nums) in lowest terms."""
    if d1 == d2 == 1:
        return 1, tuple([p + q for p, q in zip(x, y)])
    den = lcm(d1, d2)
    s, t = den // d1, den // d2
    return _lowest(den, tuple([p * s + q * t for p, q in zip(x, y)]))


def _fractions(pair: tuple) -> tuple:
    """The coordinates of a (den, ints) pair as Fractions."""
    den, nums = pair
    return tuple([Fraction(v, den) for v in nums])


class HeisenbergElement:
    """(a, b, c) with a and b one tuple nums of 2n^2 ints over one positive den,
    in lowest terms (zero over 1); the matrices are built on first read."""

    __slots__ = ("group", "den", "nums", "c", "_a", "_b")

    def __init__(self, group, den, nums, c, a=None, b=None):
        self.group, self.den, self.nums, self.c, self._a, self._b = group, den, nums, c, a, b

    def _part(self, k: int) -> Matrix:
        """a (k = 0) or b (k = 1), built from nums on first read and kept."""
        m = self._b if k else self._a
        if m is None:
            n, den = self.group.lie.n, self.den
            vs = self.nums[k * n * n:(k + 1) * n * n]
            m = Matrix(n, n, tuple(map(Fraction, vs) if den == 1
                                   else map(Fraction, vs, itertools.repeat(den))))
            setattr(self, "_b" if k else "_a", m)
        return m

    a = property(lambda self: self._part(0))
    b = property(lambda self: self._part(1))

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        group, x, y, d1, d2 = self.group, self.nums, other.nums, self.den, other.den
        if group._int_pairing:
            nn = len(x) // 2
            twist = Fraction(_trace_pairing(group.lie.n, x, y, nn)
                             - _trace_pairing(group.lie.n, y, x, nn), d1 * d2)
        else:
            f = group.form
            twist = f(self.a, other.b) - f(other.a, self.b)
        den, nums = _add_vectors(d1, x, d2, y)
        return HeisenbergElement(group, den, nums, self.c + other.c + twist)

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(self.group, self.den, tuple([-v for v in self.nums]), -self.c)

    def commutator(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return not any(self.nums) and self.c == 0

    def __eq__(self, other):
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        return (self.den, self.nums, self.c) == (other.den, other.nums, other.c)

    def __hash__(self):
        return hash((self.den, self.nums, self.c))

    def __repr__(self):
        return "HeisenbergElement(a=%r, b=%r, c=%s)" % (self.a, self.b, self.c)


def heisenberg_commutator_value(group: HeisenbergLikeGroup, g1, g2) -> Fraction:
    """Central value 2 (f(a1, b2) - f(a2, b1)) of the commutator [g1, g2]."""
    f = group.form
    return 2 * (f(g1.a, g2.b) - f(g2.a, g1.b))


@dataclass
class SplitnessVerdict:
    status: str  # "SPLIT" | "NON_SPLIT" | "INCONCLUSIVE"
    witness: Optional[tuple] = None
    section_checked: int = 0


def splitness_verdict(group: HeisenbergLikeGroup) -> SplitnessVerdict:
    """Decide whether the group is a direct product g x g x K.

    The pairing is swept over all basis pairs; bilinearity makes the sweep
    exhaustive.  A nonzero value yields a non-central-free commutator witness;
    a zero sweep certifies the section (a, b) -> (a, b, 0) as an isomorphism.
    """
    basis = group.lie.basis()
    zero = Matrix.zero(group.lie.n, group.lie.n)
    for x, y in itertools.product(basis, repeat=2):
        val = group.form(x, y)
        if val != 0:
            g1 = group.element(x, zero, 0)
            g2 = group.element(zero, y, 0)
            comm = g1.commutator(g2)
            return SplitnessVerdict(status="NON_SPLIT",
                                    witness=(g1, g2, comm.c))
    # certified split: verify the obvious section is a homomorphism on
    # all basis pairs (and that commutators vanish)
    checked = 0
    for x, y in itertools.product(basis, repeat=2):
        s1 = group.element(x, y, 0)
        s2 = group.element(y, x, 0)
        prod = s1 * s2
        if prod.c != 0 or not s1.commutator(s2).is_identity():
            return SplitnessVerdict(status="INCONCLUSIVE", witness=(x, y))
        checked += 1
    return SplitnessVerdict(status="SPLIT", section_checked=checked)


# ---------------------------------------------------------------------------
# cocycle extensions

@dataclass(frozen=True)
class GroupOps:
    """Multiplication, inversion and identity of the base group."""

    mul: Callable
    inv: Callable
    identity: object


class CocycleError(ValueError):
    """Raised when a claimed 2-cocycle fails its defining identity."""


class CocycleExtension:
    """Central extension of a base group by Q^m defined by a 2-cocycle.

    Elements are pairs (g, z) with z a central coordinate tuple, multiplied as
    (g1, z1)(g2, z2) = (g1 g2, z1 + z2 + c(g1, g2)).  The cocycle must be
    normalized: c(e, e) = 0, and every value has the length m of c(e, e).
    Each value is an int or a Fraction, held as m ints over one denominator.
    """

    def __init__(self, ops: GroupOps, cocycle: Callable):
        self.ops = ops
        self.cocycle = cocycle
        e = ops.identity
        at_e = cocycle(e, e)
        self.center_dim = len(at_e) if isinstance(at_e, tuple) else 1
        if any(self._c(e, e)[1]):
            raise CocycleError("cocycle is not normalized at the identity")

    def _central(self, val) -> tuple:
        """A central value as (den, nums): m ints over one positive den in lowest
        terms, zero over 1.  A bare scalar is (val,)."""
        if not isinstance(val, tuple):
            val = (val,)
        if len(val) != self.center_dim:
            raise CocycleError("central value %r has wrong length" % (val,))
        ints = True
        for v in val:
            if type(v) is not int:
                if type(v) is not Fraction:
                    raise DomainMismatchError("cannot coerce %s into Q" % type(v).__name__)
                ints = False
        if ints:
            return 1, tuple(val)
        den, nums = cleared(val)
        return den, tuple(nums)

    def _c(self, g, h) -> tuple:
        return self._central(self.cocycle(g, h))

    def validate_cocycle(self, samples) -> bool:
        """Check c(g,h) + c(gh,k) = c(g,hk) + c(h,k) on the given triples."""
        mul = self.ops.mul
        for g, h, k in samples:
            lhs = _add_vectors(*self._c(g, h), *self._c(mul(g, h), k))
            rhs = _add_vectors(*self._c(g, mul(h, k)), *self._c(h, k))
            if lhs != rhs:
                raise CocycleError("cocycle identity fails at %r" % ((g, h, k),))
        return True

    def element(self, g, z=None) -> "ExtensionElement":
        """The pair (g, z); z defaults to 0 and is checked like a cocycle value."""
        return ExtensionElement(self, g, *self._central((0,) * self.center_dim if z is None else z))


class ExtensionElement:
    """(g, z) with z the m ints nums over one positive den, in lowest terms
    (zero over 1); z reads them back as Fractions."""

    __slots__ = ("ext", "g", "den", "nums")

    def __init__(self, ext, g, den, nums):
        self.ext, self.g, self.den, self.nums = ext, g, den, nums

    @property
    def z(self) -> tuple:
        den = self.den
        return tuple(map(Fraction, self.nums) if den == 1
                     else map(Fraction, self.nums, itertools.repeat(den)))

    def __mul__(self, other: "ExtensionElement") -> "ExtensionElement":
        ext = self.ext
        g = ext.ops.mul(self.g, other.g)
        dc, c = ext._c(self.g, other.g)
        d1, d2, x, y = self.den, other.den, self.nums, other.nums
        if d1 == d2 == dc == 1:
            return ExtensionElement(ext, g, 1, tuple([p + q + r for p, q, r in zip(x, y, c)]))
        den = lcm(d1, d2, dc)
        s, t, u = den // d1, den // d2, den // dc
        nums = tuple([p * s + q * t + r * u for p, q, r in zip(x, y, c)])
        return ExtensionElement(ext, g, *_lowest(den, nums))

    def inverse(self) -> "ExtensionElement":
        ext = self.ext
        ginv = ext.ops.inv(self.g)
        den, nums = _add_vectors(self.den, self.nums, *ext._c(self.g, ginv))
        return ExtensionElement(ext, ginv, den, tuple([-v for v in nums]))

    def commutator(self, other: "ExtensionElement") -> "ExtensionElement":
        return self * other * self.inverse() * other.inverse()

    def __eq__(self, other):
        if not isinstance(other, ExtensionElement):
            return NotImplemented
        return (self.den, self.nums) == (other.den, other.nums) and self.g == other.g

    def __repr__(self):
        return "ExtensionElement(%r, %r)" % (self.g, self.z)


@dataclass
class LiftInvarianceReport:
    ok: bool
    commutator_center: Optional[tuple]
    checked: int


def commutator_lift_invariance(ext: CocycleExtension, g, h,
                               shifts: Sequence[tuple]) -> LiftInvarianceReport:
    """Commutators of lifts do not depend on the chosen central shifts."""
    base = ext.element(g).commutator(ext.element(h))
    checked = 0
    for z1 in shifts:
        for z2 in shifts:
            lifted = ext.element(g, z1).commutator(ext.element(h, z2))
            if lifted != base:
                return LiftInvarianceReport(ok=False, commutator_center=None,
                                            checked=checked)
            checked += 1
    return LiftInvarianceReport(ok=True, commutator_center=base.z, checked=checked)


@dataclass
class ProductSplittingReport:
    split: bool
    witness: Optional[tuple] = None
    psi_additive_ok: Optional[bool] = None
    section_checked: int = 0


def product_splitting(ext: CocycleExtension, phi1: Callable, phi2: Callable,
                      samples1: Sequence, samples2: Sequence) -> ProductSplittingReport:
    """Try to merge sections over two commuting factors into one section.

    phi1 and phi2 lift elements of the two factors into the extension.  The
    obstruction is psi_a(b) = [phi1(a), phi2(b)], central whenever the factors
    commute downstairs.  If it vanishes on all samples the combined map
    (a, b) -> phi1(a) phi2(b) is verified multiplicative; otherwise psi is
    returned with a witness, and its additivity in b is verified.

    phi1 and phi2 must be functions: each lift, each merged section value
    phi1(a) phi2(b) and each psi(a, b) is computed once per distinct argument
    and reused, so samples and their products must be hashable.
    """
    mul = ext.ops.mul
    lift1, lift2 = functools.cache(phi1), functools.cache(phi2)
    for lift, samples in ((lift1, samples1), (lift2, samples2)):
        for a in samples:
            for b in samples:
                if lift(a) * lift(b) != lift(mul(a, b)):
                    raise ValueError("section is not a homomorphism at %r" % ((a, b),))

    psi = functools.cache(lambda a, b: lift1(a).commutator(lift2(b)))
    witness = None
    for a in samples1:
        for b in samples2:
            comm = psi(a, b)
            if comm.g != ext.ops.identity:
                raise ValueError("factors do not commute downstairs at %r" % ((a, b),))
            if witness is None and any(comm.nums):
                witness = (a, b, comm.z)

    if witness is None:
        # indexed by sample position: merged[i][j] = phi1(a_i) phi2(b_j)
        merged = [[lift1(a) * lift2(b) for b in samples2] for a in samples1]
        products1 = [[mul(a1, a2) for a2 in samples1] for a1 in samples1]
        products2 = [[mul(b1, b2) for b2 in samples2] for b1 in samples2]
        target = functools.cache(lambda a, b: lift1(a) * lift2(b))
        section_checked = 0
        for (i1, a1), (i2, a2) in itertools.product(enumerate(samples1), repeat=2):
            for (j1, b1), (j2, b2) in itertools.product(enumerate(samples2), repeat=2):
                if (merged[i1][j1] * merged[i2][j2]
                        != target(products1[i1][i2], products2[j1][j2])):
                    raise ValueError("merged section failed at %r" % ((a1, b1, a2, b2),))
                section_checked += 1
        return ProductSplittingReport(split=True, section_checked=section_checked)

    # non-split: the obstruction must be additive in its second argument
    def additive_at(a, b1, b2):
        whole, p1, p2 = psi(a, mul(b1, b2)), psi(a, b1), psi(a, b2)
        return (whole.den, whole.nums) == _add_vectors(p1.den, p1.nums, p2.den, p2.nums)

    additive = all(additive_at(a, b1, b2)
                   for a in samples1 for b1, b2 in itertools.product(samples2, repeat=2))
    return ProductSplittingReport(split=False, witness=witness, psi_additive_ok=additive)


# ---------------------------------------------------------------------------
# finite-dimensional commutative algebras

class AlgebraAxiomError(ValueError):
    """Raised when structure constants violate the declared axioms."""


class IdempotentLiftingError(ArithmeticError):
    """Raised when a residue field is not rational, blocking the splitting."""


class FinDimAlgebra:
    """Commutative associative unital algebra over Q with a fixed basis.

    The structure tensor c[i][j][k] gives basis products
    b_i * b_j = sum_k c[i][j][k] b_k; elements are coordinate tuples.
    Construction verifies commutativity on every basis pair, the unit law on
    every basis vector, and associativity on every basis triple, the last
    through the symmetry of (b_i b_j) b_k in i, j and k.  The nonzero constants
    are kept as ints over one common denominator of at most MAX_PARSE_BITS
    bits, so products and checks run on ints; a larger one is refused.
    """

    def __init__(self, names: Sequence[str], tensor, unit: Sequence):
        self.names = tuple(names)
        self.dim = len(self.names)
        n = self.dim
        if n == 0:
            raise AlgebraAxiomError("the algebra has dimension 0, so 1 = 0; give a basis")
        self.tensor = tuple(tuple(tuple(QQ.coerce(c) for c in row) for row in plane)
                            for plane in tensor)
        if len(self.tensor) != n or any(len(p) != n for p in self.tensor) or any(
                len(r) != n for p in self.tensor for r in p):
            raise AlgebraAxiomError("structure tensor must be %d^3" % n)
        self.unit = tuple(QQ.coerce(u) for u in unit)
        if len(self.unit) != n:
            raise AlgebraAxiomError("unit vector has wrong length")
        den = 1
        for d in {c.denominator for plane in self.tensor for row in plane for c in row}:
            if (den := lcm(den, d)).bit_length() > MAX_PARSE_BITS:
                raise AlgebraAxiomError("the structure constants' common denominator passes "
                                        "MAX_PARSE_BITS = %d bits" % MAX_PARSE_BITS)
        self._den = den
        # the nonzero (k, c) entries of each product b_i * b_j, c an int at scale den
        self._table = tuple(tuple(tuple((k, c.numerator * (den // c.denominator))
                                        for k, c in enumerate(row) if c)
                                  for row in plane) for plane in self.tensor)
        self._validate()

    # -- validation -------------------------------------------------------------

    def _validate(self):
        n = self.dim
        tensor = self.tensor
        for i in range(n):
            for j in range(i + 1, n):
                if tensor[i][j] != tensor[j][i]:
                    raise AlgebraAxiomError(
                        "not commutative at basis pair (%d, %d)" % (i, j))
        for i in range(n):
            if self.mult(self.unit, self.basis_vector(i)) != self.basis_vector(i):
                raise AlgebraAxiomError("unit fails on basis element %d" % i)
        # With commutativity, b_i (b_j b_k) = (b_j b_k) b_i, so associativity
        # on all triples says W(i, j, k) = (b_i b_j) b_k is invariant under
        # cyclic shifts; W is symmetric in i, j already, so this is full
        # symmetry.  W is computed for i <= j in lexicographic order and kept
        # when k >= j (a sorted triple); for k < j the sorted triple is
        # (min(i, k), max(i, k), j), and W(i, j, k) differs from it exactly
        # when (b_k b_i) b_j != b_k (b_i b_j).
        table = self._table
        w = {}
        for i in range(n):
            for j in range(i, n):
                bij = table[i][j]
                for k in range(n):
                    out = [0] * n  # at scale den^2
                    for l, c in bij:
                        for m, d in table[l][k]:
                            out[m] += c * d
                    if k >= j:
                        w[i, j, k] = out
                    elif out != w[min(i, k), max(i, k), j]:
                        raise AlgebraAxiomError(
                            "not associative at basis triple (%d, %d, %d)" % (k, i, j))

    # -- arithmetic ---------------------------------------------------------------

    def mult(self, x: Sequence, y: Sequence) -> tuple:
        return _fractions(self._times(cleared(x), cleared(y)))

    def _times(self, x: tuple, y: tuple) -> tuple:
        """x * y on (den, ints) pairs, as (den, ints) in lowest terms."""
        (dx, xs), (dy, ys) = x, y
        out = [0] * self.dim
        ys = [(j, yj) for j, yj in enumerate(ys) if yj]
        for i, xi in enumerate(xs):
            if not xi:
                continue
            plane = self._table[i]
            for j, yj in ys:
                f = xi * yj
                for k, c in plane[j]:
                    out[k] += f * c
        return _lowest(dx * dy * self._den, tuple(out))

    def basis_vector(self, k: int) -> tuple:
        return tuple(Fraction(1) if i == k else Fraction(0) for i in range(self.dim))

    def trace_form(self) -> Matrix:
        """Gram matrix Tr(b_i b_j) of the regular representation.

        Read from the structure constants: Tr(L_{b_i b_j}) =
        sum_l c_ijl tr(L_l) with tr(L_l) = sum_k c_lkk.  This equals
        trace(L_i L_j) because the algebra is associative (L_{xy} = L_x L_y).
        """
        n, table, den = self.dim, self._table, self._den ** 2
        traces = [sum(c for k in range(n) for m, c in table[l][k] if m == k) for l in range(n)]
        return Matrix.from_rows([[Fraction(sum(c * traces[l] for l, c in table[i][j]), den)
                                  for j in range(n)] for i in range(n)])

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def from_univariate_quotient(coeffs: Sequence, var: str = "X") -> "FinDimAlgebra":
        """Q[X]/(f) for monic f given by ascending coefficients."""
        f = ptrim(tuple(Fraction(c) for c in coeffs))
        if not f or f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        n = len(f) - 1
        if n < 1:
            raise ValueError("defining polynomial must have degree >= 1")
        names = ["1"] + ["%s^%d" % (var, k) if k > 1 else var for k in range(1, n)]
        # X^m mod f for m < 2n - 1, each from the last: X * r reduced by
        # subtracting its X^n coefficient times f
        unit = tuple(Fraction(1) if k == 0 else Fraction(0) for k in range(n))
        rems = [unit]
        for _ in range(2 * n - 2):
            r = rems[-1]
            rems.append(tuple(a - r[-1] * c for a, c in zip((Fraction(0),) + r[:-1], f)))
        tensor = tuple(tuple(rems[i + j] for j in range(n)) for i in range(n))
        return FinDimAlgebra(names, tensor, unit)

    @staticmethod
    def truncated(d: int) -> "FinDimAlgebra":
        """K[e]/(e^d) as a structure-constant table."""
        return FinDimAlgebra.from_univariate_quotient(
            [Fraction(0)] * d + [Fraction(1)], var="e")

    @staticmethod
    def two_generator_square_zero() -> "FinDimAlgebra":
        """K[u, v] with u^2 = v^2 = uv = 0 (maximal ideal needs 2 generators)."""
        names = ("1", "u", "v")
        z = (Fraction(0),) * 3
        e0 = (Fraction(1), Fraction(0), Fraction(0))
        e1 = (Fraction(0), Fraction(1), Fraction(0))
        e2 = (Fraction(0), Fraction(0), Fraction(1))
        tensor = (
            (e0, e1, e2),
            (e1, z, z),
            (e2, z, z),
        )
        return FinDimAlgebra(names, tensor, e0)

    # -- serialization ------------------------------------------------------------------

    def to_lines(self):
        """The lines ``parse`` reads; a value that ``parse`` refuses is refused here."""
        rows = [("unit", self.unit)] + [("%s*%s =" % (a, b), self.tensor[i][j])
                                        for i, a in enumerate(self.names)
                                        for j, b in enumerate(self.names)]
        lines = ["dim %d" % self.dim, "basis %s" % " ".join(self.names)]
        for head, values in rows:
            tail = " ".join(_token(c) for c in values)
            lines.append("%s %s" % (head, tail))
            _coordinates(tail, lines[-1])
        return lines

    def save(self, path):
        Path(path).write_text("\n".join(self.to_lines()) + "\n")

    @staticmethod
    def parse(text: str) -> "FinDimAlgebra":
        fields = {}  # dim, basis, unit -> the tokens after the word
        products = {}  # (a, b) -> (line, coordinates of a*b)
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, tail = line.partition(" ")
            if head in ("dim", "basis", "unit") and tail:
                if head in fields:
                    raise ValueError("second %s line %r" % (head, raw))
                fields[head] = _coordinates(tail, raw) if head == "unit" else tail.split()
                if head == "dim" and len(fields[head]) != 1:
                    raise ValueError("dim line %r must hold one number" % raw)
            elif "=" in line and "*" in line:
                head, tail = line.split("=", 1)
                a, b = (s.strip() for s in head.split("*", 1))
                if (a, b) in products:
                    raise ValueError("second product line for %s*%s: %r" % (a, b, raw))
                products[(a, b)] = (raw, _coordinates(tail, raw))
            else:
                raise ValueError("cannot parse line %r" % raw)
        if len(fields) < 3:
            raise ValueError("file must declare dim, basis, and unit")
        dim = int(fields["dim"][0])
        names = tuple(fields["basis"])
        if len(names) != dim:
            raise ValueError("basis names do not match the declared dimension")
        for (a, b), (raw, _) in products.items():
            if a not in names or b not in names:
                raise ValueError("product line %r names an element outside the basis" % raw)
        tensor = []
        for a in names:
            plane = []
            for b in names:
                if (a, b) not in products:
                    raise ValueError("missing product line for %s*%s" % (a, b))
                vec = products[(a, b)][1]
                if len(vec) != dim:
                    raise ValueError("product %s*%s has wrong length" % (a, b))
                plane.append(vec)
            tensor.append(tuple(plane))
        return FinDimAlgebra(names, tuple(tensor), fields["unit"])

    @staticmethod
    def load(path) -> "FinDimAlgebra":
        return FinDimAlgebra.parse(Path(path).read_text())


def _token(c: Fraction) -> str:
    """str(c), or a stand-in naming c's size where a part is past Python's digit limit."""
    try:
        return str(c)
    except ValueError:
        return "<%d-bit-part>" % max(c.numerator.bit_length(), c.denominator.bit_length())


def _coordinates(tail: str, raw: str) -> tuple:
    """tail's tokens in the form str(Fraction) writes, parts of at most MAX_PARSE_BITS bits."""
    for tok in tail.split():
        if not re.fullmatch(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?", tok) or any(
                len(part) > MAX_PARSE_BITS or int(part).bit_length() > MAX_PARSE_BITS
                for part in tok.lstrip("-").split("/")):
            raise ValueError("line %r: %r is not an integer or a/b with parts of at most %d bits"
                             % (raw, tok, MAX_PARSE_BITS))
    return tuple(Fraction(tok) for tok in tail.split())


# ---------------------------------------------------------------------------
# decomposition into local factors

@dataclass
class LocalFactor:
    idempotent: tuple
    dim: int
    principal: bool
    trunc_order: Optional[int] = None
    basis: tuple = ()
    maximal_ideal_generators: Optional[int] = None

    def describe(self) -> str:
        if self.principal:
            return "K[e]/(e^%d)" % self.trunc_order
        return "NOT-PRINCIPAL(dim m/m^2 = %d)" % self.maximal_ideal_generators


@dataclass
class DecompositionReport:
    algebra: FinDimAlgebra
    radical_dim: int
    factors: list = field(default_factory=list)

    @property
    def all_principal(self) -> bool:
        return all(f.principal for f in self.factors)

    def describe(self) -> str:
        return " (+) ".join(f.describe() for f in self.factors)


def _pivots(vectors) -> list:
    """Indices of the (den, ints) vectors independent of those before them, from the ints alone."""
    return cleared_row_reduce(zip(*[v for _, v in vectors]), len(vectors))[0]


def _combination(coeffs, vectors) -> tuple:
    """The sum of c * v over the paired c of coeffs and vectors v, all (den, ints)."""
    dc, cs = coeffs
    pairs = [(c, d, v) for c, (d, v) in zip(cs, vectors) if c]
    den = lcm(*[d for _, d, _ in pairs])
    scaled = [(c * (den // d), v) for c, d, v in pairs]
    return _lowest(dc * den, tuple([sum([f * v[i] for f, v in scaled if v[i]])
                                    for i in range(len(vectors[0][1]))]))


def _minpoly_on_block(algebra: FinDimAlgebra, e, y):
    """Minimal polynomial of multiplication by y on the block eA, and e, ey, ey^2, ...

    y acts on eA as e y does, so a basis vector y keeps the products sparse.
    The ints of the (den, ints) powers up to ey^n, n = dim A >= dim eA, are
    reduced together; the first, k, that depends on those before it has c_j
    in its reduced column, and power j enters ey^k with c_j d_j / d_k.
    """
    n = algebra.dim
    powers = [e]
    for _ in range(n):
        powers.append(algebra._times(powers[-1], y))
    pivots, held = cleared_row_reduce(zip(*[v for _, v in powers]), n + 1)
    k = next((k for k, p in enumerate(pivots) if p != k), len(pivots))
    dk = powers[k][0]
    return tuple([Fraction(-nums[k] * dj, d * dk) for (d, nums), (dj, _) in zip(held[:k], powers)]
                 ) + (Fraction(1),), powers[:k + 1]


def _split_block(algebra: FinDimAlgebra, e, ys):
    """Split the idempotent e as E + (e - E) at a rational eigenvalue, or None.

    Each basis vector y in ys (the e y span eA; all are (den, ints) pairs) is
    tried.  The roots of y's minimal polynomial on eA are the conjugates of
    e y's values in the residue fields of eA.  A y with no rational root shows
    that no residue field of eA is Q (None).  Otherwise poly = P R with
    P = (t - lam)^m and R prime to it.  A constant R makes y a scalar modulo
    the radical, and the next y is tried; else sP + tR = 1 makes (tR)(y)
    idempotent: it is 1 mod P and 0 mod R.
    """
    for y in ys:
        poly, powers = _minpoly_on_block(algebra, e, y)
        roots = rational_roots(poly)
        if not roots:
            return None
        lin, part, rest = (-roots[0], Fraction(1)), (Fraction(1),), poly
        while not pdivmod(rest, lin)[1]:
            part, rest = pmul(part, lin), pdivmod(rest, lin)[0]
        if len(rest) == 1:
            continue
        g, _, t = pxgcd(part, rest)
        # deg tR < deg poly, so (tR)(y) is a combination of the powers
        idem = _combination(cleared([c / g[0] for c in pmul(t, rest)]), powers)
        if algebra._times(idem, idem) != idem:
            raise ArithmeticError("constructed element is not idempotent")
        return [idem, _add_vectors(*e, idem[0], tuple([-v for v in idem[1]]))]
    return None


def decompose_algebra(algebra: FinDimAlgebra) -> DecompositionReport:
    """Split a commutative algebra into local factors by idempotents found in A.

    The radical is the kernel of the trace form Tr(b_i b_j) of the regular
    representation, read from the structure constants (trace_form).  A block
    eA, e idempotent, is local with residue field Q exactly when
    dim eA - dim e rad(A) = 1; any other block is split by an exact
    idempotent at a rational eigenvalue (_split_block), or has no residue
    field Q and raises IdempotentLiftingError.  Each factor is examined for
    principality of its maximal ideal.  Vectors are (den, ints) pairs in lowest
    terms, so equal vectors are equal pairs; the factors give them as Fractions.
    """
    n = algebra.dim
    basis = [(1, tuple([int(i == k) for i in range(n)])) for k in range(n)]
    rad_basis = [cleared(r) for r in rref(algebra.trace_form())[2]]
    unit = _combination(cleared(algebra.unit), basis)  # a (den, ints) pair in lowest terms

    # split blocks depth first; each block spans eA and e rad(A) once, and a
    # local one keeps them for its factor analysis
    blocks = []
    todo = [unit]
    while todo:
        e = todo.pop()
        products = [algebra._times(e, b) for b in basis]
        pivots = _pivots(products)
        factor_vectors = [products[p] for p in pivots]
        # e r from the coordinates of r and the products e b_k
        ideal_products = [_combination(r, products) for r in rad_basis]
        ideal_vectors = [ideal_products[p] for p in _pivots(ideal_products)]
        residue_dim = len(factor_vectors) - len(ideal_vectors)
        if residue_dim <= 1:
            blocks.append((e, factor_vectors, ideal_vectors))
            continue
        split = _split_block(algebra, e, [basis[p] for p in pivots])
        if split is None:
            raise IdempotentLiftingError(
                "a part of the algebra has a residue algebra of dimension %d over Q "
                "but no residue field Q: each of its residue fields is a proper "
                "extension of Q" % residue_dim)
        todo.extend(reversed(split))
    # orthogonality and completeness of the idempotents
    idempotents = [e for e, _, _ in blocks]
    if any(any(algebra._times(a, b)[1]) for a, b in itertools.combinations(idempotents, 2)):
        raise ArithmeticError("idempotents are not orthogonal")
    if functools.reduce(lambda s, e: _add_vectors(*s, *e), idempotents) != unit:
        raise ArithmeticError("idempotents do not sum to the unit")

    report = DecompositionReport(algebra=algebra, radical_dim=len(rad_basis))
    for idem, e, factor_vectors, ideal_vectors in sorted((_fractions(b[0]),) + b for b in blocks):
        fdim = len(factor_vectors)
        mdim = len(ideal_vectors)
        if mdim == 0:
            report.factors.append(LocalFactor(
                idempotent=idem, dim=fdim, principal=True, trunc_order=1,
                basis=(idem,), maximal_ideal_generators=0))
            continue
        m2_vectors = [algebra._times(x, y)
                      for x, y in itertools.product(ideal_vectors, repeat=2)]
        pivots = _pivots(m2_vectors + ideal_vectors)
        m2_rank = sum(p < len(m2_vectors) for p in pivots)
        embedding_dim = mdim - m2_rank
        if embedding_dim > 1:
            report.factors.append(LocalFactor(
                idempotent=idem, dim=fdim, principal=False,
                basis=tuple(map(_fractions, factor_vectors)),
                maximal_ideal_generators=embedding_dim))
            continue
        # principal: the first ideal vector outside m^2 (the first pivot past
        # m^2) generates the maximal ideal, and its powers e, g, g^2, ... form
        # a basis of the factor
        outside = [p - len(m2_vectors) for p in pivots if p >= len(m2_vectors)]
        if not outside:
            raise ArithmeticError("no generator found for a principal ideal")
        generator = ideal_vectors[outside[0]]
        powers = [e]
        g = generator
        while any(g[1]):
            powers.append(g)
            g = algebra._times(g, generator)
        if len(powers) != fdim or len(_pivots(powers)) != fdim:
            raise ArithmeticError("generator powers do not span the factor")
        report.factors.append(LocalFactor(
            idempotent=idem, dim=fdim, principal=True, trunc_order=len(powers),
            basis=tuple(map(_fractions, powers)), maximal_ideal_generators=1))
    return report


@dataclass
class ReassemblyCheck:
    factors: tuple[TruncAlgebra, ...]
    ok: bool
    checked_products: int


def reassemble(report: DecompositionReport) -> ReassemblyCheck:
    """Rebuild a sum of truncated rings and verify the isomorphism on products.

    Only available when every factor is principal.  An element of the sum is
    the tuple of its components, one per factor.  The factor bases
    (e, g, g^2, ...) map to (1, e, e^2, ...) of K[e]/(e^d); the induced linear
    map is checked to be multiplicative on all basis pairs, componentwise,
    and to preserve the unit.  Factor bases that are not a basis of the
    algebra raise ArithmeticError.
    """
    if not report.all_principal:
        raise ValueError("reassembly needs all factors principal")
    algebra = report.algebra
    n = algebra.dim
    factors = tuple(TruncAlgebra(f.trunc_order) for f in report.factors)
    new_basis = [v for f in report.factors for v in f.basis]
    if len(new_basis) != n:
        raise ArithmeticError("factor bases have %d vectors, not %d" % (len(new_basis), n))
    try:
        change = Matrix.from_rows([[v[i] for v in new_basis] for i in range(n)]).inv()
    except SingularMatrixError:
        raise ArithmeticError("factor bases are not linearly independent") from None
    dc, entries = cleared(change.entries)
    # the image of b_k is column k of the inverse, over dc
    columns = [entries[k::n] for k in range(n)]
    offsets = list(zip(factors, itertools.accumulate([0] + [g.d for g in factors])))

    def phi(den, terms):
        """The factor components of the sum of c * b_k / den over the (k, c) terms."""
        coords = [sum([c * columns[k][i] for k, c in terms]) for i in range(n)]
        return tuple(g.from_cleared(*_lowest(den * dc, tuple(coords[off:off + g.d])))
                     for g, off in offsets)

    images = [phi(1, [(i, 1)]) for i in range(n)]
    checked = 0
    du, us = cleared(algebra.unit)
    ok = phi(du, list(enumerate(us))) == tuple(g.one() for g in factors)
    for i, plane in enumerate(algebra._table):
        for j, terms in enumerate(plane):
            if phi(algebra._den, terms) != tuple(a * b for a, b in zip(images[i], images[j])):
                ok = False
            checked += 1
    return ReassemblyCheck(factors=factors, ok=ok, checked_products=checked)
