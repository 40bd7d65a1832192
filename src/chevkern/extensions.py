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
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .kernel import (
    Matrix,
    SingularMatrixError,
    pdivmod,
    pmul,
    ptrim,
    pxgcd,
    rational_roots,
    row_reduce,
    rref,
)
from .rings import SumAlgebra, TruncAlgebra


# ---------------------------------------------------------------------------
# traceless matrices and the Killing form

class TracelessMatrices:
    """The Lie algebra of traceless n x n rational matrices."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.dim = n * n - 1
        self._basis = self._build_basis()

    def _build_basis(self):
        n = self.n
        out = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                out.append(Matrix.from_rows(
                    [[1 if (a, b) == (i, j) else 0 for b in range(n)] for a in range(n)]))
        for k in range(n - 1):
            rows = [[0] * n for _ in range(n)]
            rows[k][k] = 1
            rows[k + 1][k + 1] = -1
            out.append(Matrix.from_rows(rows))
        return tuple(out)

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
        cs = [Fraction(c) for c in coords]
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

    def random_element(self, rng, lo=-3, hi=3) -> Matrix:
        return self.from_coords([Fraction(rng.randint(lo, hi)) for _ in range(self.dim)])


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
        if form is None:
            # killing_form through its identity 2n * tr(xy), on members of
            # the algebra (element() checks membership)
            n = lie.n

            def form(x, y):
                xe, ye = x.entries, y.entries
                return 2 * n * sum(xe[i * n + k] * ye[k * n + i]
                                   for i in range(n) for k in range(n))
        self.form = form

    def element(self, a: Matrix, b: Matrix, c) -> "HeisenbergElement":
        if not (self.lie.contains(a) and self.lie.contains(b)):
            raise ValueError("components must lie in the algebra")
        return HeisenbergElement(self, a, b, Fraction(c))

    def identity(self) -> "HeisenbergElement":
        z = Matrix.zero(self.lie.n, self.lie.n)
        return HeisenbergElement(self, z, z, Fraction(0))


class HeisenbergElement:
    __slots__ = ("group", "a", "b", "c")

    def __init__(self, group, a, b, c):
        self.group = group
        self.a = a
        self.b = b
        self.c = c

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        f = self.group.form
        c = self.c + other.c + f(self.a, other.b) - f(other.a, self.b)
        return HeisenbergElement(self.group, self.a + other.a, self.b + other.b, c)

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(self.group, -self.a, -self.b, -self.c)

    def commutator(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return self.a.is_zero_matrix() and self.b.is_zero_matrix() and self.c == 0

    def __eq__(self, other):
        if not isinstance(other, HeisenbergElement):
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

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
    normalized: c(e, e) = 0.
    """

    def __init__(self, ops: GroupOps, cocycle: Callable, center_dim: int = 1):
        self.ops = ops
        self.cocycle = cocycle
        self.center_dim = center_dim
        e = ops.identity
        if self._c(e, e) != (Fraction(0),) * center_dim:
            raise CocycleError("cocycle is not normalized at the identity")

    def _c(self, g, h) -> tuple:
        val = self.cocycle(g, h)
        if not isinstance(val, tuple):
            val = (val,)
        if len(val) != self.center_dim:
            raise CocycleError("cocycle value has wrong length")
        return tuple(Fraction(v) for v in val)

    def validate_cocycle(self, samples) -> bool:
        """Check c(g,h) + c(gh,k) = c(g,hk) + c(h,k) on the given triples."""
        mul = self.ops.mul
        for g, h, k in samples:
            lhs = _tadd(self._c(g, h), self._c(mul(g, h), k))
            rhs = _tadd(self._c(g, mul(h, k)), self._c(h, k))
            if lhs != rhs:
                raise CocycleError("cocycle identity fails at %r" % ((g, h, k),))
        return True

    def element(self, g, z=None) -> "ExtensionElement":
        if z is None:
            z = (Fraction(0),) * self.center_dim
        if not isinstance(z, tuple):
            z = (z,)
        return ExtensionElement(self, g, tuple(Fraction(v) for v in z))

    def identity(self) -> "ExtensionElement":
        return self.element(self.ops.identity)


def _tadd(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _tneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


class ExtensionElement:
    __slots__ = ("ext", "g", "z")

    def __init__(self, ext, g, z):
        self.ext = ext
        self.g = g
        self.z = z

    def __mul__(self, other: "ExtensionElement") -> "ExtensionElement":
        ext = self.ext
        g = ext.ops.mul(self.g, other.g)
        z = _tadd(_tadd(self.z, other.z), ext._c(self.g, other.g))
        return ExtensionElement(ext, g, z)

    def inverse(self) -> "ExtensionElement":
        ext = self.ext
        ginv = ext.ops.inv(self.g)
        z = _tadd(_tneg(self.z), _tneg(ext._c(self.g, ginv)))
        return ExtensionElement(ext, ginv, z)

    def commutator(self, other: "ExtensionElement") -> "ExtensionElement":
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return self.g == self.ext.ops.identity and all(v == 0 for v in self.z)

    def __eq__(self, other):
        if not isinstance(other, ExtensionElement):
            return NotImplemented
        return self.g == other.g and self.z == other.z

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
    phi_hom_checked: int
    psi_checked: int
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
    phi_checked = 0
    for lift, samples in ((lift1, samples1), (lift2, samples2)):
        for a in samples:
            for b in samples:
                if lift(a) * lift(b) != lift(mul(a, b)):
                    raise ValueError("section is not a homomorphism at %r" % ((a, b),))
                phi_checked += 1

    psi = functools.cache(lambda a, b: lift1(a).commutator(lift2(b)))
    psi_checked = 0
    witness = None
    for a in samples1:
        for b in samples2:
            comm = psi(a, b)
            if comm.g != ext.ops.identity:
                raise ValueError("factors do not commute downstairs at %r" % ((a, b),))
            psi_checked += 1
            if witness is None and any(v != 0 for v in comm.z):
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
        return ProductSplittingReport(split=True, phi_hom_checked=phi_checked,
                                      psi_checked=psi_checked,
                                      section_checked=section_checked)

    # non-split: the obstruction must be additive in its second argument
    additive = all(psi(a, mul(b1, b2)).z == _tadd(psi(a, b1).z, psi(a, b2).z)
                   for a in samples1 for b1, b2 in itertools.product(samples2, repeat=2))
    return ProductSplittingReport(split=False, phi_hom_checked=phi_checked,
                                  psi_checked=psi_checked, witness=witness,
                                  psi_additive_ok=additive)


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
    through the symmetry of (b_i b_j) b_k in i, j and k.  Products read only
    the nonzero structure constants.
    """

    def __init__(self, names: Sequence[str], tensor, unit: Sequence):
        self.names = tuple(names)
        self.dim = len(self.names)
        n = self.dim
        self.tensor = tuple(tuple(tuple(Fraction(c) for c in row) for row in plane)
                            for plane in tensor)
        if len(self.tensor) != n or any(len(p) != n for p in self.tensor) or any(
                len(r) != n for p in self.tensor for r in p):
            raise AlgebraAxiomError("structure tensor must be %d^3" % n)
        self.unit = tuple(Fraction(u) for u in unit)
        if len(self.unit) != n:
            raise AlgebraAxiomError("unit vector has wrong length")
        # the nonzero (k, c) entries of each product b_i * b_j
        self._table = tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c)
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
                    out = [Fraction(0)] * n
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
        out = [Fraction(0)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            plane = self._table[i]
            for j, yj in ys:
                f = xi * yj
                for k, c in plane[j]:
                    out[k] += f * c
        return tuple(out)

    def zero(self) -> tuple:
        return (Fraction(0),) * self.dim

    def basis_vector(self, k: int) -> tuple:
        return tuple(Fraction(1) if i == k else Fraction(0) for i in range(self.dim))

    def trace_form(self) -> Matrix:
        """Gram matrix Tr(b_i b_j) of the regular representation.

        Read from the structure constants: Tr(L_{b_i b_j}) =
        sum_l c_ijl tr(L_l) with tr(L_l) = sum_k c_lkk.  This equals
        trace(L_i L_j) because the algebra is associative (L_{xy} = L_x L_y).
        """
        n = self.dim
        traces = [sum((self.tensor[l][k][k] for k in range(n)), Fraction(0))
                  for l in range(n)]
        return Matrix.from_rows([[sum((c * traces[l] for l, c in self._table[i][j]),
                                      Fraction(0))
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
        lines = ["dim %d" % self.dim,
                 "basis %s" % " ".join(self.names),
                 "unit %s" % " ".join(str(u) for u in self.unit)]
        for i in range(self.dim):
            for j in range(self.dim):
                lines.append("%s*%s = %s" % (
                    self.names[i], self.names[j],
                    " ".join(str(c) for c in self.tensor[i][j])))
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
                fields[head] = tail.split()
            elif "=" in line and "*" in line:
                head, tail = line.split("=", 1)
                a, b = (s.strip() for s in head.split("*", 1))
                if (a, b) in products:
                    raise ValueError("second product line for %s*%s: %r" % (a, b, raw))
                products[(a, b)] = (raw, tuple(Fraction(tok) for tok in tail.split()))
            else:
                raise ValueError("cannot parse line %r" % raw)
        if len(fields) < 3:
            raise ValueError("file must declare dim, basis, and unit")
        dim = int(fields["dim"][0])
        names = tuple(fields["basis"])
        unit = tuple(Fraction(tok) for tok in fields["unit"])
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
        return FinDimAlgebra(names, tuple(tensor), unit)

    @staticmethod
    def load(path) -> "FinDimAlgebra":
        return FinDimAlgebra.parse(Path(path).read_text())


# ---------------------------------------------------------------------------
# decomposition into local factors

@dataclass
class LocalFactor:
    idempotent: tuple
    dim: int
    principal: bool
    trunc_order: Optional[int] = None
    generator: Optional[tuple] = None
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
    """Indices of the vectors that are independent of the ones before them."""
    return row_reduce([list(row) for row in zip(*vectors)], len(vectors))


class _QuotientView:
    """The semisimple quotient A/rad(A) with explicit projection and section.

    The section spans basis vectors of A complementary to the radical, so
    lift places coordinates at their indices; project takes the matching
    rows of the inverse change of basis (radical basis, then complement).
    """

    def __init__(self, algebra: FinDimAlgebra, rad_basis):
        self.algebra = algebra
        n, r = algebra.dim, len(rad_basis)
        # reduce [radical basis | I]: the pivots past the radical pick the
        # complement, and the I block becomes the inverse of the pivot
        # columns, the change of basis (radical basis, then complement)
        work = [[v[i] for v in rad_basis] + list(algebra.basis_vector(i))
                for i in range(n)]
        self._comp = [p - r for p in row_reduce(work, r + n) if p >= r]
        self.dim = len(self._comp)
        self._rows = [tuple(row[r:]) for row in work[r:]]
        # project(b_k) for every basis vector b_k of A: column k of the rows
        self.basis_projections = tuple(tuple(row[k] for row in self._rows)
                                       for k in range(n))

    def project(self, vec) -> tuple:
        return tuple(sum((a * b for a, b in zip(row, vec) if b), Fraction(0))
                     for row in self._rows)

    def lift(self, qvec) -> tuple:
        out = [Fraction(0)] * self.algebra.dim
        for k, c in zip(self._comp, qvec):
            out[k] = c
        return tuple(out)

    def mult(self, x, y) -> tuple:
        return self.project(self.algebra.mult(self.lift(x), self.lift(y)))

    def unit(self) -> tuple:
        return self.project(self.algebra.unit)

    def scale_add(self, c, x, y) -> tuple:
        return tuple(c * a + b for a, b in zip(x, y))


def _block_dim(view: _QuotientView, u) -> int:
    return len(_pivots([view.mult(u, p) for p in view.basis_projections]))


def _minpoly_on_block(view: _QuotientView, u, y):
    """Minimal polynomial of multiplication by y inside the block u*A.

    The powers u, uy, uy^2, ... grow until the last one depends on the ones
    before it; its coordinates in them are then the reduced last column.
    """
    powers = [u]
    while True:
        powers.append(view.mult(powers[-1], y))
        rows = [list(row) for row in zip(*powers)]
        k = len(powers) - 1
        if len(row_reduce(rows, k + 1)) <= k:
            return tuple(-row[k] for row in rows[:k]) + (Fraction(1),)


def _split_block(view: _QuotientView, u):
    """Split an idempotent u using a rational eigenvalue, if any exists."""
    for p in view.basis_projections:
        xbar = view.mult(u, p)
        poly = _minpoly_on_block(view, u, xbar)
        if len(poly) <= 2:
            continue
        for lam in rational_roots(poly):
            lin = (-lam, Fraction(1))
            quo, rem = pdivmod(poly, lin)
            if ptrim(rem):
                continue
            g, s, t = pxgcd(lin, quo)
            if len(g) != 1:
                continue  # repeated factor; cannot separate with this root
            # e = t(y) * quo(y) / g, an idempotent with e = 1 on the lam part
            e_poly = pmul(t, quo)
            e_poly = tuple(c / g[0] for c in e_poly)
            e = _eval_poly_in_block(view, u, xbar, e_poly)
            if view.mult(e, e) != e:
                raise ArithmeticError("constructed element is not idempotent")
            rest = view.scale_add(Fraction(-1), e, u)
            if all(c == 0 for c in e) or all(c == 0 for c in rest):
                continue
            return [e, rest]
    return None


def _eval_poly_in_block(view: _QuotientView, u, y, poly):
    acc = tuple(Fraction(0) for _ in range(view.dim))
    for c in reversed(poly):
        acc = view.mult(acc, y)
        acc = view.scale_add(c, u, acc)
    return acc


def decompose_algebra(algebra: FinDimAlgebra) -> DecompositionReport:
    """Split a commutative algebra into local factors via lifted idempotents.

    The radical is the kernel of the trace form Tr(b_i b_j) of the regular
    representation, read from the structure constants (trace_form);
    idempotents of the semisimple quotient are found through rational
    eigenvalues (a non-rational residue field raises IdempotentLiftingError)
    and lifted by the Newton iteration e -> 3e^2 - 2e^3.  Each factor is
    examined for principality of its maximal ideal.
    """
    n = algebra.dim
    _, _, rad_basis = rref(algebra.trace_form())
    rad_basis = list(rad_basis)
    view = _QuotientView(algebra, rad_basis)

    # split blocks depth first, so the leaves keep the order of the splits;
    # each block is ranked once
    blocks = []
    todo = [view.unit()]
    while todo:
        u = todo.pop()
        bd = _block_dim(view, u)
        split = _split_block(view, u) if bd > 1 else None
        if split is None:
            blocks.append((u, bd))
        else:
            todo.extend(reversed(split))
    for u, bd in blocks:
        if bd > 1:
            raise IdempotentLiftingError(
                "semisimple block of dimension %d has no rational idempotent "
                "splitting (non-rational residue field)" % bd)

    # lift the idempotents through the radical
    lifted = []
    for u, _ in blocks:
        e = view.lift(u)
        for _ in range(4 * n + 4):
            e2 = algebra.mult(e, e)
            if e2 == e:
                break
            e3 = algebra.mult(e2, e)
            e = tuple(3 * a - 2 * b for a, b in zip(e2, e3))
        else:
            raise ArithmeticError("idempotent lifting did not converge")
        lifted.append(e)
    # orthogonality and completeness of the lifted family
    total = algebra.zero()
    for i, e in enumerate(lifted):
        total = tuple(a + b for a, b in zip(total, e))
        for j in range(i + 1, len(lifted)):
            if any(c != 0 for c in algebra.mult(e, lifted[j])):
                raise ArithmeticError("lifted idempotents are not orthogonal")
    if total != algebra.unit:
        raise ArithmeticError("lifted idempotents do not sum to the unit")

    report = DecompositionReport(algebra=algebra, radical_dim=len(rad_basis))
    for e in sorted(lifted):
        basis_products = [algebra.mult(e, algebra.basis_vector(k)) for k in range(n)]
        factor_vectors = [basis_products[p] for p in _pivots(basis_products)]
        fdim = len(factor_vectors)
        ideal_products = [algebra.mult(e, r) for r in rad_basis]
        ideal_vectors = [ideal_products[p] for p in _pivots(ideal_products)]
        mdim = len(ideal_vectors)
        if mdim == 0:
            report.factors.append(LocalFactor(
                idempotent=e, dim=fdim, principal=True, trunc_order=1,
                generator=None, basis=(e,), maximal_ideal_generators=0))
            continue
        m2_vectors = [algebra.mult(x, y)
                      for x, y in itertools.product(ideal_vectors, repeat=2)]
        pivots = _pivots(m2_vectors + ideal_vectors)
        m2_rank = sum(p < len(m2_vectors) for p in pivots)
        embedding_dim = mdim - m2_rank
        if embedding_dim > 1:
            report.factors.append(LocalFactor(
                idempotent=e, dim=fdim, principal=False, basis=tuple(factor_vectors),
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
        while any(c != 0 for c in g):
            powers.append(g)
            g = algebra.mult(g, generator)
        if len(powers) != fdim or len(_pivots(powers)) != fdim:
            raise ArithmeticError("generator powers do not span the factor")
        report.factors.append(LocalFactor(
            idempotent=e, dim=fdim, principal=True, trunc_order=len(powers),
            generator=generator, basis=tuple(powers),
            maximal_ideal_generators=1))
    return report


@dataclass
class ReassemblyCheck:
    sum_algebra: SumAlgebra
    ok: bool
    checked_products: int


def reassemble(report: DecompositionReport) -> ReassemblyCheck:
    """Rebuild a sum of truncated rings and verify the isomorphism on products.

    Only available when every factor is principal.  The factor bases
    (e, g, g^2, ...) map to (1, e, e^2, ...) of K[e]/(e^d); the induced linear
    map is checked to be multiplicative on all basis pairs and to preserve
    the unit.  Factor bases that are not a basis of the algebra raise
    ArithmeticError.
    """
    if not report.all_principal:
        raise ValueError("reassembly needs all factors principal")
    algebra = report.algebra
    n = algebra.dim
    factors = [TruncAlgebra(f.trunc_order) for f in report.factors]
    target = SumAlgebra(factors)
    new_basis = [v for f in report.factors for v in f.basis]
    if len(new_basis) != n:
        raise ArithmeticError("factor bases have %d vectors, not %d" % (len(new_basis), n))
    try:
        change = Matrix.from_rows([[v[i] for v in new_basis] for i in range(n)]).inv()
    except SingularMatrixError:
        raise ArithmeticError("factor bases are not linearly independent") from None
    rows = [change.row(i) for i in range(n)]
    offsets = list(zip(factors, itertools.accumulate([0] + [g.d for g in factors])))

    def phi(vec):
        coords = [sum(a * b for a, b in zip(row, vec) if b) for row in rows]
        return target.element([g.element(coords[off:off + g.d]) for g, off in offsets])

    images = [phi(algebra.basis_vector(i)) for i in range(n)]
    checked = 0
    ok = phi(algebra.unit) == target.one()
    for i in range(n):
        for j in range(n):
            if phi(algebra.tensor[i][j]) != images[i] * images[j]:
                ok = False
            checked += 1
    return ReassemblyCheck(sum_algebra=target, ok=ok, checked_products=checked)
