"""Matrix Chevalley groups: SL_{l+1} for A_l and Sp_4 for C2.

Each root alpha gets a nilpotent matrix X_alpha with X_alpha^2 = 0, kept as
the table of its nonzero entries, and the root subgroup element
e(alpha, t) = I + t*X_alpha over any commutative ring the parameter t lives
in.  Every other element here is a word in root elements, which
ChevalleyModel.word multiplies out: the monomial and diagonal elements

    w(alpha, u) = e(alpha, u) e(-alpha, -1/u) e(alpha, u)
    h(alpha, u) = w(alpha, u) w(alpha, -1)

and the commutator formula

    [e(alpha, s), e(beta, t)] = prod e(i*alpha + j*beta, N_ij s^i t^j)

whose integer constants N_ij in {+-1, +-2} are read off the symbolic
commutator, certified by the one formula word they give, frozen as golden
data, and re-verified over truncated rings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .kernel import (
    Matrix,
    MultiPoly,
    PolyDomain,
    as_ring_element,
    is_zero,
    one_like,
    ring_inv,
    ring_of,
    scalar_into,
    zero_like,
)
from .rings import TruncAlgebra, TruncElement
from .rootsys import Root, RootSystem, enumerate_roots, root_string

_DATA_DIR = Path(__file__).parent / "data"


# the nonzero entries (i, j, c) of each X_alpha of C2 on the basis
# (u1, u2, w1, w2), where the symplectic form pairs u_i with w_i
_C2_LETTERS = {
    (1, -1): ((0, 1, 1), (3, 2, -1)),
    (-1, 1): ((1, 0, 1), (2, 3, -1)),
    (1, 1): ((0, 3, 1), (1, 2, 1)),
    (-1, -1): ((2, 1, 1), (3, 0, 1)),
    (2, 0): ((0, 2, 1),),
    (-2, 0): ((2, 0, 1),),
    (0, 2): ((1, 3, 1),),
    (0, -2): ((3, 1, 1),),
}


def w_letters(alpha: Root, u):
    """The letters of w(alpha, u) = e(alpha, u) e(-alpha, -1/u) e(alpha, u); u a unit."""
    u = as_ring_element(u)
    return ((alpha, u), (-alpha, -ring_inv(u)), (alpha, u))


def h_letters(alpha: Root, u):
    """The letters of h(alpha, u) = w(alpha, u) w(alpha, -1)."""
    u = as_ring_element(u)
    return w_letters(alpha, u) + w_letters(alpha, -one_like(u))


class ModelInconsistencyError(ArithmeticError):
    """Raised when commutator constants cannot be determined consistently."""


class LevelError(ValueError):
    """Raised when an element is not trivial to the congruence depth required."""


class ChevalleyModel:
    """A faithful matrix model of the simply connected group for one system."""

    def __init__(self, system: RootSystem):
        self.system = system
        self._strings = {}
        if system.family == "A":
            self.n = system.rank + 1
            self.lie_dim = self.n * self.n - 1
            self._letters = {r: ((r.coords.index(1), r.coords.index(-1), 1),)
                             for r in system.roots}
            self.omega = None
        else:
            self.n = 4
            self.lie_dim = 10
            self._letters = {Root(coords): entries for coords, entries in _C2_LETTERS.items()}
            self.omega = Matrix.from_rows([
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [-1, 0, 0, 0],
                [0, -1, 0, 0],
            ])
        self._validate()

    def _validate(self):
        for r in self.system.roots:
            x = self.nilpotent(r)
            if not (x * x).is_zero_matrix():
                raise ModelInconsistencyError("X for %r does not square to zero" % (r,))
            if not self.in_lie_algebra(x):
                raise ModelInconsistencyError("X for %r is outside the Lie algebra" % (r,))
            if any(x.entry(i, i) != 0 for i in range(self.n)):
                raise ModelInconsistencyError("X for %r has a diagonal entry" % (r,))

    # -- basic elements --------------------------------------------------------

    def _entries(self, alpha: Root):
        """The nonzero entries (i, j, c) of X_alpha, off the diagonal."""
        try:
            return self._letters[alpha]
        except KeyError:
            raise ValueError("%r is not a root of %s" % (alpha, self.system.kind)) from None

    def string(self, alpha: Root, beta: Root) -> tuple:
        """The root string (i, j, root) of (alpha, beta), computed once per pair."""
        try:
            return self._strings[alpha, beta]
        except KeyError:
            string = self._strings[alpha, beta] = root_string(self.system, alpha, beta)
            return string

    def nilpotent(self, alpha: Root) -> Matrix:
        entries = [Fraction(0)] * (self.n * self.n)
        for i, j, c in self._entries(alpha):
            entries[i * self.n + j] = Fraction(c)
        return Matrix(self.n, self.n, tuple(entries))

    def identity(self, like=None) -> "GroupElement":
        return GroupElement(self, Matrix.identity(self.n, like=like))

    def e(self, alpha: Root, t) -> "GroupElement":
        """Root subgroup element I + t*X_alpha, tagged with its letter (alpha, t)."""
        t = as_ring_element(t)
        n = self.n
        one = one_like(t)
        zero = zero_like(t)
        entries = [one if i == j else zero for i in range(n) for j in range(n)]
        for i, j, c in self._entries(alpha):  # off the diagonal, each position once
            entries[i * n + j] = t if c == 1 else t * scalar_into(c, t)
        return GroupElement(self, Matrix(n, n, tuple(entries)), (alpha, t))

    def word(self, letters, like=None) -> "GroupElement":
        """The product e(alpha_1, t_1) ... e(alpha_k, t_k) of the letters
        (alpha, t); the identity over ``like`` when there are no letters.  Only
        the first letter is built as a matrix: a later letter of the running
        entry type acts by column operations (``_add_multiples``), one of
        another type by the dense product, so the entry types stay as they were."""
        g = None
        for alpha, t in letters:
            t = as_ring_element(t)
            if g is not None and type(t) is type(g.matrix.entries[0]):
                g = GroupElement(self, _add_multiples(g.matrix, self._entries(alpha), t,
                                                      right=True))
            else:
                x = self.e(alpha, t)
                g = x if g is None else g * x
        return self.identity(like=like) if g is None else g

    # -- membership -------------------------------------------------------------

    def in_lie_algebra(self, x: Matrix) -> bool:
        """Trace zero for type A; X^T Omega + Omega X = 0 for the symplectic model."""
        if self.system.family == "A":
            return is_zero(x.trace())
        omega = _embed_like(self.omega, x)
        return (x.transpose() * omega + omega * x).is_zero_matrix()

    def check_membership(self, g: "GroupElement") -> bool:
        """det = 1 for type A; g^T Omega g = Omega for the symplectic model."""
        m = g.matrix
        if self.system.family == "A":
            return m.det() == one_like(m.entries[0])
        omega = _embed_like(self.omega, m)
        return m.transpose() * omega * m == omega

    def __repr__(self):
        name = "SL_%d" % self.n if self.system.family == "A" else "Sp_4"
        return "ChevalleyModel(%s as %s)" % (self.system.kind, name)


def _embed_like(m: Matrix, sample_matrix: Matrix):
    ring = ring_of(sample_matrix.entries[0])
    return Matrix(m.nrows, m.ncols, tuple(ring.coerce(x) for x in m.entries))


def build_model(kind: str) -> ChevalleyModel:
    return ChevalleyModel(enumerate_roots(kind))


class GroupElement:
    """Group element of a Chevalley model: a matrix plus its model.

    A root element e(alpha, t) also carries its letter ``root = (alpha, t)``;
    every other element has ``root = None``.  Equality and hashing ignore it.
    """

    __slots__ = ("model", "matrix", "root")

    def __init__(self, model: ChevalleyModel, matrix: Matrix, root=None):
        self.model = model
        self.matrix = matrix
        self.root = root

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Product; a root element factor acts by column or row operations.

        g * e(alpha, t) = g + g*(t X_alpha) adds c*t times a column of g to
        another column for each entry (i, j, c) of X_alpha, and e(alpha, t) * g
        does the same with rows, the letter (alpha, t) read from the ``root``
        tag.  Factors over different entry types take the dense product, so
        the entry types of the result stay as they were.
        """
        if not isinstance(other, GroupElement) or other.model is not self.model:
            raise ValueError("group elements from different models")
        a, b = self.matrix, other.matrix
        if type(a.entries[0]) is type(b.entries[0]):
            if other.root is not None:
                alpha, t = other.root
                return GroupElement(self.model, _add_multiples(
                    a, self.model._letters[alpha], t, right=True))
            if self.root is not None:
                alpha, t = self.root
                return GroupElement(self.model, _add_multiples(
                    b, self.model._letters[alpha], t, right=False))
        return GroupElement(self.model, a * b)

    def inverse(self) -> "GroupElement":
        if self.root is not None:
            alpha, t = self.root
            return self.model.e(alpha, -t)
        return GroupElement(self.model, self.matrix.inv())

    def commutator(self, other: "GroupElement") -> "GroupElement":
        """[self, other] = self other self^{-1} other^{-1}; for root elements
        e(alpha, s), e(beta, t) of one entry type, the letters (alpha, -s) and
        (beta, -t) act on self * other directly, and no inverse is built."""
        if (self.root is not None and other.root is not None
                and type(self.root[1]) is type(other.root[1])):
            (alpha, s), (beta, t) = self.root, other.root
            letters = self.model._letters
            g = _add_multiples((self * other).matrix, letters[alpha], -s, right=True)
            return GroupElement(self.model, _add_multiples(g, letters[beta], -t, right=True))
        return self * other * self.inverse() * other.inverse()

    def is_identity(self) -> bool:
        return self.matrix.is_identity()

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.model is other.model and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "GroupElement(%r)" % (self.matrix,)


def _add_multiples(g: Matrix, letters, t, right: bool) -> Matrix:
    """g * e(alpha, t) (right) or e(alpha, t) * g (not right), read from the
    letters (i, j, c) of X_alpha and t, with no matrix for e(alpha, t).

    For each entry (i, j, c), column j of g gains column i times c*t (right),
    or row i gains c*t times row j; c*t is t itself when c = 1.  Sources are
    read from g and the sums written to a copy; zero sources are skipped.
    """
    n = g.nrows
    src = g.entries
    out = list(src)
    for i, j, c in letters:
        coeff = t if c == 1 else t * scalar_into(c, t)
        if right:
            s0, d0, step = i, j, n
        else:
            s0, d0, step = j * n, i * n, 1
        for r in range(n):
            x = src[s0 + r * step]
            if not is_zero(x):
                d = d0 + r * step
                out[d] = out[d] + (x * coeff if right else coeff * x)
    return Matrix(n, n, tuple(out))


# ---------------------------------------------------------------------------
# commutator structure constants

class StructureConstants:
    """The integer constants N_ij of the commutator formula, per ordered pair."""

    def __init__(self, kind: str, table: dict):
        self.kind = kind
        self.table = dict(table)

    def get(self, alpha: Root, beta: Root, i: int, j: int) -> int:
        key = (alpha.coords, beta.coords, i, j)
        if key not in self.table:
            raise KeyError("no constant recorded for %s" % (key,))
        return self.table[key]

    @staticmethod
    def from_lines(kind: str, lines) -> "StructureConstants":
        table = {}
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            a, b, i, j, n = line.split()
            key = (tuple(int(c) for c in a.split(",")),
                   tuple(int(c) for c in b.split(",")), int(i), int(j))
            table[key] = int(n)
        return StructureConstants(kind, table)

    def __eq__(self, other):
        return (isinstance(other, StructureConstants)
                and self.kind == other.kind and self.table == other.table)


def load_structure_constants(kind: str) -> StructureConstants:
    path = _DATA_DIR / ("structure_constants_%s.txt" % kind.upper())
    if not path.exists():
        raise FileNotFoundError("no frozen constants for %s" % kind)
    return StructureConstants.from_lines(kind.upper(), path.read_text().splitlines())


def ordered_root_pairs(system: RootSystem):
    """All ordered pairs (alpha, beta) with beta != -alpha."""
    zero = tuple(0 for _ in system.roots[0].coords)
    return [(a, b) for a, b in itertools.product(system.roots, repeat=2)
            if (a + b).coords != zero]


@dataclass
class CommutatorCheck:
    ok: bool
    lhs: Matrix
    rhs: Matrix
    used: tuple  # of (i, j, N)


def _formula_letters(string: tuple, s, t, constants):
    """The letters (i*alpha + j*beta, N_ij s^i t^j) of the commutator
    formula's right side, the N_ij taken in order from ``constants``."""
    return [(gamma, scalar_into(n, s) * (s ** i) * (t ** j))
            for (i, j, gamma), n in zip(string, constants)]


def verify_commutator(model: ChevalleyModel, alpha: Root, beta: Root, s, t,
                      constants: StructureConstants) -> CommutatorCheck:
    """Check [e(alpha,s), e(beta,t)] against the recorded constants."""
    s = as_ring_element(s)
    t = as_ring_element(t)
    string = model.string(alpha, beta)
    lhs = model.e(alpha, s).commutator(model.e(beta, t))
    used = tuple((i, j, constants.get(alpha, beta, i, j)) for i, j, _ in string)
    rhs = model.word(_formula_letters(string, s, t, [n for _, _, n in used]),
                     like=one_like(s))
    return CommutatorCheck(ok=(lhs.matrix == rhs.matrix), lhs=lhs.matrix, rhs=rhs.matrix,
                           used=used)


def verify_additivity(model: ChevalleyModel, alpha: Root, s, t) -> bool:
    """e(alpha, s) e(alpha, t) = e(alpha, s + t)."""
    s = as_ring_element(s)
    t = as_ring_element(t)
    return (model.e(alpha, s) * model.e(alpha, t)).matrix == model.e(alpha, s + t).matrix


def infer_structure_constants(model: ChevalleyModel,
                              ring: Optional[TruncAlgebra] = None) -> StructureConstants:
    """Read every N_ij off the commutator, then certify each pair with one word.

    X_gamma of distinct roots (distinct weights) have disjoint supports, and no
    two terms of a string sum to a root, so at the first letter (p, q, c) of
    i*alpha + j*beta, [e(alpha, s), e(beta, t)] holds c * N_ij s0^i t0^j, in
    degree e^0 for generic s, t of a truncated ring.  A value outside {+-1, +-2},
    or a formula word unequal to the commutator, raises ModelInconsistencyError.
    """
    if ring is None:
        s, t = MultiPoly.variables_in("s0", "t0")
    else:
        if not isinstance(ring.base, PolyDomain):
            raise ValueError("inference needs formal coefficients; use a polynomial base")
        s, t = ring.generic("s"), ring.generic("t")
    table = {}
    for alpha, beta in ordered_root_pairs(model.system):
        string = model.string(alpha, beta)
        lhs = model.e(alpha, s).commutator(model.e(beta, t)).matrix
        if not string:
            if not lhs.is_identity():
                raise ModelInconsistencyError("empty root string but nontrivial commutator"
                                              " for (%r, %r)" % (alpha, beta))
            continue
        read = []
        for i, j, gamma in string:
            p, q, c = model._entries(gamma)[0]
            x = lhs.entry(p, q) if ring is None else lhs.entry(p, q).coeff(0)
            n = x.coefficient({"s0": i, "t0": j}) / c
            if n not in (1, -1, 2, -2):
                raise ModelInconsistencyError("pair (%r, %r) reads N_%d%d = %s, not +-1 or +-2"
                                              % (alpha, beta, i, j, n))
            read.append(int(n))
            table[(alpha.coords, beta.coords, i, j)] = int(n)
        if not model.word(_formula_letters(string, s, t, read)).matrix == lhs:
            raise ModelInconsistencyError("pair (%r, %r): the formula with the read constants"
                                          " %s is not the commutator" % (alpha, beta, tuple(read)))
    return StructureConstants(model.system.kind, table)


# ---------------------------------------------------------------------------
# congruence filtration

def levi_decompose(g: GroupElement):
    """Split g over K[e]/(e^d) as g = g0 * c with g0 over K and c = I mod e.

    g0 is inverted over K and the inverse embedded in K[e]/(e^d).
    """
    sample = g.matrix.entries[0]
    if not isinstance(sample, TruncElement):
        raise ValueError("decomposition applies to elements over a truncated ring")
    algebra = sample.algebra
    n = g.matrix.nrows
    base_matrix = Matrix(n, n, tuple(x.coeff(0) for x in g.matrix.entries))
    g0 = GroupElement(g.model, base_matrix)
    g0_inv = Matrix(n, n, tuple(algebra.element([x]) for x in base_matrix.inv().entries))
    c = GroupElement(g.model, g0_inv * g.matrix)
    return g0, c


def graded_piece(c: GroupElement, s: int) -> Matrix:
    """Coefficient of e^s in c, for c = I mod e^s; lands in the Lie algebra.

    Raises LevelError when c is not congruent to the identity modulo e^s.
    """
    sample = c.matrix.entries[0]
    if not isinstance(sample, TruncElement):
        raise ValueError("graded pieces live over a truncated ring")
    algebra = sample.algebra
    if not (1 <= s < algebra.d):
        raise LevelError("level %d outside 1..%d" % (s, algebra.d - 1))
    n = c.matrix.nrows
    one = algebra.base.one()
    zero = algebra.base.zero()
    for i in range(n):
        for j in range(n):
            x = c.matrix.entry(i, j)
            expect0 = one if i == j else zero
            if x.coeff(0) != expect0:
                raise LevelError("element is not congruent to the identity mod e")
            for k in range(1, s):
                if x.coeff(k) != zero:
                    raise LevelError(
                        "element is nontrivial at level %d < %d" % (k, s))
    return Matrix(n, n, tuple(c.matrix.entry(i, j).coeff(s)
                              for i in range(n) for j in range(n)))


@dataclass
class FiltrationReport:
    lie_dim: int
    per_level: tuple
    total: int
    expected_total: int

    @property
    def ok(self) -> bool:
        return (self.total == self.expected_total
                and all(m == self.lie_dim for m in self.per_level))


def congruence_dimension(model: ChevalleyModel, d: int) -> FiltrationReport:
    """Dimension of the congruence kernel of G(K[e]/(e^d)) counted level by level.

    Each graded level is spanned by the pieces of e(alpha, e^s) and
    h(alpha, 1 + e^s); the expected count is (d - 1) * dim of the Lie algebra.
    """
    from .kernel import rref

    if d < 2:
        raise ValueError("filtration needs truncation order at least 2")
    algebra = TruncAlgebra(d)
    per_level = []
    for s in range(1, d):
        eps = algebra.eps(s)
        words = ([("e", alpha, ((alpha, eps),)) for alpha in model.system.roots]
                 + [("h", alpha, h_letters(alpha, algebra.one() + eps))
                    for alpha in model.system.simple])
        vectors = []
        for name, alpha, letters in words:
            piece = graded_piece(model.word(letters), s)
            if not model.in_lie_algebra(piece):
                raise ModelInconsistencyError(
                    "piece of %s(%r) leaves the Lie algebra" % (name, alpha))
            vectors.append(piece.entries)
        m = Matrix.from_rows(vectors)
        _, rank, _ = rref(m)
        per_level.append(rank)
    total = sum(per_level)
    return FiltrationReport(lie_dim=model.lie_dim, per_level=tuple(per_level), total=total,
                            expected_total=(d - 1) * model.lie_dim)


# ---------------------------------------------------------------------------
# perfectness

@dataclass
class PerfectnessWitness:
    ok: bool


def perfectness_witness(model: ChevalleyModel, alpha: Root, r) -> PerfectnessWitness:
    """Express e(alpha, r) as the commutator [h(alpha, 2), e(alpha, r/3)].

    The identity holds because conjugation by h(alpha, 2) scales the root
    parameter by 2^2 = 4, and 4 - 1 = 3 is a unit.  The commutator is
    multiplied out as one word, h's letters reversed and negated for its
    inverse.
    """
    r = as_ring_element(r)
    inner_param = r * scalar_into(Fraction(1, 3), r)
    torus_letters = h_letters(alpha, scalar_into(Fraction(2), r))
    got = model.word(torus_letters + ((alpha, inner_param),)
                     + tuple((beta, -u) for beta, u in reversed(torus_letters))
                     + ((alpha, -inner_param),))
    return PerfectnessWitness(ok=(got.matrix == model.e(alpha, r).matrix))
