"""Matrix Chevalley groups: SL_{l+1} for A_l and Sp_4 for C2.

Each root alpha gets a nilpotent matrix X_alpha with X_alpha^2 = 0, kept as
the table of its nonzero entries, and the root subgroup element
e(alpha, t) = I + t*X_alpha over any commutative ring the parameter t lives
in.  Every other element here is a word in root elements, a sequence of
letters (alpha, t) that ChevalleyModel.word multiplies out: the monomial and
diagonal elements

    w(alpha, u) = e(alpha, u) e(-alpha, -1/u) e(alpha, u)
    h(alpha, u) = w(alpha, u) w(alpha, -1)

any inverse (the letters reversed and negated), and both sides of the
commutator formula, the left one the four-letter word x y x^{-1} y^{-1}

    [e(alpha, s), e(beta, t)] = prod e(i*alpha + j*beta, N_ij s^i t^j)

whose integer constants N_ij in {+-1, +-2} are read off the Lie bracket of
the letter tables, cross-checked against the symbolic commutator and the one
formula word it gives, and re-verified over truncated rings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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

# the nonzero entries (i, j, c) of each X_alpha of C2 on the basis
# (u1, u2, w1, w2), and the symplectic form Omega that pairs u_i with w_i
_C2_OMEGA = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
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


def _letter_table(system: RootSystem) -> dict:
    """A fresh table of the nonzero entries (i, j, c) of each X_alpha of the model."""
    if system.family == "A":
        return {r: ((r.coords.index(1), r.coords.index(-1), 1),) for r in system.roots}
    return {Root(coords): entries for coords, entries in _C2_LETTERS.items()}


def w_letters(alpha: Root, u):
    """The letters of w(alpha, u) = e(alpha, u) e(-alpha, -1/u) e(alpha, u); u a unit."""
    u = as_ring_element(u)
    return ((alpha, u), (-alpha, -ring_inv(u)), (alpha, u))


def h_letters(alpha: Root, u):
    """The letters of h(alpha, u) = w(alpha, u) w(alpha, -1)."""
    u = as_ring_element(u)
    return w_letters(alpha, u) + w_letters(alpha, -one_like(u))


def inverse_letters(letters):
    """The letters of the inverse of the word ``letters``: reversed, each t negated."""
    return tuple((alpha, -t) for alpha, t in reversed(letters))


def commutator_letters(xs, ys):
    """The letters of the commutator [x, y] = x y x^{-1} y^{-1} of the words xs, ys."""
    return tuple(xs) + tuple(ys) + inverse_letters(xs) + inverse_letters(ys)


class ModelInconsistencyError(ArithmeticError):
    """Raised when commutator constants cannot be determined consistently."""


class LevelError(ValueError):
    """Raised when an element is not trivial to the congruence depth required."""


class ChevalleyModel:
    """A faithful matrix model of the simply connected group for one system."""

    def __init__(self, system: RootSystem):
        self.system = system
        self._strings = {}
        self._letters = _letter_table(system)
        if system.family == "A":
            self.n = system.rank + 1
            self.omega = None
        else:
            self.n = 4
            self.omega = Matrix.from_rows(_C2_OMEGA)
        self.lie_dim = len(system.roots) + system.rank  # one X_alpha per root, rank for the torus
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

    def _scaled(self, alpha: Root, t) -> list:
        """The entries (i, j, c*t) of t*X_alpha; c*t is t when c = 1.  Only here is c*t formed."""
        return [(i, j, t if c == 1 else t * scalar_into(c, t)) for i, j, c in self._entries(alpha)]

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
        for i, j, x in self._scaled(alpha, t):  # off the diagonal, each position once
            entries[i * n + j] = x
        return GroupElement(self, Matrix(n, n, tuple(entries)), (alpha, t))

    def word(self, letters, like=None) -> "GroupElement":
        """The product e(alpha_1, t_1) ... e(alpha_k, t_k) of the letters
        (alpha, t); the identity over ``like`` when there are no letters.  Only
        the first letter is built as a matrix: a later letter of the running
        entry type acts in place by column operations (``_add_multiples``), one
        of another type by the dense product, so the entry types stay as they were."""
        g = None
        for alpha, t in letters:
            t = as_ring_element(t)
            if g is not None and type(t) is type(g.matrix.entries[0]):
                g = GroupElement(self, _add_multiples(g.matrix, self._scaled(alpha, t)))
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
        """Product; a root element on the right acts by column operations.

        g * e(alpha, t) = g + g*(t X_alpha) adds c*t times a column of g to
        another column for each entry (i, j, c) of X_alpha, alpha read from the
        ``root`` tag and each c*t from the factor's matrix.  Any other product,
        and factors over different entry types, take the dense product, so the
        entry types of the result stay as they were.
        """
        if not isinstance(other, GroupElement) or other.model is not self.model:
            raise ValueError("group elements from different models")
        a, b = self.matrix, other.matrix
        if other.root is not None and type(a.entries[0]) is type(b.entries[0]):
            n, letters = a.nrows, self.model._letters[other.root[0]]
            scaled = [(i, j, b.entries[i * n + j]) for i, j, _ in letters]  # c*t as e() stored it
            return GroupElement(self.model, _add_multiples(a, scaled))
        return GroupElement(self.model, a * b)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.model, self.matrix.inv())

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


def _add_multiples(g: Matrix, scaled) -> Matrix:
    """g * e(alpha, t) with no matrix for e(alpha, t): for each entry (i, j, c*t)
    of t*X_alpha, column j of g gains column i times c*t.  Sources are read
    from g and the sums written to a copy; zero sources are skipped."""
    n = g.nrows
    src = g.entries
    out = list(src)
    for i, j, coeff in scaled:
        for r in range(0, n * n, n):  # the first entry of each row
            x = src[r + i]
            if not is_zero(x):
                out[r + j] = out[r + j] + x * coeff
    return Matrix(n, n, tuple(out))


# ---------------------------------------------------------------------------
# commutator structure constants

@dataclass
class StructureConstants:
    """The integer constants N_ij of the commutator formula, per ordered pair."""
    kind: str
    table: dict  # (alpha.coords, beta.coords, i, j) -> N_ij

    def get(self, alpha: Root, beta: Root, i: int, j: int) -> int:
        return self.table[alpha.coords, beta.coords, i, j]  # a KeyError names the key


def _bracket(a: dict, b: dict) -> dict:
    """AB - BA of two sparse matrices {(i, j): c}, without its zero entries."""
    out = {}
    for (i, k), x in a.items():
        for (l, j), y in b.items():
            if k == l:
                out[i, j] = out.get((i, j), 0) + x * y
            if j == i:
                out[l, k] = out.get((l, k), 0) - y * x
    return {key: v for key, v in out.items() if v}


def _constant(x, c, alpha: Root, beta: Root, i: int, j: int) -> int:
    """N_ij = x / c, x read at the first letter (p, q, c) of i*alpha + j*beta."""
    n = Fraction(x, c)
    if n not in (1, -1, 2, -2):
        raise ModelInconsistencyError("pair (%r, %r) reads N_%d%d = %s, not +-1 or +-2"
                                      % (alpha, beta, i, j, n))
    return int(n)


def load_structure_constants(kind: str) -> StructureConstants:
    """Every N_ij off the Lie bracket of the letter tables, with no group element:
    X_alpha^2 = 0 makes e(alpha, s) = exp(sA), so for A = X_alpha and B = X_beta the
    commutator's st, s^2 t and s t^2 coefficients [A, B], [A, [A, B]]/2 and [B, [A, B]]/2
    (i * j is the 2) hold c N_ij at the first letter (p, q, c) of i*alpha + j*beta."""
    system = enumerate_roots(kind)
    letters = _letter_table(system)
    sparse = {r: {(i, j): c for i, j, c in entries} for r, entries in letters.items()}
    table = {}
    for alpha, beta in ordered_root_pairs(system):
        a, b = sparse[alpha], sparse[beta]
        ab = _bracket(a, b)
        if not ab:  # root strings are unbroken: no i*alpha + j*beta is a root
            continue
        for i, j, x in ((1, 1, ab), (2, 1, _bracket(a, ab)), (1, 2, _bracket(b, ab))):
            if x:  # of weight i*alpha + j*beta, so nonzero only on a root
                p, q, c = letters[alpha.scale(i) + beta.scale(j)][0]
                table[alpha.coords, beta.coords, i, j] = _constant(
                    x.get((p, q), 0), i * j * c, alpha, beta, i, j)
    return StructureConstants(system.kind, table)


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
    lhs = model.word(commutator_letters(((alpha, s),), ((beta, t),)))
    used = tuple((i, j, constants.get(alpha, beta, i, j)) for i, j, _ in string)
    rhs = model.word(_formula_letters(string, s, t, [n for _, _, n in used]),
                     like=one_like(s))
    return CommutatorCheck(ok=(lhs.matrix == rhs.matrix), lhs=lhs.matrix, rhs=rhs.matrix,
                           used=used)


def verify_additivity(model: ChevalleyModel, alpha: Root, s, t) -> bool:
    """e(alpha, s) e(alpha, t) = e(alpha, s + t), the left side one word."""
    return model.word(((alpha, s), (alpha, t))).matrix == model.e(alpha, s + t).matrix


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
        s, t = MultiPoly.variable("s0"), MultiPoly.variable("t0")
    else:
        if not isinstance(ring.base, PolyDomain):
            raise ValueError("inference needs formal coefficients; use a polynomial base")
        s, t = ring.generic("s"), ring.generic("t")
    table = {}
    for alpha, beta in ordered_root_pairs(model.system):
        string = model.string(alpha, beta)
        lhs = model.word(commutator_letters(((alpha, s),), ((beta, t),))).matrix
        if not string:
            if not lhs.is_identity():
                raise ModelInconsistencyError("empty root string but nontrivial commutator"
                                              " for (%r, %r)" % (alpha, beta))
            continue
        read = []
        for i, j, gamma in string:
            p, q, c = model._entries(gamma)[0]
            x = lhs.entry(p, q) if ring is None else lhs.entry(p, q).coeff(0)
            read.append(_constant(x.coefficient({"s0": i, "t0": j}), c, alpha, beta, i, j))
            table[(alpha.coords, beta.coords, i, j)] = read[-1]
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
    one = algebra.one()
    for i in range(n):
        for j in range(n):
            x = c.matrix.entry(i, j)
            k = (x - one if i == j else x).order()
            if k == 0:
                raise LevelError("element is not congruent to the identity mod e")
            if k < s:
                raise LevelError("element is nontrivial at level %d < %d" % (k, s))
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
    multiplied out as one word.
    """
    r = as_ring_element(r)
    inner_param = r * scalar_into(Fraction(1, 3), r)
    got = model.word(commutator_letters(h_letters(alpha, scalar_into(Fraction(2), r)),
                                        ((alpha, inner_param),)))
    return PerfectnessWitness(ok=(got.matrix == model.e(alpha, r).matrix))
