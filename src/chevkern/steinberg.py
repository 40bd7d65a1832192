"""Formal root-subgroup words and Steinberg symbols.

A word is a sequence of letters x(alpha, t), kept in free-reduction normal
form: zero parameters are dropped and adjacent letters with the same root are
merged additively.  Words evaluate into any Chevalley model.  The symbol of
two units u, v at a root alpha is the word

    (u, v)_alpha = h(u) h(v) h(uv)^{-1},      h(u) = w(u) w(-1),
    w(u) = x(alpha, u) x(-alpha, -1/u) x(alpha, u)

which always evaluates to the identity matrix; its interest lies in the
relations it satisfies formally.  A concrete symbol model with the same
relations is the tame symbol at a prime p:

    (x, y) = (-1)^{ab} x^b y^{-a} mod p,   a = v_p(x), b = v_p(y).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chevalley import ChevalleyModel, GroupElement, h_letters, inverse_letters
from .kernel import QQ, as_ring_element, draw_below, is_prime, is_zero, one_like
from .rootsys import Root


class SteinbergWord:
    """Free-reduced word in the letters x(alpha, t)."""

    __slots__ = ("letters",)

    def __init__(self, letters: Sequence = ()):
        self.letters = _reduce_letters(letters)

    def __mul__(self, other: "SteinbergWord") -> "SteinbergWord":
        return SteinbergWord(self.letters + other.letters)

    def inverse(self) -> "SteinbergWord":
        return SteinbergWord(inverse_letters(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, SteinbergWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "SteinbergWord(identity)"
        return "SteinbergWord(%s)" % " ".join(
            "x(%s; %s)" % (a.coords, t) for a, t in self.letters)


def _reduce_letters(letters):
    stack = []
    for alpha, t in letters:
        t = as_ring_element(t)
        if is_zero(t):
            continue
        while stack and stack[-1][0] == alpha:
            merged = stack[-1][1] + t
            stack.pop()
            if is_zero(merged):
                t = None
                break
            t = merged
        if t is not None:
            stack.append((alpha, t))
    return tuple(stack)


def symbol_word_letters(alpha: Root, u, v):
    """The 18 letters of h(u) h(v) h(uv)^{-1} before free reduction."""
    u = as_ring_element(u)
    v = as_ring_element(v)
    return h_letters(alpha, u) + h_letters(alpha, v) + inverse_letters(h_letters(alpha, u * v))


def symbol_word(alpha: Root, u, v) -> SteinbergWord:
    """The symbol (u, v)_alpha as a reduced word."""
    return SteinbergWord(symbol_word_letters(alpha, u, v))


def word_eval(word: SteinbergWord, model: ChevalleyModel, like=None) -> GroupElement:
    """Multiply out the word in the given matrix model."""
    return model.word(word.letters, like=like)


@dataclass
class SymbolCheck:
    ok: bool
    evaluated: GroupElement


def symbol_is_central_kernel(model: ChevalleyModel, alpha: Root, u, v) -> SymbolCheck:
    """Evaluate the symbol word; in a faithful model it must be the identity."""
    word = symbol_word(alpha, u, v)
    g = word_eval(word, model, like=one_like(as_ring_element(u)))
    return SymbolCheck(ok=g.is_identity(), evaluated=g)


# ---------------------------------------------------------------------------
# tame symbol model

# the largest prime a tame symbol takes; is_prime's trial division stays under 50000 steps
MAX_PRIME = 2 ** 31 - 1


class TameSymbol:
    """The tame symbol at a prime p on nonzero rationals.

    (x, y) = (-1)^{ab} x^b y^{-a} mod p with a = v_p(x) and b = v_p(y);
    values land in the cyclic group (Z/p)^*, returned as ints in 1..p-1.
    Arguments are ints or Fractions; anything else is a DomainMismatchError.
    """

    def __init__(self, p: int):
        if type(p) is not int:
            raise ValueError("the prime must be an int, not %r" % (p,))
        if p > MAX_PRIME:
            raise ValueError("prime %d is above the limit %d" % (p, MAX_PRIME))
        if not is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p

    def valuation(self, x) -> int:
        x = QQ.coerce(x)
        if not x:
            raise ValueError("zero has no valuation")
        return self._split(x)[0]

    def _split(self, x: Fraction):
        """(v_p(x), the p-unit part of x mod p) for a nonzero Fraction x."""
        p = self.p
        num, den = x.as_integer_ratio()
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        return v, num * pow(den, -1, p) % p

    def __call__(self, x, y) -> int:
        if type(x) is not Fraction:  # a float, a string or a bool is refused
            x = QQ.coerce(x)
        if type(y) is not Fraction:
            y = QQ.coerce(y)
        if not x or not y:
            raise ValueError("symbols are defined on nonzero arguments")
        a, ux = self._split(x)
        b, uy = self._split(y)
        p = self.p
        sign = p - 1 if (a * b) % 2 == 1 else 1
        return (sign * pow(ux, b, p) * pow(uy, -a, p)) % p

    def __repr__(self):
        return "TameSymbol(p=%d)" % self.p


# ---------------------------------------------------------------------------
# relation checking

@dataclass
class RelationRecord:
    name: str
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


SYMPLECTIC_RELATIONS = ("cocycle", "one_one", "inverse_inverse",
                        "minus_shift", "one_minus_shift")
NONSYMPLECTIC_RELATIONS = ("cocycle", "minus_shift", "one_minus_shift",
                           "multiplicative")


def _sample_nonzero(rng: random.Random, p: int) -> Fraction:
    # mix p-heavy and p-free numbers so valuations vary; draws as randint and choice do
    bits = rng.getrandbits
    k = draw_below(bits, 5) - 2
    num = (draw_below(bits, 40) + 1) * (1, -1)[draw_below(bits, 2)]
    den = draw_below(bits, 40) + 1
    if k >= 0:
        return Fraction(num * p ** k, den)
    return Fraction(num, den * p ** -k)


# name -> (witness arity, test); a test gets the symbol and the drawn
# arguments, and returns None to skip a sample it does not apply to
_RELATION_TESTS = {
    "cocycle": (3, lambda s, x, y, z:
                s(x, y) * s(x * y, z) % s.p == s(x, y * z) * s(y, z) % s.p),
    "one_one": (0, lambda s, x, y, z: s(Fraction(1), Fraction(1)) == 1),
    "inverse_inverse": (2, lambda s, x, y, z: s(x, y) == s(1 / x, 1 / y)),
    "minus_shift": (2, lambda s, x, y, z: s(x, y) == s(x, -x * y)),
    "one_minus_shift": (2, lambda s, x, y, z:
                        None if x == 1 else s(x, y) == s(x, (1 - x) * y)),
    "multiplicative": (3, lambda s, x, y, z: s(x, y * z) == s(x, y) * s(x, z) % s.p),
}
_DERIVED_TESTS = {
    "left_one": (1, lambda s, x, y: s(Fraction(1), x) == 1),
    "right_one": (1, lambda s, x, y: s(x, Fraction(1)) == 1),
    "swap_invert": (2, lambda s, x, y: s(x, y) == s(1 / y, x)),
    "steinberg": (1, lambda s, x, y: None if x in (0, 1) else s(x, 1 - x) == 1),
}


def _sweep(symbol: TameSymbol, tests: dict, names, draws: int,
           samples: int, seed: int):
    """One RelationRecord per name; each sample draws ``draws`` arguments.
    A bad name or ``samples`` is refused before the first draw."""
    if type(samples) is not int or samples < 1:
        raise ValueError("samples must be an int of at least 1, not %r" % (samples,))
    for name in names:
        if name not in tests:
            raise ValueError("unknown relation %r" % name)
    rng = random.Random(seed)
    p = symbol.p
    records = []
    for name in names:
        arity, test = tests[name]
        checked = 0
        failures = []
        for _ in range(samples):
            args = [_sample_nonzero(rng, p) for _ in range(draws)]
            ok = test(symbol, *args)
            if ok is None:
                continue
            checked += 1
            if not ok:
                failures.append((name, *args[:arity]))
        records.append(RelationRecord(name=name, checked=checked, failures=failures))
    return records


def check_symbol_relations(symbol: TameSymbol, names: Sequence[str],
                           samples: int = 100, seed: int = 0):
    """Sweep the named symbol relations on random nonzero rationals.

    Returns one RelationRecord per name; failures carry the witness tuple.
    """
    return _sweep(symbol, _RELATION_TESTS, names, 3, samples, seed)


def derived_symbol_identities(symbol: TameSymbol, samples: int = 100, seed: int = 0):
    """Identities that follow from the basic relations; checked directly.

    (1, x) = (x, 1) = 1;  (x, y) = (1/y, x);  (x, 1 - x) = 1 for x != 0, 1.
    """
    return _sweep(symbol, _DERIVED_TESTS, _DERIVED_TESTS, 2, samples, seed)
