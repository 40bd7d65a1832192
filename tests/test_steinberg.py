import random
import re
import time
from fractions import Fraction as Q

import pytest

from chevkern.chevalley import Matrix, build_model, h_letters, w_letters
from chevkern.kernel import DomainMismatchError
from chevkern.rings import TruncAlgebra
from chevkern.rootsys import Root
from chevkern.steinberg import (
    MAX_PRIME,
    NONSYMPLECTIC_RELATIONS,
    SYMPLECTIC_RELATIONS,
    SteinbergWord,
    TameSymbol,
    _sample_nonzero,
    check_symbol_relations,
    derived_symbol_identities,
    symbol_is_central_kernel,
    symbol_word,
    symbol_word_letters,
    word_eval,
)


A = Root((1, -1, 0))


# --- words -------------------------------------------------------------------

def test_free_reduction_merges_and_drops():
    w = SteinbergWord([(A, Q(2)), (A, Q(3)), (-A, Q(0)), (A, Q(-5)), (-A, Q(1))])
    # 2 and 3 merge to 5, the zero letter disappears, then 5 and -5 cancel
    assert w.letters == ((-A, Q(1)),)
    assert len(SteinbergWord([(A, Q(1)), (A, Q(-1))])) == 0


def test_free_reduction_cascades():
    w = SteinbergWord([(A, Q(1)), (-A, Q(2)), (-A, Q(-2)), (A, Q(-1))])
    assert w.letters == ()


def test_free_reduction_confluent_random():
    # reducing adjacent pairs in arbitrary order reaches the same normal form
    rng = random.Random(61)
    roots = (A, -A, Root((0, 1, -1)))

    def slow_reduce(letters):
        letters = [(a, Q(t)) for a, t in letters]
        changed = True
        while changed:
            changed = False
            letters = [(a, t) for a, t in letters if t != 0]
            idxs = [i for i in range(len(letters) - 1)
                    if letters[i][0] == letters[i + 1][0]]
            if idxs:
                i = rng.choice(idxs)
                merged = (letters[i][0], letters[i][1] + letters[i + 1][1])
                letters[i:i + 2] = [merged]
                changed = True
        return tuple(letters)

    for _ in range(120):
        letters = [(rng.choice(roots), rng.randint(-2, 2)) for _ in range(rng.randint(0, 10))]
        fast = SteinbergWord(letters).letters
        slow = slow_reduce(letters)
        assert fast == slow


def test_word_inverse_evaluates_to_inverse():
    rng = random.Random(67)
    m = build_model("A2")
    for _ in range(40):
        letters = [(rng.choice(m.system.roots), Q(rng.randint(-3, 3)))
                   for _ in range(rng.randint(1, 6))]
        w = SteinbergWord(letters)
        g = word_eval(w, m)
        ginv = word_eval(w.inverse(), m)
        assert (g * ginv).is_identity()


def test_w_and_h_words_evaluate_to_matrices():
    m = build_model("A2")
    g = word_eval(SteinbergWord(w_letters(A, Q(1))), m)
    assert g.matrix == Matrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    h = word_eval(SteinbergWord(h_letters(A, Q(2))), m)
    assert h.matrix == Matrix.from_rows([[2, 0, 0], [0, Q(1, 2), 0], [0, 0, 1]])


def test_word_group_law_matches_matrix_product():
    rng = random.Random(71)
    m = build_model("C2")
    for _ in range(30):
        l1 = [(rng.choice(m.system.roots), Q(rng.randint(-2, 2))) for _ in range(3)]
        l2 = [(rng.choice(m.system.roots), Q(rng.randint(-2, 2))) for _ in range(3)]
        w1, w2 = SteinbergWord(l1), SteinbergWord(l2)
        assert word_eval(w1 * w2, m).matrix == (word_eval(w1, m) * word_eval(w2, m)).matrix


# --- symbols ------------------------------------------------------------------

def test_symbol_word_has_18_letters_before_reduction():
    letters = symbol_word_letters(A, Q(3), Q(5))
    assert len(letters) == 18
    # and it contracts after reduction
    assert len(symbol_word(A, Q(3), Q(5))) < 18


def test_symbol_evaluates_to_identity_rational():
    rng = random.Random(73)
    for kind in ("A2", "A3", "C2"):
        m = build_model(kind)
        for root in m.system.roots:
            for _ in range(5):
                u = Q(rng.randint(1, 9))
                v = Q(rng.choice((1, -1)), rng.randint(1, 9))
                check = symbol_is_central_kernel(m, root, u, v)
                assert check.ok, (kind, root, u, v)


def test_symbol_evaluates_to_identity_trunc_units():
    rng = random.Random(79)
    algebra = TruncAlgebra(3)
    m = build_model("C2")
    for root in (Root((2, 0)), Root((1, -1))):
        for _ in range(10):
            u = algebra.element([Q(rng.choice((1, 2, -1, 3))),
                                 Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))])
            v = algebra.element([Q(rng.choice((1, -2, -1))),
                                 Q(rng.randint(-2, 2)), Q(rng.randint(-2, 2))])
            assert symbol_is_central_kernel(m, root, u, v).ok


def test_symbol_minus_one_minus_one():
    m = build_model("C2")
    check = symbol_is_central_kernel(m, Root((2, 0)), Q(-1), Q(-1))
    assert check.ok


# --- tame symbol ----------------------------------------------------------------

def test_tame_symbol_hand_values():
    s3 = TameSymbol(3)
    # v(3) = 1, v(3) = 1: (-1)^1 * 3^1 * 3^{-1} = -1 = 2 mod 3
    assert s3(Q(3), Q(3)) == 2
    s5 = TameSymbol(5)
    # v(5) = 1, v(2) = 0: 2^{-1} = 3 mod 5
    assert s5(Q(5), Q(2)) == 3
    # both units: symbol is trivial
    assert s5(Q(2), Q(3)) == 1
    # v(1/5) = -1, v(5) = 1: (-1)^{-1} (1/5)^1 5^1 = -1 = 4 mod 5
    assert s5(Q(1, 5), Q(5)) == 4


def test_tame_symbol_valuation():
    s = TameSymbol(7)
    assert s.valuation(Q(49, 3)) == 2
    assert s.valuation(Q(3, 7)) == -1
    assert s.valuation(Q(-14)) == 1
    with pytest.raises(ValueError, match="zero has no valuation"):
        s.valuation(Q(0))
    with pytest.raises(ValueError, match="zero has no valuation"):
        s.valuation(0)


def test_tame_symbol_rejects_bad_input():
    with pytest.raises(ValueError):
        TameSymbol(6)
    with pytest.raises(ValueError):
        TameSymbol(1)
    s = TameSymbol(5)
    for x, y in ((Q(0), Q(1)), (Q(3), Q(0)), (0, 7), (Q(1, 5), 0)):
        with pytest.raises(ValueError, match="symbols are defined on nonzero arguments"):
            s(x, y)


@pytest.mark.parametrize("p", [5.0, True, "5"], ids=["float", "bool", "str"])
def test_tame_symbol_refuses_a_prime_that_is_not_an_int(p):
    # refused at construction, not by pow() at the first call
    with pytest.raises(ValueError, match=r"the prime must be an int, not %s$" % re.escape(repr(p))):
        TameSymbol(p)


@pytest.mark.parametrize("value", [True, False, 0.2, "1/5", object()],
                         ids=["True", "False", "float", "str", "object"])
def test_tame_symbol_refuses_what_is_not_a_rational(value):
    # a float or a string is not read as a rational, nor a bool as 1 or 0
    s = TameSymbol(5)
    for take in (s.valuation, lambda c: s(c, Q(2)), lambda c: s(Q(2), c)):
        with pytest.raises(DomainMismatchError):
            take(value)


def _p_unit_times_power(rng, p, v):
    """A random rational of valuation v at p; an int whenever v >= 0 allows it."""
    as_int = v >= 0 and rng.random() < 0.5
    while True:
        num = rng.choice((1, -1)) * rng.randint(1, 60)
        den = 1 if as_int else rng.randint(1, 60)
        if num % p and den % p:
            break
    x = Q(num, den) * Q(p) ** v
    return int(x) if as_int else x


def test_tame_symbol_matches_the_defining_formula():
    # (-1)^{ab} x^b y^{-a} is a p-unit; its residue is numerator / denominator mod p
    rng = random.Random(89)
    for p in (2, 3, 5, 7, MAX_PRIME):
        s = TameSymbol(p)
        for a in range(-6, 7):
            for b in range(-6, 7):
                x = _p_unit_times_power(rng, p, a)
                y = _p_unit_times_power(rng, p, b)
                unit = Q(-1) ** (a * b) * Q(x) ** b * Q(y) ** -a
                assert unit.numerator % p and unit.denominator % p
                expected = unit.numerator * pow(unit.denominator, -1, p) % p
                assert (s.valuation(x), s.valuation(y)) == (a, b), (p, x, y)
                assert s(x, y) == expected, (p, x, y)


def test_sampler_draws_match_the_two_step_formula():
    # one Fraction per draw; the values and the rng calls are those of
    # Fraction(num, den) * Fraction(p) ** k
    for p in (2, 3, 5, 7):
        for seed in (0, 42):
            rng = random.Random(seed)
            replay = random.Random(seed)
            for _ in range(200):
                k = replay.randint(-2, 2)
                num = replay.randint(1, 40) * replay.choice((1, -1))
                den = replay.randint(1, 40)
                x = _sample_nonzero(rng, p)
                assert type(x) is Q
                assert x == Q(num, den) * Q(p) ** k, (p, seed)
            assert rng.getstate() == replay.getstate()


def test_tame_symbol_prime_is_bounded():
    # trial division up to sqrt(p) stays fast up to MAX_PRIME; above it the
    # prime is refused before any division
    start = time.perf_counter()
    assert TameSymbol(MAX_PRIME).p == 2 ** 31 - 1
    assert time.perf_counter() - start < 0.05
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limit %d" % MAX_PRIME):
        TameSymbol(1000000000000000003)
    assert time.perf_counter() - start < 0.05


def test_symplectic_relation_set():
    for p in (3, 5, 11):
        records = check_symbol_relations(TameSymbol(p), SYMPLECTIC_RELATIONS,
                                         samples=150, seed=7)
        assert [r.name for r in records] == list(SYMPLECTIC_RELATIONS)
        for r in records:
            assert r.ok, (p, r.name, r.failures[:2])
            assert r.checked > 0


def test_nonsymplectic_relation_set():
    for p in (3, 7):
        records = check_symbol_relations(TameSymbol(p), NONSYMPLECTIC_RELATIONS,
                                         samples=150, seed=11)
        for r in records:
            assert r.ok, (p, r.name, r.failures[:2])


def test_derived_identities():
    for p in (3, 5, 13):
        records = derived_symbol_identities(TameSymbol(p), samples=150, seed=13)
        assert [r.name for r in records] == ["left_one", "right_one",
                                             "swap_invert", "steinberg"]
        for r in records:
            assert r.ok, (p, r.name, r.failures[:2])


def test_sweep_arguments_are_checked_before_any_draw():
    # a bad name is refused before a valid one before it is swept, and
    # samples < 1 is refused rather than giving checked=0 records that pass
    class Counting(TameSymbol):
        calls = 0

        def __call__(self, x, y):
            Counting.calls += 1
            return super().__call__(x, y)

    s = Counting(5)
    with pytest.raises(ValueError, match="unknown relation 'bogus'"):
        check_symbol_relations(s, ("cocycle", "bogus"), samples=100000)
    for samples in (0, -3, 2.0, True):
        with pytest.raises(ValueError, match="samples must be an int of at least 1"):
            check_symbol_relations(s, ("cocycle",), samples=samples)
        with pytest.raises(ValueError, match="samples must be an int of at least 1"):
            derived_symbol_identities(s, samples=samples)
    assert Counting.calls == 0
    assert [r.checked for r in check_symbol_relations(s, ("cocycle",), samples=1)] == [1]


def test_relation_failure_carries_witness():
    # a deliberately wrong "symbol" must produce replayable witnesses;
    # the corruption exponent a^2 b is not bilinear, so the cocycle rule breaks
    class Broken(TameSymbol):
        def __call__(self, x, y):
            a = self.valuation(x)
            b = self.valuation(y)
            return (super().__call__(x, y) * pow(2, (a * a * b) % 4, self.p)) % self.p

    records = check_symbol_relations(Broken(5), ("cocycle",), samples=50, seed=3)
    rec = records[0]
    assert not rec.ok
    x, y, z = rec.failures[0][1:]
    b = Broken(5)
    assert (b(x, y) * b(x * y, z)) % 5 != (b(x, y * z) * b(y, z)) % 5
