"""Every sampler draws on ints from ``random.Random``'s own stream.

The samplers call ``kernel.draw_below`` on ``getrandbits`` where they once
called ``randint`` and ``choice``.  These tests hold the helper and each
sampler to their ``random.Random`` spelling, value for value and state for
state, so a Python whose ``randrange`` draws differently fails here first and
not as a changed report digest.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from chevkern.cli import _nonzero_rat, _rat, _trunc_elem
from chevkern.extensions import TracelessMatrices
from chevkern.kernel import draw_below
from chevkern.rings import TruncAlgebra
from chevkern.rootsys import enumerate_roots

SEEDS = range(40)
# the bounds the samplers draw below, and the root counts that
# run_filtration picks a root among
SIZES = sorted({2, 5, 7, 9, 19, 40} | {len(enumerate_roots(kind).roots) for kind in (
    "A2", "A3", "A4", "A5", "A6", "A7", "A8", "C2")})


@pytest.mark.parametrize("n", SIZES)
def test_draw_below_is_randrange_randint_and_choice(n):
    seq = tuple(range(100, 100 + n))
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for _ in range(50):
            assert draw_below(bits, n) == theirs.randrange(n)
            assert -4 + draw_below(bits, n) == theirs.randint(-4, n - 5)
            assert seq[draw_below(bits, n)] == theirs.choice(seq)
        assert ours.getstate() == theirs.getstate(), (n, seed)


# the samplers' randint spellings, kept as the oracle

def _old_rat(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _old_nonzero_rat(rng):
    x = _old_rat(rng)
    while not x:
        x = _old_rat(rng)
    return x


def _old_trunc_elem(algebra, rng, unit=False, redraws=None):
    coeffs = [_old_rat(rng) for _ in range(algebra.d)]
    if unit and coeffs[0] == 0:
        if redraws is not None:
            redraws.append(coeffs)
        coeffs[0] = _old_nonzero_rat(rng)
    return algebra.element(coeffs)


def _old_random_element(lie, rng):
    return lie.from_coords([Fraction(rng.randint(-3, 3)) for _ in range(lie.dim)])


def _fields(x):
    return type(x), x.algebra, type(x.nums), x.nums, type(x.den), x.den


def test_samplers_match_their_randint_spelling():
    algebra = TruncAlgebra(3)
    lies = (TracelessMatrices(2), TracelessMatrices(3))
    redraws = []
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            x, y = _rat(ours), _old_rat(theirs)
            assert type(x) is Fraction and x == y
            x, y = _nonzero_rat(ours), _old_nonzero_rat(theirs)
            assert type(x) is Fraction and x == y != 0
            for unit in (False, True):
                x = _trunc_elem(algebra, ours, unit=unit)
                y = _old_trunc_elem(algebra, theirs, unit=unit, redraws=redraws)
                assert _fields(x) == _fields(y), (seed, unit)
                assert not unit or x.coeff(0) != 0
            for lie in lies:
                x, y = lie.random_element(ours), _old_random_element(lie, theirs)
                assert x == y
                assert all(type(c) is Fraction for c in x.entries)
        assert ours.getstate() == theirs.getstate(), seed
    assert redraws  # the unit redraw was exercised


@pytest.mark.parametrize("d", [1, 4, 65])
def test_truncated_samples_are_cleared_ints_in_lowest_terms(d):
    algebra = TruncAlgebra(d)
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for unit in (False, True):
            x = _trunc_elem(algebra, ours, unit=unit)
            assert x.den > 0 and gcd(x.den, *x.nums) == 1
            assert all(type(n) is int for n in x.nums) and len(x.nums) == d
            # the same draws spelled as Fractions, through TruncAlgebra.element
            y = _old_trunc_elem(algebra, theirs, unit=unit)
            assert _fields(x) == _fields(y), (d, seed, unit)
        assert ours.getstate() == theirs.getstate()
