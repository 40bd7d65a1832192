"""Seeded input generators for the benchmark workloads.

Everything here returns plain data (Fractions, coefficient lists, root
indices) drawn from a ``random.Random``; the workloads turn that data into
chevkern objects inside the timed checks.  The generators deliberately do not
reuse the sampling helpers of ``chevkern.cli`` or the test suite, so the
benchmark's inputs do not move when those helpers change.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction


def stream(seed: int, label: str) -> random.Random:
    """An independent random stream for one part of one workload."""
    return random.Random((seed << 32) ^ zlib.crc32(label.encode("utf-8")))


def rational(rng: random.Random, bound: int = 9) -> Fraction:
    """A rational with numerator in [-bound, bound] and denominator in [1, bound]."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def nonzero_rational(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, bound))


def trunc_coeffs(rng: random.Random, d: int, unit: bool = False) -> list:
    """Coefficients of an element of Q[e]/(e^d); a unit has a nonzero constant term."""
    coeffs = [rational(rng) for _ in range(d)]
    if unit:
        coeffs[0] = nonzero_rational(rng)
    return coeffs


def reduced_word(rng: random.Random, nroots: int, length: int, param) -> list:
    """Letters (root index, parameter) with no two neighbours on the same root.

    ``param(rng)`` draws one nonzero parameter, so free reduction keeps every
    letter and the word has exactly ``length`` letters.
    """
    letters = []
    prev = None
    for _ in range(length):
        k = rng.randrange(nroots - 1)
        if prev is not None and k >= prev:
            k += 1
        letters.append((k, param(rng)))
        prev = k
    return letters


# Multiplicity patterns for Q[X]/prod (X - r_i)^m_i, fixed per dimension so
# that the cost of a decomposition does not depend on the seed: all points
# reduced, all points doubled (plus one reduced point for odd dimensions),
# and one fat point.  Eight reduced points are left out: that one check took
# 1.6 s, a third of the sweep, and its run-to-run noise swamped the rest.
QUOTIENT_PATTERNS = {
    2: ((1, 1), (2,)),
    3: ((1, 1, 1), (2, 1)),
    4: ((1, 1, 1, 1), (2, 2)),
    5: ((1, 1, 1, 1, 1), (2, 2, 1)),
    6: ((1, 1, 1, 1, 1, 1), (2, 2, 2)),
    7: ((2, 2, 2, 1),),
    8: ((8,),),
}


def quotient_points(rng: random.Random, pattern) -> list:
    """Distinct small nonzero rational points r_i paired with the multiplicities m_i.

    The point 0 is left out because it makes a decomposition several times
    cheaper (X^8 against (X - 1)^8), so a seed that drew it would run a
    different amount of work.
    """
    pool = [Fraction(k) for k in range(-4, 5) if k] + [Fraction(k, 2) for k in (-3, -1, 1, 3)]
    points = rng.sample(pool, len(pattern))
    return list(zip(points, pattern))


def expand_monic(points) -> list:
    """Ascending coefficients of prod (X - r)^m over the given (r, m)."""
    poly = [Fraction(1)]
    for r, m in points:
        for _ in range(m):
            shifted = [Fraction(0)] + poly
            for k, c in enumerate(poly):
                shifted[k] -= r * c
            poly = shifted
    return poly


def curve_parameters(rng: random.Random, count: int) -> list:
    """Distinct rationals t != 0, 1, -1 with small numerator and denominator.

    Excluding +-1 keeps every parametrized point off the line X = 0, so each
    point can be lifted to the localization at X.
    """
    seen = []
    while len(seen) < count:
        t = nonzero_rational(rng, bound=5)
        if abs(t) != 1 and t not in seen:
            seen.append(t)
    return seen
