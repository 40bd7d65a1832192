"""Root systems A_l (2 <= l <= MAX_RANK) and C2, with root strings.

Roots carry integer coordinates in the standard basis: for A_l these are the
vectors e_i - e_j inside Z^{l+1}; for C2 they are (+-1, +-1), (+-2, 0),
(0, +-2) inside Z^2.  The label B2 is accepted as an alias for the same
rank-2 system in its symplectic realization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple


# the largest rank l of A_l; symbols on A8 takes about 4.5 s at --samples 1000
MAX_RANK = 8


class UnsupportedRootSystemError(ValueError):
    """Raised for root-system labels outside A_l (2 <= l <= MAX_RANK) and C2/B2."""


@dataclass(frozen=True, order=True)
class Root:
    coords: Tuple[int, ...]

    def __neg__(self):
        return Root(tuple(-c for c in self.coords))

    def __add__(self, other):
        return Root(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, k: int) -> "Root":
        return Root(tuple(k * c for c in self.coords))

    def __repr__(self):
        return "Root%s" % (self.coords,)


class RootSystem:
    """A fixed root system with deterministic root enumeration."""

    def __init__(self, kind: str, family: str, rank: int, roots, simple):
        self.kind = kind
        self.family = family
        self.rank = rank
        self.roots = tuple(sorted(roots))
        self.simple = tuple(simple)
        self._root_set = frozenset(r.coords for r in self.roots)

    def contains(self, root: Root) -> bool:
        return root.coords in self._root_set

    def __repr__(self):
        return "RootSystem(%s, %d roots)" % (self.kind, len(self.roots))


def enumerate_roots(kind: str) -> RootSystem:
    """Build the root system named by ``kind`` ("A2", "A3", ..., "C2", "B2")."""
    label = kind.strip().upper()
    if label == "B2":
        label = "C2"
    m = re.fullmatch(r"([AC])(\d+)", label)
    if not m:
        raise UnsupportedRootSystemError("unsupported root system %r" % kind)
    family, ell = m.group(1), int(m.group(2))
    if family == "A":
        if not 2 <= ell <= MAX_RANK:
            raise UnsupportedRootSystemError(
                "A%d is out of scope; the supported systems are A2 to A%d" % (ell, MAX_RANK))
        n = ell + 1
        roots = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                coords = [0] * n
                coords[i] = 1
                coords[j] = -1
                roots.append(Root(tuple(coords)))
        simple = []
        for i in range(ell):
            coords = [0] * n
            coords[i] = 1
            coords[i + 1] = -1
            simple.append(Root(tuple(coords)))
        return RootSystem("A%d" % ell, "A", ell, roots, simple)
    if family == "C":
        if ell != 2:
            raise UnsupportedRootSystemError(
                "C%d is out of scope; only C2 is supported" % ell)
        roots = [Root((1, -1)), Root((-1, 1)), Root((1, 1)), Root((-1, -1)),
                 Root((2, 0)), Root((-2, 0)), Root((0, 2)), Root((0, -2))]
        simple = [Root((1, -1)), Root((0, 2))]
        return RootSystem("C2", "C", 2, roots, simple)
    raise UnsupportedRootSystemError("unsupported root system %r" % kind)


def root_string(system: RootSystem, alpha: Root, beta: Root) -> tuple:
    """The terms (i, j, i*alpha + j*beta) with i, j >= 1 whose sum is a root.

    Terms are ordered by (i + j, i) ascending; this is also the order in
    which commutator products are taken.
    """
    if not system.contains(alpha) or not system.contains(beta):
        raise ValueError("both arguments must be roots of %s" % system.kind)
    # each candidate is a coordinate tuple; a Root is built only for a root
    pairs = tuple(zip(alpha.coords, beta.coords))
    first = tuple(a + b for a, b in pairs)
    if not any(first):
        raise ValueError("opposite roots have no commutator string")
    if first not in system._root_set:  # strings are unbroken: no i alpha + j beta is a root
        return ()
    found = []
    for i in range(1, 5):
        for j in range(1, 5):
            cand = tuple(i * a + j * b for a, b in pairs)
            if cand in system._root_set:
                found.append((i, j, Root(cand)))
    found.sort(key=lambda t: (t[0] + t[1], t[0]))
    return tuple(found)
