import itertools

import pytest

from chevkern.rootsys import (
    MAX_RANK,
    Root,
    UnsupportedRootSystemError,
    enumerate_roots,
    root_string,
)


def test_root_counts():
    assert len(enumerate_roots("A2").roots) == 6
    assert len(enumerate_roots("A3").roots) == 12
    assert len(enumerate_roots("A4").roots) == 20
    assert len(enumerate_roots("C2").roots) == 8


def test_b2_alias():
    B2 = enumerate_roots("B2")
    assert B2.kind == "C2"
    assert B2.roots == enumerate_roots("C2").roots


def test_negation_closure_and_determinism():
    for kind in ("A2", "A3", "C2"):
        sys1 = enumerate_roots(kind)
        sys2 = enumerate_roots(kind)
        assert sys1.roots == sys2.roots
        for r in sys1.roots:
            assert sys1.contains(-r)
        assert len(set(sys1.roots)) == len(sys1.roots)


def test_rank_limit():
    assert len(enumerate_roots("A%d" % MAX_RANK).roots) == MAX_RANK * (MAX_RANK + 1)
    with pytest.raises(UnsupportedRootSystemError, match="A2 to A%d" % MAX_RANK):
        enumerate_roots("A%d" % (MAX_RANK + 1))


def test_unsupported_systems():
    for bad in ("A1", "C3", "G2", "F4", "D4", "E8", "x"):
        with pytest.raises(UnsupportedRootSystemError):
            enumerate_roots(bad)


def test_simple_roots():
    A3 = enumerate_roots("A3")
    assert A3.simple == (Root((1, -1, 0, 0)), Root((0, 1, -1, 0)), Root((0, 0, 1, -1)))
    C2 = enumerate_roots("C2")
    assert C2.simple == (Root((1, -1)), Root((0, 2)))


def test_a2_root_strings():
    A2 = enumerate_roots("A2")
    a = Root((1, -1, 0))   # e1 - e2
    b = Root((0, 1, -1))   # e2 - e3
    s = root_string(A2, a, b)
    assert s == ((1, 1, Root((1, 0, -1))),)
    # non-adjacent pair: empty string
    c = Root((1, 0, -1))   # e1 - e3
    assert root_string(A2, a, c) == ()
    assert root_string(A2, a, a) == ()


def test_a_strings_have_at_most_one_term():
    for kind in ("A2", "A3"):
        system = enumerate_roots(kind)
        for a, b in itertools.product(system.roots, repeat=2):
            if (a + b).coords == tuple(0 for _ in a.coords):
                continue
            assert len(root_string(system, a, b)) <= 1


def test_c2_root_strings_hand():
    C2 = enumerate_roots("C2")
    a = Root((1, -1))   # e1 - e2
    b = Root((0, 2))    # 2 e2
    s = root_string(C2, a, b)
    assert s == ((1, 1, Root((1, 1))), (2, 1, Root((2, 0))))
    s2 = root_string(C2, b, a)
    assert s2 == ((1, 1, Root((1, 1))), (1, 2, Root((2, 0))))
    s3 = root_string(C2, a, Root((1, 1)))
    assert s3 == ((1, 1, Root((2, 0))),)
    s4 = root_string(C2, Root((2, 0)), Root((0, 2)))
    assert s4 == ()


def test_c2_strings_have_at_most_two_terms():
    C2 = enumerate_roots("C2")
    for a, b in itertools.product(C2.roots, repeat=2):
        if (a + b).coords == (0, 0):
            continue
        assert len(root_string(C2, a, b)) <= 2


def test_string_order_is_ascending():
    for kind in ("A3", "C2"):
        system = enumerate_roots(kind)
        for a, b in itertools.product(system.roots, repeat=2):
            if (a + b).coords == tuple(0 for _ in a.coords):
                continue
            terms = root_string(system, a, b)
            keys = [(i + j, i) for i, j, _ in terms]
            assert keys == sorted(keys)


def test_opposite_roots_rejected():
    A2 = enumerate_roots("A2")
    a = Root((1, -1, 0))
    with pytest.raises(ValueError):
        root_string(A2, a, -a)


def _root_object_string(system, alpha, beta):
    # the reference: each candidate built as a Root through scale and +
    found = []
    for i in range(1, 5):
        for j in range(1, 5):
            cand = alpha.scale(i) + beta.scale(j)
            if system.contains(cand):
                found.append((i, j, cand))
    found.sort(key=lambda t: (t[0] + t[1], t[0]))
    return tuple(found)


@pytest.mark.parametrize("kind", ["A2", "A3", "A5", "C2"])
def test_root_string_matches_the_root_object_loop(kind):
    system = enumerate_roots(kind)
    nonempty = 0
    for a, b in itertools.product(system.roots, repeat=2):
        if a == -b:
            with pytest.raises(ValueError, match="opposite roots"):
                root_string(system, a, b)
            continue
        terms = root_string(system, a, b)
        assert terms == _root_object_string(system, a, b)
        assert all(type(root) is Root for _, _, root in terms)
        nonempty += bool(terms)
    assert nonempty > 0
