import abc
import os
import random
import re
import sys
from fractions import Fraction as Q

import pytest

from chevkern import chevalley
from chevkern.chevalley import (
    GroupElement,
    LevelError,
    Matrix,
    ModelInconsistencyError,
    StructureConstants,
    build_model,
    commutator_letters,
    congruence_dimension,
    graded_piece,
    h_letters,
    infer_structure_constants,
    levi_decompose,
    load_structure_constants,
    ordered_root_pairs,
    perfectness_witness,
    verify_additivity,
    verify_commutator,
    w_letters,
)
from chevkern.cli import _rat
from chevkern.kernel import MultiPoly, PolyDomain, is_zero
from chevkern.rings import TruncAlgebra, TruncElement
from chevkern.rootsys import Root, enumerate_roots, root_string
from chevkern.steinberg import symbol_is_central_kernel


def _generic_trunc(d):
    return TruncAlgebra(d, base=PolyDomain())


# --- models and basic elements ----------------------------------------------

def test_root_subgroup_matrix_a2():
    m = build_model("A2")
    s = MultiPoly.variable("s")
    g = m.e(Root((1, -1, 0)), s)
    assert g.matrix == Matrix.from_rows([[1, s, 0], [0, 1, 0], [0, 0, 1]])


def test_nilpotents_square_to_zero():
    for kind in ("A2", "A3", "C2"):
        m = build_model(kind)
        for r in m.system.roots:
            x = m.nilpotent(r)
            assert (x * x).is_zero_matrix()
            assert m.in_lie_algebra(x)


def test_additivity_symbolic_and_random():
    rng = random.Random(17)
    s, t = MultiPoly.variable("s"), MultiPoly.variable("t")
    for kind in ("A2", "A3", "C2"):
        m = build_model(kind)
        for r in m.system.roots:
            assert verify_additivity(m, r, s, t)
        for _ in range(20):
            r = rng.choice(m.system.roots)
            assert verify_additivity(m, r, Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9)))


def test_inverse_is_negated_parameter():
    m = build_model("C2")
    for r in m.system.roots:
        g = m.e(r, Q(7))
        assert (g * m.e(r, Q(-7))).is_identity()
        assert g.inverse().matrix == m.e(r, Q(-7)).matrix


# --- root elements as column operations ----------------------------------

def _letter_params(ring):
    """Two parameters s, t and a unit u over Q, Q[e]/(e^3) or Q[s..,t..][e]/(e^2)."""
    if ring == "Q":
        return Q(-2, 3), Q(5, 7), Q(3)
    if ring == "trunc3":
        algebra = TruncAlgebra(3)
        return (algebra.element([Q(1, 2), -1, 4]), algebra.element([3, 0, Q(-5, 2)]),
                algebra.element([2, 1, -1]))
    algebra = TruncAlgebra(2, PolyDomain())
    return (algebra.generic("s"), algebra.generic("t"),
            algebra.one() + algebra.eps(1) * algebra.generic("u"))


@pytest.mark.parametrize("ring", ["Q", "trunc3", "generic2"])
@pytest.mark.parametrize("kind", ["A2", "A3", "C2"])
def test_root_element_products_match_dense(kind, ring):
    m = build_model(kind)
    s, t, u = _letter_params(ring)
    roots = m.system.roots
    for k, alpha in enumerate(roots):
        beta = roots[(k + 1) % len(roots)]
        e = m.e(alpha, t)
        g = m.word(w_letters(beta, u))
        assert e.root == (alpha, t) and g.root is None
        assert (g * e).matrix == g.matrix * e.matrix
        assert (e * g).matrix == e.matrix * g.matrix
        f = m.e(beta, s)
        assert (f * e).matrix == f.matrix * e.matrix
        assert (e * f).matrix == e.matrix * f.matrix
        assert e.inverse().matrix == e.matrix.inv()
        assert (g * e).root is None and (e * g).root is None


def test_root_element_tag_ignored_by_equality_and_hash():
    m = build_model("C2")
    s, t, _ = _letter_params("trunc3")
    for alpha in m.system.roots:
        tagged = m.e(alpha, t)
        plain = GroupElement(m, tagged.matrix)
        assert plain.root is None
        assert tagged == plain and plain == tagged
        assert hash(tagged) == hash(plain)
        assert len({tagged, plain}) == 1


def test_root_element_mixed_models_and_domains():
    a2, other = build_model("A2"), build_model("A2")
    alpha = a2.system.roots[0]
    with pytest.raises(ValueError):
        a2.e(alpha, Q(1)) * other.e(alpha, Q(1))
    with pytest.raises(ValueError):
        a2.identity() * other.e(alpha, Q(1))
    with pytest.raises(ValueError):
        other.e(alpha, Q(1)) * a2.identity()
    # entries over Q times a root element over Q[e]/(e^3): the dense product
    _, t, _ = _letter_params("trunc3")
    g, e = a2.identity(), a2.e(alpha, t)
    for prod, dense in ((g * e, g.matrix * e.matrix), (e * g, e.matrix * g.matrix)):
        assert prod.matrix == dense
        # an all-zero sum is the zero of Q[e]/(e^3), not a Q zero
        assert all(isinstance(x, TruncElement) for x in prod.matrix.entries)
    g0, c = levi_decompose(g * e)
    assert g0 * c == g * e


# the dense X_alpha of C2 as first written out by hand, on the basis
# (u1, u2, w1, w2) where the form pairs u_i with w_i
_C2_DENSE = {
    (1, -1): [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0]],
    (-1, 1): [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]],
    (1, 1): [[0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    (-1, -1): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    (2, 0): [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    (-2, 0): [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
    (0, 2): [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
    (0, -2): [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
}


def test_c2_letter_table_gives_the_dense_nilpotents():
    m = build_model("C2")
    assert sorted(r.coords for r in m.system.roots) == sorted(_C2_DENSE)
    for coords, rows in _C2_DENSE.items():
        assert m.nilpotent(Root(coords)) == Matrix.from_rows(rows)
    for bad in (lambda: m.nilpotent(Root((1, 0))), lambda: m.e(Root((1, 0)), Q(1))):
        with pytest.raises(ValueError):
            bad()


def _word_params(ring, rng):
    """A draw of one parameter over Q, Q[e]/(e^3) or Q[s, t]."""
    if ring == "Q":
        return _rat(rng)
    if ring == "trunc3":
        return TruncAlgebra(3).element([_rat(rng) for _ in range(3)])
    s, t = MultiPoly.variable("s"), MultiPoly.variable("t")
    return _rat(rng) + _rat(rng) * s + _rat(rng) * t + _rat(rng) * s * t


@pytest.mark.parametrize("ring", ["Q", "trunc3", "poly"])
@pytest.mark.parametrize("kind", ["A2", "A3", "C2"])
def test_word_matches_dense_product(kind, ring):
    m = build_model(kind)
    rng = random.Random(41)
    for length in range(7):
        letters = [(rng.choice(m.system.roots), _word_params(ring, rng))
                   for _ in range(length)]
        like = _word_params(ring, rng)
        dense = Matrix.identity(m.n, like=like)
        for alpha, t in letters:
            dense = dense * (Matrix.identity(m.n, like=t) + m.nilpotent(alpha) * t)
        assert m.word(letters, like=like).matrix == dense


@pytest.mark.parametrize("kind", ["A2", "C2"])
def test_word_path_makes_no_dense_product(kind):
    trace = pytest.importorskip("chevbench.trace")
    m = build_model(kind)
    constants = load_structure_constants(kind)
    algebra = TruncAlgebra(3)
    u, v = algebra.element([2, 1, -1]), algebra.element([Q(1, 3), 0, 5])
    alpha, beta = m.system.roots[0], m.system.roots[1]
    calls = {}
    for name, run in (("h", lambda: m.word(h_letters(alpha, u))),
                      ("w", lambda: m.word(w_letters(alpha, u))),
                      ("symbol", lambda: symbol_is_central_kernel(m, alpha, u, v)),
                      ("commutator", lambda: verify_commutator(m, alpha, beta, u, v, constants)),
                      ("perfectness", lambda: perfectness_witness(m, alpha, u))):
        tracer = trace.Tracer(hot=False)
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        assert tracer.calls["chevalley.root_element"] > 0
        calls[name] = (tracer.calls["kernel.matmul"], tracer.calls["kernel.matinv"])
    assert calls == {"h": (0, 0), "w": (0, 0), "symbol": (0, 0), "commutator": (0, 0),
                     "perfectness": (0, 0)}


def _count_root_elements(monkeypatch):
    """A list that gains the root of each ChevalleyModel.e call from now on."""
    built = []
    e = chevalley.ChevalleyModel.e

    def counted(self, alpha, t):
        built.append(alpha)
        return e(self, alpha, t)

    monkeypatch.setattr(chevalley.ChevalleyModel, "e", counted)
    return built


@pytest.mark.parametrize("ring", ["Q", "trunc3", "poly"])
@pytest.mark.parametrize("kind", ["A2", "C2"])
def test_word_and_commutator_build_one_root_element_matrix(monkeypatch, kind, ring):
    # a word builds only its first letter as a matrix; a commutator of two
    # root elements is a four-letter word, and builds no inverse
    m = build_model(kind)
    rng = random.Random(43)
    built = _count_root_elements(monkeypatch)
    for length in range(1, 8):
        letters = [(rng.choice(m.system.roots), _word_params(ring, rng))
                   for _ in range(length)]
        del built[:]
        m.word(letters)
        assert built == [letters[0][0]]
    for alpha, beta in ordered_root_pairs(m.system):
        s, t = _word_params(ring, rng), _word_params(ring, rng)
        del built[:]
        m.word(commutator_letters(((alpha, s),), ((beta, t),)))
        assert built == [alpha]


def test_verify_commutator_builds_its_inputs_and_one_formula_letter(monkeypatch):
    # e(alpha, s), the first letter of the commutator word, then the first
    # letter of the formula word when the root string is nonempty
    m = build_model("A2")
    constants = load_structure_constants("A2")
    s, t, _ = _letter_params("trunc3")
    built = _count_root_elements(monkeypatch)
    counts = {}
    for alpha, beta in ordered_root_pairs(m.system):
        del built[:]
        assert verify_commutator(m, alpha, beta, s, t, constants).ok
        assert len(built) == (2 if m.string(alpha, beta) else 1)
        counts[len(built)] = counts.get(len(built), 0) + 1
    assert counts == {2: 12, 1: 18}


@pytest.mark.parametrize("kind, products", [("A2", 126), ("C2", 492)])
def test_root_element_factor_reads_each_coefficient_off_its_matrix(monkeypatch, kind, products):
    # g * e(alpha, t) reads each c*t where e() stored it instead of forming it
    # again; only C2 has letters with c != 1, and forming them again made 506
    m = build_model(kind)
    constants = load_structure_constants(kind)
    s, t, _ = _letter_params("trunc3")
    calls = []
    mul = TruncElement.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(TruncElement, "__mul__", counted)
    for alpha, beta in ordered_root_pairs(m.system):
        assert verify_commutator(m, alpha, beta, s, t, constants).ok
    assert len(calls) == products


def test_commutator_check_takes_no_abc_instance_check(monkeypatch):
    # Fraction's metaclass is ABCMeta, so isinstance(x, Fraction) on a
    # MultiPoly, a TruncElement or an int runs ABCMeta.__instancecheck__; the
    # scalar hot path tests exact types instead and runs none
    package = os.path.dirname(chevalley.__file__) + os.sep
    m = build_model("A2")
    constants = load_structure_constants("A2")
    generic, rational = TruncAlgebra(2, PolyDomain()), TruncAlgebra(4)
    samples = [(generic.generic("s"), generic.generic("t")),
               (rational.element([Q(1, 2), -1, 4, 3]), rational.element([3, 0, Q(-5, 2), 1]))]
    calls = []
    check = abc.ABCMeta.__instancecheck__

    def counted(cls, instance):
        if sys._getframe(1).f_code.co_filename.startswith(package):
            calls.append((cls.__name__, type(instance).__name__))
        return check(cls, instance)

    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
    for s, t in samples:
        for alpha, beta in ordered_root_pairs(m.system):
            assert verify_commutator(m, alpha, beta, s, t, constants).ok
    assert calls == []


@pytest.mark.parametrize("ring", ["Q", "trunc3", "generic2"])
@pytest.mark.parametrize("kind", ["A2", "A3", "C2"])
def test_root_element_commutator_matches_dense(kind, ring):
    m = build_model(kind)
    s, t, _ = _letter_params(ring)
    xs = {alpha: m.e(alpha, s) for alpha in m.system.roots}
    ys = {beta: m.e(beta, t) for beta in m.system.roots}
    x_inv = {alpha: x.matrix.inv() for alpha, x in xs.items()}
    y_inv = {beta: y.matrix.inv() for beta, y in ys.items()}
    for alpha, x in xs.items():
        for beta, y in ys.items():
            got = m.word(commutator_letters(((alpha, s),), ((beta, t),)))
            assert got.root is None
            assert got.matrix == x.matrix * y.matrix * x_inv[alpha] * y_inv[beta], (alpha, beta)


def test_word_mixing_a_rational_letter_into_a_truncated_word():
    # a Q letter takes the dense product, and the entries stay TruncElements
    m = build_model("A2")
    algebra = TruncAlgebra(3)
    s, t, _ = _letter_params("trunc3")
    a, b = m.system.roots[0], m.system.roots[1]
    for letters in ([(a, s), (b, Q(2, 3)), (a, t), (b, 5)],
                    [(b, Q(-1, 4)), (a, s), (b, Q(3)), (a, t)]):
        dense = Matrix.identity(m.n, like=algebra.one())
        for alpha, u in letters:
            u = algebra.coerce(u) if isinstance(u, (int, Q)) else u
            dense = dense * (Matrix.identity(m.n, like=u) + m.nilpotent(alpha) * u)
        got = m.word(letters).matrix
        assert got == dense
        assert all(isinstance(x, TruncElement) for x in got.entries)


def test_w_and_h_block_forms():
    m = build_model("A2")
    a = Root((1, -1, 0))
    assert m.word(w_letters(a, Q(1))).matrix == Matrix.from_rows(
        [[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
    assert m.word(w_letters(a, Q(3))).matrix == Matrix.from_rows(
        [[0, 3, 0], [Q(-1, 3), 0, 0], [0, 0, 1]])
    assert m.word(h_letters(a, Q(2))).matrix == Matrix.from_rows(
        [[2, 0, 0], [0, Q(1, 2), 0], [0, 0, 1]])


def test_h_is_diagonal_everywhere():
    rng = random.Random(19)
    for kind in ("A2", "A3", "C2"):
        m = build_model(kind)
        for r in m.system.roots:
            u = Q(rng.randint(1, 9))
            hm = m.word(h_letters(r, u)).matrix
            for i in range(m.n):
                for j in range(m.n):
                    if i != j:
                        assert hm.entry(i, j) == 0


def test_group_membership_random_products():
    rng = random.Random(29)
    for kind in ("A2", "C2"):
        m = build_model(kind)
        for _ in range(30):
            g = m.identity()
            for _ in range(rng.randint(1, 5)):
                r = rng.choice(m.system.roots)
                g = g * m.e(r, Q(rng.randint(-3, 3)))
            assert m.check_membership(g)
            assert m.check_membership(g.inverse())


# --- commutator formula -------------------------------------------------------

def test_commutator_hand_values_a2():
    c = load_structure_constants("A2")
    assert c.get(Root((1, -1, 0)), Root((0, 1, -1)), 1, 1) == 1
    assert c.get(Root((0, 1, -1)), Root((1, -1, 0)), 1, 1) == -1


def test_commutator_hand_values_c2():
    c = load_structure_constants("C2")
    assert c.get(Root((1, -1)), Root((1, 1)), 1, 1) == 2
    assert set(c.table.values()) <= {1, -1, 2, -2}
    # the two-term string for (e1-e2, 2e2)
    assert (Root((1, -1)).coords, Root((0, 2)).coords, 1, 1) in c.table
    assert (Root((1, -1)).coords, Root((0, 2)).coords, 2, 1) in c.table


def test_inference_matches_golden():
    for kind in ("A2", "A3", "C2"):
        m = build_model(kind)
        inferred = infer_structure_constants(m)
        golden = load_structure_constants(kind)
        assert inferred == golden


@pytest.mark.parametrize("kind", ["A2", "A3", "A4", "A5", "A6"])
def test_bracket_readout_equals_inference(kind):
    # the Lie bracket of the letter tables and the symbolic commutator agree
    assert load_structure_constants(kind) == infer_structure_constants(build_model(kind))


def test_bracket_readout_forms_no_group_element(monkeypatch):
    # the readout builds no model and no matrix, so it is an oracle for the
    # commutators that inference and verify_commutator form
    def refuse(*args):
        raise AssertionError("the readout formed a group element")

    golden = {kind: load_structure_constants(kind) for kind in ("A2", "A8", "C2")}
    monkeypatch.setattr(chevalley.ChevalleyModel, "__init__", refuse)
    monkeypatch.setattr(chevalley.GroupElement, "__init__", refuse)
    for kind, constants in golden.items():
        assert load_structure_constants(kind) == constants
    assert load_structure_constants("b2") == golden["C2"]


@pytest.mark.parametrize("kind, coords, scale, message", [
    # as in the inference test below: the shared check names the same pair
    ("A2", (1, 0, -1), 3, "pair (Root(-1, 1, 0), Root(1, 0, -1)) reads N_11 = 3,"),
    # read off the half bracket [B, [A, B]]/2
    ("C2", (1, 1), 2, "pair (Root(-2, 0), Root(1, 1)) reads N_12 = 4,"),
], ids=["A2", "C2"])
def test_bracket_readout_rejects_a_forged_letter(monkeypatch, kind, coords, scale, message):
    letter_table = chevalley._letter_table

    def forged(system):
        table = letter_table(system)
        table[Root(coords)] = tuple((i, j, scale * c) for i, j, c in table[Root(coords)])
        return table

    monkeypatch.setattr(chevalley, "_letter_table", forged)
    with pytest.raises(ModelInconsistencyError, match=re.escape(message)):
        load_structure_constants(kind)


_INFERENCE_RINGS = [pytest.param(None, id="Q[s,t]"),
                    pytest.param(TruncAlgebra(2, PolyDomain()), id="Q[s..,t..][e]/(e^2)")]


def _forged(kind, coords, change):
    """A model whose letter for ``coords`` is changed after _validate ran."""
    m = build_model(kind)
    m._letters[Root(coords)] = change(m._letters[Root(coords)])
    return m


@pytest.mark.parametrize("ring", _INFERENCE_RINGS)
def test_inference_rejects_a_read_value_outside_the_constants(ring):
    # the letter of e1 - e3 scaled by 3: N_11 of (e2 - e1, e1 - e3) reads 3
    m = _forged("A2", (1, 0, -1), lambda entries: tuple((i, j, 3 * c) for i, j, c in entries))
    with pytest.raises(ModelInconsistencyError,
                       match=re.escape("pair (Root(-1, 1, 0), Root(1, 0, -1))")):
        infer_structure_constants(m, ring)


@pytest.mark.parametrize("ring", _INFERENCE_RINGS)
def test_inference_certificate_rejects_a_sign_flip(ring):
    # the second entry of X_(1,1) negated: every read value is in {+-1, +-2},
    # but the formula word with them is not the commutator
    m = _forged("C2", (1, 1), lambda entries: (entries[0], entries[1][:2] + (-entries[1][2],)))
    with pytest.raises(ModelInconsistencyError,
                       match=re.escape("pair (Root(-2, 0), Root(1, 1))")):
        infer_structure_constants(m, ring)


@pytest.mark.parametrize("kind, count", [("A2", 12), ("A3", 48), ("C2", 24)])
def test_inference_multiplies_one_word_per_nonempty_string(kind, count):
    # one four-letter commutator word per ordered pair, then one shorter
    # formula word per nonempty root string
    for ring in (None, TruncAlgebra(2, PolyDomain())):
        m = build_model(kind)
        words = []
        word = m.word

        def counted(letters, like=None):
            words.append(letters)
            return word(letters, like)

        m.word = counted
        assert infer_structure_constants(m, ring) == load_structure_constants(kind)
        pairs = ordered_root_pairs(m.system)
        formulas = [letters for letters in words if len(letters) < 4]
        assert len(words) - len(formulas) == len(pairs)
        assert len(formulas) == count == sum(1 for a, b in pairs if m.string(a, b))


def test_commutator_full_sweep_symbolic():
    s, t = MultiPoly.variable("s"), MultiPoly.variable("t")
    for kind in ("A2", "C2"):
        m = build_model(kind)
        constants = load_structure_constants(kind)
        for a, b in ordered_root_pairs(m.system):
            check = verify_commutator(m, a, b, s, t, constants)
            assert check.ok, (a, b)


def test_commutator_ring_independence_trunc():
    # same integer constants verify over K[e]/(e^d) with fully generic entries
    for kind in ("A2", "C2"):
        m = build_model(kind)
        constants = load_structure_constants(kind)
        algebra = _generic_trunc(2)
        s = algebra.generic("s")
        t = algebra.generic("t")
        for a, b in ordered_root_pairs(m.system):
            assert verify_commutator(m, a, b, s, t, constants).ok


def test_commutator_concrete_trunc_samples():
    rng = random.Random(47)
    algebra = TruncAlgebra(4)
    for kind in ("A3", "C2"):
        m = build_model(kind)
        constants = load_structure_constants(kind)
        pairs = ordered_root_pairs(m.system)
        for _ in range(25):
            a, b = rng.choice(pairs)
            s = algebra.element([Q(rng.randint(-3, 3)) for _ in range(4)])
            t = algebra.element([Q(rng.randint(-3, 3)) for _ in range(4)])
            assert verify_commutator(m, a, b, s, t, constants).ok


def test_forged_constants_fail():
    m = build_model("A2")
    golden = load_structure_constants("A2")
    forged = StructureConstants("A2", {k: -v for k, v in golden.table.items()})
    a, b = Root((1, -1, 0)), Root((0, 1, -1))
    check = verify_commutator(m, a, b, Q(1), Q(1), forged)
    assert not check.ok


@pytest.mark.parametrize("kind, count", [("A2", 12), ("A3", 48), ("C2", 24), ("A4", 120),
                                         ("A5", 240), ("A6", 420), ("A7", 672), ("A8", 1008)])
def test_frozen_constants_obey_chevalley_theorem(kind, count):
    # |N_{alpha,beta}| = p + 1 with p the largest integer such that
    # beta - p*alpha is a root (Carter, Simple Groups of Lie Type, Thm 4.1.2);
    # independent of the readout that produces the tables
    system = enumerate_roots(kind)
    table = load_structure_constants(kind).table
    ones = {(a, b): n for (a, b, i, j), n in table.items() if (i, j) == (1, 1)}
    assert set(ones) == {(a.coords, b.coords) for a in system.roots for b in system.roots
                         if system.contains(a + b)}
    assert len(ones) == count
    for (a, b), n in ones.items():
        alpha, beta = Root(a), Root(b)
        p = 0
        while system.contains(beta + alpha.scale(-(p + 1))):
            p += 1
        assert abs(n) == p + 1, (a, b, n)


def test_model_string_is_root_string_computed_once(monkeypatch):
    for kind in ("A2", "A3", "C2"):
        m = build_model(kind)
        for a, b in ordered_root_pairs(m.system):
            assert m.string(a, b) == root_string(m.system, a, b)
    calls = []

    def counted(*args):
        calls.append(args)
        return root_string(*args)

    monkeypatch.setattr(chevalley, "root_string", counted)
    m = build_model("C2")
    constants = load_structure_constants("C2")
    pairs = ordered_root_pairs(m.system)
    for _ in range(2):
        for a, b in pairs:
            assert verify_commutator(m, a, b, Q(2), Q(-3), constants).ok
        assert len(calls) == len(pairs)


# --- congruence filtration ------------------------------------------------------

def test_levi_decomposition_random():
    rng = random.Random(53)
    algebra = TruncAlgebra(3)
    for kind in ("A2", "C2"):
        m = build_model(kind)
        for _ in range(15):
            g = m.identity(like=algebra.one())
            for _ in range(rng.randint(1, 4)):
                r = rng.choice(m.system.roots)
                coeffs = [Q(rng.randint(-2, 2)) for _ in range(3)]
                g = g * m.e(r, algebra.element(coeffs))
            g0, c = levi_decompose(g)
            # c is congruent to the identity mod e
            piece_ok = all(c.matrix.entry(i, j).coeff(0) == (1 if i == j else 0)
                           for i in range(m.n) for j in range(m.n))
            assert piece_ok
            # recomposition
            embedded = Matrix(m.n, m.n,
                              tuple(algebra.element([x]) for x in g0.matrix.entries))
            assert (GroupElement(m, embedded) * c).matrix == g.matrix


@pytest.mark.parametrize("kind", ["A2", "A3", "C2"])
def test_levi_inverts_over_the_base_field(kind):
    trace = pytest.importorskip("chevbench.trace")
    rng = random.Random(61)
    m = build_model(kind)
    for d in (2, 3, 4):
        algebra = TruncAlgebra(d)
        for _ in range(4):
            g = m.word([(rng.choice(m.system.roots),
                         algebra.element([Q(rng.randint(-3, 3), rng.randint(1, 3))
                                          for _ in range(d)]))
                        for _ in range(3)])
            tracer = trace.Tracer(hot=False)
            tracer.install()
            try:
                _, c = levi_decompose(g)
            finally:
                tracer.uninstall()
            assert tracer.calls["kernel.det"] == 0
            # reference: the division-free inverse over the truncated ring
            embedded = Matrix(m.n, m.n,
                              tuple(algebra.element([x.coeff(0)]) for x in g.matrix.entries))
            assert c.matrix == embedded.inv() * g.matrix


def test_graded_piece_of_root_element():
    algebra = TruncAlgebra(4)
    m = build_model("C2")
    for r in m.system.roots:
        for s in (1, 2, 3):
            piece = graded_piece(m.e(r, algebra.eps(s)), s)
            assert piece == m.nilpotent(r)


def test_graded_piece_level_errors():
    algebra = TruncAlgebra(3)
    m = build_model("A2")
    g = m.e(Root((1, -1, 0)), algebra.eps(1))
    with pytest.raises(LevelError):
        graded_piece(g, 2)   # nontrivial at level 1
    with pytest.raises(LevelError):
        graded_piece(g, 3)   # out of range
    h = m.word(h_letters(Root((1, -1, 0)), algebra.coerce(2)))
    with pytest.raises(LevelError):
        graded_piece(h, 1)   # not congruent to the identity


def test_graded_piece_level_error_is_the_same_over_q_and_polynomials():
    m = build_model("A2")
    r = Root((1, -1, 0))
    X = MultiPoly.variable("X")
    messages = []
    for algebra, c in ((TruncAlgebra(4), Q(1, 3)), (_generic_trunc(4), X)):
        one = algebra.one()
        for level in (1, 2):
            g = m.e(r, algebra.element([0] * level + [c]))
            with pytest.raises(LevelError) as err:
                graded_piece(g, 3)
            messages.append(str(err.value))
        piece = graded_piece(m.e(r, algebra.element([0, 0, 0, c])), 3)
        assert [x for x in piece.entries if not is_zero(x)] == [c]
        with pytest.raises(LevelError) as err:
            graded_piece(m.e(r, one), 1)
        messages.append(str(err.value))
    expected = ["element is nontrivial at level 1 < 3", "element is nontrivial at level 2 < 3",
                "element is not congruent to the identity mod e"]
    assert messages == expected * 2


def test_graded_piece_additivity():
    rng = random.Random(59)
    algebra = TruncAlgebra(4)
    m = build_model("A3")
    roots = m.system.roots
    for s in (1, 2, 3):
        for _ in range(10):
            r1, r2 = rng.choice(roots), rng.choice(roots)
            q1, q2 = Q(rng.randint(-3, 3)), Q(rng.randint(-3, 3))
            c1 = m.e(r1, algebra.eps(s) * algebra.coerce(q1))
            c2 = m.e(r2, algebra.eps(s) * algebra.coerce(q2))
            lhs = graded_piece(c1 * c2, s)
            rhs = graded_piece(c1, s) + graded_piece(c2, s)
            assert lhs == rhs


def test_congruence_dimension_counts():
    assert congruence_dimension(build_model("A2"), 2).per_level == (8,)
    assert congruence_dimension(build_model("A2"), 4).total == 3 * 8
    assert congruence_dimension(build_model("A3"), 3).total == 2 * 15
    rep = congruence_dimension(build_model("C2"), 4)
    assert rep.per_level == (10, 10, 10)
    assert rep.ok


# --- perfectness ----------------------------------------------------------------

def test_perfectness_default_unit():
    for kind in ("A2", "A3", "C2"):
        m = build_model(kind)
        for r in m.system.roots:
            w = perfectness_witness(m, r, Q(5))
            assert w.ok


def test_perfectness_other_units_and_rings():
    m = build_model("C2")
    a = Root((2, 0))
    assert perfectness_witness(m, a, Q(7)).ok
    algebra = TruncAlgebra(3)
    x = algebra.element([1, 2, Q(1, 2)])
    assert perfectness_witness(m, a, x).ok


def test_perfectness_symbolic():
    m = build_model("A2")
    r = MultiPoly.variable("r")
    w = perfectness_witness(m, Root((1, 0, -1)), r)
    assert w.ok
