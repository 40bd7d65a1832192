"""Property tests for the free reduction and inversion of Steinberg words (hypothesis)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from chevkern.chevalley import build_model, inverse_letters
from chevkern.rootsys import Root
from chevkern.steinberg import SteinbergWord

A2 = build_model("A2")
A = Root((1, -1, 0))
B = Root((0, 1, -1))
# few roots and small parameters, so merges, cancellations and zero letters
# all occur often
LETTERS = st.tuples(st.sampled_from([A, -A, B]),
                    st.integers(-2, 2).map(Fraction))
WORDS = st.lists(LETTERS, max_size=12)

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


@PROPERTY
@given(WORDS, WORDS, WORDS)
def test_reduction_is_confluent_under_any_split(a, b, c):
    # reducing the pieces first reaches the normal form of the whole word
    whole = SteinbergWord(a + b + c)
    assert whole == SteinbergWord(a + b) * SteinbergWord(c)
    assert whole == SteinbergWord(a) * SteinbergWord(b + c)
    assert whole == (SteinbergWord(a) * SteinbergWord(b)) * SteinbergWord(c)
    assert whole == SteinbergWord(a) * (SteinbergWord(b) * SteinbergWord(c))


@PROPERTY
@given(WORDS)
def test_reduced_words_are_fixed_points(a):
    letters = SteinbergWord(a).letters
    assert all(t != 0 for _, t in letters)
    assert all(x[0] != y[0] for x, y in zip(letters, letters[1:]))
    assert SteinbergWord(letters).letters == letters
    assert (SteinbergWord(a) * SteinbergWord(a).inverse()).letters == ()


@PROPERTY
@given(WORDS)
def test_inverse_letters_spell_the_inverse_word(a):
    # the reversed, negated letters multiply out to the inverse matrix and
    # reduce to the inverse of the formal word
    assert (A2.word(a) * A2.word(inverse_letters(a))).is_identity()
    assert SteinbergWord(a).inverse() == SteinbergWord(inverse_letters(a))
