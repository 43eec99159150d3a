import inspect
import random
import sys
from itertools import combinations

import pytest

from homflypt import (Evaluator, LadderWord, Letter, build_cap, build_cup,
                      ev, ev_specialized, qbinom, qint, xbinom)
from homflypt.pbw import _normal
from homflypt.rings import RatQ, XPoly


def word(sides, *letters):
    return LadderWord(sides, tuple(Letter(k, i, p) for k, i, p in letters),
                      XPoly.one())


def rand_word(rng, sides=4, max_len=8, max_pow=2):
    n = rng.randint(0, max_len)
    return word(sides, *[(rng.choice("EF"), rng.randint(1, sides - 1),
                          rng.randint(0, max_pow)) for _ in range(n)])


def test_empty_word():
    assert ev(word(4)) == XPoly.one()
    assert ev_specialized(word(4), 5) == qint(1)


def test_unknot_word_is_xbinom():
    for a in range(0, 5):
        assert ev(word(2, ("E", 1, a), ("F", 1, a))) == xbinom(0, a)
    # cross-check the stated value at n=3, a=1
    got = ev(word(2, ("E", 1, 1), ("F", 1, 1))).subst_x_eq_qn(3)
    assert got == qint(3)


def _insert(rng, letters, power):
    at = rng.randint(0, len(letters))
    return letters[:at] + (Letter(rng.choice("EF"), rng.randint(1, 3), power),) \
        + letters[at:]


def test_negative_power_is_zero():
    assert ev(word(4, ("E", 1, -1))).is_zero()
    assert ev(word(4, ("F", 2, 1), ("E", 2, -2))).is_zero()
    # anywhere in a word, without rewriting anything
    rng = random.Random(16)
    for _ in range(30):
        letters = _insert(rng, rand_word(rng).letters, -rng.randint(1, 2))
        for e in (Evaluator(4), Evaluator(4, 3)):
            assert e.ev(letters).is_zero()
            assert not e._memo


def test_zero_powers_are_dropped():
    rng = random.Random(17)
    for _ in range(40):
        w = word(4, *[(rng.choice("EF"), rng.randint(1, 3), rng.randint(1, 2))
                      for _ in range(rng.randint(0, 6))])
        padded = w.letters
        for _ in range(rng.randint(1, 3)):
            padded = _insert(rng, padded, 0)
        padded = LadderWord(4, padded, XPoly.one())
        assert ev(padded) == ev(w)
        for n in (2, 3):
            assert ev_specialized(padded, n) == ev_specialized(w, n)


def test_annihilation_at_right_end():
    assert ev(word(4, ("E", 1, 1))).is_zero()
    assert ev(word(4, ("F", 1, 1))).is_zero()


def test_ev_specialized_examples():
    assert ev_specialized(word(2, ("E", 1, 1), ("F", 1, 1)), 2) == qbinom(2, 1)
    assert ev_specialized(word(4), 3) == qbinom(0, 0)


def test_generic_specialized_agreement_random():
    rng = random.Random(11)
    checked = 0
    for _ in range(50):
        w = rand_word(rng)
        generic = ev(w)
        for n in range(2, 6):
            assert generic.subst_x_eq_qn(n) == ev_specialized(w, n)
        checked += 1
    assert checked == 50


def test_memo_purity():
    rng = random.Random(12)
    plain = Evaluator(4, memoize=False)
    cached = Evaluator(4)
    for _ in range(25):
        w = rand_word(rng, max_len=6)
        assert plain.ev(w) == cached.ev(w)


def test_commuting_letter_swap_invariance():
    rng = random.Random(13)
    sides = 6
    tried = 0
    while tried < 40:
        w = rand_word(rng, sides=sides, max_len=7)
        spots = [i for i in range(len(w.letters) - 1)
                 if abs(w.letters[i].index - w.letters[i + 1].index) > 1]
        if not spots:
            continue
        i = rng.choice(spots)
        swapped = list(w.letters)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert ev(w) == ev(LadderWord(sides, tuple(swapped), XPoly.one()))
        tried += 1


def test_merge_consistency():
    # X_i^(s) X_i^(r) = qbinom(r+s, r) X_i^(r+s), inserted into random words
    rng = random.Random(14)
    sides = 4
    for _ in range(40):
        w = rand_word(rng, max_len=4)
        i = rng.randint(1, 3)
        kind = rng.choice("EF")
        r, s = rng.randint(0, 2), rng.randint(0, 2)
        cut = rng.randint(0, len(w.letters))
        head, tail = w.letters[:cut], w.letters[cut:]
        split = LadderWord(sides, head + (Letter(kind, i, s), Letter(kind, i, r)) + tail,
                           XPoly.one())
        merged = LadderWord(sides, head + (Letter(kind, i, r + s),) + tail,
                            XPoly.one())
        assert ev(split) == ev(merged).scale(qbinom(r + s, r))


def _inversions(letters):
    """The pairs (E_i, F_i) of nonzero powers with the E left of the F."""
    return sum(1 for a, b in combinations(letters, 2)
               if a.kind == "E" and b.kind == "F" and a.index == b.index
               and a.power > 0 and b.power > 0)


def test_recursion_depth_in_bound():
    rng = random.Random(15)
    for _ in range(40):
        for sides in (2, 4):
            w = rand_word(rng, sides=sides, max_len=10).letters
            # with the E letters first, most words rewrite to full depth
            for letters in (w, tuple(sorted(w, key=lambda let: let.kind))):
                e = Evaluator(sides)
                e.ev(letters)
                assert e.max_depth <= _inversions(letters) + 1


def test_recursion_limit_left_alone():
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        Evaluator(2).ev(word(2, ("E", 1, 2), ("F", 1, 2)))
        Evaluator(4, 3)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def test_too_deep_word_is_refused():
    deep = word(2, *[("E", 1, 1)] * 12, *[("F", 1, 1)] * 12)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        with pytest.raises(ValueError, match="recursion limit"):
            Evaluator(2).ev(deep)
    finally:
        sys.setrecursionlimit(old)
    assert not Evaluator(2).ev(deep).is_zero()


def test_too_deep_contraction_is_refused():
    deep = tuple(Letter(k, 1, 1) for k in "E" * 12 + "F" * 12)
    sums = [[(deep, RatQ.one())]]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        with pytest.raises(ValueError, match="recursion limit"):
            Evaluator(2).contract((), sums, ())
    finally:
        sys.setrecursionlimit(old)
    assert Evaluator(2).contract((), sums, ()) == ev(word(2, *deep))


def _split_shuffle(rng, e, letters):
    """The letters with each divided power split into random parts, in a
    random order built from the right that keeps every suffix of the word
    off the zero test of ``e`` where it can."""
    parts = []
    for let in letters:
        p = let.power
        while p:
            a = rng.randint(1, p)
            parts.append(Letter(let.kind, let.index, a))
            p -= a
    word = ()
    while parts:
        rng.shuffle(parts)
        k = next((k for k, let in enumerate(parts)
                  if not e._tail_negative((let,) + word)), 0)
        word = (parts.pop(k),) + word
    return word


def test_f_word_normal_form():
    # F-words of the cup's weight under the cap: the normal form keeps the
    # value, and every commuting order of a word has the same normal form
    rng = random.Random(18)
    colors = (1, 2, 1)
    cap = build_cap(colors, 3).letters
    cup = build_cup(colors, 3).letters
    e = Evaluator(6)
    nonzero = 0
    for _ in range(60):
        u = _split_shuffle(rng, e, cup)
        c, nf = _normal(u)
        value = e.ev(cap + u)
        assert value == e.ev(cap + nf).scale(c)
        assert e.state(u) in ({}, {nf: XPoly.from_ratq(c)})
        assert _normal(nf) == (RatQ.one(), nf)
        nonzero += not value.is_zero()
        w = list(u)
        for _ in range(20):
            spots = [i for i in range(len(w) - 1)
                     if abs(w[i].index - w[i + 1].index) >= 2]
            if spots:
                i = rng.choice(spots)
                w[i], w[i + 1] = w[i + 1], w[i]
        assert _normal(tuple(w)) == (c, nf)
    assert nonzero >= 10


def test_index_validation():
    try:
        ev(word(4, ("E", 4, 1)))
    except ValueError as exc:
        assert "index" in str(exc)
    else:
        raise AssertionError("letter index out of range must raise")


def test_trace_emits_rewrite_steps():
    lines = []
    e = Evaluator(2, trace=lines.append)
    e.ev(word(2, ("E", 1, 1), ("F", 1, 1)).letters)
    assert any("swap" in ln for ln in lines)
