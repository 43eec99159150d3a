import inspect
import random
import sys
from itertools import combinations

import pytest

from homflypt import (Evaluator, Letter, Partition, build_cap, build_cup,
                      crossing_sums, invariant, parse_braid, qbinom, qint,
                      xbinom)
from homflypt import invariants
from homflypt.pbw import _normal
from homflypt.rings import RatQ, XPoly


def word(*letters):
    return tuple(Letter(k, i, p) for k, i, p in letters)


def rand_word(rng, sides=4, max_len=8, max_pow=2):
    n = rng.randint(0, max_len)
    return word(*[(rng.choice("EF"), rng.randint(1, sides - 1),
                   rng.randint(0, max_pow)) for _ in range(n)])


def test_empty_word():
    assert Evaluator(4).ev(()) == XPoly.one()
    assert Evaluator(4, 5).ev(()) == qint(1)


def test_unknot_word_is_xbinom():
    for a in range(0, 5):
        assert Evaluator(2).ev(word(("E", 1, a), ("F", 1, a))) == xbinom(0, a)
    # cross-check the stated value at n=3, a=1
    got = Evaluator(2).ev(word(("E", 1, 1), ("F", 1, 1))).subst_x_eq_qn(3)
    assert got == qint(3)


def _insert(rng, letters, power):
    at = rng.randint(0, len(letters))
    return letters[:at] + (Letter(rng.choice("EF"), rng.randint(1, 3), power),) \
        + letters[at:]


def test_negative_power_is_zero():
    assert Evaluator(4).ev(word(("E", 1, -1))).is_zero()
    assert Evaluator(4).ev(word(("F", 2, 1), ("E", 2, -2))).is_zero()
    # anywhere in a word, without rewriting anything
    rng = random.Random(16)
    for _ in range(30):
        letters = _insert(rng, rand_word(rng), -rng.randint(1, 2))
        for e in (Evaluator(4), Evaluator(4, 3)):
            assert e.ev(letters).is_zero()
            assert not e._memo


def test_zero_powers_are_dropped():
    rng = random.Random(17)
    for _ in range(40):
        w = word(*[(rng.choice("EF"), rng.randint(1, 3), rng.randint(1, 2))
                   for _ in range(rng.randint(0, 6))])
        padded = w
        for _ in range(rng.randint(1, 3)):
            padded = _insert(rng, padded, 0)
        for e in (Evaluator(4), Evaluator(4, 2), Evaluator(4, 3)):
            assert e.ev(padded) == e.ev(w)


def test_annihilation_at_right_end():
    assert Evaluator(4).ev(word(("E", 1, 1))).is_zero()
    assert Evaluator(4).ev(word(("F", 1, 1))).is_zero()


def test_ev_specialized_examples():
    unknot = word(("E", 1, 1), ("F", 1, 1))
    assert Evaluator(2, 2).ev(unknot) == qbinom(2, 1)
    assert Evaluator(4, 3).ev(()) == qbinom(0, 0)


def test_generic_specialized_agreement_random():
    rng = random.Random(11)
    checked = 0
    ev, spec = Evaluator(4), {n: Evaluator(4, n) for n in range(2, 6)}
    for _ in range(50):
        w = rand_word(rng)
        generic = ev.ev(w)
        for n, ev_n in spec.items():
            assert generic.subst_x_eq_qn(n) == ev_n.ev(w)
        checked += 1
    assert checked == 50


class _NoMemo(dict):
    """A memo that stores nothing, so every subword is evaluated afresh."""

    def __setitem__(self, key, value):
        pass


def test_memo_purity():
    # a memo warmed by earlier words gives what a fresh evaluator gives,
    # and what one that never memoizes gives
    rng = random.Random(12)
    cached = Evaluator(4)
    for _ in range(25):
        w = rand_word(rng, max_len=6)
        bare = Evaluator(4)
        bare._memo = _NoMemo()
        assert cached.ev(w) == Evaluator(4).ev(w) == bare.ev(w)


def test_commuting_letter_swap_invariance():
    rng = random.Random(13)
    sides = 6
    tried = 0
    while tried < 40:
        w = rand_word(rng, sides=sides, max_len=7)
        spots = [i for i in range(len(w) - 1)
                 if abs(w[i].index - w[i + 1].index) > 1]
        if not spots:
            continue
        i = rng.choice(spots)
        swapped = list(w)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert Evaluator(sides).ev(w) == Evaluator(sides).ev(swapped)
        tried += 1


def test_merge_consistency():
    # X_i^(s) X_i^(r) = qbinom(r+s, r) X_i^(r+s), inserted into random words
    rng = random.Random(14)
    ev = Evaluator(4)
    for _ in range(40):
        w = rand_word(rng, max_len=4)
        i = rng.randint(1, 3)
        kind = rng.choice("EF")
        r, s = rng.randint(0, 2), rng.randint(0, 2)
        cut = rng.randint(0, len(w))
        head, tail = w[:cut], w[cut:]
        split = head + (Letter(kind, i, s), Letter(kind, i, r)) + tail
        merged = head + (Letter(kind, i, r + s),) + tail
        assert ev.ev(split) == ev.ev(merged).scale(qbinom(r + s, r))


def _inversions(letters):
    """The pairs (E_i, F_i) of nonzero powers with the E left of the F."""
    return sum(1 for a, b in combinations(letters, 2)
               if a.kind == "E" and b.kind == "F" and a.index == b.index
               and a.power > 0 and b.power > 0)


def test_recursion_depth_in_bound():
    rng = random.Random(15)
    for _ in range(40):
        for sides in (2, 4):
            w = rand_word(rng, sides=sides, max_len=10)
            # with the E letters first, most words rewrite to full depth
            for letters in (w, tuple(sorted(w, key=lambda let: let.kind))):
                e = Evaluator(sides)
                e.ev(letters)
                assert e.max_depth <= _inversions(letters) + 1


def test_recursion_limit_left_alone():
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        Evaluator(2).ev(word(("E", 1, 2), ("F", 1, 2)))
        Evaluator(4, 3)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


# (E2 E1)^6 (F1 F2)^6: its F run stays alternating under the normal form,
# so it rewrites 37 deep; E1^12 F1^12 merges into E1^12 F1^(12)
DEEP = word(*[("E", 2, 1), ("E", 1, 1)] * 6, *[("F", 1, 1), ("F", 2, 1)] * 6)


def test_too_deep_word_is_refused():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        with pytest.raises(ValueError, match="recursion limit"):
            Evaluator(4).ev(DEEP)
    finally:
        sys.setrecursionlimit(old)
    assert not Evaluator(4).ev(DEEP).is_zero()


def test_too_deep_contraction_is_refused():
    sums = [[(DEEP, RatQ.one())]]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        with pytest.raises(ValueError, match="recursion limit"):
            Evaluator(4).contract((), sums, ())
    finally:
        sys.setrecursionlimit(old)
    assert Evaluator(4).contract((), sums, ()) == Evaluator(4).ev(DEEP)


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
    cap = build_cap(colors)
    cup = build_cup(colors)
    e = Evaluator(6)
    nonzero = 0
    for _ in range(60):
        u = _split_shuffle(rng, e, cup)
        c, nf = _normal(u)
        value = e.ev(cap + u)
        assert value == e.ev(cap + nf).scale(c)
        assert e.state(u) in ({}, {nf: XPoly.from_ratq(c)})
        # every suffix of a normal form is one
        for k in range(len(nf)):
            assert _normal(nf[k:]) == (RatQ.one(), nf[k:])
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


def _contracted(monkeypatch, strands, braid, colors):
    """The evaluators that ``invariant`` builds for a case, memos filled."""
    made = []

    class Recording(Evaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(invariants, "Evaluator", Recording)
    invariant(parse_braid(braid, strands), colors)
    return made


MEMO_CASES = {
    "fig8-e2": (3, "1 -2 1 -2", [2]),
    "trefoil-p21": (2, "1 1 1", [Partition((2, 1))]),
    "hopf-p32-h1": (2, "1 1", [Partition((3, 2)), Partition((1,))]),
    "t34-e1": (3, "1 2 1 2 1 2 1 2", [1]),
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_memo_keys_are_settled(monkeypatch, case):
    # every stored word has its F letters right of the rightmost E in
    # normal form, so words equal up to that form share one entry
    keys = [w for e in _contracted(monkeypatch, *MEMO_CASES[case])
            for w in e._memo]
    assert keys
    for w in keys:
        l = max((k for k, let in enumerate(w) if let.kind == "E"), default=-1)
        tail = w[l + 1:]
        assert _normal(tail) == (RatQ.one(), tail)


@pytest.mark.parametrize("case, most", [("fig8-e2", 1130),
                                        ("trefoil-p21", 10490)])
def test_memo_size(monkeypatch, case, most):
    # words stored once per settled form: 1 888 and 30 996 entries when
    # keyed on the raw letters
    made = _contracted(monkeypatch, *MEMO_CASES[case])
    assert sum(len(e._memo) for e in made) <= most


def test_index_validation():
    # index 0 and index == sides are off the ladder, in any letter of a
    # plain tuple, for ev and state alike
    for sides in (2, 4):
        for bad in (("E", 0, 1), ("F", sides, 1), ("E", sides, 0)):
            for w in (word(bad), word(("E", 1, 1), bad, ("F", 1, 1))):
                for e in (Evaluator(sides), Evaluator(sides, 3)):
                    for entry in (e.ev, e.state):
                        with pytest.raises(ValueError, match="index"):
                            entry(w)


@pytest.mark.parametrize("bad", [Letter("E", -2, 1), Letter("E", 0, 1),
                                 Letter("F", 7, 1)])
def test_contract_checks_every_pick(bad):
    # a crossing pick is checked as ev checks a word
    with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
        Evaluator(4).contract((), [[((bad,), RatQ.one())]], ())


def test_negative_pick_is_dropped():
    # a pick with a negative power is zero, whichever crossing it joins
    colors = (1, 1)
    cap, cup = build_cap(colors), build_cup(colors)
    sums = crossing_sums(parse_braid("1 1 1", 2), colors)
    extra = [picks + [(word(("F", 3, -1)), RatQ.one())] for picks in sums]
    value = Evaluator(4).contract(cap, sums, cup)
    assert not value.is_zero()
    assert Evaluator(4).contract(cap, extra, cup) == value


def test_state_belongs_to_the_caller():
    e = Evaluator(4)
    w = word(("E", 2, 1)) + build_cup((1, 1))
    first = e.state(w)
    kept = dict(first)
    assert kept
    first.clear()
    assert e.state(w) == kept


def test_kind_validation():
    # any other kind is refused, whatever its power, instead of read as F
    for bad in (("e", 1, 1), ("f", 1, 1), ("X", 1, 0), ("G", 1, -1)):
        for w in (word(bad, ("F", 1, 1)), word(("E", 1, 1), bad)):
            for e in (Evaluator(2), Evaluator(2, 3)):
                for entry in (e.ev, e.state):
                    with pytest.raises(ValueError, match="kind"):
                        entry(w)


def test_trace_emits_rewrite_steps():
    lines = []
    e = Evaluator(2, trace=lines.append)
    e.ev(word(("E", 1, 1), ("F", 1, 1)))
    assert any("swap" in ln for ln in lines)


FIG8_E2_WORD = word(("E", 3, 2), ("E", 2, 2), ("E", 4, 2), ("E", 1, 2),
                    ("E", 5, 2), ("E", 3, 2), ("E", 2, 2), ("F", 2, 2),
                    ("F", 1, 2), ("E", 4, 1), ("F", 5, 2), ("F", 4, 2),
                    ("F", 3, 2), ("F", 2, 2), ("F", 4, 1), ("F", 3, 2))


def test_swap_terms_merge_through_one_sum():
    # a figure-eight e2 word whose swaps send two terms to the empty word:
    # they are summed once, and every word with one term keeps it unsummed
    sizes = []

    class Counted(Evaluator):
        def _sum(self, values):
            sizes.append(len(values))
            return super()._sum(values)
    value = Counted(6).ev(FIG8_E2_WORD)
    assert sizes == [2]
    for n in (2, 3, 4, -2):
        assert Evaluator(6, n).ev(FIG8_E2_WORD) == value.subst_x_eq_qn(n)
