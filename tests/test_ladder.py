from itertools import product

import pytest

from homflypt import (Evaluator, Letter, build_cap, build_cup, crossing_sums,
                      enumerate_terms, parse_braid)
from homflypt.rings import LaurentQ, RatQ


def letters(word):
    return [l.dump() for l in word]


def weight_offsets(word, sides):
    """Total weight of a word as offsets d_1..d_sides from (n^m, 0^m)."""
    d = [0] * sides
    for kind, i, p in word:
        if kind == "E":
            d[i - 1] += p
            d[i] -= p
        else:
            d[i - 1] -= p
            d[i] += p
    return d


def test_cup_m1():
    assert letters(build_cup((4,))) == ["F1^(4)"]


def test_cup_m2_matches_worked_order():
    got = letters(build_cup((3, 3)))
    assert got == ["F2^(3)", "F3^(3)", "F1^(3)", "F2^(3)"]


def test_cup_offsets():
    cup = build_cup((2, 2))
    assert weight_offsets(cup, 4) == [-2, -2, 2, 2]


def test_cup_offsets_reversed_left_labels():
    # left sides hold n - b_i in reversed order, right sides hold b in order
    cup = build_cup((1, 2, 3))
    assert weight_offsets(cup, 6) == [-3, -2, -1, 1, 2, 3]


def test_cap_m1():
    assert letters(build_cap((4,))) == ["E1^(4)"]


def test_cap_m2_matches_worked_order():
    assert letters(build_cap((3, 3))) == ["E2^(3)", "E1^(3)", "E3^(3)", "E2^(3)"]


def test_cap_cup_weight_closure():
    for colors in ((2,), (1, 3), (2, 2, 1)):
        cap = build_cap(colors)
        cup = build_cup(colors)
        assert weight_offsets(cap + cup, 2 * len(colors)) == [0] * (2 * len(colors))


def _dump_sums(braid, sc):
    return [[(letters(word), scalar.text()) for word, scalar in terms]
            for terms in crossing_sums(braid, sc)]


def test_crossing_sums_trefoil():
    # a_l = a_r = 5 at every crossing, ladder index m + 1 = 3: s = 0..5 of
    # E3^(s) F3^(s) with (-1)^(30 + s) q^(eps (5 - s)); the mirror flips eps
    for word, eps in (("1 1 1", 1), ("-1 -1 -1", -1)):
        expected = [([f"E3^({s})", f"F3^({s})"] if s else [],
                     RatQ(LaurentQ.mono(-1 if s % 2 else 1, eps * (5 - s))).text())
                    for s in range(6)]
        assert _dump_sums(parse_braid(word, 2), (5, 5)) == [expected] * 3


def test_crossing_sums_single():
    # a_l = a_r = 1: s = 0 gives the empty word
    assert _dump_sums(parse_braid("1", 2), (1, 1)) \
        == [[([], "q"), (["E3^(1)", "F3^(1)"], "-1")]]


def test_crossing_sums_distinct_colors_permute():
    # (a_l, a_r) = (1, 2) below the first crossing: s from 0, E^(s + 1);
    # the crossing swaps the colors, so (2, 1) below the second: s from 1,
    # E^(s - 1).  Generator 2 of three strands sits at ladder index 5.
    assert _dump_sums(parse_braid("1 1", 2), (1, 2)) == [
        [(["E3^(1)"], "-q"), (["E3^(2)", "F3^(1)"], "1")],
        [(["F3^(1)"], "-q"), (["E3^(1)", "F3^(2)"], "1")]]
    assert _dump_sums(parse_braid("-2 -2", 3), (3, 1, 2)) == [
        [(["E5^(1)"], "-q^-1"), (["E5^(2)", "F5^(1)"], "1")],
        [(["F5^(1)"], "-q^-1"), (["E5^(1)", "F5^(2)"], "1")]]


def test_enumerate_counts_trefoil():
    for a in range(0, 4):
        assert sum(1 for _ in enumerate_terms(parse_braid("1 1 1", 2), (a, a))) \
            == (a + 1) ** 3


def test_enumerate_all_colors_zero():
    assert list(enumerate_terms(parse_braid("1 -2 1", 3), (0, 0, 0))) \
        == [(RatQ.one(), ())]


def test_enumerate_unknot():
    ((scalar, term),) = enumerate_terms(parse_braid("", 1), (3,))
    assert letters(term) == ["E1^(3)", "F1^(3)"]


def test_enumerated_words_close_up():
    for _, term in enumerate_terms(parse_braid("1 -1 1", 2), (2, 2)):
        assert weight_offsets(term, 4) == [0, 0, 0, 0]


def _parity_sign(k):
    return -1 if k % 2 else 1


def _crossings(braid, sc):
    """(ladder index m + i + 1, a_l, a_r, eps) per crossing, bottom to top,
    read from ``Braid.crossings``."""
    m = braid.strands
    return [(m + i + 1, c[i], c[i + 1], eps)
            for i, eps, c in braid.crossings(list(sc))]


def _crossing_word(braid, sc, s):
    """The (scalar, word) pair of enumerate_terms for the tuple s, built by
    hand from its docstring: the cap, E^{(s_j + a_r - a_l)} F^{(s_j)} per
    crossing from top to bottom, the cup, and the scalar
    prod_j (-1)^{a_l + a_l a_r} q^{eps_j a_l} (-q)^{-eps_j s_j}."""
    picked = list(zip(_crossings(braid, sc), s))
    mid = []
    for (x, al, ar, _), sj in reversed(picked):
        mid += [Letter("E", x, sj + ar - al), Letter("F", x, sj)]
    scalar = LaurentQ.one()
    for (_, al, ar, eps), sj in picked:
        scalar = (scalar * LaurentQ.mono(_parity_sign(al + al * ar), eps * al)
                  * LaurentQ.mono(_parity_sign(eps * sj), -eps * sj))
    letters = build_cap(sc) + tuple(mid) + build_cup(sc)
    return RatQ(scalar), tuple(l for l in letters if l.power != 0)


def test_terms_match_hand_built_words():
    # unequal colors (Hopf, colors 1 and 3) and both crossing signs
    # (figure-eight): every term of the box, in lexicographic s order
    for word, strands, sc in (("1 1", 2, (1, 3)), ("1 -2 1 -2", 3, (2, 2, 2))):
        braid = parse_braid(word, strands)
        box = list(product(*(range(max(0, al - ar), max(sc) + 1)
                             for _, al, ar, _ in _crossings(braid, sc))))
        terms = list(enumerate_terms(braid, sc))
        assert len(terms) == len(box)
        for s, term in zip(box, terms):
            assert term == _crossing_word(braid, sc, s), s


def test_box_bound_is_sound():
    # pushing one summation variable past the box only adds vanishing terms
    for a in (1, 2):
        word = _crossing_word(parse_braid("1 1 1", 2), (a, a), (a + 1, 0, 0))[1]
        assert Evaluator(4).ev(word).is_zero()
    # unequal colors: every s_j above the color on the crossing's left strand
    # gives a vanishing word (F^{(s_j)} lowers that strand's slot below zero)
    hopf = parse_braid("1 1", 2)
    ev = Evaluator(4)
    for s in product(range(5), range(2, 5)):
        if s[0] > 1 or s[1] > 3:
            assert ev.ev(_crossing_word(hopf, (1, 3), s)[1]).is_zero(), s


def test_dump_format():
    ((scalar, term),) = enumerate_terms(parse_braid("", 1), (2,))
    assert (scalar.text(), " ".join(l.dump() for l in term)) \
        == ("1", "E1^(2) F1^(2)")


def test_strand_colors_must_close_up():
    # the trefoil closes strand 0 onto strand 1, so its two strands carry
    # one color; the Hopf link's two strands are two components
    trefoil, hopf = parse_braid("1 1 1", 2), parse_braid("1 1", 2)
    for build in (crossing_sums, lambda b, sc: list(enumerate_terms(b, sc))):
        for sc in ((1, 2), (1,), (1, 1, 1)):
            with pytest.raises(ValueError, match="strand colors"):
                build(trefoil, sc)
        assert build(hopf, (1, 2)) and build(trefoil, (2, 2))
