"""Ladder words for braid closures.

An m-strand colored braid closure is evaluated on a ladder with 2m sides at
the highest weight (n^m, 0^m), n symbolic.  A word is a tuple of letters
(``Word``); X^(0) letters, the identity, are never emitted.  This module
emits the cup word (all F letters) and the cap word (its mirror in E
letters) of the strand colors, and each crossing's terminating sum of
letters at its ladder index, read straight from ``Braid.crossings``.  All
three read the same strand colors, one per strand of the braid; the
crossing sums refuse colors that change along a closure component.  The
engine contracts these sums crossing by crossing (``crossing_sums``);
``enumerate_terms`` expands their product into (scalar, word) pairs, the
test suite's oracle.

Letters apply right to left: the rightmost letter of a word acts first on
the highest-weight idempotent.  E_i adds the root alpha_i = e_i - e_{i+1} to
the weight, F_i subtracts it; only the offsets move, the symbolic n part is
pinned to the first m slots.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import product
from math import prod

from .braid import Braid
from .rings import LaurentQ, RatQ


class Letter(namedtuple("Letter", "kind index power")):
    """``kind`` "E" or "F", the 1-based ladder ``index`` in [1, sides-1]
    and the divided ``power``; a negative power means the zero element."""
    __slots__ = ()

    def dump(self) -> str:
        return f"{self.kind}{self.index}^({self.power})"


Word = tuple[Letter, ...]


def build_cup(colors) -> Word:
    """The cup word of the strand colors b_1..b_m: F letters carrying them
    from the highest weight down to (n-b_m,...,n-b_1, b_1,...,b_m); a color
    0 emits none."""
    colors = tuple(colors)
    if any(b < 0 for b in colors):
        raise ValueError("strand colors must be nonnegative")
    m = len(colors)
    letters: list[Letter] = []
    for k in range(1, m + 1):
        b = colors[k - 1]
        if not b:
            continue
        for i in range(k - 1, 0, -1):
            letters.append(Letter("F", m + i, b))
            letters.append(Letter("F", m - i, b))
        letters.append(Letter("F", m, b))
    return tuple(letters)


def build_cap(colors) -> Word:
    """The cap word: the mirror of the cup (reversed order, F -> E)."""
    return tuple(Letter("E", i, p) for _, i, p in reversed(build_cup(colors)))


def _crossing_sums(braid: Braid, strand_colors,
                   top: int | None) -> list[list[tuple[Word, RatQ]]]:
    """Per crossing of ``Braid.crossings``, bottom to top, with (a_l, a_r)
    the colors on its strands i, i+1 just below it: the pairs of
    E^{(s + a_r - a_l)} F^{(s)} at ladder index m + i + 1 (the braid acts on
    the right m ladder strands only; zero powers dropped) and the scalar
    (-1)^{a_l + a_l a_r + s} q^{eps (a_l - s)}, for
    max(0, a_l - a_r) <= s <= ``top``, or <= a_l when ``top`` is None.
    Strand colors that are not one per strand, or that the closure does not
    carry from the top back to the same bottom, are refused with
    ``ValueError``."""
    m, colors = braid.strands, list(strand_colors)
    if len(colors) != m:
        raise ValueError(f"{len(colors)} strand colors given for {m} strands")
    sums, top_colors = [], list(colors)
    for i, eps, c in braid.crossings(top_colors):
        al, ar, x = c[i], c[i + 1], m + i + 1
        hi = al if top is None else top
        sums.append([(tuple(l for l in (Letter("E", x, s + ar - al), Letter("F", x, s))
                            if l.power),
                      RatQ(LaurentQ.mono(-1 if (al + al * ar + s) % 2 else 1,
                                         eps * (al - s))))
                     for s in range(max(0, al - ar), hi + 1)])
    if top_colors != colors:
        raise ValueError(f"strand colors {tuple(colors)} differ on a closure "
                         f"component: the top carries {tuple(top_colors)}")
    return sums


def crossing_sums(braid: Braid, strand_colors) -> list[list[tuple[Word, RatQ]]]:
    """Per crossing, bottom to top, the sum over s_j of
    (-1)^{a_l + a_l a_r + s_j} q^{eps_j (a_l - s_j)}
    E^{(s_j + a_r - a_l)} F^{(s_j)} as (letters, scalar) pairs, with s_j in
    the tight box max(0, a_l - a_r) <= s_j <= a_l: above a_l, F^{(s_j)}
    lowers the slot of the crossing's left strand below zero.  Applied
    between the cup and the cap of the same strand colors, their product is
    the invariant of the blackboard-framed closure."""
    return _crossing_sums(braid, strand_colors, None)


def enumerate_terms(braid: Braid, strand_colors) -> Iterator[tuple[RatQ, Word]]:
    """The product of the crossing sums as (scalar, word) pairs, over the
    wide box max(0, a_l - a_r) <= s_j <= max(colors); the test suite's
    oracle for ``Evaluator.contract`` and for the tight box of
    ``crossing_sums``.

    Yields one pair per tuple s = (s_1,...,s_t).  The word is the cap, then
    per crossing (top to bottom) E^{(s_j + a_r - a_l)} F^{(s_j)} at the
    crossing's ladder index, then the cup.  The scalar is the product of
    (-1)^{a_l + a_l a_r} q^{eps_j a_l} (-q)^{-eps_j s_j} over the crossings.
    Pairs are yielded in lexicographic s order; summing scalar * ev(word)
    over all of them gives the invariant of the blackboard-framed closure.
    """
    cap = build_cap(strand_colors)
    cup = build_cup(strand_colors)
    factors = _crossing_sums(braid, strand_colors, max(strand_colors, default=0))
    for pick in product(*factors):
        mid = tuple(l for letters, _ in reversed(pick) for l in letters)
        yield prod((c for _, c in pick), start=RatQ.one()), cap + mid + cup
