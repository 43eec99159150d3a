"""Ladder words for braid closures.

An m-strand colored braid closure is evaluated on a ladder with 2m sides at
the highest weight (n^m, 0^m), n symbolic.  This module emits the cup word
(all F letters), the cap word (its mirror in E letters), the per-crossing
data, and the terminating top-level multisum of ladder words whose summed
evaluation is the invariant.

Letters apply right to left: the rightmost letter of a word acts first on
the highest-weight idempotent.  E_i adds the root alpha_i = e_i - e_{i+1} to
the weight, F_i subtracts it; only the offsets move, the symbolic n part is
pinned to the first m slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, NamedTuple

from .braid import ColoredBraid
from .rings import LaurentQ, RatQ, XPoly


class Letter(NamedTuple):
    kind: str   # "E" or "F"
    index: int  # 1-based ladder index, in [1, sides-1]
    power: int  # divided power; negative means the zero element

    def dump(self) -> str:
        return f"{self.kind}{self.index}^({self.power})"


Word = tuple[Letter, ...]


@dataclass(frozen=True)
class LadderWord:
    sides: int
    letters: Word
    scalar: XPoly

    def dump(self) -> str:
        body = " ".join(let.dump() for let in self.letters) or "1"
        return f"{body} @ {self.scalar.text()}"


def weight_offsets(letters: Word, sides: int) -> list[int]:
    """Total weight of a word as offsets d_1..d_sides from (n^m, 0^m)."""
    d = [0] * sides
    for kind, i, p in letters:
        if kind == "E":
            d[i - 1] += p
            d[i] -= p
        else:
            d[i - 1] -= p
            d[i] += p
    return d


def build_cup(colors, m: int) -> LadderWord:
    """The cup word: F letters carrying the strand colors from the highest
    weight down to (n-b_m,...,n-b_1, b_1,...,b_m)."""
    colors = tuple(colors)
    if len(colors) != m:
        raise ValueError("need one color per strand")
    if any(b < 0 for b in colors):
        raise ValueError("strand colors must be nonnegative")
    letters: list[Letter] = []
    for k in range(1, m + 1):
        b = colors[k - 1]
        for i in range(k - 1, 0, -1):
            letters.append(Letter("F", m + i, b))
            letters.append(Letter("F", m - i, b))
        letters.append(Letter("F", m, b))
    return LadderWord(2 * m, tuple(letters), XPoly.one())


def build_cap(colors, m: int) -> LadderWord:
    """The cap word: the mirror of the cup (reversed order, F -> E)."""
    cup = build_cup(colors, m)
    letters = tuple(Letter("E", i, p) for _, i, p in reversed(cup.letters))
    return LadderWord(2 * m, letters, XPoly.one())


class CrossingTerm(NamedTuple):
    """One braid letter located on the ladder, with its local colors."""
    position: int      # 0-based index into the braid word (bottom to top)
    ladder_index: int  # m + |generator|
    color_left: int    # color on strand i when the crossing is applied
    color_right: int   # color on strand i+1
    eps: int           # crossing sign


def crossing_weights(cb: ColoredBraid) -> list[CrossingTerm]:
    """Per-crossing local color pairs, obtained by pushing the bottom labels
    through the crossings below each one.  The braid acts on the right m
    ladder strands only, so user generator i sits at ladder index m + i."""
    m = cb.braid.strands
    labels = list(cb.strand_colors)
    out: list[CrossingTerm] = []
    for j, g in enumerate(cb.braid.word):
        i = abs(g)
        out.append(CrossingTerm(j, m + i, labels[i - 1], labels[i],
                                1 if g > 0 else -1))
        labels[i - 1], labels[i] = labels[i], labels[i - 1]
    return out


def enumerate_terms(cb: ColoredBraid) -> Iterator[LadderWord]:
    """The terminating top-level sum.

    Yields one ladder word per tuple s = (s_1,...,s_t) in the box
    max(0, a_i - a_{i+1}) <= s_j <= max(colors): the cap, then per crossing
    (top to bottom) E^{(s_j + a_{i+1} - a_i)} F^{(s_j)} at the crossing's
    ladder index, then the cup.  The scalar carries
    (-1)^{a_i + a_i a_{i+1}} q^{eps_j a_i} (-q)^{-eps_j s_j} per crossing.
    Each crossing's factor (letters without zero powers, sign parity and
    q-exponent per s_j) is built once; a term joins one pick per crossing.
    Terms are yielded in lexicographic s order; summing scalar * ev over all
    of them gives the invariant of the blackboard-framed closure.
    """
    m = cb.braid.strands
    cap = tuple(l for l in build_cap(cb.strand_colors, m).letters if l.power)
    cup = tuple(l for l in build_cup(cb.strand_colors, m).letters if l.power)
    bound = max(cb.colors, default=0)
    factors = []
    for c in crossing_weights(cb):
        al, ar, i = c.color_left, c.color_right, c.ladder_index
        factors.append([
            (tuple(l for l in (Letter("E", i, s + ar - al), Letter("F", i, s))
                   if l.power),
             al + al * ar + s, c.eps * (al - s))
            for s in range(max(0, al - ar), bound + 1)])
    for pick in product(*factors):
        mid = tuple(l for letters, _, _ in reversed(pick) for l in letters)
        sign = -1 if sum(f[1] for f in pick) % 2 else 1
        qexp = sum(f[2] for f in pick)
        scalar = XPoly.from_ratq(RatQ(LaurentQ.mono(sign, qexp)))
        yield LadderWord(2 * m, cap + mid + cup, scalar)
