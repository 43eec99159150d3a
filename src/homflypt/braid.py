"""Braid words, closure combinatorics, colors and cabling.

A braid word is a sequence of signed generator indices: the value i stands
for the positive crossing of strands i, i+1 and -i for its inverse.  Words
are read bottom to top.  Closing the braid joins top position p to bottom
position p; components are the cycles of the underlying permutation and are
numbered by their smallest strand.
``Braid.crossings`` is the one place that moves per-strand labels through
a crossing; every walk over the crossings reads its labels from it, the
ladder's per-crossing colors included.  ``closure_info`` checks a count of
per-component values before it builds the linking matrix.
``cable`` replaces the strands of each component by blackboard parallels,
as many as that component's width, and returns the cabled braid with the
cabled component of each of its strands (``Cable``); strand colors are read
off that, so a cable serves every coloring of its parallels.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate


class BraidError(ValueError):
    pass


def is_int_token(text: str) -> bool:
    """An integer in ASCII digits with an optional minus sign; ``int`` alone
    would also take '+', '_', surrounding spaces and non-ASCII digits."""
    return re.fullmatch(r"-?[0-9]+", text) is not None


class Braid(namedtuple("Braid", "strands word")):
    """``strands`` and the ``word`` tuple of signed generators, checked."""
    __slots__ = ()

    def __new__(cls, strands: int, word: tuple[int, ...]):
        if strands < 1:
            raise BraidError("strand count must be positive")
        for g in word:
            if g == 0 or abs(g) >= strands:
                raise BraidError(f"generator {g} out of range for {strands} strands")
        return super().__new__(cls, strands, word)

    @classmethod
    def _make(cls, iterable):
        """Through the constructor's checks, and so is ``_replace``."""
        return cls(*iterable)

    def crossings(self, labels: list) -> Iterator[tuple[int, int, list]]:
        """Push per-strand labels up through the word: for each crossing,
        bottom to top, yield its left position i (0-based), its sign and
        ``labels``, the labels by position just below it.  The caller's list
        is swapped in place after each yield and ends with the top labels."""
        for g in self.word:
            i = abs(g) - 1
            yield i, (1 if g > 0 else -1), labels
            labels[i], labels[i + 1] = labels[i + 1], labels[i]

    def permutation(self) -> tuple[int, ...]:
        """perm[p] = top position reached by the strand entering bottom p (0-based)."""
        top = list(range(self.strands))
        for _ in self.crossings(top):
            pass
        # top[p] is the bottom position of the strand at top p: invert it
        return tuple(sorted(range(self.strands), key=top.__getitem__))

    def mirror(self) -> "Braid":
        return Braid(self.strands, tuple(-g for g in self.word))


def parse_braid(text: str, strands: int) -> Braid:
    """Parse a whitespace-separated word of signed generator indices."""
    word = []
    for tok in text.split():
        if not is_int_token(tok):
            raise BraidError(f"braid token {tok!r} is not an integer")
        g = int(tok)
        if g == 0:
            raise BraidError(f"braid token {tok!r}: generator index 0 is invalid")
        if abs(g) >= strands:
            raise BraidError(
                f"braid token {tok!r}: |index| must be < strand count {strands}")
        word.append(g)
    return Braid(strands, tuple(word))


class ClosureInfo(namedtuple("ClosureInfo",
                             "component_count component_of_strand linking")):
    """Components and the symmetric linking/framing matrix of the closure.

    linking[i][j] is the linking number of components i and j for i != j
    (half the signed crossing count), and linking[i][i] is the blackboard
    self-framing (the signed count of self-crossings).
    """
    __slots__ = ()


def closure_info(b: Braid, count: int | None = None, what: str = "") -> ClosureInfo:
    """The closure's ``ClosureInfo``.  Given ``count``, the number of
    ``what`` supplied one per component, it is checked before the matrix is
    built: first in O(1) against strands - len(word), a lower bound on the
    component count since each crossing joins or splits one cycle, then
    exactly."""
    low = b.strands - len(b.word)
    if count is not None and count < low:
        raise BraidError(f"{count} {what} given for "
                         f"{'at least ' if b.word else ''}{low} components")
    perm = b.permutation()
    comp_of = [-1] * b.strands
    ncomp = 0
    for s in range(b.strands):
        if comp_of[s] >= 0:
            continue
        t = s
        while comp_of[t] < 0:
            comp_of[t] = ncomp
            t = perm[t]
        ncomp += 1
    if count is not None and count != ncomp:
        raise BraidError(f"{count} {what} given for {ncomp} components")
    cross = [[0] * ncomp for _ in range(ncomp)]
    for i, eps, comps in b.crossings(list(comp_of)):
        cu, cv = comps[i], comps[i + 1]
        cross[cu][cv] += eps
        if cu != cv:
            cross[cv][cu] += eps
    assert all(c % 2 == 0 for i, row in enumerate(cross) for j, c in enumerate(row)
               if i != j), "odd crossing parity between closed components"
    link = tuple(tuple(c if i == j else c // 2 for j, c in enumerate(row))
                 for i, row in enumerate(cross))
    return ClosureInfo(ncomp, tuple(comp_of), link)


def _block_cross_positive(p: int, u: int, v: int) -> list[int]:
    # bundle of u strands at positions p..p+u-1 crosses over bundle of v
    # strands to its right; u*v positive generators, 1-based
    return [k for start in range(p + u - 1, p - 1, -1)
            for k in range(start, start + v)]


class Cable(namedtuple("Cable", "braid component_of_strand")):
    """A cabled ``braid`` and, per strand, the cabled component through it."""
    __slots__ = ()


def cable(braid: Braid, widths) -> Cable:
    """Replace every strand of component c by widths[c] blackboard parallels.

    Each crossing between bundles of widths u, v becomes the u*v crossings of
    the same sign realizing the block transposition; no twist corrections are
    inserted (planar closure arcs carry the blackboard framing exactly).
    Parallel k of component c is cabled component first[c] + k, with first
    the prefix sums of the widths: the closure's own smallest-strand
    numbering, so the cabled braid is not walked again.
    """
    widths = tuple(widths)
    info = closure_info(braid, len(widths), "widths")
    if any(w < 1 for w in widths):
        raise BraidError("cable widths must be positive integers")
    first = list(accumulate(widths, initial=0))
    width = [widths[c] for c in info.component_of_strand]
    word: list[int] = []
    for i, eps, w in braid.crossings(width):
        u, v = w[i], w[i + 1]
        p = 1 + sum(w[:i])
        if eps > 0:
            word.extend(_block_cross_positive(p, u, v))
        else:
            word.extend(-k for k in reversed(_block_cross_positive(p, v, u)))
    return Cable(Braid(sum(width), tuple(word)),
                 tuple(first[c] + k for c in info.component_of_strand
                       for k in range(widths[c])))


# the benchmark's tracer patches and counts the cabling under this name
cable_first_component = cable
