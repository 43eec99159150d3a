"""Braid words, closure combinatorics, colors and cabling.

A braid word is a sequence of signed generator indices: the value i stands
for the positive crossing of strands i, i+1 and -i for its inverse.  Words
are read bottom to top.  Closing the braid joins top position p to bottom
position p; components are the cycles of the underlying permutation and are
numbered by their smallest strand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class BraidError(ValueError):
    pass


@dataclass(frozen=True)
class Braid:
    strands: int
    word: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise BraidError("strand count must be positive")
        for g in self.word:
            if g == 0 or abs(g) >= self.strands:
                raise BraidError(f"generator {g} out of range for {self.strands} strands")

    def permutation(self) -> tuple[int, ...]:
        """perm[p] = top position reached by the strand entering bottom p (0-based)."""
        at_pos = list(range(self.strands))
        for g in self.word:
            i = abs(g) - 1
            at_pos[i], at_pos[i + 1] = at_pos[i + 1], at_pos[i]
        perm = [0] * self.strands
        for p, s in enumerate(at_pos):
            perm[s] = p
        return tuple(perm)

    def mirror(self) -> "Braid":
        return Braid(self.strands, tuple(-g for g in self.word))


def parse_braid(text: str, strands: int) -> Braid:
    """Parse a whitespace-separated word of signed generator indices."""
    word = []
    for tok in text.split():
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise BraidError(f"braid token {tok!r} is not an integer")
        g = int(tok)
        if g == 0:
            raise BraidError(f"braid token {tok!r}: generator index 0 is invalid")
        if abs(g) >= strands:
            raise BraidError(
                f"braid token {tok!r}: |index| must be < strand count {strands}")
        word.append(g)
    return Braid(strands, tuple(word))


@dataclass(frozen=True)
class ClosureInfo:
    """Components and the symmetric linking/framing matrix of the closure.

    linking[i][j] is the linking number of components i and j for i != j
    (half the signed crossing count), and linking[i][i] is the blackboard
    self-framing (the signed count of self-crossings).
    """
    component_count: int
    component_of_strand: tuple[int, ...]
    linking: tuple[tuple[int, ...], ...]


def closure_info(b: Braid) -> ClosureInfo:
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
    cross = [[0] * ncomp for _ in range(ncomp)]
    at_pos = list(range(b.strands))
    for g in b.word:
        i = abs(g) - 1
        eps = 1 if g > 0 else -1
        cu, cv = comp_of[at_pos[i]], comp_of[at_pos[i + 1]]
        cross[cu][cv] += eps
        if cu != cv:
            cross[cv][cu] += eps
        at_pos[i], at_pos[i + 1] = at_pos[i + 1], at_pos[i]
    link = [[0] * ncomp for _ in range(ncomp)]
    for i in range(ncomp):
        for j in range(ncomp):
            if i == j:
                link[i][i] = cross[i][i]
            else:
                assert cross[i][j] % 2 == 0, "odd crossing parity between closed components"
                link[i][j] = cross[i][j] // 2
    return ClosureInfo(ncomp, tuple(comp_of), tuple(tuple(r) for r in link))


@dataclass(frozen=True, init=False)
class ColoredBraid:
    """A braid with one nonnegative integer color per closure component."""
    braid: Braid
    colors: tuple[int, ...]
    closure: ClosureInfo = field(compare=False)

    def __init__(self, braid: Braid, colors):
        info = closure_info(braid)
        colors = tuple(colors)
        if len(colors) != info.component_count:
            raise BraidError(
                f"{len(colors)} colors given for {info.component_count} components")
        object.__setattr__(self, "braid", braid)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "closure", info)

    @property
    def strand_colors(self) -> tuple[int, ...]:
        return tuple(self.colors[c] for c in self.closure.component_of_strand)

    def json_obj(self) -> dict:
        return {
            "strands": self.braid.strands,
            "word": list(self.braid.word),
            "components": self.closure.component_count,
            "colors": list(self.colors),
            "linking": [list(r) for r in self.closure.linking],
        }


def _block_cross_positive(p: int, u: int, v: int) -> list[int]:
    # bundle of u strands at positions p..p+u-1 crosses over bundle of v
    # strands to its right; u*v positive generators, 1-based
    out = []
    for r in range(u):
        start = p + u - 1 - r
        out.extend(range(start, start + v))
    return out


def cable_first_component(cb: ColoredBraid, l: int, new_colors) -> ColoredBraid:
    """Replace every strand of component 1 by l blackboard-framed parallels.

    Each crossing between bundles of widths u, v becomes the u*v crossings of
    the same sign realizing the block transposition; no twist corrections are
    inserted (planar closure arcs carry the blackboard framing exactly).  The
    l parallel copies are new components 1..l, colored by new_colors left to
    right; the remaining components keep their colors.
    """
    if l <= 0:
        raise BraidError("cable width must be a positive integer")
    new_colors = tuple(new_colors)
    if len(new_colors) != l:
        raise BraidError(f"need {l} colors for the parallel copies, got {len(new_colors)}")
    comp_of = cb.closure.component_of_strand
    width = [l if comp_of[s] == 0 else 1 for s in range(cb.braid.strands)]
    at_pos = list(range(cb.braid.strands))
    word: list[int] = []
    for g in cb.braid.word:
        i = abs(g) - 1
        u, v = width[at_pos[i]], width[at_pos[i + 1]]
        p = 1 + sum(width[at_pos[k]] for k in range(i))
        if g > 0:
            word.extend(_block_cross_positive(p, u, v))
        else:
            word.extend(-k for k in reversed(_block_cross_positive(p, v, u)))
        at_pos[i], at_pos[i + 1] = at_pos[i + 1], at_pos[i]
    cabled = Braid(sum(width), tuple(word))
    colors = new_colors + cb.colors[1:]
    out = ColoredBraid(cabled, colors)
    assert out.closure.component_count == l + len(cb.colors) - 1
    return out
