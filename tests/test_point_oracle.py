"""A point oracle mod p: the engine's own rewriting, run over F_P at
(q, x) = (A, B), against the generic value evaluated at the same point.

The point evaluator is a test subclass of ``Evaluator``: it sets the value
ring and the unit, and replaces the sum and the swap coefficient.  Its
x-shifted binomial is the product formula at (A, B), and only its plain
q-binomials (``qbinom`` at q = A) come from the exact rings; every value is
computed mod P.  A mismatch is a proven bug; a match is evidence only.
"""

import pytest

from homflypt import (Evaluator, build_cap, build_cup, cable, closure_info,
                      crossing_sums, homfly_columns, parse_braid, qbinom)

P = 2 ** 61 - 1
A, B = 3, 5


def laurent_at(f, z):
    return sum(c * pow(z, e, P) for e, c in f.c.items()) % P


def ratq_at(r):
    """A Q(q) value at q = A; its denominator must not vanish there."""
    den = laurent_at(r.den, A)
    assert den, "denominator vanishes at q = A"
    return laurent_at(r.num, A) * pow(den, -1, P) % P


def xpoly_at(v):
    return sum(ratq_at(c) * pow(B, e, P) for e, c in v.c.items()) % P


class Fp:
    """An element of F_P; a Q(q) scalar acts through its value at q = A."""
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    @staticmethod
    def one() -> "Fp":
        return Fp(1)

    @staticmethod
    def zero() -> "Fp":
        return Fp(0)

    def __add__(self, other: "Fp") -> "Fp":
        return Fp(self.v + other.v)

    def __mul__(self, other: "Fp") -> "Fp":
        return Fp(self.v * other.v)

    def is_zero(self) -> bool:
        return self.v == 0

    def scale(self, r) -> "Fp":
        return Fp(self.v * ratq_at(r))


class PointEvaluator(Evaluator):
    """``Evaluator`` with values in F_P at (q, x) = (A, B)."""

    def __init__(self, sides: int):
        super().__init__(sides)
        self.ring = Fp
        self._unit = {(): Fp.one()}

    def _sum(self, values):
        return sum(values, Fp.zero())

    def _coeff(self, r, lin, t):
        if r != self.m:
            return Fp(ratq_at(qbinom(lin, t)))
        # prod_{j=1}^{t} (x q^(lin-j+1) - x^-1 q^(j-lin-1)) / (q^j - q^-j)
        out = 1
        for j in range(1, t + 1):
            num = B * pow(A, lin - j + 1, P) - pow(B, -1, P) * pow(A, j - lin - 1, P)
            den = pow(A, j, P) - pow(A, -j, P)
            out = out * num * pow(den, -1, P) % P
        return Fp(out)


TREFOIL, FIG8 = parse_braid("1 1 1", 2), parse_braid("1 -2 1 -2", 3)
CASES = [
    *((TREFOIL, (a,)) for a in range(1, 5)),
    *((FIG8, (a,)) for a in (1, 2)),
    (parse_braid("1 1", 2), (1, 3)),
    (parse_braid("1 1 1 1", 2), (2, 2)),
    (parse_braid("1 2 1 2 1 2 1 2", 3), (1,)),
    (parse_braid("1 1 1 2 -1 2", 3), (2,)),
    # the two cables that the trefoil colored by p(1,1) evaluates
    *((cable(TREFOIL, (2,)).braid, colors) for colors in ((1, 1), (2, 0))),
]


@pytest.mark.parametrize("braid, colors", CASES,
                         ids=[f"{' '.join(map(str, b.word))}:{c}" for b, c in CASES])
def test_point_evaluator_matches_generic_value(braid, colors, trefoil_cols):
    sc = [colors[c] for c in closure_info(braid).component_of_strand]
    point = PointEvaluator(2 * braid.strands).contract(
        build_cap(sc), crossing_sums(braid, sc), build_cup(sc))
    generic = (trefoil_cols[colors[0]] if braid == TREFOIL
               else homfly_columns(braid, colors))
    assert type(point) is Fp
    assert point.v == xpoly_at(generic)
