"""Colored HOMFLYPT invariants of braid closures, plus closed-form references.

The engine computes the two-variable invariant of a blackboard-framed braid
closure with column colors natively (``homfly_columns``), and a partition
color as a Jacobi-Trudi sum of column colors on a cable (``homfly_partition``).
``invariant`` makes every engine choice: it picks a partition's cable,
builds the ``Evaluator``, frames (zero framing removes each component's
self-framing, ``adjust_framing``) and transposes rows by q -> -q^{-1}.

``trefoil_reference`` and ``torus_reference`` are independent closed forms
used as oracles by the test suite: a terminating six-fold quantum-binomial
sum for the trefoil in column colors, and a one-dimensional sum for the
(2,s) torus links in row colors.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import permutations

from .braid import ColoredBraid, cable_first_component
from .ladder import build_cap, build_cup, crossing_sums
from .pbw import Evaluator
from .qcomb import qbinom, qint, xbinom
from .rings import LaurentQ, RatQ, XPoly, xpoly_sum


class Partition:
    """Weakly decreasing nonnegative parts, trailing zeros trimmed.
    Immutable; equal and hashed on ``parts``."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Partition is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Partition is immutable")

    def __eq__(self, other):
        if type(other) is not Partition:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition(parts={self.parts!r})"

    def __len__(self) -> int:
        return len(self.parts)

    def transpose(self) -> "Partition":
        return Partition(sum(1 for p in self.parts if p > j)
                         for j in range(max(self.parts, default=0)))


def homfly_columns(cb: ColoredBraid, *,
                   evaluator: Evaluator | None = None) -> XPoly:
    """The invariant of the blackboard-framed closure with component i
    colored by the one-column partition e_{a_i}: the cup, each crossing's
    sum of letters (``crossing_sums``) and the cap, contracted crossing by
    crossing from the bottom (``Evaluator.contract``).

    Any negative color gives 0.
    """
    if any(a < 0 for a in cb.colors):
        return XPoly.zero()
    m = cb.braid.strands
    ev = evaluator or Evaluator(2 * m)
    return ev.contract(build_cap(cb.strand_colors, m), crossing_sums(cb),
                       build_cup(cb.strand_colors, m))


def invariant(cb: ColoredBraid, family: str = "e",
              framing: str = "blackboard", *,
              partition: Partition | None = None,
              trace: Callable[[str], None] | None = None) -> XPoly:
    """The invariant with every component i colored by e_{a_i}
    (``family="e"``) or h_{a_i} (``family="h"``), in the blackboard or the
    zero framing.  With ``partition`` lambda the first component's column
    color is lambda (``family="e"``) or its transpose (``family="h"``); if
    every other color is 0, the narrower cable's family (same value) is taken:
    ``e`` if lambda_1 < l(lambda), else ``h``.  ``trace`` logs each rewrite.

    The column value is framed first (``adjust_framing``): zero framing
    removes each component's self-framing, its signed self-crossing count.
    Row colors then take the framed value under q -> -q^{-1}, once, since
    transposing every color acts by that involution and (h_a)^t = e_a.
    Any negative integer color gives 0.
    """
    if family not in ("e", "h"):
        raise ValueError(f"unknown color family {family!r} (want 'e' or 'h')")
    if framing not in ("blackboard", "zero"):
        raise ValueError(f"unknown framing {framing!r} (want 'blackboard' or 'zero')")
    colors = cb.colors
    if partition is not None:
        colors = colors[1:]
        if not any(colors):
            family = "e" if len(partition.transpose()) < len(partition) else "h"
    if any(a < 0 for a in colors):
        return XPoly.zero()
    if partition is None:
        ev = Evaluator(2 * cb.braid.strands, trace=trace)
        value = homfly_columns(cb, evaluator=ev)
    else:
        colors = (partition if family == "e" else partition.transpose(),) + colors
        value = homfly_partition(cb, colors[0], trace=trace)
    if framing == "zero":
        for i, color in enumerate(colors):
            value = adjust_framing(value, color, -cb.closure.linking[i][i])
    return value.q_bar() if family == "h" else value


def adjust_framing(value: XPoly, color: int | Partition,
                   delta_framing: int) -> XPoly:
    """Change the framing of one component of column color lambda (a
    ``Partition``, or an int a for e_a = (1^a)) by delta units: multiply by
    q^(delta sum_i lambda_i (lambda_i + 1 - 2i)) x^(delta |lambda|), which is
    q^(2 delta kappa(lambda)) for the content sum kappa, and q^(delta (a - a^2))
    for e_a.  ``adjust_framing(XPoly.one(), a, 1)`` is the unit factor for
    e_a: the closure of sigma_1 over the flat unknot.  A row value v is
    framed through its column value: ``adjust_framing(v.q_bar(), a, d).q_bar()``."""
    if not isinstance(color, Partition):
        if color < 0:
            raise ValueError("framing factor needs a nonnegative color")
        color = Partition((1,) * color)
    e = sum(p * (p + 1 - 2 * i) for i, p in enumerate(color.parts, 1))
    return value * XPoly.mono(RatQ.q_power(delta_framing * e),
                              delta_framing * sum(color.parts))


def _perm_sign(perm: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def homfly_partition(cb: ColoredBraid, mu: Partition, *,
                     trace: Callable[[str], None] | None = None) -> XPoly:
    """The blackboard-framed invariant with the first component colored by
    ``mu`` and the others by e_{a_i}, by s_mu = det(e_{mu^t_i - i + j}): the
    first component becomes mu_1 parallels, and the signed ``homfly_columns``
    values with colors mu^t_i + sigma(i) - i, sigma in Sym_{mu_1}, are summed
    in one ``xpoly_sum``.  Negative colors contribute nothing."""
    cols = mu.transpose().parts or (0,)
    ell = len(cols)
    ev = None  # every cable has the same strand count, so one memo serves all
    terms = []
    for sigma in permutations(range(ell)):
        colors = tuple(cols[i] + sigma[i] - i for i in range(ell))
        if any(c < 0 for c in colors):
            continue
        cab = cable_first_component(cb, ell, colors)
        ev = ev or Evaluator(2 * cab.braid.strands, trace=trace)
        term = homfly_columns(cab, evaluator=ev)
        terms.append(term if _perm_sign(sigma) > 0 else -term)
    return xpoly_sum(terms)


# ---------------------------------------------------------------------------
# closed-form references
# ---------------------------------------------------------------------------

def trefoil_reference(a: int) -> XPoly:
    """The right-hand trefoil (closure of sigma_1^3, blackboard framing)
    colored by the column e_a, as a terminating six-fold sum of quantum
    binomials; support is forced by the Heaviside cutoffs and binomial
    vanishing.  Exercised against the engine by the acceptance suite."""
    if a < 0:
        return XPoly.zero()
    total = XPoly.zero()
    for s1 in range(a + 1):
        for s2 in range(a + 1):
            for s3 in range(a + 1):
                for s4 in range(0, a + s1 + s2 + 1):
                    b1 = qbinom(s2 + s1, s4) * qbinom(s1 + s2 - s4, s1)
                    if b1.is_zero():
                        continue
                    for s5 in range(0, a + s2 + s3 + 1):
                        b2 = b1 * qbinom(s2 + s3, s5) * qbinom(s2 + s3 - s5, s3)
                        if b2.is_zero():
                            continue
                        hi = s1 + s2 + s3 - s4 - s5
                        for s6 in range(max(0, hi - a), hi + 1):
                            tau = hi - s6
                            b3 = (b2 * qbinom(tau + s2 + s6, s6)
                                  * qbinom(tau, s1 + s2 - s4)
                                  * qbinom(tau, s2 + s3 - s5)
                                  * qbinom(a, a - tau))
                            if b3.is_zero():
                                continue
                            sgn = -1 if (s1 + s2 + s3) % 2 else 1
                            coef = b3 * RatQ(LaurentQ.mono(sgn, -(s1 + s2 + s3)))
                            total = total + xbinom(-tau, a).scale(coef)
    return (xbinom(0, a) * total).scale(RatQ.q_power(3 * a))


def torus_reference(s: int, m: int, *, zero_framed: bool = False) -> XPoly:
    """The (2,s) torus link colored by the row h_m: a single sum over the
    R-matrix eigenvalue decomposition of the square of the symmetric power.

    With ``zero_framed`` the s units of blackboard self-framing are removed
    (per-unit row factor q^(m^2 - m) x^m), which requires odd s (a knot).
    """
    if m < 0:
        raise ValueError("color must be nonnegative")
    if zero_framed and (s < 1 or s % 2 == 0):
        raise ValueError("zero framing applies to the knot case: odd s >= 1")
    total = XPoly.zero()
    for k in range(m + 1):
        sgn = -1 if (s * k) % 2 else 1
        if zero_framed:
            e = s * (m - 2 * m * k + k * k - k)
        else:
            e = s * (m * m - 2 * m * k + k * k - k)
        coef = (RatQ(LaurentQ.mono(sgn, e))
                * (qint(2 * m - 2 * k + 1) / qint(2 * m - k + 1)))
        total = total + (xbinom(k - 2, k)
                         * xbinom(2 * m - k - 1, 2 * m - k)).scale(coef)
    if zero_framed:
        total = total * XPoly.x_power(-s * m)
    return total

