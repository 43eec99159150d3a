"""Colored HOMFLYPT invariants of braid closures, plus closed-form references.

The engine computes the two-variable invariant of a blackboard-framed braid
closure with a partition color on each component (``homfly_partition``): a
Jacobi-Trudi sum over column colorings of one cable, each the cup, the
crossing sums and the cap of its strand colors contracted by one
``Evaluator`` (``Evaluator.contract``).
``invariant`` makes every engine choice: it takes the colors or their
transposes, whichever has the cable with fewer strands, frames (zero
framing removes each component's self-framing, ``adjust_framing``) and
undoes the transpose by q -> -q^{-1}.  ``homfly_columns`` is ``invariant``
with int colors.

``trefoil_reference`` and ``torus_reference`` are independent closed forms
used as oracles by the test suite: a terminating six-fold quantum-binomial
sum for the trefoil in column colors, and a one-dimensional sum for the
(2,s) torus links in row colors.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import permutations, product
from math import prod

from .braid import Braid, cable, closure_info
from .ladder import build_cap, build_cup, crossing_sums
from .pbw import Evaluator
from .qcomb import qbinom, qint, qint_inverse, xbinom
from .rings import LaurentQ, RatQ, XPoly, xpoly_sum


class Partition:
    """Weakly decreasing nonnegative integer parts, trailing zeros trimmed.
    Immutable; equal and hashed on ``parts``."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not all(isinstance(p, int) for p in parts):
            raise ValueError(f"partition parts must be integers, got {parts!r}")
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


def homfly_columns(braid: Braid, colors) -> XPoly:
    """The invariant of the blackboard-framed closure with component i
    colored by the one-column partition e_{colors[i]}: ``invariant`` of the
    braid and colors.  Any negative color gives 0."""
    return invariant(braid, colors)


def invariant(braid: Braid, colors, framing: str = "blackboard", *,
              trace: Callable[[str], None] | None = None) -> XPoly:
    """The invariant with component i colored by ``colors[i]``, an int a
    for the column e_a = (1^a) or a ``Partition``, in the blackboard or the
    zero framing.  ``trace`` logs each rewrite.  Any negative int gives 0.

    Transposing every color acts by q -> -q^{-1}, so ``homfly_partition``
    runs on the colors or their transposes, whichever cable has fewer
    strands (a tie keeps the colors).  The value is framed on that side
    (``adjust_framing``): zero framing removes each component's signed
    self-crossing count.  A transposed value then takes q -> -q^{-1}, once.
    """
    if framing not in ("blackboard", "zero"):
        raise ValueError(f"unknown framing {framing!r} (want 'blackboard' or 'zero')")
    colors = tuple(colors)
    info = closure_info(braid, len(colors), "colors")
    if not all(isinstance(c, (int, Partition)) for c in colors):
        raise TypeError(f"colors must be ints or Partitions, got {colors!r}")
    if any(isinstance(c, int) and c < 0 for c in colors):
        return XPoly.zero()
    mus = [c if isinstance(c, Partition) else Partition((1,) * c) for c in colors]
    # a strand of column color mu has max(mu_1, 1) parallels; (mu^t)_1 = l(mu)
    comp = info.component_of_strand
    flip = (sum(max(len(mus[c]), 1) for c in comp)
            < sum(max(mus[c].parts[:1] + (1,)) for c in comp))
    if flip:
        mus = [mu.transpose() for mu in mus]
    value = homfly_partition(braid, mus, trace=trace)
    if framing == "zero":
        for i, mu in enumerate(mus):
            value = adjust_framing(value, mu, -info.linking[i][i])
    return value.q_bar() if flip else value


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


def homfly_partition(braid: Braid, mus, *,
                     trace: Callable[[str], None] | None = None) -> XPoly:
    """The blackboard-framed invariant with component i colored by the
    partition ``mus[i]``, by s_mu = det(e_{mu^t_k - k + l}) on every
    component: component i becomes max(mu_1, 1) parallels in one cable, one
    permutation sigma_i of them per component colors parallel k by
    mu^t_k + sigma_i(k) - k, and the values of these column colorings,
    signed by the product of the sign(sigma_i), are summed once.  Each value
    is the cup, crossing sums and cap of the coloring's strand colors,
    contracted by the one ``Evaluator`` of the cable
    (``Evaluator.contract``).  Negative colors contribute nothing."""
    cols = [mu.transpose().parts or (0,) for mu in mus]
    widths = [len(c) for c in cols]
    cab = cable(braid, widths)
    ev = Evaluator(2 * cab.braid.strands, trace=trace)
    terms = []
    for sigmas in product(*(permutations(range(w)) for w in widths)):
        colors = [c[k] + sigma[k] - k for c, sigma in zip(cols, sigmas)
                  for k in range(len(c))]
        if any(c < 0 for c in colors):
            continue
        sc = [colors[j] for j in cab.component_of_strand]
        term = ev.contract(build_cap(sc), crossing_sums(cab.braid, sc),
                           build_cup(sc))
        terms.append(term if prod(map(_perm_sign, sigmas)) > 0 else -term)
    return terms[0] if len(terms) == 1 else xpoly_sum(terms)


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
                * (qint(2 * m - 2 * k + 1) * qint_inverse(2 * m - k + 1)))
        total = total + (xbinom(k - 2, k)
                         * xbinom(2 * m - k - 1, 2 * m - k)).scale(coef)
    if zero_framed:
        total = total * XPoly.x_power(-s * m)
    return total

