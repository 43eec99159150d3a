"""Quantum integers, factorials and binomials, and the x-shifted binomial.

These are the scalar factors of every formula in the engine, so all four
families are memoized by argument tuple; the contract is only that repeated
calls return structurally identical values.  The x-shifted binomial is
built from its closed form, with no product and no cancellation.
"""

from __future__ import annotations

from functools import lru_cache

from .rings import (LaurentQ, RatQ, XPoly, cyclotomic_fraction,
                    laurent_divexact)


@lru_cache(maxsize=None)
def qint(r: int) -> RatQ:
    """[r] = (q^r - q^{-r})/(q - q^{-1}), for any integer r; [-r] = -[r]."""
    if r == 0:
        return RatQ.zero()
    if r < 0:
        return -qint(-r)
    # [r] = q^{r-1} + q^{r-3} + ... + q^{1-r}
    return RatQ(LaurentQ({e: 1 for e in range(1 - r, r, 2)}))


def qint_inverse(r: int) -> RatQ:
    """1/[r] for r >= 1, with its exponent vector: [r] = q^(1-r) (q^(2r) - 1)
    / (q^2 - 1), so 1/[r] = q^(r-1) / prod_{d | 2r, d > 2} Phi_d."""
    return cyclotomic_fraction(LaurentQ.mono(1, r - 1), (
        (d, 1) for d in range(3, 2 * r + 1) if 2 * r % d == 0))


@lru_cache(maxsize=None)
def qfactorial(r: int) -> RatQ:
    """[r]! = [1][2]...[r]; defined for r >= 0."""
    if r < 0:
        raise ValueError("quantum factorial needs r >= 0")
    if r == 0:
        return RatQ.one()
    return qfactorial(r - 1) * qint(r)


@lru_cache(maxsize=None)
def qbinom(r: int, s: int) -> RatQ:
    """Quantum binomial, defined for every integer r (including negative):
    0 for s < 0, otherwise ([r][r-1]...[r-s+1]) / [s]!."""
    if s < 0:
        return RatQ.zero()
    num = RatQ.one()
    for k in range(r - s + 1, r + 1):
        num = num * qint(k)
        if num.is_zero():
            return num
    # a Gaussian binomial lies in Z[q^±1]: the division is exact, and
    # raises if it is not
    return RatQ(laurent_divexact(num.num, qfactorial(s).num))


@lru_cache(maxsize=None)
def xbinom(s: int, l: int) -> XPoly:
    """The x-shifted binomial: 0 for l < 0, otherwise

        prod_{j=1}^{l} (x q^{s-j+1} - x^{-1} q^{-s+j-1}) / (q^j - q^{-j}),

    whose specialization at x = q^n is qbinom(n + s, l) for every integer n.
    Its coefficient of x^(l-2k) is the closed form

        (-1)^k q^(l + k(k-1) + (l-2k)s) / (P_k P_{l-k}),
        P_k = prod_{j=1}^{k} (q^(2j) - 1),

    a monomial over a monic denominator with constant term (-1)^l, so
    canonical as it stands.  As q^(2j) - 1 = prod_{d | 2j} Phi_d, Phi_d
    divides P_k floor(k/d) times for odd d and floor(2k/d) for even d."""
    if l < 0:
        return XPoly.zero()
    out = {}
    for k in range(l + 1):
        out[l - 2 * k] = cyclotomic_fraction(
            LaurentQ.mono(-1 if k % 2 else 1, l + k * (k - 1) + (l - 2 * k) * s),
            ((d, (2 - d % 2) * k // d + (2 - d % 2) * (l - k) // d)
             for d in range(1, 2 * max(k, l - k) + 1)))
    return XPoly(out)
