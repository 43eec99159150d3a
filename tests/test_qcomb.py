import pytest

from homflypt import LaurentQ, RatQ, XPoly, qbinom, qfactorial, qint, xbinom
from homflypt.qcomb import qint_inverse
from homflypt.rings import _cyclo_product


def test_qint_values():
    assert qint(0).is_zero()
    assert qint(2) == RatQ(LaurentQ({1: 1, -1: 1}))
    assert qint(-1) == RatQ.from_int(-1)
    for r in range(-5, 6):
        assert qint(-r) == -qint(r)


def test_qint_inverse_matches_division():
    # the closed form against the gcd canonicalization of 1 / [b]
    for b in range(1, 41):
        r = qint_inverse(b)
        assert r == RatQ.one() / qint(b)
        assert _cyclo_product(r._vec) == r.den


def test_qbinom_values():
    for r in (-3, 0, 4):
        assert qbinom(r, -1).is_zero()
        assert qbinom(r, 0).is_one()
    assert qbinom(4, 2) == RatQ(LaurentQ({4: 1, 2: 1, 0: 2, -2: 1, -4: 1}))
    assert qbinom(7, 0).is_one()


def test_qbinom_product_identity():
    # qbinom(r,s) * [s]! equals the falling product of quantum integers
    for r in range(-6, 7):
        for s in range(0, 7):
            prod = RatQ.one()
            for k in range(r - s + 1, r + 1):
                prod = prod * qint(k)
            assert qbinom(r, s) * qfactorial(s) == prod


def test_qbinom_is_an_exact_laurent_quotient():
    # the falling product over [s]! by RatQ division, against the exact
    # division in Z[q^±1]: equal, integral, and with the empty vector
    for r in range(-9, 10):
        for s in range(-1, 9):
            b = qbinom(r, s)
            prod = RatQ.one()
            for k in range(r - s + 1, r + 1):
                prod = prod * qint(k)
            assert b == (prod / qfactorial(s) if s >= 0 else RatQ.zero())
            assert b.den.is_one() and b._vec == ()


def test_xbinom_values():
    assert xbinom(5, -2).is_zero()
    d = RatQ(LaurentQ({1: 1, -1: -1}))
    got = xbinom(0, 1)
    assert got.coeff(1) == RatQ.one() / d
    assert got.coeff(-1) == -(RatQ.one() / d)
    assert xbinom(0, 1).subst_x_eq_qn(3) == qbinom(3, 1)


def test_xbinom_specialization_law():
    # holds for every integer n, negative included
    for s in range(-4, 5):
        for l in range(0, 5):
            for n in range(-3, 6):
                assert xbinom(s, l).subst_x_eq_qn(n) == qbinom(n + s, l)


def test_gaussian_binomials_are_positive_laurent():
    for r in range(0, 9):
        for s in range(0, r + 1):
            b = qbinom(r, s)
            assert b.den.is_one()
            assert all(c > 0 for c in b.num.c.values())


def _xbinom_product(s, l):
    """The definition of the x-shifted binomial: the product over j of
    (x q^(s-j+1) - x^-1 q^(-s+j-1)) / (q^j - q^-j)."""
    if l < 0:
        return XPoly.zero()
    out = XPoly.one()
    for j in range(1, l + 1):
        d = RatQ(LaurentQ({j: 1, -j: -1}))
        out = out * XPoly({1: RatQ.q_power(s - j + 1) / d,
                           -1: -(RatQ.q_power(-s + j - 1) / d)})
    return out


def test_xbinom_closed_form_matches_the_product():
    for s in range(-9, 10):
        for l in range(-1, 9):
            assert xbinom(s, l) == _xbinom_product(s, l)
            assert xbinom(s, l) is xbinom(s, l)


def test_memoization_returns_identical_values():
    assert qbinom(6, 3) is qbinom(6, 3)
    assert xbinom(1, 2) is xbinom(1, 2)


def test_qfactorial_negative_raises():
    with pytest.raises(ValueError):
        qfactorial(-1)
