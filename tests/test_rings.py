import pickle
import random
from copy import deepcopy
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from homflypt import (LaurentQ, RatQ, XPoly, laurent_gcd, qint, xpoly_divexact,
                      xpoly_gcd)
from homflypt import rings
from homflypt.qcomb import xbinom
from homflypt.rings import (_KRONECKER_MIN_TERMS, _UNKNOWN, _cancel,
                            _cancel_by, _cyclo_exponents, _cyclo_product,
                            _kronecker_mul, _list_content, _list_gcd, _phi,
                            _phi_multiplicity, cyclotomic_fraction,
                            laurent_divexact, lift_fractions, xpoly_sum)

ONE = XPoly.one()
ZERO = XPoly.zero()


def rand_laurent(rng, span=4, coeff=9):
    return LaurentQ({e: rng.randint(-coeff, coeff)
                     for e in range(-span, span + 1) if rng.random() < 0.5})


def rand_ratq(rng):
    den = LaurentQ.zero()
    while den.is_zero():
        den = rand_laurent(rng, span=2, coeff=4)
    return RatQ(rand_laurent(rng), den)


def rand_xpoly(rng, span=3):
    return XPoly({e: rand_ratq(rng) for e in range(-span, span + 1)
                  if rng.random() < 0.5})


def test_additive_identity():
    rng = random.Random(1)
    for _ in range(10):
        p = rand_xpoly(rng)
        assert ZERO + p == p
        assert p + ZERO == p


def test_multiplicative_identity():
    rng = random.Random(2)
    for _ in range(10):
        p = rand_xpoly(rng)
        assert ONE * p == p


def test_difference_of_squares():
    x, xi = XPoly.x_power(1), XPoly.x_power(-1)
    assert (x - xi) * (x + xi) == XPoly.x_power(2) - XPoly.x_power(-2)


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(15):
        a, b, c = (rand_xpoly(rng, span=2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_subst_x_examples():
    p = XPoly.x_power(1) - XPoly.x_power(-1)
    assert p.subst_x_eq_qn(2) == RatQ(LaurentQ({2: 1, -2: -1}))
    assert ONE.subst_x_eq_qn(7) == RatQ.one()
    unknot = xpoly_divexact(p, XPoly.from_ratq(RatQ(LaurentQ({1: 1, -1: -1}))))
    assert unknot.subst_x_eq_qn(2) == qint(2)


def test_subst_x_is_homomorphism():
    rng = random.Random(4)
    for _ in range(10):
        p, r = rand_xpoly(rng, span=2), rand_xpoly(rng, span=2)
        n = rng.randint(-3, 5)
        assert (p * r).subst_x_eq_qn(n) == p.subst_x_eq_qn(n) * r.subst_x_eq_qn(n)
        assert (p + r).subst_x_eq_qn(n) == p.subst_x_eq_qn(n) + r.subst_x_eq_qn(n)


def test_q_bar_examples():
    two = XPoly.from_ratq(qint(2))
    assert two.q_bar() == -two
    assert ONE.q_bar() == ONE


def test_q_bar_involution():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_xpoly(rng)
        assert p.q_bar().q_bar() == p


def test_integral_laurent():
    # canonical form leaves an integral value over the denominator 1
    r = RatQ(LaurentQ({2: 1, -2: -1}), LaurentQ({1: 1, -1: -1}))
    assert r.den.is_one() and r.num == LaurentQ({1: 1, -1: 1})
    assert not RatQ(LaurentQ.one(), LaurentQ({1: 1, -1: -1})).den.is_one()
    assert RatQ.zero().den.is_one() and RatQ.zero().num == LaurentQ.zero()


def test_canonical_form_uniqueness():
    # a/b + c/d must canonicalize identically to the cross-multiplied form
    rng = random.Random(6)
    for _ in range(25):
        a, c = rand_laurent(rng), rand_laurent(rng)
        b = d = LaurentQ.zero()
        while b.is_zero():
            b = rand_laurent(rng, span=2)
        while d.is_zero():
            d = rand_laurent(rng, span=2)
        assert RatQ(a, b) + RatQ(c, d) == RatQ(a * d + c * b, b * d)


def test_canonical_denominator_shape():
    rng = random.Random(7)
    for _ in range(25):
        r = rand_ratq(rng)
        if r.is_zero():
            assert r.den.is_one()
            continue
        assert r.den.min_exp == 0
        assert r.den.leading_coeff() > 0


def test_half_is_not_integral():
    assert not RatQ(LaurentQ.one(), LaurentQ.from_int(2)).den.is_one()


def test_divexact_roundtrip():
    rng = random.Random(8)
    for _ in range(10):
        a = rand_xpoly(rng, span=2)
        b = ZERO
        while b.is_zero():
            b = rand_xpoly(rng, span=2)
        assert xpoly_divexact(a * b, b) == a
    with pytest.raises(ValueError):
        xpoly_divexact(ONE + XPoly.x_power(1),
                       XPoly.x_power(1) - XPoly.x_power(-1))
    # a multiple of a non-monomial plus a nonzero remainder of smaller span
    x = XPoly.x_power(1)
    for _ in range(10):
        a = rand_xpoly(rng, span=2)
        b = ZERO
        while len(b.c) < 2:
            b = rand_xpoly(rng, span=2)
        r = XPoly.mono(rand_ratq(rng), rng.randint(-3, 3))
        if r.is_zero():
            r = x
        with pytest.raises(ValueError, match="inexact XPoly division"):
            xpoly_divexact(a * b + r, b)
    with pytest.raises(ValueError, match="inexact XPoly division"):
        xpoly_divexact(x * x + ONE, x + ONE)


def test_laurent_gcd_is_over_the_integers():
    def dense(p):
        return p._dense()[1] if not p.is_zero() else []
    rng = random.Random(9)
    for _ in range(200):
        g = rand_laurent(rng, span=2) * LaurentQ.from_int(rng.choice((1, 2, 6)))
        a, b = (g * rand_laurent(rng, span=2) if rng.random() < 0.8
                else LaurentQ.zero() for _ in range(2))
        da, db = dense(a), dense(b)
        c = gcd(_list_content(da), _list_content(db))
        expected = LaurentQ({i: c * v for i, v in enumerate(_list_gcd(da, db))})
        assert laurent_gcd(a, b) == laurent_gcd(b, a) == expected


def test_xpoly_gcd():
    x = XPoly.x_power(1)
    a = (x + ONE) * (x - ONE)
    b = (x + ONE) * (x + ONE)
    g = xpoly_gcd(a, b)
    assert xpoly_divexact(a, g) is not None
    assert g == x + ONE


def test_text_rendering_is_canonical():
    v = RatQ(LaurentQ({2: 1, -2: -1}), LaurentQ({1: 1, -1: -1}))
    assert v.text() == "q + q^-1"
    p = XPoly({1: v, 0: -RatQ.one()})
    assert p.text() == "(q + q^-1) * x^1 + -1"
    assert ZERO.text() == "0"


def test_json_rendering():
    p = XPoly({1: qint(2), -2: -RatQ.one()})
    obj = p.json_obj()
    assert list(obj) == ["1", "-2"]
    assert obj["1"] == {"num": [[1, "1"], [-1, "1"]], "den": [[0, "1"]]}


# -- gcd-free arithmetic over cyclotomic denominators (against the gcd
# canonicalization of RatQ.__init__) and Kronecker products (against the
# schoolbook loop)

def _poly(cs, low=0):
    return LaurentQ({low + i: c for i, c in enumerate(cs)})


def _schoolbook(a, b):
    out = {}
    for ea, va in a.c.items():
        for eb, vb in b.c.items():
            out[ea + eb] = out.get(ea + eb, 0) + va * vb
    return LaurentQ(out)


def _product(factors):
    out = LaurentQ.one()
    for f in factors:
        out = out * f
    return out


laurents = st.dictionaries(st.integers(-8, 8), st.integers(-50, 50),
                           max_size=10).map(LaurentQ)
# a product of Phi_k (k <= 12) and q^(2j) - 1 (j <= 4)
cyclotomic_dens = st.lists(
    st.one_of(st.integers(1, 12).map(lambda k: _poly(_phi(k))),
              st.integers(1, 4).map(lambda j: LaurentQ({2 * j: 1, 0: -1}))),
    max_size=4).map(_product)


# equal non-unit denominators: x + x, x + (-x), two numerators over one
# denominator whose sum cancels Phi_2, and a zero operand
@settings(max_examples=150, deadline=None)
@given(laurents, cyclotomic_dens, laurents, cyclotomic_dens)
@example(_poly([1]), _poly([-1, 0, 1]), _poly([1]), _poly([-1, 0, 1]))
@example(_poly([1]), _poly([-1, 0, 1]), _poly([-1]), _poly([-1, 0, 1]))
@example(_poly([1]), _poly([-1, 0, 1]), _poly([0, 1]), _poly([-1, 0, 1]))
@example(LaurentQ.zero(), _poly([-1, 0, 1]), _poly([2, 1]), _poly([-1, 0, 1]))
def test_cyclotomic_fast_paths_match_gcd_canonical(a, b, c, d):
    x, y = RatQ(a, b), RatQ(c, d)
    assert _cyclo_exponents(x.den) is not None
    assert _cyclo_exponents(y.den) is not None
    assert x + y == RatQ(x.num * y.den + y.num * x.den, x.den * y.den)
    assert x - y == RatQ(x.num * y.den - y.num * x.den, x.den * y.den)
    assert x * y == RatQ(x.num * y.num, x.den * y.den)


# products of Phi_k, and denominators that are not: q^2 + 3, 2q - 1 and
# 2q^2 + 6, whose content can cancel against a numerator's
mixed_dens = st.one_of(cyclotomic_dens, st.sampled_from(
    [LaurentQ({2: 1, 0: 3}), LaurentQ({1: 2, 0: -1}), LaurentQ({2: 2, 0: 6})]))


@settings(max_examples=150, deadline=None)
@given(laurents, mixed_dens, laurents, mixed_dens)
def test_inverse_and_substitutions_match_gcd_canonical(a, b, c, d):
    x, y = RatQ(a, b), RatQ(c, d)
    assert x.q_bar() == RatQ(x.num.q_bar(), x.den.q_bar())
    assert x.q_inv() == RatQ(x.num.q_inv(), x.den.q_inv())
    if y.is_zero():
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert y.inverse() == RatQ(y.den, y.num)
        assert x / y == RatQ(x.num * y.den, x.den * y.num)


@st.composite
def _term_lists(draw, dens):
    """0 to 8 values, the last up to 3 drawn from the first ones: a repeat
    (shared denominators), a negation (cancels to zero) or w - v for a w on
    the powers of x of v (the lcm of the denominators is more than the sum
    needs)."""
    coeffs = st.builds(RatQ, laurents, dens)
    vs = draw(st.lists(st.dictionaries(st.integers(-1, 1), coeffs, max_size=3)
                       .map(XPoly), max_size=5))
    for v in draw(st.lists(st.sampled_from(vs), max_size=3)) if vs else ():
        w = XPoly({e: draw(coeffs) for e in v.c})
        vs.append(draw(st.sampled_from([v, -v, w - v])))
    return draw(st.permutations(vs))


def _gcd_canonical_sum(pairs):
    """sum n_i / d_i as RatQ(sum n_i prod_{j != i} d_j, prod d_j): one gcd
    canonicalization, no cyclotomic arithmetic."""
    total = LaurentQ.zero()
    for i, (num, _) in enumerate(pairs):
        total = total + _product([num] + [d for j, (_, d) in enumerate(pairs)
                                          if j != i])
    return RatQ(total, _product(d for _, d in pairs))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_term_lists(cyclotomic_dens), _term_lists(mixed_dens)))
def test_xpoly_sum_matches_gcd_canonical(vs):
    got = xpoly_sum(iter(vs))
    for e in {e for v in vs for e in v.c} | set(got.c):
        assert got.coeff(e) == _gcd_canonical_sum(
            [(v.c[e].num, v.c[e].den) for v in vs if e in v.c])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), st.builds(RatQ, laurents, mixed_dens),
                       max_size=4).map(XPoly), st.integers(-3, 3))
def test_subst_x_matches_gcd_canonical(p, n):
    assert p.subst_x_eq_qn(n) == _gcd_canonical_sum(
        [(r.num * LaurentQ.mono(1, n * e), r.den) for e, r in p.c.items()])


def test_xpoly_sum_cancels_once_over_the_lcm(monkeypatch):
    # 1/(q^2 - 1) + 1/(q^4 - 1) + q^2/(q^4 - 1): lcm Phi_1 Phi_2 Phi_4, and
    # the total 2/(q^2 - 1) cancels Phi_4
    a = RatQ(LaurentQ.one(), _poly([-1, 0, 1]))
    b = RatQ(LaurentQ.one(), _poly([-1, 0, 0, 0, 1]))
    c = RatQ(LaurentQ.mono(1, 2), _poly([-1, 0, 0, 0, 1]))
    seen = []
    cancel = rings._cancel

    def spy(p, vec):
        seen.append(dict(vec))
        return cancel(p, vec)
    monkeypatch.setattr(rings, "_cancel", spy)
    total = xpoly_sum(XPoly.mono(r, 1) for r in (a, b, c))
    assert total == XPoly.mono(RatQ(LaurentQ.from_int(2), _poly([-1, 0, 1])), 1)
    assert seen == [{1: 1, 2: 1, 4: 1}]
    assert xpoly_sum([]) == XPoly.zero()
    assert xpoly_sum([XPoly.mono(a, 0), XPoly.mono(-a, 0)]) == XPoly.zero()


coefficient_maps = st.dictionaries(
    st.integers(-30, 30),
    st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200)),
    min_size=1, max_size=3 * _KRONECKER_MIN_TERMS).map(LaurentQ)


@settings(max_examples=200, deadline=None)
@given(coefficient_maps, coefficient_maps)
def test_kronecker_matches_schoolbook(a, b):
    assert a * b == _schoolbook(a, b)
    if len(a.c) >= 2 and len(b.c) >= 2:
        small, big = sorted((a.c, b.c), key=len)
        assert _kronecker_mul(small, big) == _schoolbook(a, b).c


def test_kronecker_both_sides_of_threshold():
    rng = random.Random(9)
    for n in (2, _KRONECKER_MIN_TERMS - 1, _KRONECKER_MIN_TERMS,
              3 * _KRONECKER_MIN_TERMS):
        for stride in (1, 2, 3):
            for bits in (1, 7, 8, 63, 64, 65, 300):
                a = LaurentQ({stride * i - 17: rng.randint(-2 ** bits, 2 ** bits)
                              for i in range(n)})
                b = LaurentQ({stride * i + 5: rng.randint(-2 ** bits, 2 ** bits)
                              for i in range(n + 3)})
                assert a * b == _schoolbook(a, b)
                assert b * a == _schoolbook(a, b)


def test_kronecker_byte_path_matches_array_path(monkeypatch):
    # big-endian hosts pack every slot width byte by byte
    rng = random.Random(11)
    pairs = [(LaurentQ({i: rng.randint(-2 ** bits, 2 ** bits)
                        for i in range(_KRONECKER_MIN_TERMS + 2)}),
              LaurentQ({2 * i - 9: rng.randint(-2 ** bits, 2 ** bits)
                        for i in range(_KRONECKER_MIN_TERMS)}))
             for bits in (1, 7, 8, 15, 16, 31, 32, 63)]
    monkeypatch.setattr(rings, "_SLOT_FORMAT", {})
    for a, b in pairs:
        assert a * b == _schoolbook(a, b)


def test_cyclotomic_products_of_divisors():
    for k in range(1, 41):
        prod = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                prod = (_poly(prod) * _poly(_phi(d)))._dense()[1]
        assert prod == [-1] + [0] * (k - 1) + [1]


def test_factorizer_finds_exponents():
    den = LaurentQ({2: 1, 0: -1}) * LaurentQ({4: 1, 0: -1}) * LaurentQ({6: 1, 0: -1})
    assert _cyclo_exponents(den) == ((1, 3), (2, 3), (3, 1), (4, 1), (6, 1))


def test_cyclotomic_product_of_a_large_exponent():
    # one Phi_k per cached step below the chain bound; a larger exponent is
    # multiplied out without recursing once per factor
    phi1 = _poly(_phi(1))
    power = {1: phi1}
    for e in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        power[e] = power[e // 2] * power[e // 2]
    assert _cyclo_product(((1, 1100),)) == power[1024] * power[64] * power[8] \
        * power[4]
    assert _cyclo_product(((1, 3), (2, 2), (5, 1))) == _product(
        [phi1] * 3 + [_poly(_phi(2))] * 2 + [_poly(_phi(5))])


def test_phi_multiplicity_of_sparse_laurent_maps():
    # folding modulo q^k - 1 reads the terms, not the 10^6-long span
    tail = LaurentQ({0: 1, 10 ** 6: 1})     # 1 + q^(2^6 5^6)
    p = (LaurentQ({-3: 1}) * _poly(_phi(1)) * _poly(_phi(1)) * _poly(_phi(3))
         * tail)
    assert [_phi_multiplicity(p.c, k, 5) for k in (1, 2, 3)] == [2, 0, 1]
    assert _phi_multiplicity(p.c, 1, 1) == 1
    # Phi_k | 1 + q^(10^6) exactly when 2^7 | k and k | 2 * 10^6
    assert [_phi_multiplicity(tail.c, k, 3) for k in (64, 128, 640)] == [0, 1, 1]
    assert _phi_multiplicity(LaurentQ({-2: 5}).c, 1, 3) == 0


def test_cancel_memo_hit_matches_a_fresh_call():
    # (q - 1)^2 Phi_3 (q^2 + 3) over Phi_1 Phi_2 Phi_3^2: Phi_1 and Phi_3
    # cancel once each
    phi1, phi3 = _poly(_phi(1)), _poly(_phi(3))
    rest = _poly([3, 0, 1])
    vec = {3: 2, 1: 1, 2: 1}
    _cancel_by.cache_clear()
    fresh = dict(vec)
    q = _cancel(phi1 * phi1 * phi3 * rest, fresh)
    assert _cancel_by.cache_info().hits == 0
    hit = dict(vec)
    assert _cancel(phi1 * phi1 * phi3 * rest, hit) == q == phi1 * rest
    assert _cancel_by.cache_info().hits == 1
    assert hit == fresh == {3: 1, 1: 0, 2: 1}
    # a numerator that nothing divides comes back as the caller's object
    for _ in range(2):
        p = phi3 * rest
        assert _cancel(p, {2: 1}) is p
    for cache in (_cancel_by, _cyclo_product):
        assert 0 < cache.cache_info().maxsize < 10 ** 5


def test_lift_returns_the_common_vector():
    # the common denominator comes back with its exponent vector, and no
    # denominator is kept anywhere in the module
    den = _poly(_phi(1))
    top = den * _poly(_phi(7)) * _poly(_phi(9))
    cofactor = _poly(_phi(7)) * _poly(_phi(9))
    vec = ((1, 1), (7, 1), (9, 1))
    one = LaurentQ.one()
    low, mid = RatQ(one, den), RatQ(one, cofactor)
    nums, common, got = lift_fractions([(one, low),
                                        (one, cyclotomic_fraction(one, vec))])
    assert nums == [cofactor, one] and common == top and got == vec
    nums, common, got = lift_fractions([(one, low), (one, mid)])
    assert nums == [cofactor, den] and common == top and got == vec
    assert (low + mid)._vec == vec
    assert not hasattr(rings, "_FACTORS")
    assert not [name for name, v in vars(rings).items() if isinstance(v, dict)
                and any(isinstance(key, LaurentQ) for key in v)]


def test_unknown_vector_survives_pickle_and_copy():
    # a value not yet searched keeps its marker through pickle and deepcopy,
    # and the copy is searched, multiplied and added as the original is
    q = LaurentQ({1: 1})
    other = RatQ(q, _poly(_phi(2)))
    for r, vec in ((RatQ(q, LaurentQ({2: 1, 0: 3})), None),
                   (RatQ(q, _poly(_phi(1)) * _poly(_phi(3))), ((1, 1), (3, 1))),
                   (RatQ(LaurentQ({0: 2}), _poly(_phi(1))).inverse(), None)):
        copies = [pickle.loads(pickle.dumps(r)), deepcopy(r)]
        for c in copies:
            assert c._vec is _UNKNOWN
            assert c * other == r * other and c + other == r + other
            assert c * c == r * r and c.den_vector() == vec


def test_laurent_divexact():
    rng = random.Random(12)
    for _ in range(50):
        a, b = rand_laurent(rng), rand_laurent(rng)
        if b.is_zero():
            continue
        assert laurent_divexact(a * b, b) == a
    with pytest.raises(ValueError):
        laurent_divexact(LaurentQ({2: 1, 0: 1}), LaurentQ({1: 1, 0: -1}))
    with pytest.raises(ValueError):
        laurent_divexact(LaurentQ({0: 3}), LaurentQ({0: 2}))


def test_non_cyclotomic_denominator_takes_gcd_path():
    den = LaurentQ({2: 1, 0: 3})             # q^2 + 3: fails the cheap checks
    assert _cyclo_exponents(den) is None
    palin = LaurentQ({2: 1, 1: 3, 0: 1})     # q^2 + 3q + 1: searched, no match
    assert _cyclo_exponents(palin) is None
    x = RatQ(LaurentQ({3: 2, 0: 1}), den)
    y = RatQ(LaurentQ({1: 1}), LaurentQ({2: 1, 0: -1}))
    assert x._vec is _UNKNOWN                # not searched until needed
    assert x * y == RatQ(x.num * y.num, x.den * y.den)
    assert x._vec is None                    # one search, kept on the value
    assert y._vec == ((1, 1), (2, 1))
    assert x + y == RatQ(x.num * y.den + y.num * x.den, x.den * y.den)
    assert (x * y).den == LaurentQ({4: 1, 2: 2, 0: -3})


def test_sparse_operands_skip_the_packing(monkeypatch):
    # 11 terms spanning 10^6 powers of q: packing would fill ~2 * 10^6
    # slots for 121 term pairs
    def no_pack(cs, w):
        raise AssertionError("packed a sparse product")
    sparse = LaurentQ({**{i: 1 for i in range(10)}, 10 ** 6: 1})
    dense = LaurentQ({i: 1 for i in range(_KRONECKER_MIN_TERMS)})
    monkeypatch.setattr(rings, "_pack", no_pack)
    assert sparse * sparse == _schoolbook(sparse, sparse)
    assert sparse * dense == _schoolbook(sparse, dense)
    with pytest.raises(AssertionError, match="packed"):
        dense * dense


# -- XPoly products over Z[q^±1] (one packed LaurentQ product, against the
# per-term loop over RatQ)

def _per_term(a, b):
    out = {}
    for ea, va in a.c.items():
        for eb, vb in b.c.items():
            out[ea + eb] = out.get(ea + eb, RatQ.zero()) + va * vb
    return XPoly(out)


# coefficients on both sides of the 8-byte slot: a product coefficient of
# 11 to 30 terms of magnitude 2^29..2^31 needs 62 to 67 bits
slot_edge = st.sampled_from([2 ** 29, -(2 ** 30), 2 ** 31 - 1, -(2 ** 31)])
integral_xpolys = st.dictionaries(
    st.integers(-4, 4),
    st.dictionaries(st.integers(-12, 12),
                    st.one_of(st.integers(-9, 9), slot_edge), max_size=8)
    .map(lambda c: RatQ(LaurentQ(c))),
    max_size=6).map(XPoly)


@settings(max_examples=200, deadline=None)
@given(integral_xpolys, integral_xpolys)
@example(XPoly.zero(), XPoly.x_power(-3))
@example(XPoly.mono(RatQ(LaurentQ({e: 2 ** 31 - 1 for e in range(-5, 8)})), -2),
         XPoly({e: RatQ(LaurentQ({e - k: -(2 ** 31) for k in range(12)}))
                for e in (-1, 3)}))
def test_integral_xpoly_product_matches_per_term_loop(a, b):
    assert a * b == _per_term(a, b)
    assert b * a == _per_term(a, b)


def test_integral_xpoly_product_is_one_laurent_product(monkeypatch):
    rng = random.Random(12)
    a = XPoly({e: RatQ(LaurentQ({k: rng.randint(-9, 9) or 1
                                 for k in range(-3 * e, 8)}))
               for e in (-2, 0, 1)})
    b = XPoly({e: RatQ(LaurentQ({k: rng.randint(-9, 9) or 1
                                 for k in range(e, e + 6)}))
               for e in (-1, 4)})
    calls = []
    mul = LaurentQ.__mul__

    def counted(x, y):
        calls.append((len(x.c), len(y.c)))
        return mul(x, y)
    monkeypatch.setattr(LaurentQ, "__mul__", counted)
    product = a * b
    assert calls == [(sum(len(r.num.c) for r in a.c.values()),
                      sum(len(r.num.c) for r in b.c.values()))]
    assert product == _per_term(a, b)
    # a denominator anywhere takes the per-term loop
    c = XPoly({**b.c, 2: RatQ(LaurentQ.one(), LaurentQ({2: 1, 0: -1}))})
    calls.clear()
    assert a * c == _per_term(a, c)
    assert len(calls) > 1


def _strided(rng, xs, k0):
    # an integral XPoly on the x-exponents xs with at least
    # _KRONECKER_MIN_TERMS q-terms, so its products are packed
    n = -(-_KRONECKER_MIN_TERMS // len(xs))
    return XPoly({e: RatQ(LaurentQ({k0 + 3 * i + e: rng.randint(-9, 9) or 1
                                    for i in range(n)})) for e in xs})


def test_integral_xpoly_product_packs_at_the_common_x_stride(monkeypatch):
    # x-strides 2 and 3, strides 2 and 3 together (gcd 1), and one operand
    # a single power of x; every operand has at least 11 q-terms
    rng = random.Random(13)
    cases = [((-4, -2, 0, 2), (1, 3, 5), 2), ((-3, 0, 3, 6), (3, 9, 12), 3),
             ((0, 2, 4, 6), (-3, 0, 3), 1), ((-5, -1, 3), (7,), 4),
             ((2,), (-6, 0, 6), 6)]
    spans = []
    mul = LaurentQ.__mul__

    def spy(x, y):
        spans.append((max(x.c) - min(x.c), max(y.c) - min(y.c)))
        return mul(x, y)
    for xa, xb, g in cases:
        a, b = _strided(rng, xa, -5), _strided(rng, xb, 2)
        qa = [k for r in a.c.values() for k in r.num.c]
        qb = [k for r in b.c.values() for k in r.num.c]
        alo, ahi, blo, bhi = min(qa), max(qa), min(qb), max(qb)
        s = ahi - alo + bhi - blo + 1
        spans.clear()
        monkeypatch.setattr(LaurentQ, "__mul__", spy)
        product = a * b
        monkeypatch.undo()
        # one packed product, x^g = q^s, so x offsets come in steps of s
        assert spans == [((max(xa) - min(xa)) // g * s + ahi - alo,
                          (max(xb) - min(xb)) // g * s + bhi - blo)]
        assert product == _per_term(a, b)
        assert b * a == product


# -- the exponent vector each RatQ carries (against a fresh search)

def _carries_its_vector(r):
    return r._vec == _cyclo_exponents(r.den)


def test_q_bar_maps_phi_k_to_phi_at_minus_q():
    # q_bar sends the vector ((k, 1),) to ((sigma(k), 1),), and
    # Phi_k(-q) = +-Phi_sigma(k)(q); sigma is an involution
    sigma = {}
    for k in range(1, 61):
        r = RatQ(LaurentQ.one(), _poly(_phi(k)))
        assert r.den_vector() == ((k, 1),)
        ((sigma[k], e),) = r.q_bar()._vec
        assert e == 1
        at_minus = [-c if i % 2 else c for i, c in enumerate(_phi(k))]
        assert at_minus in ([*_phi(sigma[k])], [-c for c in _phi(sigma[k])])
    assert all(sigma[sigma[k]] == k for k in sigma if sigma[k] in sigma)


@settings(max_examples=150, deadline=None)
@given(laurents, cyclotomic_dens, laurents, cyclotomic_dens, laurents,
       mixed_dens, st.integers(-3, 3), st.integers(-1, 5))
def test_results_carry_their_exponent_vector(a, b, c, d, m, e, n, l):
    x, y, z = RatQ(a, b), RatQ(c, d), RatQ(m, e)
    # the gcd constructor leaves the vector to the first use
    for r in (x, y, z):
        assert r._vec is _UNKNOWN or r.den.is_one()
        if r.den_vector() is None:
            assert r._vec is None
        assert _carries_its_vector(r)
    p = XPoly({1: x, -1: y, 0: x * y})
    made = [x * y, x + y, x - y, -x, x.q_bar(), x.q_inv(), y.q_bar(),
            p.subst_x_eq_qn(n), *xpoly_sum([p, p.q_bar(), -p]).c.values(),
            *(p * p).c.values(), *xbinom(n, l).c.values(),
            -z, z.q_bar(), z.q_inv()]
    for r in made:
        assert _carries_its_vector(r)
    # a non-cyclotomic operand takes the gcd path, which leaves the vector
    # unknown until its first use
    for r in (x * z, x + z, z * z, *([] if z.is_zero() else [z.inverse()])):
        assert r._vec is _UNKNOWN or _carries_its_vector(r)
        r.den_vector()
        assert _carries_its_vector(r)
