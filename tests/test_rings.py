import pickle
import random
from collections import Counter
from contextlib import contextmanager
from copy import deepcopy
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from homflypt import (LaurentQ, RatQ, XPoly, laurent_gcd, qint, xpoly_divexact,
                      xpoly_gcd)
from homflypt import rings
from homflypt.qcomb import xbinom
from homflypt.rings import (_KRONECKER_MIN_TERMS, _cancel, _cancel_by,
                            _cyclo_product, _list_content, _list_gcd,
                            _packed_mul, _phi, _phi_multiplicity,
                            cyclotomic_fraction, laurent_divexact,
                            lift_fractions, xpoly_sum)

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
    # and with the empty exponent vector, however the input denominator
    # factors; so does the inverse of +-q^k
    r = RatQ(LaurentQ({2: 1, -2: -1}), LaurentQ({1: 1, -1: -1}))
    assert r.den.is_one() and r.num == LaurentQ({1: 1, -1: 1})
    assert r._vec == ()
    assert RatQ(LaurentQ({2: 1, 0: -1}), LaurentQ({1: 1, 0: -1}))._vec == ()
    for u in (1, -1):
        for k in (-3, 0, 2):
            inv = RatQ(LaurentQ.mono(u, k)).inverse()
            assert inv == RatQ(LaurentQ.mono(u, -k)) and inv._vec == ()
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
# canonicalization of RatQ.__init__) and packed products (against the
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


def _over(num, vec):
    """num / prod Phi_k^e over the (k, e) pairs of vec, with its exponent
    vector: the integral num times 1 / prod Phi_k^e, whose product cancels
    the Phi_k that divide num."""
    return RatQ(num) * cyclotomic_fraction(LaurentQ.one(), vec)


laurents = st.dictionaries(st.integers(-8, 8), st.integers(-50, 50),
                           max_size=10).map(LaurentQ)
# the exponent vector of a product of Phi_k (k <= 12) and q^(2j) - 1
# (j <= 4), which is prod_{d | 2j} Phi_d
cyclotomic_vecs = st.lists(
    st.one_of(st.integers(1, 12).map(lambda k: [k]),
              st.integers(1, 4).map(lambda j: [d for d in range(1, 2 * j + 1)
                                               if 2 * j % d == 0])),
    max_size=4).map(lambda ks: tuple(sorted(Counter(sum(ks, [])).items())))
cyclotomic_dens = cyclotomic_vecs.map(_cyclo_product)
cyclotomic_ratqs = st.builds(_over, laurents, cyclotomic_vecs)
# values with their vectors, and values of the gcd constructor, over
# products of Phi_k and over q^2 + 3, 2q - 1 and 2q^2 + 6, whose content
# can cancel against a numerator's
mixed_ratqs = st.one_of(cyclotomic_ratqs, st.builds(RatQ, laurents, st.one_of(
    cyclotomic_dens, st.sampled_from(
        [LaurentQ({2: 1, 0: 3}), LaurentQ({1: 2, 0: -1}),
         LaurentQ({2: 2, 0: 6})]))))
Q2 = ((1, 1), (2, 1))   # q^2 - 1 = Phi_1 Phi_2


# equal non-unit denominators: x + x, x + (-x), two numerators over one
# denominator whose sum cancels Phi_2, and a zero operand
@settings(max_examples=150, deadline=None)
@given(laurents, cyclotomic_vecs, laurents, cyclotomic_vecs)
@example(_poly([1]), Q2, _poly([1]), Q2)
@example(_poly([1]), Q2, _poly([-1]), Q2)
@example(_poly([1]), Q2, _poly([0, 1]), Q2)
@example(LaurentQ.zero(), Q2, _poly([2, 1]), Q2)
def test_cyclotomic_fast_paths_match_gcd_canonical(a, b, c, d):
    x, y = _over(a, b), _over(c, d)
    assert x == RatQ(a, _cyclo_product(b)) and y == RatQ(c, _cyclo_product(d))
    assert x._vec is not None and y._vec is not None
    assert x + y == RatQ(x.num * y.den + y.num * x.den, x.den * y.den)
    assert x - y == RatQ(x.num * y.den - y.num * x.den, x.den * y.den)
    assert x * y == RatQ(x.num * y.num, x.den * y.den)


@settings(max_examples=150, deadline=None)
@given(mixed_ratqs, mixed_ratqs)
def test_inverse_and_substitutions_match_gcd_canonical(x, y):
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
def _term_lists(draw, coeffs):
    """0 to 8 values, the last up to 3 drawn from the first ones: a repeat
    (shared denominators), a negation (cancels to zero) or w - v for a w on
    the powers of x of v (the lcm of the denominators is more than the sum
    needs)."""
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
@given(st.one_of(_term_lists(cyclotomic_ratqs), _term_lists(mixed_ratqs)))
def test_xpoly_sum_matches_gcd_canonical(vs):
    got = xpoly_sum(iter(vs))
    for e in {e for v in vs for e in v.c} | set(got.c):
        assert got.coeff(e) == _gcd_canonical_sum(
            [(v.c[e].num, v.c[e].den) for v in vs if e in v.c])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), mixed_ratqs, max_size=4).map(XPoly),
       st.integers(-3, 3))
def test_subst_x_matches_gcd_canonical(p, n):
    assert p.subst_x_eq_qn(n) == _gcd_canonical_sum(
        [(r.num * LaurentQ.mono(1, n * e), r.den) for e, r in p.c.items()])


def test_xpoly_sum_cancels_once_over_the_lcm(monkeypatch):
    # 1/(q^2 - 1) + 1/(q^4 - 1) + q^2/(q^4 - 1): lcm Phi_1 Phi_2 Phi_4, and
    # the total 2/(q^2 - 1) cancels Phi_4
    a = cyclotomic_fraction(LaurentQ.one(), Q2)
    b = cyclotomic_fraction(LaurentQ.one(), Q2 + ((4, 1),))
    c = cyclotomic_fraction(LaurentQ.mono(1, 2), Q2 + ((4, 1),))
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
    # the packed kernel on one block, or None on a sparse layout
    assert a * b == _schoolbook(a, b)
    if a.c and b.c:
        assert _packed_mul({0: a.c}, {0: b.c}) in (None,
                                                   {0: _schoolbook(a, b).c})


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
    low = cyclotomic_fraction(one, ((1, 1),))
    mid = cyclotomic_fraction(one, ((7, 1), (9, 1)))
    nums, common, got = lift_fractions([(one, low),
                                        (one, cyclotomic_fraction(one, vec))])
    assert nums == [cofactor, one] and common == top and got == vec
    nums, common, got = lift_fractions([(one, low), (one, mid)])
    assert nums == [cofactor, den] and common == top and got == vec
    assert (low + mid)._vec == vec
    assert not hasattr(rings, "_FACTORS")
    assert not [name for name, v in vars(rings).items() if isinstance(v, dict)
                and any(isinstance(key, LaurentQ) for key in v)]


def test_vector_survives_pickle_and_copy():
    # a value keeps its vector, or None, through pickle and deepcopy, and
    # the copy is multiplied and added as the original is
    q = LaurentQ({1: 1})
    other = cyclotomic_fraction(q, ((2, 1),))
    for r, vec in ((RatQ(q, LaurentQ({2: 1, 0: 3})), None),
                   (cyclotomic_fraction(q, ((1, 1), (3, 1))), ((1, 1), (3, 1))),
                   (RatQ(LaurentQ({0: 2}), _poly(_phi(1))).inverse(), None)):
        copies = [pickle.loads(pickle.dumps(r)), deepcopy(r)]
        for c in copies:
            assert c._vec == vec
            assert c * other == r * other and c + other == r + other
            assert c * c == r * r


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
    x = RatQ(LaurentQ({3: 2, 0: 1}), LaurentQ({2: 1, 0: 3}))    # q^2 + 3
    y = cyclotomic_fraction(LaurentQ({1: 1}), Q2)
    assert x._vec is None                    # the gcd constructor's value
    assert x * y == RatQ(x.num * y.num, x.den * y.den)
    assert (x * y)._vec is None
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


# -- XPoly products over Z[q^±1] (one packed multiply of two dense layouts,
# against the per-term loop over RatQ)

def _per_term(a, b):
    out = {}
    for ea, va in a.c.items():
        for eb, vb in b.c.items():
            out[ea + eb] = out.get(ea + eb, RatQ.zero()) + va * vb
    return XPoly(out)


def _layout(a, b, g, h):
    # the slot counts of the dense layouts of a and b at x-stride g and
    # q-stride h: the q^k x^e term of a sits at (e - xlo)/g s + (k - qlo)/h
    qa = [k for r in a.c.values() for k in r.num.c]
    qb = [k for r in b.c.values() for k in r.num.c]
    s = (max(qa) - min(qa) + max(qb) - min(qb)) // h + 1
    return tuple((max(c.c) - min(c.c)) // g * s
                 + (max(c.c[max(c.c)].num.c) - min(qs)) // h + 1
                 for c, qs in ((a, qa), (b, qb)))


def _terms(a):
    return sum(len(r.num.c) for r in a.c.values())


@contextmanager
def _packs():
    # the slot counts of every packed multiply in the block
    calls = []
    product = rings._packed_product

    def spy(da, db, bound):
        calls.append((len(da), len(db)))
        return product(da, db, bound)
    rings._packed_product = spy
    try:
        yield calls
    finally:
        rings._packed_product = product


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


# 1 to 3 powers of x at stride 1 or 2, each with a run of 11 to 20 nonzero
# q-terms, many at the slot edge: every layout is dense enough to pack
dense_integral_xpolys = st.builds(
    lambda x0, g, runs: XPoly({
        x0 + g * i: RatQ(LaurentQ({k0 + j: v for j, v in enumerate(vs)}))
        for i, (k0, vs) in enumerate(runs)}),
    st.integers(-3, 3), st.integers(1, 2),
    st.lists(st.tuples(st.integers(-2, 2),
                       st.lists(st.one_of(slot_edge, st.integers(1, 9)),
                                min_size=_KRONECKER_MIN_TERMS, max_size=20)),
             min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(dense_integral_xpolys, dense_integral_xpolys)
def test_slot_edge_xpoly_products_take_the_kernel(a, b):
    with _packs() as packed:
        ab = a * b
    assert len(packed) == 1
    assert ab == _per_term(a, b)


def test_integral_xpoly_product_is_one_packed_multiply():
    rng = random.Random(12)
    a = XPoly({e: RatQ(LaurentQ({k: rng.randint(-9, 9) or 1
                                 for k in range(-3 * e, 8)}))
               for e in (-2, 0, 1)})
    b = XPoly({e: RatQ(LaurentQ({k: rng.randint(-9, 9) or 1
                                 for k in range(e, e + 6)}))
               for e in (-1, 4)})
    c = XPoly({**b.c, 2: RatQ(LaurentQ.one(), LaurentQ({2: 1, 0: -1}))})
    # a * a packs 74 slots a side for 21 * 21 term pairs
    with _packs() as packed:
        product = a * a
    assert packed == [_layout(a, a, 1, 1)] == [(74, 74)]
    assert product == _per_term(a, a)
    # a * b would pack 74 + 115 slots for 21 * 12 term pairs, more than
    # half of them, and a denominator anywhere rules packing out: both take
    # the per-term loop
    assert 2 * sum(_layout(a, b, 1, 1)) > _terms(a) * _terms(b)
    with _packs() as packed:
        products = a * b, a * c
    assert packed == []
    assert products == (_per_term(a, b), _per_term(a, c))


def _strided(rng, xs, k0):
    # an integral XPoly on the x-exponents xs with at least
    # _KRONECKER_MIN_TERMS q-terms
    n = -(-_KRONECKER_MIN_TERMS // len(xs))
    return XPoly({e: RatQ(LaurentQ({k0 + 3 * i + e: rng.randint(-9, 9) or 1
                                    for i in range(n)})) for e in xs})


def _run(rng, xs, k0, h, n):
    # n q-terms at q-stride h on each of the x-exponents xs
    return XPoly({e: RatQ(LaurentQ({k0 + h * (i + e): rng.randint(-9, 9) or 1
                                    for i in range(n)})) for e in xs})


def test_integral_xpoly_product_packs_at_the_common_x_and_q_strides():
    # x-strides 2 and 3, strides 2 and 3 together (gcd 1), and one operand
    # a single power of x; every operand has at least 11 q-terms, at
    # q-stride 3 where its x-exponents differ by multiples of 3, and only
    # the layouts with at most half as many slots as term pairs are packed
    rng = random.Random(13)
    cases = [((-4, -2, 0, 2), (1, 3, 5), 2, 1),
             ((-3, 0, 3, 6), (3, 9, 12), 3, 3),
             ((0, 2, 4, 6), (-3, 0, 3), 1, 1), ((-5, -1, 3), (7,), 4, 1),
             ((2,), (-6, 0, 6), 6, 3)]
    for xa, xb, g, h in cases:
        a, b = _strided(rng, xa, -5), _strided(rng, xb, 2)
        with _packs() as packed:
            product = a * b
        slots = _layout(a, b, g, h)
        dense = 2 * sum(slots) <= _terms(a) * _terms(b)
        assert packed == ([slots] if dense else [])
        assert product == _per_term(a, b)
        assert b * a == product
    assert dense
    # q-stride 2 with odd q-exponents against even ones, q-stride 3 on
    # both sides, and strides 2 and 3 together (q-stride 1)
    for xa, xb, g, (ka, ha), (kb, hb), h in [
            ((0, 2, 4), (-2, 0), 2, (-5, 2), (4, 2), 2),
            ((-3, 0, 3), (3, 6), 3, (1, 3), (-2, 3), 3),
            ((1, 2), (0,), 1, (0, 2), (-7, 3), 1)]:
        a, b = _run(rng, xa, ka, ha, 12), _run(rng, xb, kb, hb, 12)
        with _packs() as packed:
            product = a * b
        assert packed == [_layout(a, b, g, h)]
        assert product == _per_term(a, b)
        assert b * a == product


def test_a_power_of_x_that_cancels_is_dropped():
    # (A x + B)(C x + D) with A = U P, B = V P, C = U Q, D = -V Q: the
    # coefficient of x, A D + B C, is zero, and its slice reads all zeros
    u, v = _poly([1, -2, 3]), _poly([2, 0, 1, 1])
    p, q = _poly([1, 1, -1, 2], -3), _poly([3, -1, 1, 1, 1])
    a = XPoly({1: RatQ(u * p), 0: RatQ(v * p)})
    b = XPoly({1: RatQ(u * q), 0: RatQ(-(v * q))})
    assert min(_terms(a), _terms(b)) >= _KRONECKER_MIN_TERMS
    with _packs() as packed:
        product = a * b
    assert len(packed) == 1
    assert product == _per_term(a, b)
    assert sorted(product.c) == [0, 2]
    assert product.c[2] == RatQ(u * u * p * q)


def test_sparse_xpoly_operands_skip_the_packing(monkeypatch):
    # 11 q-terms on x-exponents 0, 1 and 10^6, or one coefficient spanning
    # 10^6 powers of q: packing would fill ~10^7 slots for 121 term pairs
    def no_pack(cs, w):
        raise AssertionError("packed a sparse product")
    run = RatQ(LaurentQ({i: 1 for i in range(9)}))
    wide = XPoly({0: run, 1: RatQ.one(), 10 ** 6: RatQ.q_power(3)})
    tall = XPoly.from_ratq(RatQ(LaurentQ({**{i: 1 for i in range(10)},
                                          10 ** 6: 1})))
    dense = XPoly({0: run, 1: RatQ(LaurentQ({0: 1, 1: -1}))})
    expected = [_per_term(x, y) for x, y in
                ((wide, wide), (wide, dense), (tall, tall), (tall, dense))]
    monkeypatch.setattr(rings, "_pack", no_pack)
    assert wide * wide == expected[0]
    assert wide * dense == expected[1]
    assert tall * tall == expected[2]
    assert tall * dense == expected[3]
    with pytest.raises(AssertionError, match="packed"):
        dense * dense


@settings(max_examples=100, deadline=None)
@given(mixed_ratqs, laurents, st.integers(-6, 6), st.sampled_from([1, -1]))
def test_scale_by_a_signed_power_of_q_shifts_the_numerators(x, c, d, u):
    # the numerators shift, and each denominator stays with its vector
    p = XPoly({0: x, 3: RatQ(c)})
    r = RatQ(LaurentQ.mono(u, d))
    scaled = p.scale(r)
    for e, v in scaled.c.items():
        assert v.den is p.c[e].den and v._vec is p.c[e]._vec
    assert scaled == XPoly({e: v * r for e, v in p.c.items()})


# -- the exponent vector each RatQ carries (against its cyclotomic product)

def _carries_its_vector(r):
    return r._vec is not None and _cyclo_product(r._vec) == r.den


def test_q_bar_maps_phi_k_to_phi_at_minus_q():
    # q_bar sends the vector ((k, 1),) to ((sigma(k), 1),), and
    # Phi_k(-q) = +-Phi_sigma(k)(q); sigma is an involution
    sigma = {}
    for k in range(1, 61):
        r = cyclotomic_fraction(LaurentQ.one(), ((k, 1),))
        assert r == RatQ(LaurentQ.one(), _poly(_phi(k)))
        ((sigma[k], e),) = r.q_bar()._vec
        assert e == 1 and _carries_its_vector(r.q_bar())
        at_minus = [-c if i % 2 else c for i, c in enumerate(_phi(k))]
        assert at_minus in ([*_phi(sigma[k])], [-c for c in _phi(sigma[k])])
    assert all(sigma[sigma[k]] == k for k in sigma if sigma[k] in sigma)


@settings(max_examples=150, deadline=None)
@given(laurents, cyclotomic_vecs, laurents, cyclotomic_vecs, mixed_ratqs,
       st.integers(-3, 3), st.integers(-1, 5))
def test_results_carry_their_exponent_vector(a, b, c, d, z, n, l):
    x, y = _over(a, b), _over(c, d)
    assert _carries_its_vector(x) and _carries_its_vector(y)
    p = XPoly({1: x, -1: y, 0: x * y})
    made = [x * y, x + y, x - y, -x, x.q_bar(), x.q_inv(), y.q_bar(),
            p.subst_x_eq_qn(n), *xpoly_sum([p, p.q_bar(), -p]).c.values(),
            *p.scale(RatQ(LaurentQ.mono(-1, n))).c.values(),
            *(p * p).c.values(), *xbinom(n, l).c.values()]
    for r in made:
        assert _carries_its_vector(r)
    # an operand of the gcd constructor takes the gcd path, whose value has
    # the vector () over the denominator 1 and None otherwise
    for r in (z, -z, z.q_bar(), z.q_inv(), x * z, x + z, z * z,
              *([] if z.is_zero() else [z.inverse()])):
        assert _carries_its_vector(r) or r._vec is None and not r.den.is_one()
