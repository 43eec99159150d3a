"""Exact arithmetic for the scalar field Q(q) and the output ring Q(q)[x^{±1}].

Three layers, all immutable and exact (no floating point anywhere):

* ``LaurentQ``  -- Laurent polynomials in q with arbitrary-precision integer
  coefficients, stored as a sparse exponent->coefficient map.
* ``RatQ``      -- the field Q(q), as a canonically reduced quotient of two
  ``LaurentQ`` values.  Canonical form makes equality structural, which is
  what the memo tables and golden tests rely on.
* ``XPoly``     -- Laurent polynomials in x with ``RatQ`` coefficients, the
  ring every link invariant lives in.  The substitution x = q^n recovers the
  rank-n specialization.

The only non-integral scalar of the engine is the x-shifted binomial, whose
denominator prod_{j<=l} (q^j - q^-j) is, up to a power of q, a product of
factors q^(2j) - 1, hence of cyclotomic polynomials Phi_k.  So every
denominator the engine produces is a product prod Phi_k^e_k, and each
``RatQ`` carries its exponent vector, fixed by the constructor that builds
the value: there is no registry of denominators and no search for one.
Such fractions are multiplied and added without a gcd.  A product cancels
each numerator against the other side's Phi_k.  Every sum goes through one
kernel, ``_ratq_sum``: the binary ``RatQ +`` (and ``-``), the n-ary
``xpoly_sum`` (the sums of ``Evaluator`` and of ``homfly_partition``, which
add the numerators that share a denominator first) and the substitution
x = q^n.  It lifts the numerators once (``lift_fractions``, which also
clears the denominators of a vector in recurrence guessing) to prod
Phi^top, top the elementwise maximum of the vectors, and cancels once: the
terms folded modulo q^k - 1 tell which Phi_k divide, however sparse the
numerator is, and only those are divided out exactly.  About half of the
cancellations repeat an earlier numerator and vector, so they are read from
a bounded cache (``_cancel_by``).  The result is canonical as it stands; so
are an inverse and a q-substitution, after a shift and a sign.  The gcd
canonicalization in ``RatQ.__init__`` stays the reference and is the one
path for every other value: the gcd constructor and ``inverse`` give the
vector () when the reduced denominator is 1 and None otherwise, and a
product or sum with a None vector takes the gcd again.  The polynomial gcd
is left to three users: parsed operators (division by a q-scalar),
``xpoly_gcd``, and the content of a vector in recurrence guessing
(``laurent_gcd``, over Z[q^{±1}]), which needs it only at a coefficient that
the content so far does not divide exactly.  Every large product over
Z[q^{±1}], of ``LaurentQ`` or of integral ``XPoly`` values, is one big-int
multiply (``_packed_mul``, Kronecker substitution): each operand's
q-coefficients go into one dense list, a block of s slots per power x^g (a
``LaurentQ`` is the one block x^0), and each power of x of the product is
read off its block, unless the operands are so sparse that the packed slots
would outnumber half the term pairs.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import gcd as _igcd


# ---------------------------------------------------------------------------
# integer-polynomial helpers (dense lists, index = degree)
# ---------------------------------------------------------------------------

# the widest q-span turned into a dense list (gcd and exact division); the
# engine's spans are in the hundreds, and a list of 10^8 entries takes
# gigabytes
_DENSE_SPAN = 10 ** 6


def _list_content(cs: list[int]) -> int:
    g = 0
    for c in cs:
        g = _igcd(g, c)
        if g == 1:
            return 1
    return g


def _list_primitive(cs: list[int]) -> list[int]:
    g = _list_content(cs)
    if g > 1:
        cs = [c // g for c in cs]
    if cs and cs[-1] < 0:
        cs = [-c for c in cs]
    return cs


def _list_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _list_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    # lc(b)^(deg a - deg b + 1) * a  mod  b, over Z; a and b are trimmed
    # (b nonzero), and so is a after every step
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        shift = da - db
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        a = _list_trim(a)
    return a


def _list_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Q[q] of two integer polynomials, positive leading
    coefficient.  Primitive polynomial remainder sequence."""
    a = _list_primitive(_list_trim(list(a)))
    b = _list_primitive(_list_trim(list(b)))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _list_pseudo_rem(a, b)
        a, b = b, _list_primitive(_list_trim(r))
    return a


def _list_divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b over Z[q]; raises if the division is not exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = a[k + len(b) - 1]
        if c % lb:
            raise ValueError("inexact polynomial division")
        qk = c // lb
        q[k] = qk
        if qk:
            for i, bc in enumerate(b):
                a[k + i] -= qk * bc
    if any(a[: len(b) - 1]):
        raise ValueError("inexact polynomial division")
    return q


# ---------------------------------------------------------------------------
# cyclotomic polynomials (dense lists, index = degree)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _phi(k: int) -> tuple[int, ...]:
    """The cyclotomic polynomial Phi_k: q^k - 1 over prod_{d | k, d < k} Phi_d."""
    cs = [-1] + [0] * (k - 1) + [1]
    for d in range(1, k):
        if k % d == 0:
            cs = _list_divexact(cs, list(_phi(d)))
    return tuple(cs)


def _phi_divides(c: dict[int, int], k: int) -> bool:
    """Whether Phi_k divides the nonzero Laurent polynomial with coefficient
    map c.  Phi_k divides q^k - 1, so it is enough to reduce the fold of c
    modulo q^k - 1 (k coefficients, however sparse c is) by Phi_k."""
    phi = _phi(k)
    d = len(phi) - 1
    if max(c) - min(c) < d:
        return False
    folded = [0] * k
    for e, v in c.items():
        folded[e % k] += v
    for i in range(k - 1, d - 1, -1):
        v = folded[i]
        if v:
            for j, p in enumerate(phi):
                if p:
                    folded[i - d + j] -= v * p
    return not any(folded[:d])


def _phi_multiplicity(c: dict[int, int], k: int, most: int) -> int:
    """The largest n <= most with Phi_k^n dividing the Laurent polynomial
    c.  Phi_k is squarefree and its roots are not 0, so Phi_k^n divides c
    exactly when Phi_k divides c and its first n - 1 derivatives; no
    division is needed."""
    n = 0
    while n < most and _phi_divides(c, k):
        n += 1
        c = {e - 1: e * v for e, v in c.items() if e}
    return n


# ---------------------------------------------------------------------------
# Kronecker substitution: integer polynomials as integers at q = 2^(8 w)
# ---------------------------------------------------------------------------

# below this many terms in the smaller factor the term-by-term loop is
# faster; an XPoly factor over Z[q^±1] counts its q-terms (measured on the
# products of the benchmark workloads; for XPoly products a gate of 2 was
# no faster on recur guess and slower on the cabled colors)
_KRONECKER_MIN_TERMS = 11

# slots of 1, 2, 4 or 8 bytes pack and unpack through an array, whose bytes
# are in the host's order; big-endian hosts take the byte-by-byte path
_SLOT_FORMAT = ({1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little"
                else {})


def _slot_bytes(bits: int) -> int:
    """Bytes per slot for signed values of magnitude below 2^bits."""
    w = bits // 8 + 1
    return 1 << (w - 1).bit_length() if w <= 8 else -(-w // 8) * 8


def _pack(cs: list[int], w: int) -> int:
    """sum cs[i] 2^(8 w i), for |cs[i]| < 2^(8 w - 1); the signed values go
    in as a positive minus a negative part."""
    pos = [v if v > 0 else 0 for v in cs]
    neg = [-v if v < 0 else 0 for v in cs]
    fmt = _SLOT_FORMAT.get(w)
    if fmt:
        return (int.from_bytes(array(fmt, pos).tobytes(), "little")
                - int.from_bytes(array(fmt, neg).tobytes(), "little"))
    return (int.from_bytes(b"".join(v.to_bytes(w, "little") for v in pos), "little")
            - int.from_bytes(b"".join(v.to_bytes(w, "little") for v in neg), "little"))


def _unpack(x: int, n: int, w: int) -> list[int]:
    """The n signed slots of x = sum s_i 2^(8 w i), |s_i| < 2^(8 w - 1).
    Adding 2^(8 w - 1) to every slot makes them read without borrows."""
    half = 1 << (8 * w - 1)
    buf = (x + int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
           ).to_bytes(n * w, "little")
    fmt = _SLOT_FORMAT.get(w)
    if fmt:
        return [v - half for v in memoryview(buf).cast(fmt)]
    return [int.from_bytes(buf[i:i + w], "little") - half
            for i in range(0, n * w, w)]


def _schoolbook_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two coefficient maps, term pair by term pair."""
    out: dict[int, int] = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            w = out.get(e, 0) + va * vb
            if w:
                out[e] = w
            elif e in out:
                del out[e]
    return out


def _packed_product(da: list[int], db: list[int], bound: int) -> list[int]:
    """The coefficient list of the product of two dense coefficient lists,
    by one big-int multiply; bound is at least every product coefficient's
    magnitude."""
    w = _slot_bytes(bound.bit_length())
    return _unpack(_pack(da, w) * _pack(db, w), len(da) + len(db) - 1, w)


def _packed_mul(a: dict[int, dict[int, int]], b: dict[int, dict[int, int]]
                ) -> dict[int, dict[int, int]] | None:
    """The product of two maps from powers of x to nonzero integer
    coefficient maps in q, by one big-int multiply (Kronecker
    substitution), or None where the layout is sparse; a ``LaurentQ``
    product is the one block x^0.  With g and h the common x- and
    q-strides of both maps and s = (span_a + span_b)/h + 1 their q-spans
    together in steps of h, the coefficient of q^k x^e goes to slot
    (e - x_lo)/g s + (k - q_lo)/h of its operand's dense list.  A product
    coefficient spans fewer than s slots, so the coefficient of
    x^(xa + xb + g i) is read off slots [i s, (i + 1) s).  Every product
    coefficient is at most min(terms) max|a| max|b|.  Layouts whose slots
    outnumber half the term pairs are left to the term-by-term loop:
    packing is linear in the slots, whatever their number."""
    qa = [k for c in a.values() for k in c]
    qb = [k for c in b.values() for k in c]
    alo, blo = min(qa), min(qb)
    h = _igcd(*[k - alo for k in qa], *[k - blo for k in qb]) or 1
    s = (max(qa) - alo + max(qb) - blo) // h + 1
    xa, xb = min(a), min(b)
    g = _igcd(*[e - xa for e in a], *[e - xb for e in b]) or 1
    sides = ((a, xa, alo), (b, xb, blo))
    na, nb = ((max(c) - xlo) // g * s + (max(c[max(c)]) - qlo) // h + 1
              for c, xlo, qlo in sides)
    if 2 * (na + nb) > len(qa) * len(qb):
        return None
    da, db = [0] * na, [0] * nb
    for (c, xlo, qlo), d in zip(sides, (da, db)):
        for e, ce in c.items():
            off = (e - xlo) // g * s
            for k, v in ce.items():
                d[off + (k - qlo) // h] = v
    prod = _packed_product(da, db, min(len(qa), len(qb))
                           * max(map(abs, da)) * max(map(abs, db)))
    qs = range(alo + blo, alo + blo + h * s, h)
    out = {}
    for i in range(0, len(prod), s):
        c = {k: v for k, v in zip(qs, prod[i:i + s]) if v}
        if c:
            out[xa + xb + g * (i // s)] = c
    return out


# ---------------------------------------------------------------------------
# constructors from values already in canonical form
# ---------------------------------------------------------------------------

def _laurent(c: dict[int, int]) -> "LaurentQ":
    # c holds no zero coefficient
    r = LaurentQ.__new__(LaurentQ)
    r.c = c
    r._hash = None
    return r


def _ratq(num: "LaurentQ", den: "LaurentQ", vec) -> "RatQ":
    # num over a denominator it is coprime to, in the form RatQ.__init__
    # gives: canonical as it is; vec as RatQ._vec
    r = RatQ.__new__(RatQ)
    r.num = num
    r.den = den
    r._vec = vec
    return r


def _xpoly(c: dict[int, "RatQ"]) -> "XPoly":
    # c holds no zero coefficient
    r = XPoly.__new__(XPoly)
    r.c = c
    return r


class LaurentQ:
    """A Laurent polynomial in q over Z; no zero coefficients are stored."""

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c: dict[int, int] = {}
        if coeffs:
            self.c = {e: v for e, v in coeffs.items() if v}
        self._hash: int | None = None

    # -- constructors

    @staticmethod
    def zero() -> "LaurentQ":
        return _L_ZERO

    @staticmethod
    def one() -> "LaurentQ":
        return _L_ONE

    @staticmethod
    def mono(coeff: int, exp: int = 0) -> "LaurentQ":
        return LaurentQ({exp: coeff}) if coeff else _L_ZERO

    @staticmethod
    def from_int(n: int) -> "LaurentQ":
        return LaurentQ.mono(n, 0)

    # -- structure

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == {0: 1}

    @property
    def min_exp(self) -> int:
        return min(self.c)

    @property
    def max_exp(self) -> int:
        return max(self.c)

    def leading_coeff(self) -> int:
        return self.c[self.max_exp] if self.c else 0

    # -- arithmetic

    def __add__(self, other: "LaurentQ") -> "LaurentQ":
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
        return _laurent(out)

    def __sub__(self, other: "LaurentQ") -> "LaurentQ":
        return self + -other

    def __neg__(self) -> "LaurentQ":
        return _laurent({e: -v for e, v in self.c.items()})

    def __mul__(self, other: "LaurentQ") -> "LaurentQ":
        if not self.c or not other.c:
            return _L_ZERO
        a, b = self.c, other.c
        if len(a) > len(b):
            a, b = b, a
        if len(a) >= _KRONECKER_MIN_TERMS:
            packed = _packed_mul({0: a}, {0: b})
            if packed is not None:
                return _laurent(packed[0])
        return _laurent(_schoolbook_mul(a, b))

    # -- substitutions

    def q_bar(self) -> "LaurentQ":
        """The ring automorphism q -> -q^{-1}."""
        return _laurent({-e: (v if e % 2 == 0 else -v) for e, v in self.c.items()})

    def q_inv(self) -> "LaurentQ":
        """The ring automorphism q -> q^{-1}."""
        return _laurent({-e: v for e, v in self.c.items()})

    # -- dense conversion for gcd work

    def _dense(self) -> tuple[int, list[int]]:
        v = self.min_exp
        span = self.max_exp - v
        if span > _DENSE_SPAN:
            raise ValueError(f"a polynomial spanning {span} powers of q is too "
                             f"wide for dense arithmetic (at most {_DENSE_SPAN})")
        out = [0] * (span + 1)
        for e, c in self.c.items():
            out[e - v] = c
        return v, out

    @staticmethod
    def _from_dense(val: int, cs: list[int]) -> "LaurentQ":
        return _laurent({val + i: c for i, c in enumerate(cs) if c})

    # -- comparison / hash / rendering

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentQ) and self.c == other.c

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.c.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentQ({self.text()})"

    def text(self) -> str:
        """Canonical rendering: q-exponents descending, e.g. ``q^2 - 2 + q^-2``."""
        if not self.c:
            return "0"
        parts: list[str] = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}*{qp}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if v > 0 else f" - {body}")
        return "".join(parts)

    def json_obj(self) -> list[list]:
        """Exponent-descending ``[exp, "coeff"]`` pairs; coefficients as strings."""
        return [[e, str(self.c[e])] for e in sorted(self.c, reverse=True)]


_L_ZERO = LaurentQ()
_L_ONE = LaurentQ({0: 1})


def laurent_gcd(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """The gcd over Z[q^±1], shifted to lowest exponent 0 with a positive
    leading coefficient: the primitive gcd over Q[q] times the gcd of the
    integer contents.  gcd(0, b) is b so normalized."""
    if a.is_zero():
        a, b = b, a
        if a.is_zero():
            return _L_ZERO
    _, da = a._dense()
    if b.is_zero():
        return LaurentQ._from_dense(0, da if da[-1] > 0 else [-c for c in da])
    _, db = b._dense()
    c = _igcd(_list_content(da), _list_content(db))
    return LaurentQ._from_dense(0, [c * v for v in _list_gcd(da, db)])


def laurent_divexact(n: LaurentQ, g: LaurentQ) -> LaurentQ:
    """The exact quotient n / g in Z[q^±1]; raises ValueError unless g
    divides n there."""
    v, d = n._dense()
    w, gd = g._dense()
    return LaurentQ._from_dense(v - w, _list_divexact(d, gd))


# -- cyclotomic denominators

# entries of the cyclotomic product and cancellation caches: a whole
# `columns` pass makes about 740 distinct cancellations, and a full
# cancellation cache holds about 1 MB on the larger cables
_CACHE_SIZE = 1024

_CHAIN = 16  # _cyclo_product's depth bound; 64 raised the RSS of `columns`


@lru_cache(maxsize=_CACHE_SIZE)
def _cyclo_product(vec: tuple[tuple[int, int], ...]) -> LaurentQ:
    """prod Phi_k^e over the (k, e) pairs of vec: Phi_k times the cached
    product with the last e lowered by one, or, for exponents summing to
    more than _CHAIN, multiplied out, so the recursion is _CHAIN deep."""
    if not vec:
        return _L_ONE
    *rest, (k, e) = vec
    if e > 1:
        rest.append((k, e - 1))
    p, factors = _L_ONE, vec
    if sum(f for _, f in vec) <= _CHAIN:
        p, factors = _cyclo_product(tuple(rest)), ((k, 1),)
    for k, e in factors:
        phik = LaurentQ._from_dense(0, list(_phi(k)))
        for _ in range(e):
            p = p * phik
    return p


@lru_cache(maxsize=_CACHE_SIZE)
def _cancel_by(p: LaurentQ, vec: tuple[tuple[int, int], ...]
               ) -> tuple[LaurentQ, tuple[tuple[int, int], ...]]:
    """(p / prod Phi_k^c_k, the nonzero (k, c_k)), c_k <= e_k as large as
    divides p, over the (k, e_k) pairs of vec; the quotient is p itself
    when nothing divides."""
    div = []
    for k, e in vec:
        c = _phi_multiplicity(p.c, k, e)
        if c:
            div.append((k, c))
    if not div:
        return p, ()
    div = tuple(div)
    return laurent_divexact(p, _cyclo_product(div)), div


def _cancel(p: LaurentQ, vec: dict[int, int]) -> LaurentQ:
    """Divide p by prod Phi_k^c_k, c_k <= vec[k] as large as divides p, and
    lower vec[k] by c_k.  Returns p itself when nothing divides."""
    if len(p.c) < 2 or not vec:
        return p
    q, div = _cancel_by(p, tuple(sorted(vec.items())))
    if not div:
        return p
    for k, c in div:
        vec[k] -= c
    return q


def cyclotomic_fraction(num: LaurentQ, pairs) -> "RatQ":
    """num / prod Phi_k^e over the (k, e) pairs with e > 0, for a nonzero
    num coprime to each such Phi_k: canonical as it is, and carrying its
    exponent vector."""
    vec = tuple(sorted((k, e) for k, e in pairs if e))
    return _ratq(num, _cyclo_product(vec), vec)


def _cyclo_mul(x: "RatQ", fa, y: "RatQ", fb) -> "RatQ":
    """x * y for denominators prod Phi^fa and prod Phi^fb.  A numerator is
    coprime to its own Phi_k, so it can only cancel the other side's."""
    ra, rb = dict(fb), dict(fa)
    a, b = _cancel(x.num, ra), _cancel(y.num, rb)
    if not fa and a is x.num:
        return _ratq(a * b, y.den, fb)
    if not fb and b is y.num:
        return _ratq(a * b, x.den, fa)
    for k, e in rb.items():
        ra[k] = ra.get(k, 0) + e
    return cyclotomic_fraction(a * b, ra.items())


def lift_fractions(terms) -> tuple[list[LaurentQ], LaurentQ,
                                   tuple[tuple[int, int], ...] | None]:
    """(num, r) pairs, num over the denominator of the ``RatQ`` r, lifted to
    one common denominator, as (nums, common, top) with nums[i] = num_i
    common / r_i.den.
    Products of Phi_k are lifted to their lcm prod Phi^top, top the
    elementwise max of their exponent vectors and the vector of common: a
    den at top is the common one, and each other distinct den gets its
    cofactor once.  With any other denominator the common one is the
    product of the distinct dens, and top is None."""
    terms = [(num, r.den, r._vec) for num, r in terms]
    if any(vec is None for _, _, vec in terms):
        lifts = dict.fromkeys(den for _, den, _ in terms)
        common = _L_ONE
        for den in lifts:
            common = common * den
        for den in lifts:
            lifts[den] = laurent_divexact(common, den)
        return [num * lifts[den] for num, den, _ in terms], common, None
    most: dict[int, int] = {}
    for _, _, vec in terms:
        for k, e in vec:
            if e > most.get(k, 0):
                most[k] = e
    top = tuple(sorted(most.items()))
    common, lifts, nums = None, {}, []
    for num, den, vec in terms:
        if vec == top:
            common = den
        else:
            c = lifts.get(vec)
            if c is None:
                have = dict(vec)
                c = lifts[vec] = _cyclo_product(tuple(
                    (k, e - have.get(k, 0)) for k, e in top
                    if e > have.get(k, 0)))
            num = num * c
        nums.append(num)
    if common is None:
        common = _cyclo_product(top)
    return nums, common, top


def _ratq_sum(terms) -> "RatQ":
    """The sum of num / r.den over (num, r) pairs, as ``lift_fractions``
    takes them; every sum of non-integral ``RatQ`` values comes here.  The
    numerators are lifted once and added; a total over prod Phi^top is
    cancelled once, and any other common denominator gets one gcd
    canonicalization."""
    nums, common, top = lift_fractions(terms)
    total = _L_ZERO
    for num in nums:
        total = total + num if total.c else num
    if total.is_zero():
        return _R_ZERO
    if top is None:
        return RatQ(total, common)
    left = dict(top)
    num = _cancel(total, left)  # lowers left by the Phi_k it divides out
    if num is total:
        return _ratq(num, common, top)
    return cyclotomic_fraction(num, left.items())


def xpoly_sum(values) -> "XPoly":
    """The sum of an iterable of ``XPoly`` values.  Per power of x, the
    numerators that share a denominator are added as integer coefficient
    maps, and the (numerator, value) pairs go through one ``_ratq_sum``:
    one cancellation per power of x instead of one per binary ``+``."""
    groups: dict[int, dict[LaurentQ, tuple[dict[int, int], RatQ]]] = {}
    for value in values:
        for e, r in value.c.items():
            into = groups.setdefault(e, {}).setdefault(r.den, ({}, r))[0]
            for k, v in r.num.c.items():
                into[k] = into.get(k, 0) + v
    out = {}
    for e, parts in groups.items():
        r = _ratq_sum((LaurentQ(c), s) for c, s in parts.values())
        if not r.is_zero():
            out[e] = r
    return _xpoly(out)


def _shift_sign(num: LaurentQ, den: LaurentQ) -> tuple[LaurentQ, LaurentQ]:
    """num and den shifted to den's lowest exponent 0 and signed to its
    positive lead: canonical for coprime num, den with coprime contents."""
    v = den.min_exp
    s = -1 if den.leading_coeff() < 0 else 1
    if v == 0 and s == 1:
        return num, den
    return (_laurent({e - v: s * c for e, c in num.c.items()}),
            _laurent({e - v: s * c for e, c in den.c.items()}))


class RatQ:
    """An element of Q(q) in canonical form.

    Invariants: the denominator is a nonzero integer polynomial in q with
    lowest exponent 0 and positive leading coefficient, coprime to the
    numerator over Q[q], and gcd(content(num), content(den)) = 1.  Equality
    is therefore structural.

    ``_vec`` (not in equality or hashing) is fixed by the constructor that
    builds the value: the (k, e) pairs, k ascending, with den = prod
    Phi_k^e, or None where den is not known to be such a product.  The gcd
    constructor and ``inverse`` give () when the reduced denominator is 1
    and None otherwise; a None vector sends a product or sum through the
    gcd.
    """

    __slots__ = ("num", "den", "_vec")

    def __init__(self, num: LaurentQ, den: LaurentQ = _L_ONE):
        if den.is_zero():
            raise ZeroDivisionError("RatQ denominator is zero")
        if num.is_zero():
            self.num, self.den = _L_ZERO, _L_ONE
        elif den.is_one():
            self.num, self.den = num, _L_ONE
        else:
            va, na = num._dense()
            vb, nb = den._dense()
            g = _list_gcd(na, nb)
            if len(g) > 1:
                na = _list_divexact(na, g)
                nb = _list_divexact(nb, g)
            c = _igcd(_list_content(na), _list_content(nb))
            if c > 1:
                na = [x // c for x in na]
                nb = [x // c for x in nb]
            self.num, self.den = _shift_sign(LaurentQ._from_dense(va, na),
                                             LaurentQ._from_dense(vb, nb))
        self._vec = () if self.den.is_one() else None

    # -- constructors

    @staticmethod
    def zero() -> "RatQ":
        return _R_ZERO

    @staticmethod
    def one() -> "RatQ":
        return _R_ONE

    @staticmethod
    def from_int(n: int) -> "RatQ":
        return RatQ(LaurentQ.from_int(n))

    @staticmethod
    def q_power(e: int) -> "RatQ":
        return RatQ(LaurentQ.mono(1, e))

    # -- predicates

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    # -- arithmetic

    def __add__(self, other: "RatQ") -> "RatQ":
        if self.den.is_one() and other.den.is_one():
            return _ratq(self.num + other.num, _L_ONE, ())
        return _ratq_sum(((self.num, self), (other.num, other)))

    def __sub__(self, other: "RatQ") -> "RatQ":
        return self + -other

    def __neg__(self) -> "RatQ":
        return _ratq(-self.num, self.den, self._vec)

    def __mul__(self, other: "RatQ") -> "RatQ":
        if self.num.is_zero() or other.num.is_zero():
            return _R_ZERO
        if self.den.is_one() and other.den.is_one():
            return _ratq(self.num * other.num, _L_ONE, ())
        fa, fb = self._vec, other._vec
        if fa is not None and fb is not None:
            return _cyclo_mul(self, fa, other, fb)
        return RatQ(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatQ") -> "RatQ":
        return self * other.inverse()

    def inverse(self) -> "RatQ":
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero RatQ")
        num, den = _shift_sign(self.den, self.num)
        return _ratq(num, den, () if den.is_one() else None)

    # -- substitutions (automorphisms: num and den stay coprime, Phi_k(q^-1)
    # is +-q^-phi(k) Phi_k(q), and Phi_k(-q) = +-Phi_s(q) for s = 2k, k odd,
    # s = k/2, k = 2 mod 4, and s = k, 4 | k)

    def q_bar(self) -> "RatQ":
        vec = self._vec
        if vec:
            vec = tuple(sorted((2 * k if k % 2 else k // 2 if k % 4 == 2
                                else k, e) for k, e in vec))
        return _ratq(*_shift_sign(self.num.q_bar(), self.den.q_bar()), vec)

    def q_inv(self) -> "RatQ":
        return _ratq(*_shift_sign(self.num.q_inv(), self.den.q_inv()), self._vec)

    # -- comparison / hash / rendering

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RatQ) and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatQ({self.text()})"

    def text(self) -> str:
        if self.den.is_one():
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def json_obj(self) -> dict:
        return {"num": self.num.json_obj(), "den": self.den.json_obj()}


_R_ZERO = RatQ(_L_ZERO)
_R_ONE = RatQ(_L_ONE)


class XPoly:
    """A Laurent polynomial in x over Q(q); the ring the invariants live in."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, RatQ] | None = None):
        self.c: dict[int, RatQ] = {}
        if coeffs:
            self.c = {e: v for e, v in coeffs.items() if not v.is_zero()}

    @staticmethod
    def zero() -> "XPoly":
        return _X_ZERO

    @staticmethod
    def one() -> "XPoly":
        return _X_ONE

    @staticmethod
    def from_ratq(r: RatQ) -> "XPoly":
        return XPoly({0: r})

    @staticmethod
    def from_int(n: int) -> "XPoly":
        return XPoly({0: RatQ.from_int(n)})

    @staticmethod
    def x_power(k: int) -> "XPoly":
        return XPoly({k: _R_ONE})

    @staticmethod
    def mono(r: RatQ, k: int) -> "XPoly":
        return XPoly({k: r})

    # -- predicates / structure

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return len(self.c) == 1 and 0 in self.c and self.c[0].is_one()

    @property
    def min_exp(self) -> int:
        return min(self.c)

    @property
    def max_exp(self) -> int:
        return max(self.c)

    def coeff(self, k: int) -> RatQ:
        return self.c.get(k, _R_ZERO)

    # -- arithmetic

    def __add__(self, other: "XPoly") -> "XPoly":
        out = dict(self.c)
        for e, v in other.c.items():
            if e in out:
                w = out[e] + v
                if w.is_zero():
                    del out[e]
                else:
                    out[e] = w
            else:
                out[e] = v
        return _xpoly(out)

    def __sub__(self, other: "XPoly") -> "XPoly":
        return self + (-other)

    def __neg__(self) -> "XPoly":
        return _xpoly({e: -v for e, v in self.c.items()})

    def __mul__(self, other: "XPoly") -> "XPoly":
        if not self.c or not other.c:
            return _X_ZERO
        # packing pays off at the LaurentQ gate, counted in q-terms
        if (_integral_terms(self.c) >= _KRONECKER_MIN_TERMS
                and _integral_terms(other.c) >= _KRONECKER_MIN_TERMS):
            packed = _packed_mul({e: r.num.c for e, r in self.c.items()},
                                 {e: r.num.c for e, r in other.c.items()})
            if packed is not None:
                return _xpoly({e: _ratq(_laurent(c), _L_ONE, ())
                               for e, c in packed.items()})
        out: dict[int, RatQ] = {}
        for ea, va in self.c.items():
            for eb, vb in other.c.items():
                e = ea + eb
                w = va * vb
                if e in out:
                    w = out[e] + w
                if w.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = w
        return _xpoly(out)

    def scale(self, r: RatQ) -> "XPoly":
        if r.is_zero():
            return _X_ZERO
        if r.is_one():
            return self
        if r.den.is_one() and len(r.num.c) == 1:
            # r = +-q^d: each numerator shifts, each denominator stays
            ((d, u),) = r.num.c.items()
            if u == 1 or u == -1:
                return _xpoly({e: _ratq(_laurent({k + d: u * c for k, c
                                                  in v.num.c.items()}),
                                        v.den, v._vec)
                               for e, v in self.c.items()})
        return _xpoly({e: v * r for e, v in self.c.items()})

    # -- substitutions

    def subst_x_eq_qn(self, n: int) -> RatQ:
        """Evaluate at x = q^n; a ring homomorphism Q(q)[x^±1] -> Q(q).  The
        coefficient of x^e becomes its numerator shifted by n e over its
        denominator, and the terms are added by one ``_ratq_sum``."""
        return _ratq_sum((_laurent({k + n * e: v for k, v in r.num.c.items()}),
                          r) for e, r in self.c.items())

    def q_bar(self) -> "XPoly":
        """Apply q -> -q^{-1} coefficient-wise (x fixed); an involution."""
        return _xpoly({e: v.q_bar() for e, v in self.c.items()})

    def q_inv(self) -> "XPoly":
        return _xpoly({e: v.q_inv() for e, v in self.c.items()})

    def x_inv(self) -> "XPoly":
        """Apply x -> x^{-1} (q fixed)."""
        return _xpoly({-e: v for e, v in self.c.items()})

    # -- comparison / hash / rendering

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XPoly) and self.c == other.c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.c.items())))

    def __repr__(self) -> str:
        return f"XPoly({self.text()})"

    def text(self) -> str:
        """Canonical rendering: x-exponents descending, each coefficient in
        canonical Q(q) form, e.g. ``(q^2 - q^-2)/(q - q^-1) * x^1``."""
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            coef = v.text()
            if v.den.is_one() and len(v.num.c) > 1:
                coef = f"({coef})"
            parts.append(coef if e == 0 else f"{coef} * x^{e}")
        return " + ".join(parts)

    def json_obj(self) -> dict:
        return {str(e): self.c[e].json_obj() for e in sorted(self.c, reverse=True)}


_X_ZERO = XPoly()
_X_ONE = XPoly({0: _R_ONE})


def _integral_terms(c: dict[int, RatQ]) -> int:
    """The number of q-terms of a coefficient map over Z[q^±1]; 0 if some
    coefficient has a denominator."""
    n = 0
    for r in c.values():
        if not r.den.is_one():
            return 0
        n += len(r.num.c)
    return n


def _xpoly_divmod(a: XPoly, b: XPoly) -> tuple[XPoly, XPoly]:
    """Long division in x over the field Q(q): a = quot * b + rem with rem
    spanning fewer x-exponents than b.  A nonzero multiple of b spans at
    least as many, so b divides a exactly when rem is zero."""
    if b.is_zero():
        raise ZeroDivisionError("XPoly division by zero")
    bm = b.max_exp
    blead = b.c[bm]
    span_b = bm - b.min_exp
    rem = dict(a.c)
    quot: dict[int, RatQ] = {}
    while rem and max(rem) - min(rem) >= span_b:
        am = max(rem)
        qc = rem[am] / blead
        shift = am - bm
        quot[shift] = qc
        for e, v in b.c.items():
            t = e + shift
            w = rem.get(t, _R_ZERO) - v * qc
            if w.is_zero():
                rem.pop(t, None)
            else:
                rem[t] = w
    return _xpoly(quot), _xpoly(rem)


def xpoly_divexact(a: XPoly, b: XPoly) -> XPoly:
    """Exact quotient in Q(q)[x^{±1}]; raises ValueError if not divisible."""
    quot, rem = _xpoly_divmod(a, b)
    if not rem.is_zero():
        raise ValueError("inexact XPoly division")
    return quot


def xpoly_gcd(a: XPoly, b: XPoly) -> XPoly:
    """A gcd in x over Q(q), normalized to lowest x-exponent 0 with monic
    leading coefficient 1; returns 1 for coprime inputs."""
    while not b.is_zero():
        a, b = b, _xpoly_divmod(a, b)[1]
    if a.is_zero():
        return a
    lead = a.c[a.max_exp]
    shift = -a.min_exp
    return XPoly({e + shift: v / lead for e, v in a.c.items()})
