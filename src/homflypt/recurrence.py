"""Quantum Weyl algebra operators and recurrence tooling.

An operator P = sum_j c_j(q, x, M) L^j acts on a sequence f of values in
Q(q)[x^{±1}] by (Pf)(m) = sum_j c_j(q, x, q^m) f(m+j): M is evaluated at
q^m before shifting, which realizes the relation L M = q M L.

``parse_operator`` reads the text format ``(<scalar>)*M^k*L^j`` with
``+``-separated terms; products, parentheses, integer powers of q, x, M, L
and division by q-scalars are accepted, and noncommutative products are
normalized with L^j M^k = q^{jk} M^k L^j.  ``guess`` finds a recurrence for
a computed sequence by an exact fraction-free nullspace.  The row of the
linear system at start index m has the entry f(m+j) q^(mk) for the unknown
c_{j,k}; it is kept as its order + 1 values b_j = f(m+j), lifted once to a
common denominator with their content over Z[q^{±1}] divided out, so the
elimination runs in Z[q^{±1}][x^{±1}], where a large x-polynomial product
is one integer-polynomial product (``XPoly *``).  A tracking vector is an
operator, and its entry in the row is that operator applied at m:
sum_j b_j T_j(q^m), one product per b_j.  The elimination updates only the
columns' tracking vectors, reads each row once, when it is reached, and
divides each updated vector by its content exactly, with a gcd only where
a coefficient is not a multiple of the content so far.  A column that
reads zero at a row is read, until its next update, through a reduced
copy of its vector (``_kernel_reduce``), far smaller and zero at the same
rows; the closing check reads the reduced kernel vectors.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from math import comb

from .rings import (LaurentQ, RatQ, XPoly, laurent_divexact, laurent_gcd,
                    lift_fractions, xpoly_divexact, xpoly_gcd)


class OperatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([0-9]+|[qxML()+\-*/^]|$)")

# the widest q-span of a parsed divisor (``/p`` or ``p^-k``): 1/p carries no
# exponent vector, so each product and sum with it takes a dense gcd, whose
# time grows steeply with the span
_DIVISOR_SPAN = 256

# the most coefficient bits a parsed power (``p^k``) may hold, as estimated
# by ``_power_bits``: the big-integer products of the squarings grow with it
_POWER_BITS = 1 << 23


class _Parser:
    """Recursive descent over elements of the algebra Q(q)[x^±1]<M, L>."""

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        out, i = [], 0
        while i < len(text):
            mo = _TOKEN.match(text, i)
            if not mo or mo.group(1) == "":
                if text[i:].strip():
                    raise OperatorError(f"bad character at: {text[i:i+10]!r}")
                break
            out.append(mo.group(1))
            i = mo.end()
        return out

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise OperatorError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> dict[tuple[int, int], XPoly]:
        try:
            e = self.expr()
        except RecursionError:
            raise OperatorError("operator text is nested too deeply") from None
        if self.peek() is not None:
            raise OperatorError(f"trailing input at token {self.peek()!r}")
        return e

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = _add(out, rhs if op == "+" else _neg(rhs))
        return out

    def term(self):
        out = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            out = _mul(out, rhs) if op == "*" else _div(out, rhs)
        return out

    def unary(self):
        if self.peek() == "-":
            self.take()
            return _neg(self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            tok = self.take()
            if not tok.isdigit():
                raise OperatorError(f"exponent expected, got {tok!r}")
            return _pow(base, sign * int(tok))
        return base

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return _scalar(XPoly.from_int(int(tok)))
        if tok == "q":
            return _scalar(XPoly.from_ratq(RatQ.q_power(1)))
        if tok == "x":
            return _scalar(XPoly.x_power(1))
        if tok == "M":
            return {(0, 1): XPoly.one()}
        if tok == "L":
            return {(1, 0): XPoly.one()}
        if tok == "(":
            e = self.expr()
            if self.take() != ")":
                raise OperatorError("unbalanced parenthesis")
            return e
        raise OperatorError(f"unexpected token {tok!r}")


# element = dict[(L-power, M-power)] -> XPoly coefficient

def _scalar(p: XPoly):
    return {(0, 0): p} if not p.is_zero() else {}


def _add(a, b):
    out = dict(a)
    for key, v in b.items():
        w = out.get(key, XPoly.zero()) + v
        if w.is_zero():
            out.pop(key, None)
        else:
            out[key] = w
    return out


def _neg(a):
    return {k: -v for k, v in a.items()}


def _mul(a, b):
    parts: dict[tuple[int, int], list[XPoly]] = {}
    for (j1, k1), c1 in a.items():
        for (j2, k2), c2 in b.items():
            # L^j1 M^k2 = q^(j1 k2) M^k2 L^j1
            parts.setdefault((j1 + j2, k1 + k2), []).append(
                (c1 * c2).scale(RatQ.q_power(j1 * k2)))
    return {key: c for key, cs in parts.items()
            if not (c := sum(cs[1:], cs[0])).is_zero()}


def _div(a, b):
    if not b:
        raise OperatorError("division by zero")
    if list(b) != [(0, 0)] or set(b[(0, 0)].c) != {0}:
        raise OperatorError("can only divide by scalars in Q(q)")
    inv = _inverse(b[(0, 0)].c[0])
    return {k: v.scale(inv) for k, v in a.items()}


def _inverse(v: RatQ) -> RatQ:
    """1/v for a parsed divisor v, refused past ``_DIVISOR_SPAN``."""
    span = v.num.max_exp - v.num.min_exp
    if span > _DIVISOR_SPAN:
        raise OperatorError(f"a divisor spanning {span} powers of q is too "
                            f"wide (at most {_DIVISOR_SPAN})")
    return v.inverse()


def _pow(a, n: int):
    if n < 0:
        if not a:
            raise OperatorError("division by zero")
        if list(a) == [(0, 0)] and len(a[(0, 0)].c) == 1:
            ((e, v),) = a[(0, 0)].c.items()
            return _pow(_scalar(XPoly({-e: _inverse(v)})), -n)
        if list(a) in ([(0, 1)], [(1, 0)]) and next(iter(a.values())).is_one():
            ((j, k),) = a
            return {(j * n, k * n): XPoly.one()}
        raise OperatorError("cannot invert this element")
    if a and (bits := _power_bits(a, n)) > _POWER_BITS:
        raise OperatorError(f"a power estimated at {bits} coefficient bits is "
                            f"too large (at most {_POWER_BITS})")
    out = _scalar(XPoly.one())
    while n:
        if n & 1:
            out = _mul(out, a)
        n >>= 1
        if n:
            a = _mul(a, a)
    return out


def _power_bits(a, n: int) -> int:
    """An upper estimate of the coefficient bits of a^n, a nonzero, n >= 0:
    the multisets of n keys (L, M) of the base, times a dense box of x- and
    q-exponents (L^j M^k = q^(jk) M^k L^j adds n(n-1)/2 times the spread of
    j k), times n log2 of the base's coefficient 1-norm, plus one bit."""
    jk = [j * k for j, _ in a for _, k in a]
    xs = [e for p in a.values() for e in p.c]
    rs = [r for p in a.values() for r in p.c.values()]
    qspan = (max(r.num.max_exp for r in rs) - min(r.num.min_exp for r in rs)
             + max(r.den.max_exp - r.den.min_exp for r in rs))
    norm = sum(sum(map(abs, r.num.c.values())) * sum(map(abs, r.den.c.values()))
               for r in rs)
    box = ((n * (max(xs) - min(xs)) + 1)
           * (n * qspan + n * (n - 1) // 2 * (max(jk) - min(jk)) + 1))
    return comb(n + len(a) - 1, n) * box * (n * (norm - 1).bit_length() + 1)


def parse_xpoly(text: str) -> XPoly:
    """Parse a plain scalar (no M, L) in the canonical text format."""
    elem = _Parser(text).parse()
    if not elem:
        return XPoly.zero()
    if list(elem) != [(0, 0)]:
        raise OperatorError("expression contains M or L; expected a scalar")
    return elem[(0, 0)]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def _at_m(cs, m: int) -> XPoly:
    """sum_k c_k q^(mk) over (k, c_k) pairs: c(M) = sum_k c_k M^k at
    M = q^m, whether c is a coefficient of an operator or a block of a
    tracking vector in ``guess``'s elimination."""
    out = XPoly.zero()
    for k, c in cs:
        out = out + c.scale(RatQ.q_power(m * k))
    return out


class RecurrenceOperator(namedtuple("RecurrenceOperator", "terms")):
    """sum_{j,k} c_{j,k}(q,x) M^k L^j with c_{j,k} in Q(q)[x^±1], built from
    the parser's dict {(j, k): c_{j,k}} and kept as its nonzero entries in
    descending (j, k) order, ``terms`` = (((j, k), c), ...); the first
    entry's j is the order."""
    __slots__ = ()

    def __new__(cls, terms: Mapping[tuple[int, int], XPoly]):
        kept = sorted(((jk, c) for jk, c in terms.items() if not c.is_zero()),
                      key=lambda t: t[0], reverse=True)
        if not kept:
            raise OperatorError("empty operator")
        if kept[-1][0][0] < 0:
            raise OperatorError("negative L powers are not recurrence operators")
        return super().__new__(cls, tuple(kept))

    @property
    def order(self) -> int:
        return self.terms[0][0][0]

    def coefficient(self, j: int, m: int) -> XPoly:
        """c_j with M evaluated at q^m."""
        return _at_m(((k, c) for (i, k), c in self.terms if i == j), m)

    def apply(self, f: Mapping[int, XPoly], m: int) -> XPoly:
        """(Pf)(m) = sum_j c_j(q, x, q^m) f(m+j); raises on missing indices."""
        out = XPoly.zero()
        for j in range(self.order + 1):
            if m + j not in f:
                raise OperatorError(f"sequence not defined at index {m + j}")
            out = out + self.coefficient(j, m) * f[m + j]
        return out

    def verify(self, f: Mapping[int, XPoly], m_range) -> bool:
        """Exact annihilation at every m in the range."""
        return all(self.apply(f, m).is_zero() for m in m_range)

    def text(self) -> str:
        parts = []
        for (j, k), c in self.terms:
            term = f"({c.text()})"
            if k:
                term += f"*M^{k}"
            if j:
                term += f"*L^{j}"
            parts.append(term)
        return " + ".join(parts)


def parse_operator(text: str) -> RecurrenceOperator:
    return RecurrenceOperator(_Parser(text).parse())


def trefoil_recurrence() -> RecurrenceOperator:
    """The canonical order-2 operator annihilating the standard-normalized
    0-framed right-hand trefoil row sequence W(h_m) for all m >= 0."""
    a0 = "x^4*(x^2*M^2-1)*(q^6*x^2*M^4-1)"
    a1 = ("q*x^3*(q^4*x^2*M^4-1)*(q^8*x^4*M^8 - q^4*x^4*M^6 + q^2*x^4*M^4"
          " + x^4*M^4 - q^6*x^2*M^4 - q^2*x^2*M^4 - x^2*M^2 + 1)")
    a2 = "-q^6*x^8*M^6*(q^4*M^2-1)*(q^2*x^2*M^4-1)"
    return parse_operator(f"({a2})*L^2 + ({a1})*L^1 + ({a0})")


# ---------------------------------------------------------------------------
# guessing
# ---------------------------------------------------------------------------

def _vector_normalize(vec: list[XPoly]) -> list[XPoly]:
    """The vector times a scalar in Q(q) that puts it in Z[q^±1][x^±1] with
    content 1 over Z[q^±1].

    The entries are lifted once to a common denominator
    (``lift_fractions``); where that is more than their lcm, the content
    takes out the surplus.  The content starts as the coefficient of
    smallest q-span and is lowered by ``laurent_gcd`` only at a coefficient
    it does not divide exactly (for a normalized g, g | s exactly when
    gcd(g, s) = g); every coefficient is then divided by it exactly."""
    nums, _, _ = lift_fractions([(r.num, r) for p in vec for r in p.c.values()])
    if nums:
        g = laurent_gcd(min(nums, key=lambda n: n.max_exp - n.min_exp),
                        LaurentQ.zero())
        quots: list[LaurentQ] = []
        for n in nums:
            if g.is_one():
                break
            try:
                quots.append(laurent_divexact(n, g))
            except ValueError:
                g = laurent_gcd(g, n)
                quots = [laurent_divexact(m, g)
                         for m in nums[:len(quots) + 1]]
        else:
            nums = quots
    it = iter(nums)
    return [XPoly({e: RatQ(next(it)) for e in p.c}) for p in vec]


def _row_dot(row: tuple[list[XPoly], int], vec: list[XPoly]) -> XPoly:
    """row · vec for a row (b, m) of ``_nullspace_columns``, whose entry at
    column j w + k is b_j q^(mk), w = len(vec) // len(b): the sum over j of
    b_j T_j(q^m) with T_j(M) = sum_k vec[j w + k] M^k.  So vec is an
    operator, and its entry in the row is that operator applied at m: one
    product per nonzero b_j, and a q-shift for each q^(mk)."""
    b, m = row
    w = len(vec) // len(b)
    out = XPoly.zero()
    for j, bj in enumerate(b):
        if bj.is_zero():
            continue
        t = _at_m(enumerate(vec[j * w:(j + 1) * w]), m)
        if not t.is_zero():
            out = out + bj * t
    return out


def _nullspace_columns(rows: list[tuple[list[XPoly], int]], ncols: int
                       ) -> list[list[XPoly]]:
    """Kernel vectors of the homogeneous system whose row (b, m) has the
    entry b_j q^(mk) at column j w + k, w = ncols // len(b); a plain row b
    is (b, 0) with w = 1.  By fraction-free column elimination on tracking
    vectors alone: column i is carried as T_i, the combination of original
    columns it stands for, and each row is read once, when it is reached,
    as the entries row · T_i (``_row_dot``).  The rows come normalized, so
    every entry stays in Z[q^±1][x^±1], and each updated T_i is divided
    exactly by its content (``_vector_normalize``).  A column that reads
    zero at a row with a nonzero b keeps a read-only copy
    ``_kernel_reduce(T_i)`` until its next update: T_i times a nonzero
    scalar of Q(q)(x), so it reads zero exactly where T_i does, and T_i is
    read only where the copy reads nonzero.  The pivot rule and the
    updates see the T_i alone.  The kernel vectors are returned reduced,
    and every row is checked against each of them at the end, by the same
    row product; the check raises, so it stays under ``python -O``."""
    tracks = [[XPoly.one() if t == i else XPoly.zero() for t in range(ncols)]
              for i in range(ncols)]
    active = list(range(ncols))
    reduced: dict[int, list[XPoly]] = {}
    for row in rows:
        if all(bj.is_zero() for bj in row[0]):
            continue
        entry = {}
        for ci in active:
            if ci in reduced and _row_dot(row, reduced[ci]).is_zero():
                continue
            e = _row_dot(row, tracks[ci])
            if e.is_zero():
                reduced[ci] = _kernel_reduce(tracks[ci])
            else:
                entry[ci] = e
        if not entry:
            continue
        # the sparsest tracking vector keeps intermediate growth down
        pi = min(entry, key=lambda ci: sum(len(p.c) for p in tracks[ci]))
        pvec, pr = tracks[pi], entry[pi]
        for ci, e in entry.items():
            if ci != pi:
                tracks[ci] = _vector_normalize(
                    [pr * a - e * b for a, b in zip(tracks[ci], pvec)])
                reduced.pop(ci, None)
        active.remove(pi)
    kernels = [reduced[ci] if ci in reduced else _kernel_reduce(tracks[ci])
               for ci in active]
    if not all(_row_dot(row, k).is_zero() for row in rows for k in kernels):
        raise AssertionError("a kernel vector does not annihilate the system")
    return kernels


def require_window(usable: int, order: int, g: int) -> int:
    """The number of unknowns c_{j,k} for this order and M-degree g; raises
    OperatorError when fewer start indices are usable."""
    ncols = (order + 1) * (g + 1)
    if usable < ncols:
        raise OperatorError(
            f"need at least {ncols} sequence values for order {order}, "
            f"M-degree {g}; have {usable} usable start indices")
    return ncols


def guess(f: Mapping[int, XPoly], max_order: int, max_m_degree: int
          ) -> RecurrenceOperator | None:
    """Search for a recurrence annihilating f, smallest order first.

    Solves the exact homogeneous system for the coefficients c_{j,k} of
    c_j = sum_k c_{j,k} M^k.  The row at start index m is (b, m), b_j the
    value f(m+j) times the one scalar λ_m that normalizes b (lifted to a
    common denominator, content over Z[q^±1] divided out); its entry for
    c_{j,k} is b_j q^(mk), and q^(mk) is a unit of Z[q^±1], so b is the
    normalized full row's k = 0 part and the elimination runs in
    Z[q^±1][x^±1].  A candidate operator's entry in the row is that
    operator applied to λ_m f at m.  The kernel vector is reduced to a
    canonical form, so scaling f by a constant of Q(q) gives the same
    operator.  The result is re-verified on every available index before
    it is returned.  Returns None when no operator exists within the
    bounds; raises OperatorError when a bound is out of range (max_order
    below 1, max_m_degree below 0) or the sequence window is too small to
    pose the problem.
    """
    if max_order < 1 or max_m_degree < 0:
        raise OperatorError(f"need max_order >= 1 and max_m_degree >= 0, "
                            f"got {max_order} and {max_m_degree}")
    g = max_m_degree
    indices = sorted(f)
    for order in range(1, max_order + 1):
        usable = [m for m in indices if all(m + j in f for j in range(order + 1))]
        ncols = require_window(len(usable), order, g)
        rows = [(_vector_normalize([f[m + j] for j in range(order + 1)]), m)
                for m in usable]
        for kernel in _nullspace_columns(rows, ncols):
            top = kernel[order * (g + 1):]
            if all(c.is_zero() for c in top):
                continue
            op = RecurrenceOperator({divmod(i, g + 1): c
                                     for i, c in enumerate(kernel)})
            if op.verify(f, usable):
                return op
    return None


def _kernel_reduce(vec: list[XPoly]) -> list[XPoly]:
    """Divide out the full common x-polynomial factor and normalize: the
    same vector for vec times any nonzero element of Q(q)[x^±1]."""
    g = XPoly.zero()
    for p in vec:
        if p.is_zero():
            continue
        g = p if g.is_zero() else xpoly_gcd(g, p)
        if len(g.c) == 1:
            break
    if not (g.is_zero() or g.is_one()):
        vec = [xpoly_divexact(p, g) for p in vec]
    vec = _vector_normalize(vec)
    # strip common monomial units q^a x^b
    xs = [p.min_exp for p in vec if not p.is_zero()]
    qs = [r.num.min_exp for p in vec for r in p.c.values() if not p.is_zero()]
    if xs and (min(xs) or (qs and min(qs))):
        unit = XPoly.mono(RatQ.q_power(-min(qs)), -min(xs))
        vec = [p * unit for p in vec]
    lead = next((p for p in reversed(vec) if not p.is_zero()), None)
    if lead is not None and lead.c[lead.max_exp].num.leading_coeff() < 0:
        vec = [-p for p in vec]
    return vec
