"""The core evaluator: sorting a ladder word into PBW order.

A word is a sequence of letters (``ladder.Letter``), rightmost first to act.
``Evaluator(sides).state`` rewrites a word, applied to the highest-weight
idempotent of the 2m-sided ladder, into a linear combination of F-only
words: its state, with coefficients in Q(q)[x^{±1}] that hold for every
value x = q^n of the symbolic rank.  ``ev`` is the coefficient of the empty
word in the state.  Rewriting preserves weight, so a weight-zero word
reduces to a multiple of the empty word or to nothing, and for any other
word ``ev`` is zero.  ``Evaluator(sides, n)``, the engine's internal
consistency oracle, fixes x = q^n per evaluator, and with it the ring of
values (``RatQ`` instead of ``XPoly``) and the swap coefficient
(``_coeff``: the x-shifted binomial becomes qbinom(n + lin, t)).

Every word enters through one fold (``_fold``): the unit state takes sums
of (letters, scalar) picks in turn, ``state`` its word as one pick and
``contract`` the cup, the crossing sums and the cap.  Every state, whether
of a swap, a pick sum, the cup or the cap, is merged by ``_merge``, where a
word with one term keeps it.  Each pick is checked once: X^(0) letters are
the identity and are dropped, and a negative divided power is the zero
element, so such a pick is dropped without rewriting.  The recursion then
sees positive powers only, and it creates no others.  Every word it sees is
settled: its F letters right of the rightmost E are in a normal form
(``_normal``), where F_i F_j = F_j F_i for |i - j| >= 2 puts them in the
lexicographically least order and F_i^(a) F_i^(b) = [a+b, a] F_i^(a+b)
merges what meets.  A word is its merge scalar times its settled form
(``_settled``).  It moves the rightmost E letter rightward:

1. a word with a suffix whose weight goes negative in one of the last m
   slots is zero (the first m slots carry the symbolic n and are never
   range-checked);
2. with no E letters left, the word is settled, so it is its own state;
3. E past an F with a different index commutes freely; an E letter that
   reaches the right end annihilates the idempotent;
4. E_r^(b) F_r^(b') with equal indices swap through a binomial sum over t,
   with coefficient the x-shifted binomial exactly when r = m (the slot
   where the symbolic n sits) and a plain quantum binomial otherwise.  Both
   read the weight of the letters right of F_r, which are F letters only,
   since E_r was the rightmost E.

A swap child that keeps its E_r is settled already, since the letters
right of E_r are a suffix of a settled tail, and a suffix of a normal form
is one; a state word is in normal form, so a pick followed by one is
settled unless the pick ends in an F.  Only two kinds of word are settled
explicitly: a swap child whose E_r is used up, and a pick that ends in an F
followed by a state word.  The memo is keyed on settled words,
so the words that differ only in the order or the splitting of their F
tail share one entry; it is a pure accelerator and never changes results.
A trace (``--trace``, on stderr) logs a rewrite once per settled word, so
fewer lines than there are words; stdout does not depend on it.

Each swap moves one E letter right of one F letter with the same index and
creates no new such pair, and settling a word only reorders and merges F
letters that lie right of every E, so it creates none either.  So the
recursion depth is at most I(w) + 1, where I(w) counts the pairs (E_i, F_i)
with the E left of the F; beside it the ring layer adds only logarithmic
depth (``_phi`` and ``_cyclo_product``).  The recursion limit of the
interpreter is left alone; a word too deep for it is refused with
``ValueError``.

``contract`` evaluates a sum of words that factors crossing by crossing:
the state of the cup is carried through each crossing's sum and the cap,
instead of rewriting every product word from scratch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .ladder import Letter, Word
from .qcomb import qbinom, xbinom
from .rings import RatQ, XPoly, xpoly_sum

State = dict  # F-only word (normal form) -> nonzero coefficient


class Evaluator:
    """Evaluation session for one ladder size and specialization; owns the memo."""

    def __init__(self, sides: int, n: int | None = None, *,
                 trace: Callable[[str], None] | None = None):
        if sides < 2 or sides % 2:
            raise ValueError("sides must be an even integer >= 2")
        self.sides = sides
        self.m = sides // 2
        self.n = n
        self.ring = XPoly if n is None else RatQ
        self.trace = trace
        self._memo: dict[Word, State] = {}
        self._unit: State = {(): self.ring.one()}
        self.max_depth = 0
        self._depth = 0

    # -- public entry points

    def ev(self, word: Iterable[Letter]) -> XPoly | RatQ:
        """The value of a word: in Q(q)[x^{±1}], or in Q(q) at x = q^n."""
        return self.state(word).get((), self.ring.zero())

    def state(self, word: Iterable[Letter]) -> State:
        """The word applied to the highest-weight idempotent, as F-only
        words in normal form with their nonzero coefficients.  The returned
        dict is a new one that belongs to the caller."""
        return self._fold([[(word, RatQ.one())]])

    def contract(self, cap: Word, sums: list[list[tuple[Word, RatQ]]],
                 cup: Word) -> XPoly | RatQ:
        """The sum, over one (letters, scalar) pick from each entry of
        ``sums``, of the product of the scalars times
        ev(cap + picks + cup), with the picks of later entries further left.
        The cup, each entry and the cap act in turn on one state, so each
        state word is rewritten once per pick, not once per product word;
        every pick is checked as ``ev`` checks a word."""
        one = RatQ.one()
        return self._fold([[(cup, one)], *sums, [(cap, one)]]).get(
            (), self.ring.zero())

    def _fold(self, sums) -> State:
        """The unit state taken through each sum of (letters, scalar) picks
        in turn, equal words merged; a pick with a negative power is zero."""
        state, word = self._unit, ()
        try:
            for picks in sums:
                parts: dict[Word, list] = {}
                for letters, c in picks:
                    letters = self._letters(letters)
                    if letters is None:
                        continue
                    # a state word is in normal form, so letters + w is
                    # settled unless the pick ends in an F
                    settle = letters and letters[-1].kind == "F"
                    for w, v in state.items():
                        word = letters + w
                        cv = c
                        if settle:
                            s, word = _settled(word)
                            if not s.is_one():
                                cv = c * s
                        cv = _times(cv, v)
                        for u, x in self._ev(word).items():
                            parts.setdefault(u, []).append(cv * x)
                state = self._merge(parts)
        except RecursionError:
            raise ValueError(f"a word of {len(word)} letters rewrites too deep "
                             "for the interpreter's recursion limit") from None
        return state

    # -- helpers

    def _merge(self, parts: dict[Word, list]) -> State:
        """Each word's terms summed once into a state; a lone term is kept."""
        state = {}
        for u, vs in parts.items():
            total = vs[0] if len(vs) == 1 else self._sum(vs)
            if not total.is_zero():
                state[u] = total
        return state

    def _sum(self, values):
        # generic values cancel once per power of x
        return xpoly_sum(values) if self.n is None else sum(values, RatQ.zero())

    def _letters(self, word: Iterable[Letter]) -> Word | None:
        """The letters of a word with its X^(0) letters dropped, or None if
        a letter has a negative power (the word is zero).  Every kind and
        index is checked either way."""
        kept = []
        zero = False
        for let in word:
            if let.kind not in ("E", "F"):
                raise ValueError(f"letter kind {let.kind!r} is not 'E' or 'F'")
            if not 1 <= let.index <= self.sides - 1:
                raise ValueError(f"letter index {let.index} outside [1, {self.sides - 1}]")
            if let.power > 0:
                kept.append(let)
            elif let.power < 0:
                zero = True
        return None if zero else tuple(kept)

    def _tail_negative(self, w: Word) -> bool:
        # suffix weights, last m slots only (offsets off the zero part of
        # the highest weight); scanned right to left
        m = self.m
        offs = [0] * m
        for kind, i, p in reversed(w):
            if i > m:
                j = i - m - 1
                if kind == "E":
                    offs[j] += p
                else:
                    offs[j] -= p
                    if offs[j] < 0:
                        return True
            if i >= m:
                j = i - m
                if kind == "E":
                    offs[j] -= p
                    if offs[j] < 0:
                        return True
                else:
                    offs[j] += p
        return False

    def _lin_form(self, tail: Word, r: int, bl: int, bl1: int) -> int:
        # <weight offsets of tail, alpha_r> + bl - bl1; the n part of the
        # pairing appears only at r = m and is handled by the caller.  The
        # tail lies right of the rightmost E, so it is F-only: F_i^(p)
        # pairs with alpha_r as -2p at i = r and +p at i = r +- 1
        lin = bl - bl1
        for _, i, p in tail:
            if i == r:
                lin -= 2 * p
            elif i == r - 1 or i == r + 1:
                lin += p
        return lin

    # -- the recursion

    def _ev(self, w: Word) -> State:
        if not w:
            return self._unit
        # a stored word is never tail-negative, so the memo goes first
        hit = self._memo.get(w)
        if hit is not None:
            return hit
        if self._tail_negative(w):
            if self.trace:
                self.trace(f"tail-negative: {_dump(w)}")
            return {}

        self._depth += 1
        if self._depth > self.max_depth:
            self.max_depth = self._depth
        try:
            res = self._step(w)
        finally:
            self._depth -= 1

        self._memo[w] = res
        return res

    def _coeff(self, r: int, lin: int, t: int):
        """Coefficient of the t-th swap term: the x-shifted binomial in the
        slot that carries the rank (r = m), whose value at x = q^n is
        qbinom(n + lin, t), and a plain quantum binomial elsewhere."""
        if r != self.m:
            return qbinom(lin, t)
        return xbinom(lin, t) if self.n is None else qbinom(self.n + lin, t)

    def _step(self, w: Word):
        l = None
        for k in range(len(w) - 1, -1, -1):
            if w[k].kind == "E":
                l = k
                break
        if l is None:
            # F letters only: settled, so the word is its own state
            return {w: self.ring.one()}
        let = w[l]
        # slide right past every F with a different index (free commutation)
        j = l + 1
        while j < len(w) and w[j].index != let.index:
            j += 1
        if j == len(w):
            # E reached the right end: it annihilates the idempotent
            if self.trace:
                self.trace(f"annihilate {let.dump()}: {_dump(w)}")
            return {}
        if j > l + 1 and self.trace:
            self.trace(f"commute {let.dump()} past {j - l - 1}: {_dump(w)}")
        r = let.index
        bl, bl1 = let.power, w[j].power
        tail = w[j + 1:]
        lin = self._lin_form(tail, r, bl, bl1)
        head = w[:l] + w[l + 1:j]
        parts: dict[Word, list] = {}
        for t in range(0, min(bl, bl1) + 1):
            c = self._coeff(r, lin, t)
            if c.is_zero():
                continue
            mid = (Letter("F", r, bl1 - t),) if bl1 - t else ()
            if bl - t:
                # the tail right of E_r is a suffix of a settled tail
                child = head + mid + (Letter("E", r, bl - t),) + tail
            else:
                s, child = _settled(head + mid + tail)
                if not s.is_one():
                    c = _times(s, c)
            sub = self._ev(child)
            if self.trace:
                self.trace(f"swap E{r}^({bl}) F{r}^({bl1}) t={t} lin={lin}: {_dump(w)}")
            for u, v in sub.items():
                parts.setdefault(u, []).append(_times(c, v))
        return self._merge(parts)


def _times(c, v):
    # a Q(q) coefficient scales a generic value coefficient-wise
    return c * v if type(c) is type(v) else v.scale(c)


def _normal(w: Word) -> tuple[RatQ, Word]:
    """An F-only word as c times its normal form.  Each letter is inserted
    into the normal form of the letters before it: it commutes left past
    letters two or more indices away, merges with a letter of its own index
    that it meets (F_i^(a) F_i^(b) = [a+b, a] F_i^(a+b)), and otherwise
    stops at the first place where the result is lexicographically least.
    Words equal up to commutation get one normal form."""
    out: list[Letter] = []
    c = RatQ.one()
    for let in w:
        i = let.index
        k = len(out)
        while k and abs(out[k - 1].index - i) >= 2:
            k -= 1
        if k and out[k - 1].index == i:
            a = out[k - 1].power
            out[k - 1] = Letter("F", i, a + let.power)
            c = c * qbinom(a + let.power, a)
            continue
        while k < len(out) and out[k].index < i:
            k += 1
        out.insert(k, let)
    return c, tuple(out)


def _settled(w: Word) -> tuple[RatQ, Word]:
    """A word as c times the word with its F letters right of the rightmost
    E in normal form (``_normal``): its settled form, the memo's key."""
    l = len(w)
    while l and w[l - 1].kind == "F":
        l -= 1
    c, nf = _normal(w[l:])
    return c, w[:l] + nf


def _dump(w: Word) -> str:
    return " ".join(let.dump() for let in w) or "1"
