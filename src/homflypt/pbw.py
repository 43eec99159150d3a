"""The core evaluator: sorting a ladder word into PBW order.

``Evaluator(sides).ev`` computes the unique element of Q(q)[x^{±1}] whose
value at x = q^n equals the evaluation of the word on the highest-weight
idempotent of the 2m-sided ladder, for every n.  ``Evaluator(sides, n)``, the
engine's internal consistency oracle, fixes x = q^n per evaluator, and with
it the ring of values (``RatQ`` instead of ``XPoly``) and the swap
coefficient (``_coeff``: the x-shifted binomial becomes qbinom(n + lin, t)).

The entry point checks the word once: X^(0) letters are the identity and
are dropped, and a negative divided power is the zero element, so such a
word evaluates to zero without rewriting.  The recursion then sees positive
powers only, and it creates no others.  It moves the rightmost E letter
rightward:

1. a word with a suffix whose weight goes negative in one of the last m
   slots evaluates to zero (the first m slots carry the symbolic n and are
   never range-checked);
2. with no E letters left, only the empty word survives (value 1): F
   letters lower the weight, which cannot return to the highest weight;
3. E past an F with a different index commutes freely; an E letter that
   reaches the right end annihilates the idempotent;
4. E_r^(b) F_r^(b') with equal indices swap through a binomial sum over t,
   with coefficient the x-shifted binomial exactly when r = m (the slot
   where the symbolic n sits) and a plain quantum binomial otherwise.

Each swap moves one E letter right of one F letter with the same index and
creates no new such pair, so the recursion depth is at most I(w) + 1, where
I(w) counts the pairs (E_i, F_i) with the E left of the F.  The recursion
limit of the interpreter is left alone; a word too deep for it is refused
with ``ValueError``.  The memo is keyed on the letter tuple alone; it is a
pure accelerator and never changes results.
"""

from __future__ import annotations

from typing import Callable

from .ladder import LadderWord, Letter, Word
from .qcomb import qbinom, xbinom
from .rings import RatQ, XPoly


class Evaluator:
    """Evaluation session for one ladder size and specialization; owns the memo."""

    def __init__(self, sides: int, n: int | None = None, *,
                 memoize: bool = True,
                 trace: Callable[[str], None] | None = None):
        if sides < 2 or sides % 2:
            raise ValueError("sides must be an even integer >= 2")
        self.sides = sides
        self.m = sides // 2
        self.n = n
        self.ring = XPoly if n is None else RatQ
        self.memoize = memoize
        self.trace = trace
        self._memo: dict[Word, XPoly | RatQ] = {}
        self.max_depth = 0
        self._depth = 0

    # -- public entry point

    def ev(self, word: LadderWord | Word) -> XPoly | RatQ:
        """The value of a word: in Q(q)[x^{±1}], or in Q(q) at x = q^n."""
        letters = self._letters(word)
        if letters is None:
            return self.ring.zero()
        try:
            return self._ev(letters)
        except RecursionError:
            raise ValueError(f"a word of {len(letters)} letters rewrites too "
                             "deep for the interpreter's recursion limit") from None

    # -- helpers

    def _letters(self, word) -> Word | None:
        """The letters of a word with its X^(0) letters dropped, or None if
        a letter has a negative power (the word is zero).  Every index is
        checked either way."""
        letters = word.letters if isinstance(word, LadderWord) else tuple(word)
        if isinstance(word, LadderWord) and word.sides != self.sides:
            raise ValueError("word has a different ladder size")
        kept = []
        zero = False
        for let in letters:
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
        # pairing appears only at r = m and is handled by the caller.
        # a letter at index i moves slot i by +-p and slot i+1 by the
        # opposite amount
        dr = dr1 = 0
        for kind, i, p in tail:
            s = p if kind == "E" else -p
            if i == r:
                dr += s
                dr1 -= s
            elif i == r - 1:
                dr -= s
            elif i == r + 1:
                dr1 += s
        return dr - dr1 + bl - bl1

    # -- the recursion

    def _ev(self, w: Word):
        if not w:
            return self.ring.one()
        if self._tail_negative(w):
            if self.trace:
                self.trace(f"tail-negative: {_dump(w)}")
            return self.ring.zero()
        if self.memoize:
            hit = self._memo.get(w)
            if hit is not None:
                return hit

        self._depth += 1
        if self._depth > self.max_depth:
            self.max_depth = self._depth
        try:
            res = self._step(w)
        finally:
            self._depth -= 1

        if self.memoize:
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
            # F letters only: the weight cannot return to the highest weight
            return self.ring.zero()
        let = w[l]
        # slide right past every F with a different index (free commutation)
        j = l + 1
        while j < len(w) and w[j].index != let.index:
            j += 1
        if j == len(w):
            # E reached the right end: it annihilates the idempotent
            if self.trace:
                self.trace(f"annihilate {let.dump()}: {_dump(w)}")
            return self.ring.zero()
        if j > l + 1 and self.trace:
            self.trace(f"commute {let.dump()} past {j - l - 1}: {_dump(w)}")
        r = let.index
        bl, bl1 = let.power, w[j].power
        tail = w[j + 1:]
        lin = self._lin_form(tail, r, bl, bl1)
        head = w[:l] + w[l + 1:j]
        res = self.ring.zero()
        for t in range(0, min(bl, bl1) + 1):
            c = self._coeff(r, lin, t)
            if c.is_zero():
                continue
            mid: list[Letter] = []
            if bl1 - t:
                mid.append(Letter("F", r, bl1 - t))
            if bl - t:
                mid.append(Letter("E", r, bl - t))
            sub = self._ev(head + tuple(mid) + tail)
            if self.trace:
                self.trace(f"swap E{r}^({bl}) F{r}^({bl1}) t={t} lin={lin}: {_dump(w)}")
            # a Q(q) coefficient scales a generic value coefficient-wise
            res = res + (c * sub if type(c) is type(sub) else sub.scale(c))
        return res


def _dump(w: Word) -> str:
    return " ".join(let.dump() for let in w) or "1"


def ev(word: LadderWord) -> XPoly:
    """One-shot generic evaluation (fresh memo)."""
    return Evaluator(word.sides).ev(word)


def ev_specialized(word: LadderWord, n: int) -> RatQ:
    """One-shot evaluation at x = q^n (fresh memo)."""
    return Evaluator(word.sides, n).ev(word)
