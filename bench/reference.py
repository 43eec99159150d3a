"""A fixed reference computation that gauges how fast the machine runs now.

It shares no code with ``homflypt``, so a change to the program cannot move
it.  It does the three kinds of pure-Python work the program's time goes
to: integer-polynomial pseudo-remainder sequences (the gcds behind ``RatQ``),
products of sparse dict polynomials with big coefficients (``LaurentQ``),
and a large memo dict keyed by tuples (``pbw``).  On a shared machine the
speed of a core changes by tens of percent from one second to the next and
from one quarter hour to the next; the benchmark runs this after set-up,
after every case and every half second within a case, and scales the times
of the cases by it (see ``worker.py`` and ``run.py``).
"""

from __future__ import annotations

import gc
import math
import time


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        shift = da - db
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return [c // g for c in a] if g > 1 else a


def _gcds(rounds: int) -> None:
    x = 12345
    for r in range(rounds):
        pair = []
        for _ in range(2):
            p = []
            for _ in range(10 + r % 7):
                x = (x * 1103515245 + 12345) % 2147483648
                p.append(x % 23 - 11)
            p[-1] = p[-1] or 1
            pair.append(p)
        a, b = pair
        while b:
            a, b = b, _primitive(_pseudo_rem(a, b))


def _products(rounds: int) -> None:
    for r in range(rounds):
        d = {i: ((i * 7 + r) % 13 - 6) * 10**12 + i for i in range(-30, 30)}
        out: dict[int, int] = {}
        for ea, va in d.items():
            for eb, vb in d.items():
                e = ea + eb
                w = out.get(e, 0) + va * vb
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)


def _memo(n: int) -> int:
    memo = {}
    for i in range(n):
        memo[(i % 7, i // 7 % 11, (i * 31) % 997, i)] = [i, (i, i + 1)]
    return sum(memo[(i % 7, i // 7 % 11, (i * 31) % 997, i)][0]
               for i in range(n))


def run() -> tuple[float, float]:
    """Wall and CPU seconds of one small reference computation (about
    0.05 s), with the cyclic garbage collector paused so that the size of
    the caller's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        _gcds(100)
        _products(15)
        _memo(6000)
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()
