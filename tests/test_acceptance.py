"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import random

import pytest

from homflypt import (Evaluator, Letter, Partition,
                      adjust_framing, enumerate_terms, guess, homfly_columns,
                      homfly_partition, invariant, parse_braid, qbinom, torus_reference,
                      trefoil_recurrence, trefoil_reference, xbinom)

TREFOIL = parse_braid("1 1 1", 2)
CINQUEFOIL = parse_braid("1 1 1 1 1", 2)
UNKNOT = parse_braid("", 1)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_trefoil_golden(trefoil_cols):
    ok = all(trefoil_cols[a] == trefoil_reference(a) for a in range(0, 4))
    _report(1, "trefoil golden formula, a in 0..3", ok)


def test_criterion_2_trefoil_recursion(trefoil_rows_zero):
    P = trefoil_recurrence()
    ok = P.verify(trefoil_rows_zero, range(0, 3))
    _report(2, "order-2 recursion annihilates 0-framed W(h_m), m in 0..2", ok)


def test_criterion_3_torus_cross_check():
    ok = True
    for s, braid in ((3, TREFOIL), (5, CINQUEFOIL)):
        for m in range(0, 3):
            bb = invariant(braid, (Partition((m,)),))
            if bb != torus_reference(s, m):
                ok = False
            zero = adjust_framing(bb.q_bar(), m, -s).q_bar()
            if zero != torus_reference(s, m, zero_framed=True):
                ok = False
    _report(3, "T(2,3)/T(2,5) rows match torus forms, framed and 0-framed", ok)


def test_criterion_4_unknot():
    ok = True
    for a in range(0, 6):
        v = homfly_columns(UNKNOT, (a,))
        if v != xbinom(0, a):
            ok = False
        for n in range(2, 7):
            if v.subst_x_eq_qn(n) != qbinom(n, a):
                ok = False
    _report(4, "unknot equals the x-binomial, a in 0..5, n in 2..6", ok)


def test_criterion_5_integrality(trefoil_cols, trefoil_rows_zero):
    values = []
    for a in range(0, 4):
        values.append((a, trefoil_cols[a]))
        values.append((a, trefoil_reference(a)))
    for m in range(0, 3):
        values.append((m, torus_reference(3, m)))
        values.append((m, torus_reference(5, m, zero_framed=True)))
        values.append((m, trefoil_rows_zero[m]))
        values.append((m, invariant(CINQUEFOIL, (Partition((m,)),))))
    for a in range(0, 6):
        values.append((a, homfly_columns(UNKNOT, (a,))))
    ok = True
    for n in (2, 3, 4):
        for color, v in values:
            if color <= n - 1:
                if not v.subst_x_eq_qn(n).den.is_one():
                    ok = False
    _report(5, "specializations at n in 2..4 are integer Laurent", ok)


def test_criterion_6_internal_consistency():
    ok = True
    for a in range(0, 4):
        ev, spec = Evaluator(4), {n: Evaluator(4, n) for n in (2, 3)}
        for _, word in enumerate_terms(TREFOIL, (a, a)):
            generic = ev.ev(word)
            for n, ev_n in spec.items():
                if generic.subst_x_eq_qn(n) != ev_n.ev(word):
                    ok = False
    _report(6, "generic and specialized evaluation agree on all trefoil words", ok)


def test_criterion_7_jacobi_trudi(trefoil_cols):
    # the h-form of (1,1) by its two-cable sum: invariant would take the
    # one-cable e_2 route, the very value it is compared with
    got = homfly_partition(TREFOIL, (Partition((2,)),)).q_bar()
    ok = got == trefoil_cols[2]
    _report(7, "w_partition(trefoil, (1,1)) by two cables equals "
               "w_columns(trefoil, e_2)", ok)


def test_criterion_8_symmetries():
    ok = True
    hopf = parse_braid("1 1", 2)
    if homfly_columns(hopf, (1, 2)) != homfly_columns(hopf, (2, 1)):
        ok = False
    rng = random.Random(88)
    sides = 4
    ev = Evaluator(sides)
    for a in range(0, 4):
        v = homfly_columns(TREFOIL, (a,))
        if v.q_bar().q_bar() != v:
            ok = False
    for _ in range(100):
        n = rng.randint(1, 8)
        letters = tuple(Letter(rng.choice("EF"), rng.randint(1, sides - 1),
                               rng.randint(0, 2)) for _ in range(n))
        base = ev.ev(letters)
        # commuting-letter invariance
        spots = [i for i in range(n - 1)
                 if abs(letters[i].index - letters[i + 1].index) > 1]
        if spots:
            i = rng.choice(spots)
            swapped = list(letters)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if ev.ev(swapped) != base:
                ok = False
        # merge invariance
        kind = rng.choice("EF")
        idx = rng.randint(1, sides - 1)
        r, s = rng.randint(0, 2), rng.randint(0, 2)
        cut = rng.randint(0, n)
        split = letters[:cut] + (Letter(kind, idx, s), Letter(kind, idx, r)) \
            + letters[cut:]
        merged = letters[:cut] + (Letter(kind, idx, r + s),) + letters[cut:]
        lhs = ev.ev(split)
        rhs = ev.ev(merged).scale(qbinom(r + s, r))
        if lhs != rhs:
            ok = False
    _report(8, "component permutation, involution, commuting/merge relations", ok)


def test_criterion_9_recurrence_guessing():
    f = {a: xbinom(0, a) for a in range(0, 9)}
    op = guess(f, 1, 2)
    ok = op is not None and op.order == 1 and op.verify(f, range(0, 8))
    _report(9, "guessed order-1 unknot operator verifies on a in 0..8", ok)
