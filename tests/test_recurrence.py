import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from homflypt import (OperatorError, Partition, RecurrenceOperator, guess,
                      invariant, parse_braid, parse_operator, parse_xpoly, qint,
                      rings, torus_reference, trefoil_recurrence, xbinom)
from homflypt.recurrence import (_kernel_reduce, _nullspace_columns, _row_dot,
                                 _vector_normalize)
from homflypt.rings import LaurentQ, RatQ, XPoly, laurent_gcd


def test_parse_xpoly_roundtrip():
    for text in ("(q^2 - q^-2)/(q - q^-1) * x^1",
                 "1", "0", "-x^3 + 2*q*x^-1", "q^-5"):
        p = parse_xpoly(text)
        assert parse_xpoly(p.text()) == p


def test_parse_rejects_operators_as_scalars():
    with pytest.raises(OperatorError):
        parse_xpoly("M + 1")


def test_operator_normalization():
    assert parse_operator("L*M") == parse_operator("q*M*L")
    assert parse_operator("L^2*M^3") == parse_operator("q^6*M^3*L^2")


def test_operator_is_an_immutable_value():
    op = parse_operator("q*M*L - 1")
    again = RecurrenceOperator({(1, 1): parse_xpoly("q"), (0, 0): parse_xpoly("-1"),
                                (2, 0): parse_xpoly("0")})
    assert op == again and hash(op) == hash(again)
    assert op.order == 1 and op != parse_operator("q*M*L + 1")
    with pytest.raises(AttributeError):
        op.terms = ()
    assert op == again


def test_operator_text_roundtrip(unknot_guess):
    op = parse_operator("(q^2*x)*M^2*L^1 + (-x)*L^1 + (q)*M^2 + (-q*x^2)")
    assert parse_operator(op.text()) == op
    for P in (trefoil_recurrence(), unknot_guess[0]):
        assert parse_operator(P.text()) == P


def test_parse_refuses_deep_nesting():
    text = "(" * 2000 + "L-1" + ")" * 2000
    with pytest.raises(OperatorError, match="nested too deeply"):
        parse_operator(text)
    assert parse_operator("(" * 50 + "L-1" + ")" * 50) == parse_operator("L-1")


def test_apply_shift_only():
    P = parse_operator("L - 1")
    const = {m: XPoly.one() for m in range(5)}
    assert P.verify(const, range(0, 4))
    ramp = {m: XPoly.from_int(m + 1) for m in range(5)}
    assert not P.verify(ramp, range(0, 4))


def test_apply_telescoping():
    # f(m) = q^(m(m-1)/2) satisfies f(m+1) = q^m f(m), i.e. (L - M) f = 0
    P = parse_operator("L - M")
    f = {m: XPoly.from_ratq(RatQ.q_power(m * (m - 1) // 2)) for m in range(6)}
    assert P.verify(f, range(0, 5))


def test_weyl_relation_on_sequences():
    rng = random.Random(21)
    LM = parse_operator("L*M")
    ML = parse_operator("M*L")
    f = {m: XPoly({rng.randint(-2, 2): RatQ.q_power(rng.randint(-3, 3))})
         for m in range(6)}
    for m in range(4):
        assert LM.apply(f, m) == ML.apply(f, m).scale(RatQ.q_power(1))


def test_apply_out_of_range():
    P = parse_operator("L - 1")
    with pytest.raises(OperatorError):
        P.apply({0: XPoly.one()}, 0)


def test_apply_checks_every_index():
    # f(1) is missing although L^1 has a zero coefficient
    with pytest.raises(OperatorError, match="index 1"):
        parse_operator("L^2 - 1").apply({0: XPoly.one(), 2: XPoly.one()}, 0)


def test_zero_operator_refused():
    with pytest.raises(OperatorError, match="empty operator"):
        RecurrenceOperator({(1, 0): XPoly.zero(), (0, 0): XPoly.zero()})
    with pytest.raises(OperatorError, match="empty operator"):
        parse_operator("L*M - q*M*L")
    with pytest.raises(OperatorError, match="negative L powers"):
        parse_operator("L^-1 + 1")


def test_trefoil_recurrence_annihilates_engine_sequence(trefoil_rows_zero):
    P = trefoil_recurrence()
    assert P.order == 2
    assert P.verify(trefoil_rows_zero, range(0, 3))


def test_trefoil_recurrence_on_closed_form_window():
    # the closed torus form extends the window cheaply
    seq = {m: torus_reference(3, m, zero_framed=True) for m in range(0, 7)}
    assert trefoil_recurrence().verify(seq, range(0, 5))


def test_trefoil_recurrence_fails_off_sequence(trefoil_rows_zero):
    assert not parse_operator("L - 1").verify(trefoil_rows_zero, range(0, 2))


def test_variant_normalization_equivalence():
    # the same recurrence written for the framing normalization that rescales
    # the m-th term by (q^2/x)^(3m); coefficients differ by (q^6 x^-3)^j
    a0 = "x^4*(x^2*M^2-1)*(q^6*x^2*M^4-1)"
    a1 = ("q^7*(q^4*x^2*M^4-1)*(q^8*x^4*M^8 - q^4*x^4*M^6 + q^2*x^4*M^4"
          " + x^4*M^4 - q^6*x^2*M^4 - q^2*x^2*M^4 - x^2*M^2 + 1)")
    a2 = "-q^18*x^2*M^6*(q^4*M^2-1)*(q^2*x^2*M^4-1)"
    P = parse_operator(f"({a2})*L^2 + ({a1})*L^1 + ({a0})")
    seq = {m: torus_reference(3, m).scale(RatQ.q_power(-3 * m * (m + 1)))
           for m in range(5)}
    assert P.verify(seq, range(0, 3))


def test_guess_constant():
    f = {m: XPoly.from_ratq(qint(2)) for m in range(6)}
    op = guess(f, 1, 0)
    assert op is not None
    assert op == parse_operator("L - 1")


def test_guess_unknot_order_one(unknot_guess):
    op, f = unknot_guess
    assert op is not None and op.order == 1
    assert op.verify(f, range(0, 8))


def test_guess_reverifies_on_all_indices(unknot_guess):
    op, f = unknot_guess
    # indices beyond any solving window still annihilate
    extended = dict(f)
    extended[9] = xbinom(0, 9)
    assert op.verify(extended, range(0, 9))


def test_guess_is_invariant_under_scaling():
    # the smallest window for order 1, M-degree 2: six start indices
    f = {a: xbinom(0, a) for a in range(7)}
    op = guess(f, 1, 2)
    assert op is not None
    one, L = LaurentQ.one(), LaurentQ
    for c in (RatQ.from_int(2), RatQ(one, L.from_int(2)),
              RatQ(L.mono(1, 3), L({0: 1, 4: -1}) * L({0: 1, 4: -1})),
              RatQ(one, L({2: 1, 0: 3})), RatQ(L({1: 2, 0: 2}), L.from_int(3))):
        assert guess({m: v.scale(c) for m, v in f.items()}, 1, 2) == op


def test_vector_normalize_clears_every_denominator():
    L = LaurentQ
    dens = (L({2: 1, 0: -1}), L({2: 1, 0: 3}), L.from_int(2), L({4: 1, 0: -1}))
    rng = random.Random(23)
    vec = [XPoly({e: RatQ(L({rng.randint(-2, 2): rng.choice((-6, 4, 10))}),
                          rng.choice(dens))
                  for e in range(3)}) for _ in range(4)]
    out = _vector_normalize(vec)
    assert all(r.den.is_one() for p in out for r in p.c.values())
    content = L.zero()
    for p in out:
        for r in p.c.values():
            content = laurent_gcd(content, r.num)
    assert content.is_one()
    assert all(out[0] * v == out[i] * vec[0] for i, v in enumerate(vec))


def _normalize_reference(vec):
    """Clear one denominator at a time, then scale by the inverse of the
    gcd of every coefficient."""
    while (den := next((r.den for p in vec for r in p.c.values()
                        if not r.den.is_one()), None)) is not None:
        vec = [p.scale(RatQ(den)) for p in vec]
    content = LaurentQ.zero()
    for p in vec:
        for r in p.c.values():
            content = laurent_gcd(content, r.num)
    if not (content.is_zero() or content.is_one()):
        vec = [p.scale(RatQ(content).inverse()) for p in vec]
    return vec


def test_vector_normalize_matches_reference():
    L = LaurentQ
    cyclotomic = (L({2: 1, 0: -1}), L({4: 1, 0: -1}),
                  L({2: 1, 0: -1}) * L({6: 1, 0: -1}), L({2: 1, 1: 1, 0: 1}))
    other = (L({2: 1, 0: 3}), L.from_int(2), L.from_int(3), L({1: 2, 0: -1}))
    contents = (L.one(), L.from_int(2), L.from_int(6), L({1: 2, 0: 3}),
                L({3: -1, 1: 1}) * L.from_int(2), L({2: 1, 0: -1}))
    rng = random.Random(24)
    for trial in range(120):
        dens = [L.one()] + list(rng.choice((cyclotomic, cyclotomic + other)))
        content = rng.choice(contents)

        def entry():
            if rng.random() < 0.25:
                return XPoly.zero()
            return XPoly({e: RatQ(L({k: rng.randint(-5, 5) or 1
                                     for k in rng.sample(range(-3, 4), 3)})
                                  * content, rng.choice(dens))
                          for e in rng.sample(range(-2, 3), rng.randint(1, 3))})
        vec = [entry() for _ in range(rng.randint(1, 5))]
        assert _vector_normalize(vec) == _normalize_reference(vec)
    # every entry integral, with a common content
    vec = [XPoly({0: RatQ(L({1: 4, 0: 6})), 2: RatQ(L({3: -2}))}),
           XPoly.zero(), XPoly({-1: RatQ(L({0: 2, 2: 2}) * L({1: 2, 0: 3}))})]
    assert _vector_normalize(vec) == _normalize_reference(vec)
    # d and d^2 for d = q^2 + 3: the lcm d^2 is not the product d^3
    d = L({2: 1, 0: 3})
    vec = [XPoly({0: RatQ(L.mono(5, 1), d), 1: RatQ(L.one())}),
           XPoly({2: RatQ(L({0: 1, 3: -2}), d * d)}),
           XPoly({0: RatQ(L.from_int(4), L({2: 1, 0: -1}))})]
    out = _vector_normalize(vec)
    assert out == _normalize_reference(vec)
    assert out[1].c[2].num == L({0: 1, 3: -2}) * L({2: 1, 0: -1})


def _unknot_values(family):
    unknot = parse_braid("", 1)
    return {m: invariant(unknot, (m if family == "e" else Partition((m,)),))
            for m in range(9)}


def _unknot_rows(family):
    """The rows of the linear system of `recur guess` on the unknot, m 0:8,
    order 1, M-degree 2, before normalization and written out: eight rows,
    six unknowns."""
    f = _unknot_values(family)
    return [[f[m + j].scale(RatQ.q_power(m * k))
             for j in range(2) for k in range(3)] for m in range(8)]


def _factored_rows(family):
    """The same rows as `guess` keeps them: (b, m), b the normalized
    values f(m), f(m + 1)."""
    f = _unknot_values(family)
    return [(_vector_normalize([f[m], f[m + 1]]), m) for m in range(8)]


@pytest.mark.parametrize("family", "eh")
def test_factored_rows_are_the_normalized_rows_at_k_zero(family):
    # q^(mk) is a unit of Z[q^±1]: it changes neither the common
    # denominator nor the content, so normalizing the b_j alone gives the
    # k = 0 entries of the normalized full row, and the row's other
    # entries are their q-shifts
    for (b, m), row in zip(_factored_rows(family), _unknot_rows(family)):
        full = _vector_normalize(row)
        assert b == full[::3]
        assert full == [p.scale(RatQ.q_power(m * k)) for p in b for k in range(3)]


@pytest.mark.parametrize("family", "eh")
def test_rows_are_lifted_without_scaling(monkeypatch, family):
    rows = _unknot_rows(family)
    expected = [_normalize_reference(row) for row in rows]
    calls = []

    def counted(name, fn):
        def spy(*args):
            calls.append(name)
            return fn(*args)
        return spy
    monkeypatch.setattr(rings, "_cyclo_mul",
                        counted("_cyclo_mul", rings._cyclo_mul))
    monkeypatch.setattr(XPoly, "scale", counted("XPoly.scale", XPoly.scale))
    assert [_vector_normalize(row) for row in rows] == expected
    assert calls == []


@pytest.mark.parametrize("family", "eh")
def test_elimination_takes_at_most_one_gcd_per_column_update(monkeypatch,
                                                            family):
    rows = _factored_rows(family)
    # only an update's normalizations count: the reductions of the
    # read-only copies (``_kernel_reduce``) normalize too
    gcds, per_update, reducing = [0], [], [False]
    list_gcd, normalize = rings._list_gcd, _vector_normalize

    def counted_gcd(a, b):
        gcds[0] += 1
        return list_gcd(a, b)

    def counted_normalize(vec):
        before = gcds[0]
        out = normalize(vec)
        if not reducing[0]:
            per_update.append(gcds[0] - before)
        return out

    def flagged_reduce(vec):
        reducing[0] = True
        try:
            return _kernel_reduce(vec)
        finally:
            reducing[0] = False
    monkeypatch.setattr(rings, "_list_gcd", counted_gcd)
    monkeypatch.setattr("homflypt.recurrence._vector_normalize",
                        counted_normalize)
    monkeypatch.setattr("homflypt.recurrence._kernel_reduce", flagged_reduce)
    assert len(_nullspace_columns(rows, 6)) == 1
    assert len(per_update) == 14
    assert max(per_update) <= 1


@pytest.mark.parametrize("family", "eh")
def test_elimination_reads_each_row_once(monkeypatch, family):
    """Only the tracking vectors are updated; a row is read as its
    products with them when it is reached, one per b_j whose block of the
    tracking vector (or of its reduced copy, which is nonzero at the same
    M = q^m) is nonzero at M = q^m.  The five pivot rows read 6 + 5 + 4 +
    3 + 2 columns, the three rows after them the one survivor, and the
    closing check all 8 rows: 31 row products, of 53 ``XPoly`` products.
    A survivor's copy is made at the first row it reads zero, and no row
    after that reads it nonzero here, so no track is read twice.  The 14
    updates take two products per entry, 168, and stripping a monomial
    unit off the kernel (``_kernel_reduce``) takes 6."""
    rows = _factored_rows(family)
    products, reads, row_dot, mul = [0], [0, 0], _row_dot, XPoly.__mul__

    def counted(a, b):
        products[0] += 1
        return mul(a, b)

    def counted_row_dot(row, vec):
        before = products[0]
        out = row_dot(row, vec)
        reads[0] += 1
        reads[1] += products[0] - before
        return out
    monkeypatch.setattr(XPoly, "__mul__", counted)
    monkeypatch.setattr("homflypt.recurrence._row_dot", counted_row_dot)
    assert len(_nullspace_columns(rows, 6)) == 1
    assert reads == [31, 53]
    assert products[0] == 53 + 168 + 6


_laurents = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9),
                            max_size=3).map(LaurentQ)
# den 1 (integral), a product of cyclotomics and one that is not
_dens = st.sampled_from([LaurentQ.one(), LaurentQ({2: 1, 0: -1}),
                         LaurentQ({4: 1, 2: 1, 0: 1}), LaurentQ({2: 1, 0: 3})])
_xpolys = st.dictionaries(st.integers(-2, 2), st.builds(RatQ, _laurents, _dens),
                          max_size=3).map(XPoly)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(-3, 9),
       st.lists(_xpolys, min_size=1, max_size=3), st.data())
def test_factored_row_product_is_the_dot_product(width, m, b, data):
    # zero entries come from the empty coefficient maps of _xpolys
    vec = data.draw(st.lists(_xpolys, min_size=len(b) * width,
                             max_size=len(b) * width))
    row = [bj.scale(RatQ.q_power(m * k)) for bj in b for k in range(width)]
    plain = sum((a * t for a, t in zip(row, vec)), XPoly.zero())
    assert _row_dot((b, m), vec) == plain


def test_closing_check_raises_on_a_wrong_kernel(monkeypatch):
    # one row (1, 1): the kernel is (-1, 1), but an update that returns
    # ones makes it (1, 1), which the closing check must refuse
    rows = [([XPoly.one(), XPoly.one()], 0)]
    assert _nullspace_columns(rows, 2) == [[-XPoly.one(), XPoly.one()]]
    monkeypatch.setattr("homflypt.recurrence._vector_normalize",
                        lambda vec: [XPoly.one()] * len(vec))
    with pytest.raises(AssertionError, match="does not annihilate"):
        _nullspace_columns(rows, 2)
    # python -O strips assert statements; the check is an explicit raise
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "from homflypt import recurrence as r\n"
            "from homflypt.rings import XPoly\n"
            "r._vector_normalize = lambda vec: [XPoly.one()] * len(vec)\n"
            "r._nullspace_columns([([XPoly.one(), XPoly.one()], 0)], 2)\n")
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "AssertionError: a kernel vector does not annihilate" in done.stderr


def _at(p, q, x):
    """p in Q(q)[x^±1] at rational q and x."""
    def lq(n):
        return sum(Fraction(v) * q ** e for e, v in n.c.items())
    return sum(lq(r.num) / lq(r.den) * x ** e for e, r in p.c.items())


def _rank(matrix):
    """The rank of a rational matrix, by Gaussian elimination over Q."""
    matrix, rank = [list(row) for row in matrix], 0
    for col in range(len(matrix[0]) if matrix else 0):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]),
                     None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(rank + 1, len(matrix)):
            f = matrix[i][col] / matrix[rank][col]
            matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def _random_system(rng, ncols, dim, mixed, zero_col):
    """Plain rows of rank ncols - dim, generically: that many random rows,
    then a zero row, a repeated row and a combination with coefficients in
    x and q, shuffled; with zero_col, one column is zero throughout.
    Without mixed, the entries are small integers, zeros among them."""
    L = LaurentQ

    def entry():
        if not mixed:
            return XPoly.from_int(rng.randint(-4, 4))
        return XPoly({e: RatQ(L({k: rng.randint(-3, 3)
                                 for k in rng.sample(range(-2, 3), 2)}))
                      for e in rng.sample(range(-1, 3), rng.randint(1, 2))})
    zero = rng.randrange(ncols) if zero_col else None
    basis = [[XPoly.zero() if i == zero else entry() for i in range(ncols)]
             for _ in range(ncols - dim)]
    rows = basis + [[XPoly.zero()] * ncols] + basis[:1]
    if len(basis) >= 2:
        a, b = XPoly.x_power(1), XPoly.from_ratq(RatQ.q_power(-1))
        rows.append([a * u - b * v for u, v in zip(basis[0], basis[1])])
    rng.shuffle(rows)
    return rows


def _oracle_rows(ncols, dim, mixed, zero_col):
    rng = random.Random(ncols * 100 + dim * 10 + mixed * 2 + zero_col)
    return _random_system(rng, ncols, dim, mixed, zero_col)


@pytest.mark.parametrize("ncols, dim, mixed, zero_col", [
    (4, 0, False, False), (3, 0, True, False), (4, 1, True, False),
    (5, 1, False, False), (5, 2, True, True), (6, 3, True, False),
    (5, 3, False, True), (3, 3, True, False)])
def test_nullspace_against_rational_oracle(ncols, dim, mixed, zero_col):
    """A system of known rank ncols - dim (``_random_system``).  The
    kernel's size and independence are checked at a rational point (the
    rank there is at most the generic rank), its annihilation exactly."""
    rows = _oracle_rows(ncols, dim, mixed, zero_col)
    q, x = Fraction(7, 3), Fraction(-5, 2)
    rank = _rank([[_at(p, q, x) for p in row] for row in rows])
    assert rank == ncols - dim
    kernels = _nullspace_columns([(row, 0) for row in rows], ncols)
    assert all(sum((a * b for a, b in zip(row, k)), XPoly.zero()).is_zero()
               for row in rows for k in kernels)
    assert _rank([[_at(p, q, x) for p in k] for k in kernels]) == len(kernels)
    assert len(kernels) == ncols - rank


def _track_elimination(rows, ncols):
    """The elimination with every row read through the tracking vectors
    alone, no reduced copies: returns the surviving tracks, unreduced, and
    whether a column read zero at a row with a nonzero b and was updated
    at a later row (where ``_nullspace_columns`` drops a copy)."""
    tracks = [[XPoly.one() if t == i else XPoly.zero() for t in range(ncols)]
              for i in range(ncols)]
    active, read_zero, dropped = list(range(ncols)), set(), False
    for row in rows:
        entry = {ci: _row_dot(row, tracks[ci]) for ci in active}
        hot = [ci for ci in active if not entry[ci].is_zero()]
        if not all(bj.is_zero() for bj in row[0]):
            read_zero.update(ci for ci in active if ci not in hot)
        if not hot:
            continue
        pi = min(hot, key=lambda ci: sum(len(p.c) for p in tracks[ci]))
        pvec, pr = tracks[pi], entry[pi]
        for ci in hot:
            if ci != pi:
                dropped |= ci in read_zero
                read_zero.discard(ci)
                tracks[ci] = _vector_normalize(
                    [pr * a - entry[ci] * b for a, b in zip(tracks[ci], pvec)])
        active.remove(pi)
    return [tracks[ci] for ci in active], dropped


def test_reduced_copies_leave_the_kernels_unchanged():
    # seeded systems of kernel dimension 0-3 with a zero row, some with a
    # zero column: the same vectors, in the same order, as reducing the
    # surviving tracks of the elimination that reads the tracks alone
    dims, drops = set(), 0
    for seed in range(24):
        rng = random.Random(seed)
        ncols = rng.randint(3, 4)
        dim = min(seed % 4, ncols)
        rows = _random_system(rng, ncols, dim, rng.random() < 0.5,
                              seed % 3 == 0)
        rows = [(row, 0) for row in rows]
        tracks, dropped = _track_elimination(rows, ncols)
        assert _nullspace_columns(rows, ncols) == [_kernel_reduce(t)
                                                   for t in tracks]
        dims.add(len(tracks))
        drops += dropped
    assert dims == {0, 1, 2, 3} and drops


def test_generic_oracle_kernel_reduces():
    # the survivor of the oracle system (4, 1, mixed) spans 10, 8, 8 and 6
    # powers of x and has a common factor of x-degree 2; over Q(q), the
    # remainders of its x-gcd swell past any use
    rows = [(row, 0) for row in _oracle_rows(4, 1, True, False)]
    (track,), _ = _track_elimination(rows, 4)
    kernel = _kernel_reduce(track)
    assert [p.max_exp - p.min_exp for p in track] == [10, 8, 8, 6]
    assert [p.max_exp - p.min_exp for p in kernel] == [8, 6, 6, 4]
    assert _kernel_reduce(kernel) == kernel
    assert _nullspace_columns(rows, 4) == [kernel]


@settings(max_examples=60, deadline=None)
@given(st.lists(_xpolys, min_size=1, max_size=4),
       st.dictionaries(st.integers(-2, 2), st.builds(RatQ, _laurents),
                       min_size=1, max_size=2).map(XPoly))
def test_kernel_reduce_ignores_a_common_factor(vec, c):
    # c in Z[q^±1][x^±1]
    assume(any(not p.is_zero() for p in vec) and not c.is_zero())
    assert _kernel_reduce([c * p for p in vec]) == _kernel_reduce(vec)


def test_a_dropped_copy_leaves_the_kernels_unchanged():
    # row 1 reads zero in columns 1 and 2, so both get a copy; row 2 picks
    # column 1 and updates column 2, whose copy is dropped
    x, q = XPoly.x_power(1), XPoly.from_ratq(RatQ.q_power(1))
    one, zero = XPoly.one(), XPoly.zero()
    rows = [([x + q, zero, zero], 0), ([x, q * x - one, x * x + q], 0)]
    tracks, dropped = _track_elimination(rows, 3)
    assert dropped
    kernels = _nullspace_columns(rows, 3)
    assert kernels == [_kernel_reduce(t) for t in tracks]
    assert kernels == [[zero, -x * x - q, q * x - one]]


@pytest.mark.parametrize("family, m_range, kernels", [
    ("e", range(8), 1), ("h", range(8), 1), ("e", range(9), 2)])
def test_unknot_kernels_match_the_reduced_tracks(family, m_range, kernels):
    # order 1: M-degree 2 on m 0:8 and M-degree 3 on m 0:9, where the
    # kernel has dimension 2
    unknot = parse_braid("", 1)
    f = {m: invariant(unknot, (m if family == "e" else Partition((m,)),))
         for m in range(m_range[-1] + 2)}
    rows = [(_vector_normalize([f[m], f[m + 1]]), m) for m in m_range]
    ncols = 2 * (kernels + 2)
    tracks, _ = _track_elimination(rows, ncols)
    assert len(tracks) == kernels
    assert _nullspace_columns(rows, ncols) == [_kernel_reduce(t)
                                               for t in tracks]


def test_guess_window_too_small():
    f = {m: XPoly.one() for m in range(3)}
    with pytest.raises(OperatorError):
        guess(f, 2, 3)


def test_guess_rejects_empty_bounds():
    f = {m: XPoly.one() for m in range(8)}
    for max_order, max_m_degree in ((0, 2), (2, -1)):
        with pytest.raises(OperatorError, match="max_order >= 1"):
            guess(f, max_order, max_m_degree)


def test_guess_none_when_no_recurrence_fits():
    rng = random.Random(22)
    f = {m: XPoly.from_ratq(RatQ(LaurentQ({m: 1, -m - 1: rng.randint(2, 9)})))
         for m in range(8)}
    assert guess(f, 1, 0) is None


@pytest.fixture(scope="module")
def unknot_guess():
    f = {a: xbinom(0, a) for a in range(0, 9)}
    return guess(f, 1, 2), f
