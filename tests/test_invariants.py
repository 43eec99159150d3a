import pytest
from hypothesis import example, given, settings, strategies as st

from homflypt import (Braid, BraidError, Evaluator, Partition,
                      adjust_framing, build_cap, build_cup, cable,
                      closure_info, crossing_sums,
                      enumerate_terms, homfly_columns, homfly_partition,
                      invariant, parse_braid, qbinom, torus_reference,
                      trefoil_reference, xbinom)
from homflypt.rings import (LaurentQ, RatQ, XPoly, _cyclo_product,
                            xpoly_divexact, xpoly_sum)

TREFOIL = parse_braid("1 1 1", 2)
UNKNOT = parse_braid("", 1)
HOPF = parse_braid("1 1", 2)


def _row(a):
    return Partition((a,))


def _strand_colors(braid, colors):
    return tuple(colors[c] for c in closure_info(braid).component_of_strand)


def test_partition_basics():
    assert Partition((3, 1, 1, 0, 0)) == Partition((3, 1, 1))
    assert Partition((3, 1)).transpose() == Partition((2, 1, 1))
    assert Partition(()).transpose() == Partition(())
    for parts in ((2,), (4, 2, 1), (1, 1, 1)):
        assert Partition(parts).transpose().transpose() == Partition(parts)
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_partition_parts_must_be_integers():
    for parts in ((2.5, 1), (2.0, 1), (1, 1.0), ("2",)):
        with pytest.raises(ValueError, match="parts must be integers"):
            Partition(parts)


def test_partition_is_an_immutable_value():
    lam = Partition((3, 1, 0))
    assert lam == Partition((3, 1)) and hash(lam) == hash(Partition([3, 1]))
    assert lam != Partition((3, 2)) and lam != (3, 1)
    assert lam.parts == (3, 1) and len(lam) == 2 and len(Partition((0,))) == 0
    with pytest.raises(AttributeError):
        lam.parts = (4,)
    with pytest.raises(AttributeError):
        del lam.parts
    assert lam.parts == (3, 1)


def test_unknot_columns():
    for a in range(0, 6):
        v = homfly_columns(UNKNOT, (a,))
        assert v == xbinom(0, a)
        for n in range(2, 7):
            assert v.subst_x_eq_qn(n) == qbinom(n, a)


def test_color_zero_is_one():
    assert homfly_columns(TREFOIL, (0,)) == XPoly.one()
    assert homfly_columns(parse_braid("1 -2 1", 3), (0, 0)) == XPoly.one()


def test_negative_color_vanishes():
    assert homfly_columns(TREFOIL, (-1,)).is_zero()
    for braid, colors in ((TREFOIL, (-1,)), (HOPF, (2, -1)), (HOPF, (_row(2), -1))):
        for framing in ("blackboard", "zero"):
            assert invariant(braid, colors, framing) == XPoly.zero()


def test_trefoil_matches_reference(trefoil_cols):
    for a in range(0, 4):
        assert trefoil_cols[a] == trefoil_reference(a)


def test_trefoil_reference_at_zero():
    assert trefoil_reference(0) == XPoly.one()


def test_reference_support_is_finite():
    # the six-fold sum trivially terminates for small colors; spot check the
    # specialized values stay integral
    for a in range(0, 4):
        assert trefoil_reference(a).subst_x_eq_qn(a + 2).den.is_one()


def test_rows_are_qbar_of_columns(trefoil_cols):
    for a in range(0, 3):
        rows = invariant(TREFOIL, (_row(a),))
        assert rows == trefoil_cols[a].q_bar()


def test_zero_framing_commutes_with_transpose():
    # two components, the first with blackboard self-framing 3
    braid = parse_braid("1 1 1 2 2", 3)
    assert closure_info(braid).linking == ((3, 1), (1, 0))
    for colors in ((1, 1), (2, 1)):
        zero = invariant(braid, colors, "zero")
        assert invariant(braid, tuple(map(_row, colors)), "zero") == zero.q_bar()
        assert zero != invariant(braid, colors)


def test_invariant_rejects_unknown_framing_and_colors():
    with pytest.raises(ValueError):
        invariant(UNKNOT, (1,), "zero-framed")
    for colors in (("e1",), (1.0,), (None,)):
        with pytest.raises(TypeError):
            invariant(UNKNOT, colors)
    with pytest.raises(BraidError):
        invariant(HOPF, (1,))


def test_unknot_row_color_one_fixed():
    v = invariant(UNKNOT, (_row(1),))
    assert v == xbinom(0, 1)


def _unit_framing(a):
    return adjust_framing(XPoly.one(), a, 1)


def test_framing_factor_closed_form():
    for a in range(0, 4):
        assert _unit_framing(a) == XPoly.mono(RatQ.q_power(a - a * a), a)
        # one column (1^a) is e_a, one row (a) has the row factor of
        # torus_reference, q^(a^2 - a) x^a
        assert adjust_framing(XPoly.one(), Partition((1,) * a), 1) == _unit_framing(a)
        assert adjust_framing(XPoly.one(), Partition((a,)), 1) \
            == XPoly.mono(RatQ.q_power(a * a - a), a)
    # 2 kappa of (3, 1) is 2 (0 + 1 + 2 - 1)
    assert adjust_framing(XPoly.one(), Partition((3, 1)), -2) \
        == XPoly.mono(RatQ.q_power(-8), -8)


def test_framing_factor_matches_engine():
    # the closure of sigma_1 is the +1-framed unknot
    kink_braid = parse_braid("1", 2)
    for a in range(0, 4):
        assert xpoly_divexact(homfly_columns(kink_braid, (a,)),
                              homfly_columns(UNKNOT, (a,))) \
            == _unit_framing(a)
        assert invariant(kink_braid, (_row(a),)) \
            == adjust_framing(invariant(UNKNOT, (_row(a),)).q_bar(), a, 1).q_bar()


def test_columns_match_binary_fold():
    # the reference adds one term at a time; the last two cases are the
    # cables that the trefoil colored by p(1,1) evaluates
    cabled = cable(TREFOIL, (2,)).braid
    cases = [(TREFOIL, (a,)) for a in (1, 2, 3)] + [
        (parse_braid("1 -2 1 -2", 3), (2,)),
        (HOPF, (1, 3))] + [
        (cabled, colors) for colors in ((1, 1), (2, 0))]
    for braid, colors in cases:
        ev = Evaluator(2 * braid.strands)
        sc = _strand_colors(braid, colors)
        fold = XPoly.zero()
        for c, w in enumerate_terms(braid, sc):
            fold = fold + ev.ev(w).scale(c)
        assert ev.contract(build_cap(sc), crossing_sums(braid, sc),
                           build_cup(sc)) == fold
        assert homfly_columns(braid, colors) == fold


def test_columns_take_no_evaluator():
    # the engine sizes its evaluator; a caller's of the wrong size gave 0
    with pytest.raises(TypeError):
        homfly_columns(TREFOIL, (1,), evaluator=Evaluator(6))


def test_adjust_framing_group_law():
    v = homfly_columns(UNKNOT, (2,))
    assert adjust_framing(v, 2, 0) == v
    for delta in range(-3, 4):
        there = adjust_framing(v, 2, delta)
        assert adjust_framing(there, 2, -delta) == v
    with pytest.raises(ValueError):
        adjust_framing(v, -1, 1)
    with pytest.raises(ValueError):
        _unit_framing(-1)


def test_torus_reference_m0():
    assert torus_reference(3, 0) == XPoly.one()
    assert torus_reference(5, 0, zero_framed=True) == XPoly.one()


def test_torus_blackboard_matches_engine(trefoil_cols):
    for m in range(0, 3):
        assert trefoil_cols[m].q_bar() == torus_reference(3, m)


def test_torus_zero_framed_matches_engine(trefoil_rows_zero):
    for m in range(0, 3):
        assert trefoil_rows_zero[m] == torus_reference(3, m, zero_framed=True)


def test_zero_framed_rows_match_torus_closed_form():
    # the row path of invariant, framing and transpose, against an
    # independent closed form for the 0-framed (2,s) torus knots
    for s in (1, 3, 5):
        braid = parse_braid(" ".join(["1"] * s), 2)
        for m in (2, 3):
            assert invariant(braid, (_row(m),), "zero") \
                == torus_reference(s, m, zero_framed=True)


def test_torus_s1_is_framed_unknot():
    # closure of sigma_1 is the unknot with framing 1
    for m in range(0, 4):
        flat = invariant(UNKNOT, (_row(m),))
        expect = adjust_framing(flat.q_bar(), m, 1).q_bar()
        assert torus_reference(1, m) == expect


def test_torus_reference_carries_exponent_vectors():
    # 1/[b] is built with its vector, so no coefficient needs a gcd
    for r in torus_reference(3, 10, zero_framed=True).c.values():
        assert r._vec is not None and _cyclo_product(r._vec) == r.den


def test_torus_zero_framed_needs_odd_s():
    with pytest.raises(ValueError):
        torus_reference(2, 1, zero_framed=True)


def test_component_permutation_symmetry():
    a = homfly_columns(HOPF, (1, 2))
    b = homfly_columns(HOPF, (2, 1))
    assert a == b


def test_integrality_of_specializations(trefoil_cols):
    for n in (2, 3, 4):
        for a in range(0, n):
            assert trefoil_cols[a].subst_x_eq_qn(n).den.is_one()


def test_mirror_duality_generic():
    a = 1
    v = homfly_columns(TREFOIL, (a,))
    w = homfly_columns(TREFOIL.mirror(), (a,))
    assert w == v.q_inv().x_inv()


def test_mirror_duality_specialized():
    for a in (1, 2):
        v = homfly_columns(TREFOIL, (a,))
        w = homfly_columns(TREFOIL.mirror(), (a,))
        for n in (2, 3):
            assert w.subst_x_eq_qn(n) == v.subst_x_eq_qn(n).q_inv()


def test_partition_single_row_is_rows():
    # a Partition row against the closed form of the (2,3) torus knot in rows
    for a in (1, 2):
        assert invariant(TREFOIL, (_row(a),)) == torus_reference(3, a)


def test_partition_row_on_unknot_via_columns():
    # two cables: det(e_{1+j-i}) with colors (1, 1) and (2, 0); invariant
    # would take the one-cable h_2 route, so the sum is called directly
    got = homfly_partition(UNKNOT, (_row(2),))
    assert got == invariant(UNKNOT, (_row(2),))


@pytest.mark.slow
def test_partition_column_cross_check(trefoil_cols):
    # two cables: the column colors of (1,1)^t = (2), called directly since
    # invariant would take the one-cable e_2 route
    got = homfly_partition(TREFOIL, (_row(2),)).q_bar()
    assert got == trefoil_cols[2]


def test_homfly_partition_is_the_column_form():
    # the e-form of mu in column colors, framed and transposed by nobody
    for parts in ((1, 1), (2, 1)):
        mu = Partition(parts)
        assert homfly_partition(HOPF, (mu, _row(1))) == invariant(HOPF, (mu, 1))
        assert homfly_partition(HOPF, (mu.transpose(), _row(1))).q_bar() \
            == invariant(HOPF, (mu, _row(1)))
    assert homfly_partition(UNKNOT, (Partition(()),)) == XPoly.one()


def test_partition_trace_logs_the_untraced_value():
    # the one evaluator of the cables logs to the caller's trace
    for braid, colors in ((UNKNOT, (Partition((2, 1)),)),
                          (HOPF, (Partition((1, 1)), 1))):
        for framing in ("blackboard", "zero"):
            lines = []
            got = invariant(braid, colors, framing, trace=lines.append)
            assert lines and got == invariant(braid, colors, framing)


class _Cabled(Exception):
    pass


def _cable_widths(monkeypatch, braid, colors):
    # the widths of the cable that invariant builds, one per Jacobi-Trudi
    # sum; the sum is cut off there
    from homflypt import invariants
    widths = []

    def recording(braid, w):
        widths.append(w)
        raise _Cabled
    monkeypatch.setattr(invariants, "cable", recording)
    with pytest.raises(_Cabled):
        invariant(braid, colors)
    return tuple(widths[0])


@pytest.mark.parametrize("parts", [(3,), (1, 1, 1), (2, 1, 1), (3, 1), (2, 1)])
def test_lone_partition_takes_the_narrower_cable(monkeypatch, parts):
    lam = Partition(parts)
    for color in (lam, lam.transpose()):
        width, = _cable_widths(monkeypatch, TREFOIL, (color,))
        assert width == min(parts[0], len(parts))


def test_one_cable_and_one_evaluator_per_jacobi_trudi_sum(monkeypatch):
    # p(2,1) is its own transpose: two columns, so two signed terms, and
    # every term is a coloring of the same cable
    from homflypt import invariants
    calls = {}
    cable_, evaluator = invariants.cable, invariants.Evaluator

    def counted_cable(*args):
        calls["cable"] += 1
        return cable_(*args)

    class CountedEvaluator(evaluator):
        def __init__(self, *args, **kwargs):
            calls["Evaluator"] += 1
            super().__init__(*args, **kwargs)

        def contract(self, *args):
            calls["contract"] += 1
            return super().contract(*args)
    monkeypatch.setattr(invariants, "cable", counted_cable)
    monkeypatch.setattr(invariants, "Evaluator", CountedEvaluator)
    p21 = Partition((2, 1))
    for braid, colors in ((UNKNOT, (p21,)), (HOPF, (p21, _row(1)))):
        calls.update(cable=0, Evaluator=0, contract=0)
        invariant(braid, colors)
        assert calls == {"cable": 1, "Evaluator": 1, "contract": 2}


def _column(color):
    return color if isinstance(color, Partition) else Partition((1,) * color)


def _widths(mus):
    # a component of column color mu has max(mu_1, 1) parallels
    return tuple(max(len(mu.transpose()), 1) for mu in mus)


def _strands(braid, mus):
    widths = _widths(mus)
    return sum(widths[c] for c in closure_info(braid).component_of_strand)


def test_partition_next_to_a_color_takes_the_fewer_strands(monkeypatch):
    # the cables corpus of the benchmark, and neighbours of every kind: the
    # cable has the fewer strands of the column colors and their transposes,
    # and a tie keeps the colors as given
    t24, unlink = parse_braid("1 1 1 1", 2), parse_braid("", 2)
    p = Partition
    cases = [(TREFOIL, (p((1, 1)),)), (HOPF, (p((2, 1)), _row(1))),
             (HOPF, (p((2, 1, 1)), _row(1))), (HOPF, (p((3, 2)), _row(1))),
             (t24, (p((2, 1)), _row(1))), (UNKNOT, (p((2, 1)),)),
             (UNKNOT, (p((2, 2, 1)),))]
    for parts in ((2, 1, 1), (3, 1), (3, 3, 1)):
        for other in (0, 1, _row(1), 2, _row(2), p((2, 1)), p((3,))):
            cases += [(HOPF, (p(parts), other)), (unlink, (other, p(parts)))]
    for braid, colors in cases:
        given = [_column(c) for c in colors]
        flipped = [mu.transpose() for mu in given]
        want = given if _strands(braid, given) <= _strands(braid, flipped) else flipped
        assert _cable_widths(monkeypatch, braid, colors) == _widths(want)
    # the corpus case that leaves the 4-strand cable, a tie and a transpose
    for colors, widths in (((p((2, 1, 1)), _row(1)), (2, 1)),
                           ((p((3, 1)), 2), (3, 1)), ((p((3, 1)), _row(2)), (2, 1))):
        assert _cable_widths(monkeypatch, HOPF, colors) == widths


def test_partition_zero_framing_is_kink_invariant():
    # the closures of sigma_1 and sigma_1^-1 on two strands are the unknot
    # framed +1 and -1: zero framing must not see the kink, blackboard must
    for parts in ((2, 1), (3, 1), (2, 1, 1)):
        lam = (Partition(parts),)  # invariant takes the narrower cable itself
        want = invariant(UNKNOT, lam, "zero")
        assert want == invariant(UNKNOT, lam)
        for word in ("1", "-1"):
            kink = parse_braid(word, 2)
            assert invariant(kink, lam, "zero") == want
            assert invariant(kink, lam) != want


def test_partition_routes_agree():
    # s_lambda by lambda_1 cables of column colors or by l(lambda) cables of
    # row colors: the same value when every other color is 0.  invariant
    # takes the narrower route alone, so both are called here directly
    cases = [(TREFOIL, (1, 1)), (TREFOIL, (2,)), (parse_braid("", 2), (2, 1, 1))]
    for braid, parts in cases:
        ncomp = closure_info(braid).component_count
        lam, empty = Partition(parts), (Partition(()),) * (ncomp - 1)
        e_route = homfly_partition(braid, (lam,) + empty)
        h_route = homfly_partition(braid, (lam.transpose(),) + empty)
        assert e_route == h_route.q_bar()
        kink = -closure_info(braid).linking[0][0]
        assert adjust_framing(e_route, lam, kink) \
            == adjust_framing(h_route, lam.transpose(), kink).q_bar()


def test_partition_next_to_integer_colors():
    # one-column (1^b) beside e_a is e_b e_a: one-strand cables, so this
    # checks the plumbing; rows (b) beside (a) are their transposes
    for a, b in ((1, 2), (2, 1), (0, 2)):
        for framing in ("blackboard", "zero"):
            columns = invariant(HOPF, (b, a), framing)
            assert invariant(HOPF, (Partition((1,) * b), a), framing) == columns
            assert invariant(HOPF, (_row(b), _row(a)), framing) == columns.q_bar()
    assert invariant(HOPF, (Partition((2, 1)), -1)).is_zero()


def test_writhe_two_unknot_on_three_strands():
    # closure of sigma_1 sigma_2 is the unknot with framing 2; exercises the
    # three-strand cup/cap words and mixed crossing indices
    for a in (1, 2):
        v = homfly_columns(parse_braid("1 2", 3), (a,))
        unknot = homfly_columns(UNKNOT, (a,))
        assert v == unknot * _unit_framing(a) * _unit_framing(a)


def test_figure_eight_jones_value():
    got = homfly_columns(parse_braid("1 -2 1 -2", 3), (1,)).subst_x_eq_qn(2)
    assert got == RatQ(LaurentQ({5: 1, -5: 1}))


def test_even_torus_links_match_reference():
    for s in (2, 4):
        braid = parse_braid(" ".join(["1"] * s), 2)
        for m in (1, 2):
            eng = invariant(braid, (_row(m),) * 2)
            assert eng == torus_reference(s, m)


def _hook_content(parts):
    # quantum dimension of the unknot colored by a partition: product over
    # cells of (x q^content - x^-1 q^-content) / (q^hook - q^-hook)
    lam = Partition(parts)
    conj = lam.transpose().parts
    num, den = XPoly.one(), RatQ.one()
    for i, row in enumerate(lam.parts):
        for j in range(row):
            c = j - i
            num = num * XPoly({1: RatQ.q_power(c), -1: -RatQ.q_power(-c)})
            hook = (row - j) + (conj[j] - i) - 1
            den = den * RatQ(LaurentQ({hook: 1, -hook: -1}))
    return num.scale(RatQ.one() / den)


def test_partition_unknot_hook_content():
    # both routes directly, and invariant, which takes only the narrower one
    for parts in ((2, 1), (3, 1), (2, 2)):
        lam, want = Partition(parts), _hook_content(parts)
        assert homfly_partition(UNKNOT, (lam,)) == want
        assert homfly_partition(UNKNOT, (lam.transpose(),)).q_bar() == want
        assert invariant(UNKNOT, (lam,)) == want
        assert invariant(UNKNOT, (lam.transpose(),)).q_bar() == want


# the colors the oracles below pair up: e_2, h_2, (2,1), (1,1), (3,1) and the
# empty partition, each as an int or a Partition
_MIXED = (2, _row(2), Partition((2, 1)), Partition((1, 1)), Partition((3, 1)),
          Partition(()))


def _pairs(braid, sides, max_strands):
    # unordered pairs of distinct colors whose cables, as given and
    # transposed, have at most max_strands strands on the sides that are run
    # (min: the one invariant takes, max: both); the time of a cable grows
    # fast with its strand count
    for i, lam in enumerate(_MIXED):
        for mu in _MIXED[i + 1:]:
            mus = [_column(lam), _column(mu)]
            if sides(_strands(braid, mus),
                     _strands(braid, [m.transpose() for m in mus])) <= max_strands:
                yield lam, mu


@pytest.mark.parametrize("framing", ["blackboard", "zero"])
def test_split_unlink_is_the_product_of_its_unknots(framing):
    unlink = parse_braid("", 2)
    for lam in _MIXED:
        for mu in _MIXED:
            assert invariant(unlink, (lam, mu), framing) \
                == _hook_content(_column(lam).parts) * _hook_content(_column(mu).parts)


@pytest.mark.parametrize("framing", ["blackboard", "zero"])
@pytest.mark.parametrize("word", ["1 1", "1 1 1 1"])
def test_two_component_torus_links_are_symmetric_in_their_colors(word, framing):
    # swapping the colors swaps which component is cabled
    braid = parse_braid(word, 2)
    for lam, mu in _pairs(braid, min, 3):
        assert invariant(braid, (lam, mu), framing) \
            == invariant(braid, (mu, lam), framing)


def test_mixed_colors_transpose_by_q_bar():
    # both sides of the transpose rule, called directly: invariant runs only
    # the one with fewer strands
    for braid in (HOPF, parse_braid("", 2)):
        for lam, mu in _pairs(braid, max, 4):
            mus = [_column(lam), _column(mu)]
            assert homfly_partition(braid, mus) \
                == homfly_partition(braid, [m.transpose() for m in mus]).q_bar()


def test_self_conjugate_color_is_qbar_invariant():
    got = invariant(UNKNOT, (Partition((2, 1)),))
    assert got.q_bar() == got


def test_generic_values_match_classical_homfly():
    # full two-variable agreement with the classical skein polynomial
    # (conventions here send the skein variable a to x^-1)
    d = RatQ(LaurentQ({1: 1, -1: -1}))
    dim = XPoly({1: RatQ.one() / d, -1: -(RatQ.one() / d)})
    z2 = XPoly.from_ratq(d * d)

    fig8 = homfly_columns(parse_braid("1 -2 1 -2", 3), (1,))
    assert fig8 == dim * (XPoly.x_power(2) + XPoly.x_power(-2)
                          - XPoly.one() - z2)

    tre0 = adjust_framing(homfly_columns(TREFOIL, (1,)), 1, -3)
    xm2, xm4 = XPoly.x_power(-2), XPoly.x_power(-4)
    assert tre0 == dim * (xm2.scale(RatQ.from_int(2)) - xm4 + xm2 * z2)

    cinq = homfly_columns(parse_braid("1 1 1 1 1", 2), (1,))
    cinq0 = adjust_framing(cinq, 1, -5)
    a4, a6 = XPoly.x_power(-4), XPoly.x_power(-6)
    assert cinq0 == dim * (a4.scale(RatQ.from_int(3))
                           - a6.scale(RatQ.from_int(2))
                           + (a4.scale(RatQ.from_int(4)) - a6) * z2
                           + a4 * z2 * z2)


def test_mirror_duality_two_component_link():
    hopf = parse_braid("1 1", 2)
    for colors in ((1, 1), (1, 2)):
        v = homfly_columns(hopf, colors)
        w = homfly_columns(hopf.mirror(), colors)
        assert w == v.q_inv().x_inv()


# -- invariance properties on random colored braids: at most 3 strands, 4
# crossings and color 2 in every braid evaluated

def _generators(strands):
    return st.sampled_from([g for i in range(1, strands) for g in (i, -i)])


@st.composite
def _colored_braids(draw, max_strands=3, max_crossings=4):
    strands = draw(st.integers(1, max_strands))
    word = ()
    if strands > 1:
        word = tuple(draw(st.lists(_generators(strands), max_size=max_crossings)))
    braid = Braid(strands, word)
    k = closure_info(braid).component_count
    return braid, tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))


def _colored(braid, strand_color):
    """The braid with the component through bottom position p colored
    strand_color(p)."""
    comp = closure_info(braid).component_of_strand
    colors = [0] * (max(comp) + 1)
    for p, c in enumerate(comp):
        colors[c] = strand_color(p)
    return braid, tuple(colors)


@st.composite
def _conjugations(draw):
    """A colored braid beta, a rotation k and a braid gamma such that
    gamma . rotate_k(beta) . gamma^-1 has at most 4 crossings; rotate_k is
    conjugation by the first k letters of beta."""
    braid, colors = draw(_colored_braids())
    strands, word = braid.strands, braid.word
    k = draw(st.integers(0, len(word)))
    room = (4 - len(word)) // 2 if strands > 1 else 0
    gamma = ()
    if room:
        gamma = tuple(draw(st.lists(_generators(strands), min_size=1,
                                    max_size=room)))
    return (braid, colors), k, gamma


_PROPERTY = settings(max_examples=50, deadline=None)


@_PROPERTY
@given(_conjugations())
# a Hopf link and an unknot, moved between strands by the rotation, by
# gamma, and by both (where the order of the two relabelings matters)
@example(((parse_braid("2 1 1 -2", 3), (1, 0, 2)), 1, ()))
@example(((parse_braid("1 1", 3), (1, 2, 0)), 1, (2,)))
def test_conjugation_invariance(case):
    (braid, colors), k, gamma = case
    strands, word = braid.strands, braid.word
    conj = Braid(strands, gamma + word[k:] + word[:k]
                 + tuple(-g for g in reversed(gamma)))
    # bottom position p of conj is position via_gamma[p] at the bottom of the
    # rotated word, which is that position between word[:k] and word[k:]
    via_gamma = Braid(strands, gamma).permutation()
    prefix = Braid(strands, word[:k]).permutation()
    to_bottom = {top: p for p, top in enumerate(prefix)}
    sc = _strand_colors(braid, colors)
    other = _colored(conj, lambda p: sc[to_bottom[via_gamma[p]]])
    assert homfly_columns(*other) == homfly_columns(braid, colors)


@_PROPERTY
@given(_colored_braids(max_strands=2, max_crossings=3), st.sampled_from((1, -1)))
def test_markov_stabilization_up_to_framing(cb, sign):
    # beta sigma_s^(+-1) on s + 1 strands: the new strand joins the
    # component of strand s, whose framing changes by +-1
    braid, colors = cb
    s = braid.strands
    sc = _strand_colors(braid, colors)
    stab = _colored(Braid(s + 1, braid.word + (sign * s,)),
                    lambda p: sc[min(p, s - 1)])
    assert homfly_columns(*stab) == adjust_framing(homfly_columns(braid, colors),
                                                   sc[s - 1], sign)


@_PROPERTY
@given(_colored_braids())
def test_mirror_is_q_and_x_inverted(cb):
    braid, colors = cb
    assert homfly_columns(braid.mirror(), colors) \
        == homfly_columns(braid, colors).q_inv().x_inv()


@_PROPERTY
@given(_colored_braids())
def test_integral_at_x_equals_q_power(cb):
    value = homfly_columns(*cb)
    for n in (1, 2, 3):
        assert value.subst_x_eq_qn(n).den.is_one()


@_PROPERTY
@given(_colored_braids())
def test_generic_agrees_with_specialized(cb):
    braid, colors = cb
    sides = 2 * braid.strands
    ev, spec = Evaluator(sides), {n: Evaluator(sides, n) for n in (2, 3)}
    for _, w in enumerate_terms(braid, _strand_colors(braid, colors)):
        generic = ev.ev(w)
        for n, ev_n in spec.items():
            assert generic.subst_x_eq_qn(n) == ev_n.ev(w)


@_PROPERTY
@given(_colored_braids())
# both crossing signs with unequal colors, on three and on two components
@example((parse_braid("2 -1 -1 2", 3), (2, 1, 0)))
@example((parse_braid("1 -2 -2 1 1", 3), (2, 1)))
def test_columns_match_product_oracle(cb):
    # the crossing-by-crossing contraction over the tight box equals the sum
    # of the expanded product words over the wide box, generically and at
    # x = q^2
    braid, colors = cb
    sides = 2 * braid.strands
    sc = _strand_colors(braid, colors)
    ev = Evaluator(sides)
    value = homfly_columns(braid, colors)
    assert value == xpoly_sum(ev.ev(w).scale(c)
                              for c, w in enumerate_terms(braid, sc))
    at_two = Evaluator(sides, 2).contract(build_cap(sc), crossing_sums(braid, sc),
                                          build_cup(sc))
    assert at_two == value.subst_x_eq_qn(2)


@_PROPERTY
@given(_colored_braids(), st.sampled_from(("blackboard", "zero")),
       st.booleans())
def test_engine_values_carry_their_exponent_vectors(cb, framing, rows):
    # every coefficient of a generic value, and of every memo entry, holds
    # an exponent vector whose cyclotomic product is its denominator
    braid, colors = cb
    if rows:    # row colors: the value is transposed by q -> -q^-1
        colors = tuple(Partition((c,)) for c in colors)
    values = [invariant(braid, colors, framing)]
    sc = _strand_colors(braid, cb[1])
    ev = Evaluator(2 * braid.strands)
    values.append(ev.contract(build_cap(sc), crossing_sums(braid, sc),
                              build_cup(sc)))
    values += [v for state in ev._memo.values() for v in state.values()]
    for value in values:
        for r in value.c.values():
            assert r._vec is not None and _cyclo_product(r._vec) == r.den
