import pytest

from homflypt import (ColoredBraid, Partition, adjust_framing, framing_factor,
                      homfly_columns, homfly_partition, homfly_rows,
                      invariant, is_integral_laurent, parse_braid, qbinom,
                      torus_reference, trefoil_reference, xbinom)
from homflypt.rings import LaurentQ, RatQ, XPoly

TREFOIL = parse_braid("1 1 1", 2)
UNKNOT = parse_braid("", 1)


def test_partition_basics():
    assert Partition((3, 1, 1, 0, 0)) == Partition((3, 1, 1))
    assert Partition((3, 1)).transpose() == Partition((2, 1, 1))
    assert Partition.column(3) == Partition((1, 1, 1))
    assert Partition.row(3) == Partition((3,))
    assert Partition(()).transpose() == Partition(())
    for parts in ((2,), (4, 2, 1), (1, 1, 1)):
        assert Partition(parts).transpose().transpose() == Partition(parts)
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_unknot_columns():
    for a in range(0, 6):
        v = homfly_columns(ColoredBraid(UNKNOT, (a,)))
        assert v == xbinom(0, a)
        for n in range(2, 7):
            assert v.subst_x_eq_qn(n) == qbinom(n, a)


def test_color_zero_is_one():
    assert homfly_columns(ColoredBraid(TREFOIL, (0,))) == XPoly.one()
    assert homfly_columns(ColoredBraid(parse_braid("1 -2 1", 3), (0, 0))) \
        == XPoly.one()


def test_negative_color_vanishes():
    assert homfly_columns(ColoredBraid(TREFOIL, (-1,))).is_zero()


def test_trefoil_matches_reference(trefoil_cols):
    for a in range(0, 4):
        assert trefoil_cols[a] == trefoil_reference(a)


def test_trefoil_reference_at_zero():
    assert trefoil_reference(0) == XPoly.one()


def test_reference_support_is_finite():
    # the six-fold sum trivially terminates for small colors; spot check the
    # specialized values stay integral
    for a in range(0, 4):
        ok, _ = is_integral_laurent(trefoil_reference(a).subst_x_eq_qn(a + 2))
        assert ok


def test_rows_are_qbar_of_columns(trefoil_cols):
    for a in range(0, 3):
        assert homfly_rows(ColoredBraid(TREFOIL, (a,))) == trefoil_cols[a].q_bar()


def test_zero_framing_commutes_with_transpose():
    # two components, the first with blackboard self-framing 3
    braid = parse_braid("1 1 1 2 2", 3)
    for colors in ((1, 1), (2, 1)):
        cb = ColoredBraid(braid, colors)
        assert cb.closure.linking == ((3, 1), (1, 0))
        zero = invariant(cb, "e", "zero")
        assert invariant(cb, "h", "zero") == zero.q_bar()
        assert zero != invariant(cb, "e")


def test_invariant_rejects_unknown_family_and_framing():
    cb = ColoredBraid(UNKNOT, (1,))
    with pytest.raises(ValueError):
        invariant(cb, "p")
    with pytest.raises(ValueError):
        invariant(cb, "e", "zero-framed")


def test_unknot_row_color_one_fixed():
    v = homfly_rows(ColoredBraid(UNKNOT, (1,)))
    assert v == xbinom(0, 1)


def test_framing_factor_closed_form():
    for a in range(0, 4):
        assert framing_factor(a) == XPoly.mono(RatQ.q_power(a - a * a), a)


def test_adjust_framing_group_law():
    v = homfly_columns(ColoredBraid(UNKNOT, (2,)))
    assert adjust_framing(v, 2, 0) == v
    assert adjust_framing(adjust_framing(v, 2, 1), 2, -1) == v


def test_torus_reference_m0():
    assert torus_reference(3, 0) == XPoly.one()
    assert torus_reference(5, 0, zero_framed=True) == XPoly.one()


def test_torus_blackboard_matches_engine(trefoil_cols):
    for m in range(0, 3):
        assert trefoil_cols[m].q_bar() == torus_reference(3, m)


def test_torus_zero_framed_matches_engine(trefoil_rows_zero):
    for m in range(0, 3):
        assert trefoil_rows_zero[m] == torus_reference(3, m, zero_framed=True)


def test_torus_s1_is_framed_unknot():
    # closure of sigma_1 is the unknot with framing 1
    for m in range(0, 4):
        expect = adjust_framing(homfly_rows(ColoredBraid(UNKNOT, (m,))), m, 1,
                                row=True)
        assert torus_reference(1, m) == expect


def test_torus_zero_framed_needs_odd_s():
    with pytest.raises(ValueError):
        torus_reference(2, 1, zero_framed=True)


def test_component_permutation_symmetry():
    hopf = parse_braid("1 1", 2)
    a = homfly_columns(ColoredBraid(hopf, (1, 2)))
    b = homfly_columns(ColoredBraid(hopf, (2, 1)))
    assert a == b


def test_integrality_of_specializations(trefoil_cols):
    for n in (2, 3, 4):
        for a in range(0, n):
            ok, _ = is_integral_laurent(trefoil_cols[a].subst_x_eq_qn(n))
            assert ok


def test_mirror_duality_generic():
    a = 1
    v = homfly_columns(ColoredBraid(TREFOIL, (a,)))
    w = homfly_columns(ColoredBraid(TREFOIL.mirror(), (a,)))
    assert w == v.q_inv().x_inv()


def test_mirror_duality_specialized():
    for a in (1, 2):
        v = homfly_columns(ColoredBraid(TREFOIL, (a,)))
        w = homfly_columns(ColoredBraid(TREFOIL.mirror(), (a,)))
        for n in (2, 3):
            assert w.subst_x_eq_qn(n) == v.subst_x_eq_qn(n).q_inv()


def test_partition_single_row_is_rows():
    for a in (1, 2):
        got = homfly_partition(ColoredBraid(TREFOIL, (0,)), Partition((a,)), 1)
        assert got == homfly_rows(ColoredBraid(TREFOIL, (a,)))


def test_partition_row_on_unknot_via_ell2():
    got = homfly_partition(ColoredBraid(UNKNOT, (0,)), Partition((2,)), 2)
    assert got == homfly_rows(ColoredBraid(UNKNOT, (2,)))


def test_partition_requires_enough_rows():
    with pytest.raises(ValueError):
        homfly_partition(ColoredBraid(UNKNOT, (0,)), Partition((1, 1)), 1)


@pytest.mark.slow
def test_partition_column_cross_check(trefoil_cols):
    got = homfly_partition(ColoredBraid(TREFOIL, (0,)), Partition((1, 1)), 2)
    assert got == trefoil_cols[2]


def test_writhe_two_unknot_on_three_strands():
    # closure of sigma_1 sigma_2 is the unknot with framing 2; exercises the
    # three-strand cup/cap words and mixed crossing indices
    for a in (1, 2):
        v = homfly_columns(ColoredBraid(parse_braid("1 2", 3), (a,)))
        unknot = homfly_columns(ColoredBraid(UNKNOT, (a,)))
        assert v == unknot * framing_factor(a) ** 2


def test_figure_eight_jones_value():
    fig8 = ColoredBraid(parse_braid("1 -2 1 -2", 3), (1,))
    got = homfly_columns(fig8).subst_x_eq_qn(2)
    assert got == RatQ(LaurentQ({5: 1, -5: 1}))


def test_even_torus_links_match_reference():
    for s in (2, 4):
        braid = parse_braid(" ".join(["1"] * s), 2)
        for m in (1, 2):
            eng = homfly_rows(ColoredBraid(braid, (m, m)))
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
    for parts in ((2, 1), (3, 1), (2, 2)):
        got = homfly_partition(ColoredBraid(UNKNOT, (0,)), Partition(parts), 2)
        assert got == _hook_content(parts)


def test_self_conjugate_color_is_qbar_invariant():
    got = homfly_partition(ColoredBraid(UNKNOT, (0,)), Partition((2, 1)), 2)
    assert got.q_bar() == got


def test_generic_values_match_classical_homfly():
    # full two-variable agreement with the classical skein polynomial
    # (conventions here send the skein variable a to x^-1)
    d = RatQ(LaurentQ({1: 1, -1: -1}))
    dim = XPoly({1: RatQ.one() / d, -1: -(RatQ.one() / d)})
    z2 = XPoly.from_ratq(d * d)

    fig8 = homfly_columns(ColoredBraid(parse_braid("1 -2 1 -2", 3), (1,)))
    assert fig8 == dim * (XPoly.x_power(2) + XPoly.x_power(-2)
                          - XPoly.one() - z2)

    tre0 = adjust_framing(homfly_columns(ColoredBraid(TREFOIL, (1,))), 1, -3)
    xm2, xm4 = XPoly.x_power(-2), XPoly.x_power(-4)
    assert tre0 == dim * (xm2.scale(RatQ.from_int(2)) - xm4 + xm2 * z2)

    cinq = homfly_columns(ColoredBraid(parse_braid("1 1 1 1 1", 2), (1,)))
    cinq0 = adjust_framing(cinq, 1, -5)
    a4, a6 = XPoly.x_power(-4), XPoly.x_power(-6)
    assert cinq0 == dim * (a4.scale(RatQ.from_int(3))
                           - a6.scale(RatQ.from_int(2))
                           + (a4.scale(RatQ.from_int(4)) - a6) * z2
                           + a4 * z2 * z2)


def test_mirror_duality_two_component_link():
    hopf = parse_braid("1 1", 2)
    for colors in ((1, 1), (1, 2)):
        v = homfly_columns(ColoredBraid(hopf, colors))
        w = homfly_columns(ColoredBraid(hopf.mirror(), colors))
        assert w == v.q_inv().x_inv()
