import copy
import itertools
import pickle

import pytest

from homflypt import (Braid, BraidError, Cable, cable, closure_info,
                      homfly_columns, parse_braid)


def test_parse_examples():
    assert parse_braid("1 1 1", 2).word == (1, 1, 1)
    assert parse_braid("1 -2 1", 3).word == (1, -2, 1)
    assert parse_braid("", 1).word == ()


def test_parse_errors_name_the_token():
    with pytest.raises(BraidError, match="'3'"):
        parse_braid("3", 2)
    with pytest.raises(BraidError, match="'0'"):
        parse_braid("1 0", 3)
    with pytest.raises(BraidError, match="'x'"):
        parse_braid("x", 2)


def test_braid_constructor_checks():
    with pytest.raises(BraidError, match="strand count"):
        Braid(0, ())
    for strands, word in ((2, (2,)), (2, (-2,)), (2, (0,)), (3, (1, 3))):
        with pytest.raises(BraidError, match="out of range"):
            Braid(strands, word)


def test_make_and_replace_run_the_constructor_checks():
    b = Braid(2, (1,))
    with pytest.raises(BraidError, match="strand count"):
        Braid._make((0, (7,)))
    with pytest.raises(BraidError, match="out of range"):
        b._replace(word=(5, 0))
    with pytest.raises(BraidError, match="out of range"):
        b._replace(strands=1)
    assert Braid._make([3, (2, -1)]) == b._replace(strands=3, word=(2, -1))
    assert type(b._replace(word=(-1,))) is Braid
    trefoil, hopf = parse_braid("1 1 1", 2), parse_braid("1 1", 2)
    with pytest.raises(BraidError, match="2 colors given for 1 components"):
        homfly_columns(trefoil, (1, 2))
    cab = cable(hopf, (1, 2))
    assert type(cab) is Cable and cab.component_of_strand == (0, 1, 2)
    assert closure_info(hopf) != closure_info(trefoil)
    assert Cable._make((cab.braid, (0, 1, 2))) == cab
    assert copy.deepcopy(cab) == pickle.loads(pickle.dumps(cab)) == cab


def test_values_are_immutable_and_compare_by_fields():
    b = parse_braid("1 1 1", 2)
    assert b == Braid(2, (1, 1, 1)) and hash(b) == hash(Braid(2, (1, 1, 1)))
    assert b != Braid(3, (1, 1, 1))
    cab, again = cable(b, (2,)), cable(Braid(2, (1, 1, 1)), [2])
    assert cab == again and hash(cab) == hash(again)
    assert cab != cable(b, (1,))
    info = closure_info(b)
    assert info == closure_info(Braid(2, (1, 1, 1)))
    for obj, name in ((b, "word"), (info, "linking"), (cab, "braid"),
                      (cab, "component_of_strand"), (cab, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        del cab.braid
    assert cable(b, (1,)).braid == b


def test_closure_trefoil():
    info = closure_info(parse_braid("1 1 1", 2))
    assert info.component_count == 1
    assert info.linking[0][0] == 3


def test_closure_hopf():
    info = closure_info(parse_braid("1 1", 2))
    assert info.component_count == 2
    assert info.linking[0][1] == info.linking[1][0] == 1
    assert info.linking[0][0] == info.linking[1][1] == 0


def test_closure_unknot():
    info = closure_info(parse_braid("", 1))
    assert info.component_count == 1
    assert info.linking == ((0,),)


def test_components_ordered_by_smallest_strand():
    info = closure_info(parse_braid("2", 3))
    assert info.component_of_strand == (0, 1, 1)
    info = closure_info(parse_braid("2 2", 3))
    assert info.component_of_strand == (0, 1, 2)
    assert info.linking[1][2] == 1


def test_color_count_checked():
    with pytest.raises(BraidError):
        homfly_columns(parse_braid("1 1", 2), (1,))


def test_count_below_the_crossing_bound_refused_first(monkeypatch):
    # each crossing joins or splits one cycle, so 4 strands and one crossing
    # close up to at least 3 components; fewer values are refused without
    # walking the permutation, and the empty word's bound is exact
    def walked(self):
        raise AssertionError("the permutation was walked")
    monkeypatch.setattr(Braid, "permutation", walked)
    b = parse_braid("1", 4)
    with pytest.raises(BraidError, match="^2 colors given for at least 3 components$"):
        closure_info(b, 2, "colors")
    with pytest.raises(BraidError, match="^2 widths given for 4 components$"):
        closure_info(parse_braid("", 4), 2, "widths")
    monkeypatch.undo()
    with pytest.raises(BraidError, match="^4 colors given for 3 components$"):
        closure_info(b, 4, "colors")
    assert closure_info(b, 3, "colors") == closure_info(b)


def test_colors_must_be_integers():
    for colors in ((2.0,), (2.5,), ("1",), (None,)):
        with pytest.raises(TypeError, match="colors must be ints or Partitions"):
            homfly_columns(parse_braid("1 1 1", 2), colors)


def test_strand_colors():
    # each strand carries the color of its cabled component
    hopf = cable(parse_braid("1 1", 2), (1, 1))
    assert tuple((3, 5)[c] for c in hopf.component_of_strand) == (3, 5)
    trefoil = cable(parse_braid("1 1 1", 2), (2,))
    assert tuple((3, 5)[c] for c in trefoil.component_of_strand) == (3, 5, 3, 5)


def test_cable_unknot():
    out = cable(parse_braid("", 1), (2,))
    assert out.braid.strands == 2 and out.braid.word == ()
    assert closure_info(out.braid).component_count == 2
    assert out.component_of_strand == (0, 1)


def test_cable_single_crossing_block():
    out = cable(parse_braid("1", 2), (2,))
    assert out.braid.strands == 4 and len(out.braid.word) == 4
    assert all(g > 0 for g in out.braid.word)
    # bundles swap as blocks
    assert out.braid.permutation() == (2, 3, 0, 1)


def test_cable_negative_crossing_inverts():
    pos = cable(parse_braid("1", 2), (2,))
    neg = cable(parse_braid("-1", 2), (2,))
    assert neg.braid.word == tuple(-g for g in reversed(pos.braid.word))


def test_cable_trefoil_components():
    info = closure_info(cable(parse_braid("1 1 1", 2), (2,)).braid)
    assert info.component_count == 2
    # blackboard parallels of a framing-3 knot link each other 3 times
    assert info.linking[0][1] == 3
    assert info.linking[0][0] == 3


def test_cable_rejects_zero_width():
    with pytest.raises(BraidError):
        cable(parse_braid("1", 2), (0,))


def test_cable_rejects_a_width_count_off_the_components():
    hopf = parse_braid("1 1", 2)
    for widths in ((2,), (1, 1, 1), ()):
        with pytest.raises(BraidError, match="widths given for 2 components"):
            cable(hopf, widths)
    with pytest.raises(BraidError):
        cable(hopf, (1, 0))


def _cabled_numbering(braid, widths):
    # copy k of component c is component sum(widths[:c]) + k, at every strand
    comp = closure_info(braid).component_of_strand
    return tuple(sum(widths[:c]) + k for c in comp for k in range(widths[c]))


def test_cable_later_and_several_components():
    hopf = parse_braid("1 1", 2)
    out = cable(hopf, (1, 2))
    assert out.braid.strands == 3 and out.braid.word == (1, 2, 2, 1)
    info = closure_info(out.braid)
    assert info.component_of_strand == out.component_of_strand == (0, 1, 2)
    # the parallels of the 0-framed component are unlinked from each other
    # and each links the other component once
    assert info.linking == ((0, 1, 1), (1, 0, 0), (1, 0, 0))
    both = cable(hopf, (2, 2))
    assert both.braid.strands == 4
    assert both.braid.word == (2, 3, 1, 2) * 2
    assert closure_info(both.braid).component_of_strand == (0, 1, 2, 3)
    for word, strands, widths in (("2 1 1 -2", 3, (2, 1, 3)),
                                  ("1 2 1 1 -2", 3, (3, 2)),
                                  ("1 -2 1 -2", 3, (2,)),
                                  ("", 2, (2, 3))):
        b = parse_braid(word, strands)
        out = cable(b, widths)
        walked = closure_info(out.braid).component_of_strand
        assert out.braid.strands == len(walked)
        assert walked == _cabled_numbering(b, widths)
        # the cable numbers its strands without walking the cabled closure
        assert out.component_of_strand == walked


def test_cable_permutation_is_block_substitution():
    for m in (2, 3):
        gens = [i for i in range(1, m)] + [-i for i in range(1, m)]
        for length in range(0, 4):
            for word in itertools.product(gens, repeat=length):
                b = Braid(m, word)
                ncomp = closure_info(b).component_count
                out = cable(b, (2,) + (1,) * (ncomp - 1))
                comp = closure_info(b).component_of_strand
                width = [2 if comp[s] == 0 else 1 for s in range(m)]
                start = [sum(width[:s]) for s in range(m)]
                base = b.permutation()
                cabled = out.braid.permutation()
                for s in range(m):
                    for j in range(width[s]):
                        assert cabled[start[s] + j] == start[base[s]] + j


def test_mirror_negates_word():
    assert parse_braid("1 -2 1", 3).mirror().word == (-1, 2, -1)
