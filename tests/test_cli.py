import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from homflypt import parse_xpoly, trefoil_reference
from homflypt.cli import main
from homflypt.rings import LaurentQ, RatQ, XPoly


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_eval_trefoil_matches_reference(capsys):
    rc, out, _ = run(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                     "--colors", "e1")
    assert rc == 0
    assert parse_xpoly(out.strip()) == trefoil_reference(1)


def test_eval_unknot_rendering(capsys):
    rc, out, _ = run(capsys, "eval", "--strands", "1", "--braid", "",
                     "--colors", "e2")
    assert rc == 0
    from homflypt import xbinom
    assert parse_xpoly(out.strip()) == xbinom(0, 2)


def test_eval_specialized_is_integer_laurent(capsys):
    rc, out, _ = run(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                     "--colors", "e1", "--specialize", "2")
    assert rc == 0
    assert out.strip() == "q^5 + q^3 + q - q^-3"


def test_eval_determinism(capsys):
    args = ("eval", "--strands", "2", "--braid", "1 1 1", "--colors", "e2")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def _value_from_json(obj):
    def laurent(pairs):
        return LaurentQ({e: int(c) for e, c in pairs})
    return XPoly({int(k): RatQ(laurent(v["num"]), laurent(v["den"]))
                  for k, v in obj.items()})


def test_json_and_text_denote_same_value(capsys):
    base = ("eval", "--strands", "2", "--braid", "1 1 1", "--colors", "e1")
    _, text_out, _ = run(capsys, *base)
    _, json_out, _ = run(capsys, *base, "--format", "json")
    doc = json.loads(json_out)
    assert _value_from_json(doc["value"]) == parse_xpoly(text_out.strip())
    assert doc["meta"]["strands"] == 2
    assert doc["meta"]["linking"] == [[3]]


def test_eval_specialized_json_meta(capsys):
    rc, out, _ = run(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                     "--colors", "e2", "--specialize", "2", "--format", "json")
    assert rc == 0
    assert out == (
        '{"value": {"num": [[6, "1"]], "den": [[0, "1"]]}, "meta": '
        '{"kind": "eval", "strands": 2, "word": [1, 1, 1], "components": 1, '
        '"colors": [2], "linking": [[3]], "color_spec": ["e2"], '
        '"framing": "blackboard", "specialize": 2, "integral": true}}\n')


def test_eval_partition_link_json_meta(capsys):
    rc, out, _ = run(capsys, "eval", "--strands", "2", "--braid", "1 1",
                     "--colors", "p2,1 e1", "--format", "json")
    assert rc == 0
    assert out.endswith(
        '"meta": {"kind": "eval", "strands": 2, "word": [1, 1], '
        '"components": 2, "colors": [0, 1], "linking": [[0, 1], [1, 0]], '
        '"color_spec": ["p2,1", "e1"], "framing": "blackboard"}}\n')


def test_eval_three_component_link_json_meta(capsys):
    # e1, h2 and p2,1 on a chain of three components, linking numbers 1
    base = ("eval", "--strands", "3", "--braid", "1 1 2 2", "--colors",
            "e1 h2 p2,1", "--format", "json")
    values = []
    for framing in ("blackboard", "zero"):
        rc, out, err = run(capsys, *base, "--framing", framing)
        assert (rc, err) == (0, "")
        assert out.endswith(
            '"meta": {"kind": "eval", "strands": 3, "word": [1, 1, 2, 2], '
            '"components": 3, "colors": [1, 2, 0], '
            '"linking": [[0, 1, 0], [1, 0, 1], [0, 1, 0]], '
            '"color_spec": ["e1", "h2", "p2,1"], '
            f'"framing": "{framing}"}}}}\n')
        values.append(json.loads(out)["value"])
    # no component crosses itself, so both framings agree
    assert values[0] == values[1]


def test_eval_color_count_refused_before_the_linking_matrix(capsys):
    # the closure of the empty word on 3000 strands has 3000 components;
    # one color is refused without their 3000 x 3000 linking matrix
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "eval", "--strands", "3000", "--braid", "",
                           "--colors", "e1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out, err) == (2, "", "error: 1 colors given for 3000 components\n")
    assert peak < 5_000_000


def test_eval_framing_zero(capsys):
    rc, out, _ = run(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                     "--colors", "h1", "--framing", "zero", "--specialize", "2")
    assert rc == 0
    assert out.strip() == "q^-1 + q^-3 + q^-5 - q^-9"


def test_eval_usage_errors(capsys):
    rc, _, err = run(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                     "--colors", "e1 e2")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "eval", "--strands", "2", "--braid", "7",
                     "--colors", "e1")
    assert rc == 2


def test_eval_negative_color_refused(capsys):
    for colors in ("e-1", "h-2", "h1 h-1"):
        for framing in ("blackboard", "zero"):
            rc, out, err = run(capsys, "eval", "--strands", "2", "--braid", "1 1",
                               "--colors", colors, "--framing", framing)
            assert rc == 2 and out == ""
            assert "bad color token" in err and "nonnegative" in err


def test_eval_partition_color(capsys):
    rc, out, _ = run(capsys, "eval", "--strands", "1", "--braid", "",
                     "--colors", "p2")
    assert rc == 0
    _, rows_out, _ = run(capsys, "eval", "--strands", "1", "--braid", "",
                         "--colors", "h2")
    assert out == rows_out
    # a one-column or one-row partition is that column or row, beside e or h
    for braid, colors, plain in (("1 1 1", "p1,1,1", "e3"),
                                 ("1 1", "p1,1 e1", "e2 e1"),
                                 ("1 1", "p2 h1", "h2 h1")):
        for framing in ("blackboard", "zero"):
            got, want = (run(capsys, "eval", "--strands", "2", "--braid", braid,
                             "--colors", c, "--framing", framing)
                         for c in (colors, plain))
            assert got[0] == 0 and got[1] == want[1]


@pytest.mark.parametrize("parts", ["3", "1,1,1", "2,1,1", "3,1", "2,1"])
def test_eval_lone_partition_takes_the_narrower_cable(capsys, monkeypatch, parts):
    from homflypt import invariants
    widths = []
    cable = invariants.cable

    def recording(braid, w):
        widths.append(*w)
        return cable(braid, w)
    monkeypatch.setattr(invariants, "cable", recording)
    rc, _, _ = run(capsys, "eval", "--strands", "1", "--braid", "",
                   "--colors", "p" + parts)
    lam = [int(p) for p in parts.split(",")]
    assert rc == 0 and widths and set(widths) == {min(lam[0], len(lam))}


def test_eval_bad_partition_color(capsys):
    for tok in ("p", "p1,,1", "px", "p2,1.5"):
        rc, out, err = run(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                           "--colors", tok)
        assert rc == 2 and out == ""
        assert err == (f"error: bad partition color {tok!r}: parts must be "
                       "nonnegative integers separated by commas\n")
    rc, out, err = run(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                       "--colors", "p1,2")
    assert rc == 2 and out == ""
    assert err == ("error: bad partition color 'p1,2': partition parts must "
                   "be weakly decreasing\n")


def test_eval_partition_zero_framing(capsys):
    # the trefoil's blackboard self-framing is 3 and 2 kappa(2,1) = 0, so
    # zero framing divides by x^(3 |lambda|) = x^9
    args = ("eval", "--strands", "2", "--braid", "1 1 1", "--colors", "p2,1")
    rc, out, _ = run(capsys, *args)
    rc_zero, out_zero, _ = run(capsys, *args, "--framing", "zero")
    assert rc == rc_zero == 0
    assert parse_xpoly(out_zero.strip()) \
        == parse_xpoly(out.strip()) * XPoly.x_power(-9)


def test_eval_any_component_and_family_mix(capsys):
    # a partition on a later component, two partitions, and e beside h
    from homflypt import Partition, invariant, parse_braid
    p1 = Partition((1,))
    for braid, colors, lib in (("", "e1 p1", (1, p1)), ("", "p1 p1", (p1, p1)),
                               ("", "p1 e1 h1", (p1, 1, p1)),
                               ("1 1", "e1 h1", (1, p1))):
        strands = str(len(lib))
        rc, out, err = run(capsys, "eval", "--strands", strands, "--braid", braid,
                           "--colors", colors)
        want = invariant(parse_braid(braid, len(lib)), lib).text()
        assert (rc, out, err) == (0, want + "\n", "")


def test_eval_partition_trace(capsys):
    # the cables' evaluator logs to stderr; stdout is the untraced value
    for strands, braid, colors in (("1", "", "p1,1"), ("2", "1 1 1", "p2,1")):
        args = ("eval", "--strands", strands, "--braid", braid, "--colors", colors)
        rc, out, err = run(capsys, *args, "--trace")
        assert rc == 0 and err
        assert out == run(capsys, *args)[1]


def test_oracle_commands(capsys):
    rc, out, _ = run(capsys, "oracle", "trefoil", "--a", "0")
    assert rc == 0 and out.strip() == "1"
    rc, out, _ = run(capsys, "oracle", "torus", "--s", "3", "--m", "1",
                     "--zero-framed", "--specialize", "2")
    assert rc == 0 and out.strip() == "q^-1 + q^-3 + q^-5 - q^-9"
    rc, _, err = run(capsys, "oracle", "torus", "--m", "1")
    assert rc == 2


def test_oracle_torus_s1_consistent_with_framed_unknot(capsys):
    rc, out, _ = run(capsys, "oracle", "torus", "--s", "1", "--m", "1")
    assert rc == 0
    from homflypt import Partition, adjust_framing, invariant, parse_braid
    v = invariant(parse_braid("", 1), (Partition((1,)),))
    v = adjust_framing(v.q_bar(), 1, 1).q_bar()
    assert parse_xpoly(out.strip()) == v


def test_recur_verify_pass_and_fail(tmp_path, capsys):
    from homflypt import trefoil_recurrence
    op_file = tmp_path / "op.txt"
    op_file.write_text(trefoil_recurrence().text(), encoding="utf-8")
    rc, out, _ = run(capsys, "recur", "verify", "--strands", "2",
                     "--braid", "1 1 1", "--family", "h", "--framing", "zero",
                     "--m-range", "0:2", "--operator", str(op_file))
    assert rc == 0 and "PASS" in out
    rc, out, _ = run(capsys, "recur", "verify", "--strands", "2",
                     "--braid", "1 1 1", "--family", "h", "--framing", "zero",
                     "--m-range", "0:1", "--operator-text", "L - 1")
    assert rc == 1 and "FAIL" in out


def test_recur_verify_stops_at_the_first_failing_m(capsys, monkeypatch):
    from homflypt import RecurrenceOperator
    calls = []
    apply = RecurrenceOperator.apply

    def counted(self, f, m):
        calls.append(m)
        return apply(self, f, m)
    monkeypatch.setattr(RecurrenceOperator, "apply", counted)
    rc, out, err = run(capsys, "recur", "verify", "--strands", "1",
                       "--braid", "", "--family", "e", "--m-range", "0:3",
                       "--operator-text", "L")
    assert (rc, out, err) == (1, "FAIL at m=0\n", "")
    assert calls == [0]
    # m = 1 would need a dense quotient spanning 3000000 powers of q
    rc, out, err = run(capsys, "recur", "verify", "--strands", "1",
                       "--braid", "", "--family", "e", "--m-range", "0:1",
                       "--operator-text", "(q^3000000-1)*M")
    assert (rc, out, err) == (1, "FAIL at m=0\n", "")
    assert calls == [0, 0]


def test_recur_verify_too_deeply_nested_operator(capsys):
    text = "(" * 2000 + "L-1" + ")" * 2000
    rc, out, err = run(capsys, "recur", "verify", "--strands", "1",
                       "--braid", "", "--m-range", "0:1", "--operator-text", text)
    assert (rc, out) == (2, "")
    assert err == "error: operator text is nested too deeply\n"


def test_recur_verify_zero_divisor_refused(capsys):
    for text in ("1/(q-q)", "0^-1", "(q-q)^-1", "L - 1/0"):
        rc, out, err = run(capsys, "recur", "verify", "--strands", "1",
                           "--braid", "", "--m-range", "0:1",
                           "--operator-text", text)
        assert (rc, out, err) == (2, "", "error: division by zero\n")
    # a nonzero divisor that is not a q-scalar keeps its own message
    rc, _, err = run(capsys, "recur", "verify", "--strands", "1", "--braid", "",
                     "--m-range", "0:1", "--operator-text", "1/L")
    assert (rc, err) == (2, "error: can only divide by scalars in Q(q)\n")


def test_recur_verify_wide_dense_work_refused(capsys):
    # exact division by the sequence's cyclotomic denominators would need a
    # dense list as long as the q-span; the window starts at m = 1, because
    # the value at m = 0 has no denominator and verify stops at the first
    # failing m
    for text in ("(q^3000000-1)*M", "(q^3000000 - 1)/(q^2-1)*M"):
        rc, out, err = run(capsys, "recur", "verify", "--strands", "1",
                           "--braid", "", "--family", "e", "--m-range", "1:1",
                           "--operator-text", text)
        assert (rc, out) == (2, "")
        assert err == ("error: a polynomial spanning 3000000 powers of q is "
                       "too wide for dense arithmetic (at most 1000000)\n")


def test_recur_verify_wide_divisor_refused(capsys):
    def verify(text):
        return run(capsys, "recur", "verify", "--strands", "1", "--braid", "",
                   "--m-range", "0:1", "--operator-text", text)
    start = time.perf_counter()
    rc, out, err = verify("1/(q^100000-1)*M")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err == ("error: a divisor spanning 100000 powers of q is too wide "
                   "(at most 256)\n")
    for text in ("(q^257 - 1)^-1*M", "M/(q^300 + q^43)"):
        assert verify(text)[0] == 2
    # the widest divisor accepted is parsed, and the operator then fails
    assert verify("1/(q^256-1)*M") == (1, "FAIL at m=0\n", "")


def test_recur_verify_large_power_refused(capsys):
    def verify(text):
        return run(capsys, "recur", "verify", "--strands", "1", "--braid", "",
                   "--family", "e", "--m-range", "0:1", "--operator-text", text)
    for text in ("(q^2-7)^3000*M", "(q^2-7)^300000*M", "(q^256-1)^-3000*M"):
        start = time.perf_counter()
        rc, out, err = verify(text)
        assert time.perf_counter() - start < 1
        assert (rc, out) == (2, "")
        assert err.startswith("error: a power estimated at ")
        assert err.endswith(" coefficient bits is too large (at most 8388608)\n")
    assert verify("(q^2-7)^3000*M")[2] == (
        "error: a power estimated at 54015001 coefficient bits is too large "
        "(at most 8388608)\n")
    # a power well inside the bound is computed, and the operator then fails
    assert verify("(q^2-7)^500*M") == (1, "FAIL at m=0\n", "")


def test_recur_verify_sparse_operator_stays_sparse(capsys, monkeypatch):
    # T has 11 terms spanning 10^6 powers of q; its square meets the
    # sequence's cyclotomic denominators, which must not densify it
    dense = LaurentQ._dense

    def bounded(self):
        assert self.max_exp - self.min_exp < 10 ** 4, "densified a sparse map"
        return dense(self)
    monkeypatch.setattr(LaurentQ, "_dense", bounded)
    t = "+".join(["1", "q"] + [f"q^{i}" for i in range(2, 10)] + ["q^1000000"])
    rc, out, err = run(capsys, "recur", "verify", "--strands", "1",
                       "--braid", "", "--m-range", "0:1",
                       "--operator-text", f"({t})*({t})")
    assert (rc, out, err) == (1, "FAIL at m=0\n", "")


def test_recur_verify_unreadable_operator_file(tmp_path, capsys):
    not_utf8 = tmp_path / "utf16.txt"
    not_utf8.write_bytes(b"\xff\xfeL\x00")
    for path in (tmp_path / "missing.txt", tmp_path, not_utf8):
        rc, out, err = run(capsys, "recur", "verify", "--strands", "1",
                           "--braid", "", "--m-range", "0:1",
                           "--operator", str(path))
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot read operator file {path}: ")
    assert "can't decode byte 0xff" in err


def test_recur_guess_window_refused_before_computing(capsys, monkeypatch):
    from homflypt import cli

    def no_invariant(*args, **kwargs):
        raise AssertionError("no invariant may be computed")
    monkeypatch.setattr(cli, "invariant", no_invariant)
    rc, out, err = run(capsys, "recur", "guess", "--strands", "2",
                       "--braid", "1 1 1", "--m-range", "0:3")
    assert rc == 2 and out == ""
    assert err == ("error: need at least 6 sequence values for order 1, "
                   "M-degree 2; have 3 usable start indices\n")


def test_recur_guess_bounds_refused_before_computing(capsys, monkeypatch):
    from homflypt import cli

    def no_sequence(*args):
        raise AssertionError("the sequence must not be built")
    monkeypatch.setattr(cli, "_build_sequence", no_sequence)
    base = ("recur", "guess", "--strands", "1", "--braid", "", "--family", "e",
            "--m-range", "0:8")
    for flags, msg in ((("--max-order", "0"), "--max-order must be at least 1"),
                       (("--max-m-degree", "-1"),
                        "--max-m-degree must be nonnegative")):
        rc, out, err = run(capsys, *base, *flags)
        assert rc == 2 and out == ""
        assert err == f"error: {msg}\n"


UNKNOT_OPERATORS = {
    "e": "(q^2 * x^1)*M^2*L^1 + (-1 * x^1)*L^1 + (q)*M^2 + (-q * x^2)\n",
    "h": "(q^2 * x^1)*M^2*L^1 + (-1 * x^1)*L^1 + (-q * x^2)*M^2 + (q)\n",
}


def test_recur_guess_unknot(capsys):
    for family, text in UNKNOT_OPERATORS.items():
        rc, out, err = run(capsys, "recur", "guess", "--strands", "1",
                           "--braid", "", "--family", family, "--m-range", "0:8",
                           "--max-order", "1", "--max-m-degree", "2")
        assert (rc, out, err) == (0, text, "")


# with M-degree 3 the order-1 kernel holds P and M P, and which operator is
# printed depends on the elimination's pivot order; with max order 2 the
# order-1 operator is found first
@pytest.mark.parametrize("window", [("0:9", "1", "3"), ("0:10", "2", "2")])
def test_recur_guess_unknot_wider_kernel(capsys, window):
    m_range, order, degree = window
    for family, text in UNKNOT_OPERATORS.items():
        rc, out, err = run(capsys, "recur", "guess", "--strands", "1",
                           "--braid", "", "--family", family,
                           "--m-range", m_range, "--max-order", order,
                           "--max-m-degree", degree)
        assert (rc, out, err) == (0, text, "")


def test_recur_guess_window_too_small(capsys):
    rc, _, err = run(capsys, "recur", "guess", "--strands", "1", "--braid", "",
                     "--family", "e", "--m-range", "0:2", "--max-order", "2",
                     "--max-m-degree", "3")
    assert rc == 2


def test_recur_guess_no_operator(capsys):
    # no operator of order 1 and M-degree 0 annihilates the unknot
    rc, out, err = run(capsys, "recur", "guess", "--strands", "1", "--braid", "",
                       "--family", "e", "--m-range", "0:4", "--max-order", "1",
                       "--max-m-degree", "0")
    assert (rc, out, err) == (1, "no operator found within the given bounds\n", "")


_VERIFY = ("recur", "verify", "--strands", "1", "--braid", "")
_OPERATOR = _VERIFY + ("--family", "e", "--m-range", "0:0", "--operator-text")


@pytest.mark.parametrize("argv, line", [
    (("eval", "--strands", "1", "--braid", "", "--colors", "x1"),
     "bad color token 'x1' (want e<k>, h<k> or p<parts>)"),
    (("oracle", "trefoil"), "oracle trefoil needs --a <nonnegative int>"),
    (("oracle", "trefoil", "--a", "-1"),
     "oracle trefoil needs --a <nonnegative int>"),
    (("oracle", "torus", "--m", "1"),
     "oracle torus needs --s <positive int> and --m <nonnegative int>"),
    (("oracle", "torus", "--s", "0", "--m", "1"),
     "oracle torus needs --s <positive int> and --m <nonnegative int>"),
    (_VERIFY + ("--m-range", "0:1"),
     "recur verify needs --operator FILE or --operator-text STR"),
    (_OPERATOR + ("L)",), "trailing input at token ')'"),
    (_OPERATOR + ("(L",), "unexpected end of expression"),
    (_OPERATOR + ("(L L",), "unbalanced parenthesis"),
    (_OPERATOR + ("q^x",), "exponent expected, got 'x'"),
    (_OPERATOR + ("(L+1)^-1",), "cannot invert this element"),
    (_OPERATOR + ("M+*L",), "unexpected token '*'"),
])
def test_cli_refusals(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


# integers on the command line are ASCII digits with an optional minus sign;
# int() alone also reads '+', '_', spaces and non-ASCII digits

def test_malformed_color_numbers_refused(capsys):
    for tok in ("e1_0", "e+1", "e١", "h+2", "e1.0"):
        rc, out, err = run(capsys, "eval", "--strands", "1", "--braid", "",
                           "--colors", tok, "--specialize", "2")
        assert (rc, out) == (2, "")
        assert err == f"error: bad color token {tok!r}\n"
    for tok in ("p1_0", "p2,+1", "p٢", "p2,1_0"):
        rc, out, err = run(capsys, "eval", "--strands", "2", "--braid", "1",
                           "--colors", tok, "--specialize", "2")
        assert (rc, out) == (2, "")
        assert err == (f"error: bad partition color {tok!r}: parts must be "
                       "nonnegative integers separated by commas\n")


def test_malformed_braid_tokens_refused(capsys):
    for tok in ("+1", "١", "1_0"):
        rc, out, err = run(capsys, "eval", "--strands", "2", "--braid",
                           f"1 {tok} 1", "--colors", "e1", "--specialize", "2")
        assert (rc, out) == (2, "")
        assert err == f"error: braid token {tok!r} is not an integer\n"


def test_malformed_range_bounds_refused(capsys, monkeypatch):
    from homflypt import cli

    def no_sequence(*args):
        raise AssertionError("the sequence must not be built")
    monkeypatch.setattr(cli, "_build_sequence", no_sequence)
    for text in ("0:1_0", "+0:8", "0:٨", " 0:8"):
        rc, out, err = run(capsys, "recur", "guess", "--strands", "1",
                           "--braid", "", "--family", "e", "--m-range", text,
                           "--max-order", "1")
        assert (rc, out) == (2, "")
        assert err == f"error: bad range {text!r}; want lo:hi\n"


def test_malformed_integer_options_refused(capsys):
    base = {"eval": ("eval", "--strands", "2", "--braid", "1 1 1",
                     "--colors", "e1"),
            "oracle": ("oracle", "torus", "--s", "3", "--m", "1"),
            "recur": ("recur", "guess", "--strands", "1", "--braid", "",
                      "--family", "e", "--m-range", "0:8")}
    cases = [("eval", "--strands", "2_0"), ("eval", "--specialize", "+2"),
             ("eval", "--specialize", " 2"), ("oracle", "--s", "٣"),
             ("oracle", "--m", "1_0"), ("recur", "--strands", "+1"),
             ("recur", "--max-order", "1_0"), ("recur", "--max-m-degree", "+2")]
    for cmd, flag, value in cases:
        argv = list(base[cmd])
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"argument {flag}: invalid int value: {value!r}" in out.err


def test_operator_exponent_digits_are_ascii(capsys):
    rc, out, err = run(capsys, "recur", "verify", "--strands", "1", "--braid", "",
                       "--family", "e", "--m-range", "0:2",
                       "--operator-text", "q^١*L - 1")
    assert (rc, out) == (2, "")
    assert err == "error: bad character at: '١*L - 1'\n"


# start-up: ``import homflypt.cli`` loads only what the commands run

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh_python(code, *args):
    """Run code in a new interpreter without ``site``, so only the standard
    library and this checkout's ``src`` are importable."""
    return subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {SRC!r})\n{code}", *args],
        capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_heavy_modules():
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json", "typing")
    r = _fresh_python(f"import homflypt.cli\n"
                      f"print(*[m for m in {heavy!r} if m in sys.modules])")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.split() == []


def test_json_output_in_a_fresh_interpreter():
    r = _fresh_python("from homflypt.cli import main\nsys.exit(main(sys.argv[1:]))",
                      "eval", "--strands", "2", "--braid", "1 1 1", "--colors",
                      "e1", "--specialize", "2", "--format", "json")
    assert (r.returncode, r.stderr) == (0, "")
    doc = json.loads(r.stdout)
    assert doc["value"] == {"num": [[5, "1"], [3, "1"], [1, "1"], [-3, "-1"]],
                            "den": [[0, "1"]]}
    assert doc["meta"]["integral"] is True
