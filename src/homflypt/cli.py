"""Command-line front end.

Subcommands: ``eval`` (invariants of braid closures), ``oracle``
(closed-form reference values), ``recur`` (verify or guess recurrences).
Exit codes: 0 success, 1 verification failure / no operator found,
2 usage error.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .braid import closure_info, is_int_token, parse_braid
from .invariants import (Partition, invariant, torus_reference,
                         trefoil_reference)
from .recurrence import guess, parse_operator, require_window
from .rings import XPoly


class UsageError(Exception):
    pass


def _int(text: str) -> int:
    """An integer token (``is_int_token``) as an int."""
    if not is_int_token(text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type when it refuses a value


def _parse_colors(text: str) -> list[tuple[int, int | Partition]]:
    """Tokens ``e<k>``, ``h<k>``, ``p<parts>`` as pairs: k (0 for ``p``), as
    the meta lists it, and the color k, ``Partition((k,))`` or the parts'."""
    out: list[tuple[int, int | Partition]] = []
    for tok in text.split():
        kind = tok[0]
        if kind == "e" or kind == "h":
            try:
                k = _int(tok[1:])
            except ValueError:
                raise UsageError(f"bad color token {tok!r}") from None
            if k < 0:
                raise UsageError(f"bad color token {tok!r}: colors must be nonnegative")
            out.append((k, k if kind == "e" else Partition((k,))))
        elif kind == "p":
            try:
                parts = [_int(s) for s in tok[1:].split(",")]
            except ValueError:
                raise UsageError(f"bad partition color {tok!r}: parts must be "
                                 "nonnegative integers separated by commas") from None
            try:
                out.append((0, Partition(parts)))
            except ValueError as e:
                raise UsageError(f"bad partition color {tok!r}: {e}") from None
        else:
            raise UsageError(f"bad color token {tok!r} (want e<k>, h<k> or p<parts>)")
    return out


def _emit(value, meta: dict, args) -> None:
    if args.specialize is not None:
        value = value.subst_x_eq_qn(args.specialize)
        meta["specialize"] = args.specialize
        meta["integral"] = value.den.is_one()
    if args.format == "json":
        import json  # only JSON output pays for the import
        body = value.json_obj()
        print(json.dumps({"value": body, "meta": meta}))
    else:
        print(value.text())


def _cmd_eval(args) -> int:
    braid = parse_braid(args.braid, args.strands)
    colors = _parse_colors(args.colors)
    trace = (lambda s: print(s, file=sys.stderr)) if args.trace else None
    value = invariant(braid, [c for _, c in colors], args.framing, trace=trace)
    info = closure_info(braid)
    meta = {"kind": "eval", "strands": braid.strands, "word": list(braid.word),
            "components": info.component_count, "colors": [k for k, _ in colors],
            "linking": [list(r) for r in info.linking],
            "color_spec": args.colors.split(), "framing": args.framing}
    _emit(value, meta, args)
    return 0


def _cmd_oracle(args) -> int:
    if args.which == "trefoil":
        if args.a is None or args.a < 0:
            raise UsageError("oracle trefoil needs --a <nonnegative int>")
        value = trefoil_reference(args.a)
        meta = {"kind": "oracle-trefoil", "a": args.a}
    else:
        if args.s is None or args.m is None or args.m < 0 or args.s < 1:
            raise UsageError("oracle torus needs --s <positive int> and --m <nonnegative int>")
        value = torus_reference(args.s, args.m, zero_framed=args.zero_framed)
        meta = {"kind": "oracle-torus", "s": args.s, "m": args.m,
                "zero_framed": args.zero_framed}
    _emit(value, meta, args)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = _int(lo), _int(hi)
    except ValueError:
        raise UsageError(f"bad range {text!r}; want lo:hi") from None
    if hi < lo or lo < 0:
        raise UsageError(f"bad range {text!r}")
    return lo, hi


def _build_sequence(args, lo: int, hi: int) -> dict[int, XPoly]:
    """W(family_m) for m in [lo, hi]; every component gets the color m."""
    braid = parse_braid(args.braid, args.strands)
    ncomp = closure_info(braid).component_count
    return {m: invariant(braid, (m if args.family == "e" else Partition((m,)),)
                         * ncomp, args.framing)
            for m in range(lo, hi + 1)}


def _cmd_recur(args) -> int:
    lo, hi = _parse_range(args.m_range)
    if args.action == "verify":
        if args.operator_file:
            try:
                with open(args.operator_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as e:
                raise UsageError(f"cannot read operator file {args.operator_file}: "
                                 f"{getattr(e, 'strerror', e)}") from None
        elif args.operator_text:
            text = args.operator_text
        else:
            raise UsageError("recur verify needs --operator FILE or --operator-text STR")
        op = parse_operator(text)
        f = _build_sequence(args, lo, hi + op.order)
        bad = next((m for m in range(lo, hi + 1)
                    if not op.apply(f, m).is_zero()), None)
        if bad is not None:
            print(f"FAIL at m={bad}")
            return 1
        print(f"PASS on m in [{lo},{hi}]")
        return 0
    if args.max_order < 1:
        raise UsageError("--max-order must be at least 1")
    if args.max_m_degree < 0:
        raise UsageError("--max-m-degree must be nonnegative")
    # order 1 comes first and has hi - lo usable start indices
    require_window(hi - lo, 1, args.max_m_degree)
    f = _build_sequence(args, lo, hi)
    op = guess(f, args.max_order, args.max_m_degree)
    if op is None:
        print("no operator found within the given bounds")
        return 1
    print(op.text())
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="homflypt",
        description="Exact colored HOMFLYPT invariants of braid closures in Q(q)[x^±1].")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--specialize", type=_int, default=None, metavar="N",
                       help="substitute x = q^N and print the Q(q) value")
        p.add_argument("--format", choices=("text", "json"), default="text")

    pe = sub.add_parser("eval", help="invariant of a colored braid closure")
    pe.add_argument("--strands", type=_int, required=True)
    pe.add_argument("--braid", default="",
                    help="whitespace-separated signed generators, bottom to top")
    pe.add_argument("--colors", required=True,
                    help="per-component colors ordered by smallest strand: "
                         "e<k> (column), h<k> (row) or p<l1,l2,...> (partition)")
    pe.add_argument("--framing", choices=("blackboard", "zero"), default="blackboard")
    pe.add_argument("--trace", action="store_true",
                    help="log rewrite steps to stderr")
    common(pe)

    po = sub.add_parser("oracle", help="closed-form reference values")
    po.add_argument("which", choices=("trefoil", "torus"))
    po.add_argument("--a", type=_int, default=None, help="trefoil column color")
    po.add_argument("--s", type=_int, default=None, help="torus braid exponent")
    po.add_argument("--m", type=_int, default=None, help="torus row color")
    po.add_argument("--zero-framed", action="store_true")
    common(po)

    pr = sub.add_parser("recur", help="verify or guess recurrences")
    pr.add_argument("action", choices=("verify", "guess"))
    pr.add_argument("--strands", type=_int, required=True)
    pr.add_argument("--braid", default="")
    pr.add_argument("--family", choices=("e", "h"), default="h",
                    help="color family for the sequence index")
    pr.add_argument("--framing", choices=("blackboard", "zero"), default="blackboard")
    pr.add_argument("--m-range", required=True, metavar="LO:HI",
                    help="verify window / guess data window")
    pr.add_argument("--operator", dest="operator_file", default=None)
    pr.add_argument("--operator-text", default=None)
    pr.add_argument("--max-order", type=_int, default=2)
    pr.add_argument("--max-m-degree", type=_int, default=2)

    args = ap.parse_args(argv)
    try:
        if args.cmd == "eval":
            return _cmd_eval(args)
        if args.cmd == "oracle":
            return _cmd_oracle(args)
        return _cmd_recur(args)
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
