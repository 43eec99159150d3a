"""Record the expected stdout of every benchmark case at the current commit.

    python3 bench/record.py

Runs each case in-process, checks that every distinct rotation of its braid
word prints the same bytes, cross-checks a few cases once against values
computed another way, and writes ``bench/expected.json``.  Run it only when
the CLI output is meant to change; the benchmark itself never rewrites the
file.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import corpus  # noqa: E402
from homflypt import cli, trefoil_recurrence  # noqa: E402


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv}: exit {rc}")
    return buf.getvalue()


def cross_checks(exp: dict) -> list[tuple[str, str, str]]:
    """(case, independent command, its output) triples that must agree."""
    out = []
    for a in range(1, 5):
        out.append((f"trefoil-e{a}", f"oracle trefoil --a {a}",
                    stdout_of(["oracle", "trefoil", "--a", str(a)])))
    out.append(("t25-h2", "oracle torus --s 5 --m 2",
                stdout_of(["oracle", "torus", "--s", "5", "--m", "2"])))
    out.append(("t24-h2-h2", "oracle torus --s 4 --m 2",
                stdout_of(["oracle", "torus", "--s", "4", "--m", "2"])))
    out.append(("trefoil-p11", "trefoil-e2", exp["trefoil-e2"]))
    return out


def main() -> int:
    op_text = corpus.OPERATOR_FILE.read_text(encoding="utf-8").strip()
    if op_text != trefoil_recurrence().text():
        raise SystemExit(f"{corpus.OPERATOR_FILE} is not trefoil_recurrence()")
    exp: dict[str, str] = {}
    for label, case in sorted(corpus.CASES.items()):
        n = max(1, len(case["braid"].split()))
        words = {corpus.rotate(case["braid"], k): k for k in range(n)}
        outs = {stdout_of(corpus.argv(label, k)) for k in words.values()}
        if len(outs) != 1:
            raise SystemExit(f"{label}: rotations disagree")
        exp[label] = outs.pop()
        print(f"recorded {label} ({len(words)} rotation(s))")
    for label, source, value in cross_checks(exp):
        if exp[label] != value:
            raise SystemExit(f"{label} disagrees with {source}")
        print(f"{label} agrees with {source}")
    (BENCH_DIR / "expected.json").write_text(
        json.dumps(exp, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
