"""The benchmark corpus: every case is one ``homflypt`` command line.

A case is named by a label that is unique across the workloads, and stored
as an argv template whose braid word the seed may rotate.  A cyclic rotation of a braid word is a
conjugate, and the invariant of a blackboard-framed closure is conjugation
invariant, so the expected bytes of a case never depend on the seed.  Every
braid here with a nontrivial rotation is a knot, so a rotation cannot change
which component a color is attached to.
"""

from __future__ import annotations

import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OPERATOR_FILE = BENCH_DIR / "trefoil_operator.txt"


def _eval(strands: int, braid: str, colors: str, *extra: str) -> dict:
    return {"cmd": ["eval", "--strands", str(strands)], "braid": braid,
            "rest": ["--colors", colors, *extra]}


def _recur(action: str, strands: int, braid: str, *extra: str) -> dict:
    return {"cmd": ["recur", action, "--strands", str(strands)], "braid": braid,
            "rest": list(extra)}


TREFOIL, FIG8, T25, T24, T34, HOPF = ("1 1 1", "1 -2 1 -2", "1 1 1 1 1",
                                      "1 1 1 1", "1 2 1 2 1 2 1 2", "1 1")

# Column and row colors through homfly_columns: RatQ canonicalization
# dominates, nearly every enumerated term is nonzero.
COLUMNS = {
    "trefoil-e1": _eval(2, TREFOIL, "e1"),
    "trefoil-e2": _eval(2, TREFOIL, "e2"),
    "trefoil-e3": _eval(2, TREFOIL, "e3"),
    "trefoil-e4": _eval(2, TREFOIL, "e4"),
    "fig8-e1": _eval(3, FIG8, "e1"),
    "fig8-e2": _eval(3, FIG8, "e2"),
    "t25-h2": _eval(2, T25, "h2"),
    "hopf-e1-e3": _eval(2, HOPF, "e1 e3"),
    "hopf-e2-e3": _eval(2, HOPF, "e2 e3"),
    "t24-h2-h2": _eval(2, T24, "h2 h2"),
    "t34-e1": _eval(3, T34, "e1"),
    "trefoil-h3-zero-sl2": _eval(2, TREFOIL, "h3", "--framing", "zero",
                                 "--specialize", "2"),
}

# Partition colors through homfly_partition: Jacobi-Trudi cabling
# enumerates far more box terms than survive.
CABLES = {
    "trefoil-p11": _eval(2, TREFOIL, "p1,1"),
    "hopf-p21-h1": _eval(2, HOPF, "p2,1 h1"),
    "hopf-p211-h1": _eval(2, HOPF, "p2,1,1 h1"),
    "hopf-p32-h1": _eval(2, HOPF, "p3,2 h1"),
    "t24-p21-h1": _eval(2, T24, "p2,1 h1"),
    "unknot-p21": _eval(1, "", "p2,1"),
    "unknot-p221": _eval(1, "", "p2,2,1"),
}

# The recurrence toolkit: sparse Laurent products, little engine work.
RECURRENCE = {
    f"unknot-guess-{family}": _recur(
        "guess", 1, "", "--family", family, "--m-range", "0:8",
        "--max-order", "1", "--max-m-degree", "2")
    for family in "eh"
}
RECURRENCE["trefoil-verify-h"] = _recur(
    "verify", 2, TREFOIL, "--family", "h", "--framing", "zero",
    "--m-range", "0:1", "--operator", str(OPERATOR_FILE))

# Every case by its label; a label names one command line in every workload.
CASES = {**COLUMNS, **CABLES, **RECURRENCE,
         "unknot-e1": _eval(1, "", "e1")}

# Labels of each workload.  ``smoke`` runs in a few seconds and serves the
# benchmark's own test; it is not a workload of BENCHMARK.json.
WORKLOADS = {"columns": sorted(COLUMNS), "cables": sorted(CABLES),
             "recurrence": sorted(RECURRENCE),
             "smoke": ["hopf-p21-h1", "trefoil-e1", "unknot-e1"]}


def rotate(word: str, k: int) -> str:
    toks = word.split()
    if not toks:
        return word
    k %= len(toks)
    return " ".join(toks[k:] + toks[:k])


def argv(label: str, rotation: int = 0) -> list[str]:
    """The command line of a case, with its braid word rotated left."""
    case = CASES[label]
    return [*case["cmd"], "--braid", rotate(case["braid"], rotation),
            *case["rest"]]


def plan(workload: str, seed: int) -> list[tuple[str, int]]:
    """(label, rotation) in run order.  The seed shuffles the order, which
    decides which case meets warm q-binomial and framing caches, and picks
    the conjugate of each braid."""
    rng = random.Random(seed)
    labels = list(WORKLOADS[workload])
    rng.shuffle(labels)
    return [(label, rng.randrange(max(1, len(CASES[label]["braid"].split()))))
            for label in labels]
