import pytest

from homflypt import (ColoredBraid, Evaluator, adjust_framing, homfly_columns,
                      parse_braid)

TREFOIL = parse_braid("1 1 1", 2)

# The first Evaluator raises the interpreter's recursion limit for the whole
# process.  Raise it before any test runs, so that hypothesis does not see it
# change inside a property test and warn that it cannot restore it.
Evaluator(2)


@pytest.fixture(scope="session")
def trefoil_cols():
    """Engine values W(e_a) of the blackboard trefoil for a = 0..4."""
    return {a: homfly_columns(ColoredBraid(TREFOIL, (a,))) for a in range(5)}


@pytest.fixture(scope="session")
def trefoil_rows_zero(trefoil_cols):
    """The 0-framed trefoil row sequence W(h_m), m = 0..4."""
    return {m: adjust_framing(trefoil_cols[m].q_bar(), m, -3, row=True)
            for m in range(5)}
