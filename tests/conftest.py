import pytest

from homflypt import adjust_framing, homfly_columns, parse_braid

TREFOIL = parse_braid("1 1 1", 2)


@pytest.fixture(scope="session")
def trefoil_cols():
    """Engine values W(e_a) of the blackboard trefoil for a = 0..4."""
    return {a: homfly_columns(TREFOIL, (a,)) for a in range(5)}


@pytest.fixture(scope="session")
def trefoil_rows_zero(trefoil_cols):
    """The 0-framed trefoil row sequence W(h_m), m = 0..4."""
    return {m: adjust_framing(trefoil_cols[m], m, -3).q_bar()
            for m in range(5)}
