"""Exact colored HOMFLYPT invariants of framed braid closures.

Values live in Q(q)[x^{±1}]; substituting x = q^n recovers the sl_n
quantum invariant in its integral normalization.  All arithmetic is exact.
"""

from .braid import (Braid, BraidError, Cable, ClosureInfo, cable, closure_info,
                    parse_braid)
from .invariants import (Partition, adjust_framing, homfly_columns,
                         homfly_partition, invariant, torus_reference,
                         trefoil_reference)
from .ladder import Letter, build_cap, build_cup, crossing_sums, enumerate_terms
from .pbw import Evaluator
from .qcomb import qbinom, qfactorial, qint, xbinom
from .recurrence import (OperatorError, RecurrenceOperator, guess,
                         parse_operator, parse_xpoly, trefoil_recurrence)
from .rings import LaurentQ, RatQ, XPoly, laurent_gcd, xpoly_divexact, xpoly_gcd

__version__ = "0.1.0"

__all__ = [
    "Braid", "BraidError", "Cable", "ClosureInfo", "Evaluator",
    "LaurentQ", "Letter", "OperatorError", "Partition", "RatQ",
    "RecurrenceOperator", "XPoly", "adjust_framing", "build_cap",
    "build_cup", "cable", "closure_info", "crossing_sums",
    "enumerate_terms", "guess", "homfly_columns", "homfly_partition",
    "invariant", "laurent_gcd", "parse_braid", "parse_operator",
    "parse_xpoly", "qbinom", "qfactorial", "qint", "torus_reference",
    "trefoil_recurrence", "trefoil_reference", "xbinom", "xpoly_divexact",
    "xpoly_gcd",
]
