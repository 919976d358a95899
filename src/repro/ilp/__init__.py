"""ILP substrate: a from-scratch PuLP-style modeler solved by HiGHS.

The paper's brute-force optimum uses the PuLP modeler (Sec. V-A); this
package replaces it offline with an equivalent modeling layer whose
models are solved by :func:`scipy.optimize.milp` (the HiGHS solver
bundled with scipy).
"""

from repro.ilp.export import to_lp_string, write_lp
from repro.ilp.expression import (
    BINARY,
    CONTINUOUS,
    INTEGER,
    Constraint,
    LinExpr,
    Variable,
    lin_sum,
)
from repro.ilp.model import MAXIMIZE, MINIMIZE, Model, Solution

__all__ = [
    "BINARY",
    "CONTINUOUS",
    "Constraint",
    "INTEGER",
    "LinExpr",
    "MAXIMIZE",
    "MINIMIZE",
    "Model",
    "Solution",
    "Variable",
    "lin_sum",
    "to_lp_string",
    "write_lp",
]
