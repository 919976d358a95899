"""The HiGHS call behind :meth:`~repro.ilp.model.Model.solve`.

:func:`solve_with_highs` hands a :class:`~repro.ilp.model._MatrixForm`
to :func:`scipy.optimize.milp` and returns a raw tuple ``(status, x,
objective, nodes_explored)`` with status in ``{"optimal", "infeasible",
"unbounded"}``; the model layer turns that into exceptions /
:class:`~repro.ilp.model.Solution`.  Any other HiGHS outcome (a time or
iteration limit) raises :class:`~repro.errors.SolverError`.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import SolverError

RawResult = Tuple[str, Optional[np.ndarray], Optional[float], int]


@contextlib.contextmanager
def _silence_native_stdout() -> Iterator[None]:
    """Redirect C-level stdout to /dev/null for the duration.

    HiGHS (inside scipy) prints debug lines directly to the process's
    stdout, bypassing Python's ``sys.stdout``; an fd-level redirect is the
    only way to keep solver runs quiet.
    """
    try:
        stdout_fd = os.dup(1)
    except OSError:  # pragma: no cover - no real stdout (embedded etc.)
        yield
        return
    try:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), 1)
            try:
                yield
            finally:
                os.dup2(stdout_fd, 1)
    finally:
        os.close(stdout_fd)


def solve_with_highs(form, time_limit: Optional[float] = None) -> RawResult:
    """Solve via :func:`scipy.optimize.milp` (HiGHS)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = form.c.shape[0]
    constraints = []
    if form.A_ub is not None:
        constraints.append(
            LinearConstraint(form.A_ub, -np.inf * np.ones(form.b_ub.shape), form.b_ub)
        )
    if form.A_eq is not None:
        constraints.append(LinearConstraint(form.A_eq, form.b_eq, form.b_eq))

    lower = np.array(
        [(-np.inf if lb is None else lb) for lb, _ in form.bounds], dtype=float
    )
    upper = np.array(
        [(np.inf if ub is None else ub) for _, ub in form.bounds], dtype=float
    )
    options = {}
    if time_limit is not None:
        options["time_limit"] = time_limit

    with _silence_native_stdout():
        result = milp(
            c=form.c,
            constraints=constraints or None,
            integrality=form.integrality,
            bounds=Bounds(lower, upper),
            options=options,
        )
    if result.status == 0:
        return "optimal", np.asarray(result.x), float(result.fun), int(
            getattr(result, "mip_node_count", 0) or 0
        )
    if result.status == 2:
        return "infeasible", None, None, 0
    if result.status == 3:
        return "unbounded", None, None, 0
    # Timeouts / iteration limits: surface the best message we have.
    raise SolverError(f"HiGHS failed: {result.message}")

