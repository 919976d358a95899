"""The brute-force exact solver (``Brtf`` in the figures).

The paper obtains its optimum "by brute-force" with the PuLP modeler
(Sec. V-A), iterating the per-chunk problem of Eq. 8: solve one chunk's
ConFL ILP exactly with the current fairness/contention costs, commit, and
continue — exactly the iteration scheme Theorem 1 analyses, so the
empirical ratio ``Appx / Brtf`` is the quantity bounded by 6.55.

Solution methods (``method=``):

* ``"local"`` (default) — multi-start add/drop/swap local search with
  exact Dreyfus–Wagner Steiner pricing
  (:mod:`repro.exact.local_search`).  Matches the enumeration optimum on
  every instance small enough to enumerate (verified in the test suite)
  and is the only method fast enough for the paper's 4×4/6×6 figures
  (see EXPERIMENTS.md).
* ``"multiflow"`` — the provably exact MILP of Eqs. 3–7 with a
  multicommodity-flow encoding of Eq. 6
  (:func:`~repro.exact.ilp_formulation.build_chunk_model`), solved by
  HiGHS.

The test suite cross-checks the MILP, the local search, and a
subset-enumeration brute force (:mod:`repro.exact.brute_force`) on tiny
instances.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SolverError
from repro.core.commit import commit_chunk
from repro.core.confl import build_confl_instance
from repro.core.placement import CachePlacement, ChunkPlacement, edge_key
from repro.core.problem import CachingProblem, ProblemState
from repro.exact.ilp_formulation import build_chunk_model

ALGORITHM_NAME = "bruteforce"


def solve_exact_chunk(
    state: ProblemState,
    chunk: int,
    time_limit: Optional[float] = None,
    method: str = "local",
) -> ChunkPlacement:
    """Optimally place one chunk under the current storage state."""
    instance = build_confl_instance(state)
    if method == "local":
        from repro.core.dual_ascent import dual_ascent
        from repro.exact.local_search import optimize_chunk_local

        warm_start = dual_ascent(instance).admins
        caches, assignment, tree_edges, _ = optimize_chunk_local(
            instance, starts=[warm_start]
        )
    elif method == "multiflow":
        chunk_model = build_chunk_model(instance, name=f"confl_chunk{chunk}")
        solution = chunk_model.model.solve(time_limit=time_limit)
        caches, assignment, tree_edges = chunk_model.extract(solution)
    else:
        raise SolverError(f"unknown exact method {method!r}")
    return commit_chunk(
        state,
        chunk,
        caches,
        assignment=assignment,
        tree_edges=frozenset(edge_key(u, v) for u, v in tree_edges),
    )


def solve_exact(
    problem: CachingProblem,
    time_limit_per_chunk: Optional[float] = None,
    method: str = "local",
) -> CachePlacement:
    """Run the iterated exact solver over all chunks of ``problem``.

    Parameters
    ----------
    time_limit_per_chunk:
        Optional HiGHS wall-clock limit per chunk MILP
        (``method="multiflow"``); a chunk that hits it raises
        :class:`~repro.errors.SolverError`.
    method:
        ``"local"`` (default; enumeration-verified local search) or
        ``"multiflow"`` (exact MILP).

    Warning: still exponential in the worst case — the paper notes brute
    force "fails to obtain results within meaningful time" beyond ~100
    nodes.
    """
    state = problem.new_state()
    placements: List[ChunkPlacement] = []
    for chunk in problem.chunks:
        placements.append(
            solve_exact_chunk(
                state,
                chunk,
                time_limit=time_limit_per_chunk,
                method=method,
            )
        )
    return CachePlacement(
        problem=problem, chunks=placements, algorithm=ALGORITHM_NAME
    )
