"""Event-driven dual ascent vs the per-pair reference loop at scale.

The tier-1 suite compares :func:`repro.core.dual_ascent.dual_ascent`
with the reference loop in ``tests/dual_ascent_reference.py`` on
topologies of up to ~150 nodes.  This bench runs Algorithm 1 on a
200-node random geometric network with 5 chunks, once as shipped and
once with the reference loop patched in, and asserts that the placement
JSON, every ``dual_ascent.*`` counter and every per-chunk ascent result
(freeze-time assignment, bids and payments included) are byte-identical.
Timing covers the shipped solve only.
"""

import importlib
import json

import pytest

from repro.core import solve_approximation
from repro.io import placement_to_dict
from repro.obs import Recorder, use_recorder
from repro.workloads import random_problem
from tests.dual_ascent_reference import (
    reference_dual_ascent,
    result_fingerprint,
)

NODES = 200
NUM_CHUNKS = 5


def _solve(problem, ascent):
    """Alg. 1 with ``ascent`` as phase 1: the placement as canonical
    JSON, the ``dual_ascent.*`` counters and each ascent's result."""
    approximation = importlib.import_module("repro.core.approximation")
    results = []

    def recorded(instance, config):
        result = ascent(instance, config)
        results.append(result_fingerprint(result))
        return result

    rec = Recorder()
    with pytest.MonkeyPatch.context() as patch, use_recorder(rec):
        patch.setattr(approximation, "dual_ascent", recorded)
        placement = solve_approximation(problem)
    counters = {
        name: value
        for name, value in rec.dump()["counters"].items()
        if name.startswith("dual_ascent.")
    }
    placement_json = json.dumps(placement_to_dict(placement), sort_keys=True)
    return placement_json, counters, results


def test_dual_ascent_matches_reference_at_200_nodes(benchmark):
    problem, _ = random_problem(NODES, seed=2017, num_chunks=NUM_CHUNKS)
    approximation = importlib.import_module("repro.core.approximation")
    placement, counters, results = benchmark.pedantic(
        _solve, args=(problem, approximation.dual_ascent),
        rounds=1, iterations=1,
    )
    reference = _solve(problem, reference_dual_ascent)
    assert placement == reference[0]
    assert counters == reference[1]
    assert results == reference[2]
    assert counters["dual_ascent.runs"] == NUM_CHUNKS
    assert counters["dual_ascent.admins_opened"] > 0
