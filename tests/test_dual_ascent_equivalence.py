"""The event-driven dual ascent against the per-pair reference loop.

:func:`repro.core.dual_ascent.dual_ascent` must give byte-identical
results and telemetry to :func:`tests.dual_ascent_reference.reference_dual_ascent`:
the same ADMIN order, assignment order, bids, rounds, payments and SPAN
counts, the same ``dual_ascent.*`` counters, trace instants and series
points.  Every topology runs 5 chunks through :func:`commit_chunk`, so
later chunks see the fairness feedback of earlier ones, under every
``(step, span_threshold)`` pair below.
"""

from __future__ import annotations

import __future__
import importlib
import inspect
import os
from typing import Any, Dict, List, Tuple
from unittest import mock

import pytest

from repro.analysis import contracts
from repro.core import CachingProblem, DualAscentConfig, build_confl_instance
from repro.core import dual_ascent as new_dual_ascent
from repro.core.commit import commit_chunk
from repro.graphs import path_graph, star_graph
from repro.obs import Tracer, use_recorder, use_tracer
from repro.obs.timeseries import SeriesRecorder
from repro.workloads import grid_problem, random_problem
from tests import dual_ascent_reference
from tests.dual_ascent_reference import (
    reference_dual_ascent,
    result_fingerprint,
)

NUM_CHUNKS = 5
CONFIGS = [
    DualAscentConfig(step=step, span_threshold=threshold)
    for step in (1.0, 0.37, 5.0)
    for threshold in (1, 3, 6, None)
]


def _rgg(nodes: int, seed: int, capacity: int, **kwargs) -> CachingProblem:
    problem, _ = random_problem(
        nodes, seed=seed, num_chunks=NUM_CHUNKS, capacity=capacity, **kwargs
    )
    return problem


def _graph_problem(graph, capacity: int = 5) -> CachingProblem:
    return CachingProblem(
        graph=graph, producer=0, num_chunks=NUM_CHUNKS, capacity=capacity
    )


TOPOLOGIES: Dict[str, Any] = {
    # Seeded random geometric graphs, 8-100 nodes.
    "rgg8-s1-cap1": lambda: _rgg(8, 1, 1),
    "rgg8-s2-cap5": lambda: _rgg(8, 2, 5),
    "rgg15-s3-cap1": lambda: _rgg(15, 3, 1),
    "rgg25-s4-cap5": lambda: _rgg(25, 4, 5, dissemination_scale=2.0),
    "rgg40-s5-cap1": lambda: _rgg(40, 5, 1),
    "rgg60-s6-cap5": lambda: _rgg(60, 6, 5),
    "rgg100-s7-cap5": lambda: _rgg(100, 7, 5),
    # Grids: unit weights give many equal c_ij, which exercises the
    # (c_ij, facility order) tie-break.  A dissemination scale other
    # than 1 (here and on rgg25) makes ``span_threshold=None`` differ
    # from 1.
    "grid2": lambda: grid_problem(2, num_chunks=NUM_CHUNKS),
    "grid3-cap1": lambda: grid_problem(3, num_chunks=NUM_CHUNKS, capacity=1),
    "grid4": lambda: grid_problem(4, num_chunks=NUM_CHUNKS),
    "grid5-cap1": lambda: grid_problem(5, num_chunks=NUM_CHUNKS, capacity=1),
    "grid6": lambda: grid_problem(6, num_chunks=NUM_CHUNKS),
    "grid8": lambda: grid_problem(
        8, num_chunks=NUM_CHUNKS, dissemination_scale=4.0
    ),
    "grid12": lambda: grid_problem(12, num_chunks=NUM_CHUNKS),
    # Lines and stars.
    "line2": lambda: _graph_problem(path_graph(2)),
    "line9-cap1": lambda: _graph_problem(path_graph(9), capacity=1),
    "line16": lambda: _graph_problem(path_graph(16)),
    "star6": lambda: _graph_problem(star_graph(6)),
    "star12-cap1": lambda: _graph_problem(star_graph(12), capacity=1),
    # Capacity 0: every facility set is empty.
    "grid4-cap0": lambda: grid_problem(4, num_chunks=NUM_CHUNKS, capacity=0),
    "rgg20-s8-cap0": lambda: _rgg(20, 8, 0),
}


def _telemetry(rec: SeriesRecorder, tracer: Tracer) -> Tuple[Any, ...]:
    counters = {
        name: value
        for name, value in rec.dump()["counters"].items()
        if name.startswith("dual_ascent.")
    }
    series = {
        name: (rec.series(name).kind, list(rec.series(name).points))
        for name in rec.series_names()
        if name.startswith("dual_ascent.")
    }
    instants = [
        (event.name, event.ph, event.track, event.args)
        for event in tracer.events
        if event.name.startswith("dual_ascent.")
    ]
    return counters, series, instants


def _run_chained(problem: CachingProblem, config: DualAscentConfig):
    """Both ascents on each of the problem's chunks, chained by commits.

    Returns per-chunk fingerprints and the telemetry of each side.
    """
    state = problem.new_state()
    sides = [
        (new_dual_ascent, SeriesRecorder(), Tracer()),
        (reference_dual_ascent, SeriesRecorder(), Tracer()),
    ]
    fingerprints: List[List[str]] = [[], []]
    for chunk in problem.chunks:
        instance = build_confl_instance(state)
        results = []
        for side, (solve, rec, tracer) in enumerate(sides):
            with use_recorder(rec), use_tracer(tracer):
                result = solve(instance, config)
            fingerprints[side].append(result_fingerprint(result))
            results.append(result)
        # The commit's own sanitizer rebuilds every cost row per cached
        # copy; it has its own tests, so it is off here.
        with mock.patch.dict(os.environ, {contracts.ENV_VAR: "0"}):
            commit_chunk(state, chunk, list(results[0].admins))
    telemetry = [_telemetry(rec, tracer) for _, rec, tracer in sides]
    return fingerprints, telemetry


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_matches_reference_loop(name):
    problem = TOPOLOGIES[name]()
    for config in CONFIGS:
        fingerprints, telemetry = _run_chained(problem, config)
        context = f"{name}, {config!r}"
        for chunk, (got, want) in enumerate(zip(*fingerprints)):
            assert got == want, f"{context}: chunk {chunk} result differs"
        (counters, series, instants), (ref_counters, ref_series, ref_instants) = (
            telemetry
        )
        assert counters == ref_counters, context
        assert series == ref_series, context
        assert instants == ref_instants, context


def test_telemetry_is_compared():
    # Guard against a vacuous comparison: the chained runs above do
    # record counters, instants of both kinds and every series.
    _, telemetry = _run_chained(TOPOLOGIES["grid6"](), DualAscentConfig())
    counters, series, instants = telemetry[0]
    assert counters["dual_ascent.runs"] == NUM_CHUNKS
    assert counters["dual_ascent.admins_opened"] > 0
    assert set(series) == {
        "dual_ascent.objective",
        "dual_ascent.frozen",
        "dual_ascent.admins",
        "dual_ascent.unserved",
    }
    assert {name for name, *_ in instants} == {
        "dual_ascent.round",
        "dual_ascent.admin_open",
    }


def test_empty_facility_set_freezes_onto_producer():
    problem = TOPOLOGIES["grid4-cap0"]()
    instance = build_confl_instance(problem.new_state())
    assert instance.facilities == ()
    result = new_dual_ascent(instance)
    assert result.admins == []
    assert set(result.assignment.values()) == {problem.producer}
    assert result_fingerprint(result) == result_fingerprint(
        reference_dual_ascent(instance)
    )


class TestShadowCheck:
    """The suite-wide shadow check (``tests/conftest.py``): every small
    dual ascent is byte-compared with the reference loop."""

    def test_fires_on_small_solves(self):
        from repro.core import solve_approximation

        _require_sanitizer()
        calls = []
        real = dual_ascent_reference.shadow_check

        def spy(instance, config, result):
            calls.append(len(instance.clients))
            real(instance, config, result)

        problem = grid_problem(4, num_chunks=3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual_ascent_reference, "shadow_check", spy)
            solve_approximation(problem)
        assert calls == [15, 15, 15], "sanitizer cross-check did not fire"

    def test_skipped_above_cap(self):
        from repro.core import solve_approximation

        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual_ascent_reference, "SHADOW_MAX_CLIENTS", 10)
            patch.setattr(
                dual_ascent_reference,
                "shadow_check",
                lambda instance, config, result: calls.append(instance),
            )
            solve_approximation(grid_problem(4, num_chunks=2))
        assert not calls

    def test_divergence_raises(self):
        instance = build_confl_instance(grid_problem(4).new_state())
        result = new_dual_ascent(instance)
        result.rounds += 1
        with pytest.raises(AssertionError, match="dual-ascent-equivalence"):
            dual_ascent_reference.shadow_check(
                instance, DualAscentConfig(), result
            )

    def test_perturbed_event_loop_fails_shadow(
        self, dual_ascent_reference_shadow
    ):
        # Canary: an event loop whose cheapest-open-server update lets
        # the latest ADMIN win cost ties (instead of the first of
        # [producer] + admins) must trip the suite-wide check.
        from repro.core import solve_approximation

        _require_sanitizer()
        dual_ascent_reference_shadow.solve = _mutant(
            dual_ascent_reference_shadow.solve,
            "if cost < best_cost[j]:",
            "if cost <= best_cost[j]:",
        )
        with pytest.raises(AssertionError, match="dual-ascent-equivalence"):
            solve_approximation(grid_problem(6, num_chunks=5))


def _mutant(function, old: str, new: str):
    """``function`` recompiled with one source fragment replaced."""
    source = inspect.getsource(function)
    assert source.count(old) == 1, "mutation target not found"
    namespace = dict(vars(importlib.import_module(function.__module__)))
    code = compile(
        source.replace(old, new),
        inspect.getfile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    exec(code, namespace)
    return namespace[function.__name__]


def _require_sanitizer() -> None:
    if not contracts.sanitize_enabled():
        pytest.skip("the shadow check runs only with REPRO_SANITIZE on")
